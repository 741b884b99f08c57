"""Command-line runner for SDL programs.

Usage::

    python -m repro run PROGRAM.sdl --start Main [--start "Worker(1, x)"] \\
        [--data TUPLES.txt] [--seed 7] [--max-steps N] [--trace] [--profile] \\
        [--metrics-out METRICS.prom|.json] [--trace-out SPANS.jsonl]

``--metrics-out`` / ``--trace-out`` enable the runtime observability layer
(:mod:`repro.obs`) and write the metrics registry (Prometheus text, or JSON
when the path ends in ``.json``) and the span trace (JSONL) after the run.
Setting the ``SDL_OBS`` environment variable enables the layer without
writing files (the run summary then reports per-site observation counts).

    python -m repro check PROGRAM.sdl          # parse/compile only
    python -m repro pretty PROGRAM.sdl         # reformat a program

The ``--data`` file holds one initial tuple per line in surface-literal
form, e.g.::

    # comments and blank lines are ignored
    year, 87
    year, 90
    item, "payload", 3.5
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.core.values import Atom
from repro.errors import SDLError
from repro.lang import compile_program, pretty_process
from repro.runtime.engine import Engine
from repro.runtime.events import Trace
from repro.viz import render_dataspace, render_profile, render_timeline

__all__ = ["main"]


def _parse_value(token: str) -> Any:
    token = token.strip()
    if not token:
        raise SDLError("empty tuple field")
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return Atom(token)


def _load_tuples(path: str) -> list[tuple]:
    rows: list[tuple] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append(tuple(_parse_value(field) for field in line.split(",")))
            except SDLError as exc:
                raise SDLError(f"{path}:{line_no}: {exc}") from exc
    return rows


def _parse_start(spec: str) -> tuple[str, tuple]:
    """``"Main"`` or ``"Worker(1, x)"`` -> (name, args)."""
    spec = spec.strip()
    if "(" not in spec:
        return spec, ()
    if not spec.endswith(")"):
        raise SDLError(f"malformed --start {spec!r}")
    name, inner = spec[:-1].split("(", 1)
    args = tuple(_parse_value(f) for f in inner.split(",")) if inner.strip() else ()
    return name.strip(), args


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.core.validate import validate_program

    source = open(args.program).read()
    definitions = compile_program(source)
    issues = validate_program(definitions.values())
    for issue in issues:
        print(issue)
    errors = sum(1 for i in issues if i.severity == "error")
    print(
        f"{'ok' if not errors else 'FAILED'}: "
        f"{len(definitions)} process definition(s): "
        + ", ".join(sorted(definitions))
        + (f"; {len(issues)} issue(s), {errors} error(s)" if issues else "")
    )
    return 0 if not errors else 1


def _cmd_pretty(args: argparse.Namespace) -> int:
    source = open(args.program).read()
    definitions = compile_program(source)
    blocks = [pretty_process(d) for d in definitions.values()]
    print("\n\n".join(blocks))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    source = open(args.program).read()
    definitions = compile_program(source)
    trace = Trace(detail=args.trace or args.profile)
    # Either output flag switches observability on; otherwise leave the
    # engine to consult SDL_OBS (None = env default).
    obs = True if (args.metrics_out or args.trace_out) else None
    engine = Engine(
        definitions=definitions.values(),
        seed=args.seed,
        trace=trace,
        on_deadlock="return",
        commit=args.commit,
        validate=args.validate,
        faults=args.faults,
        obs=obs,
        plan=args.plan,
        shards=args.shards,
        store=args.store,
        workers=args.workers,
        wal_dir=args.wal_dir,
        worker_timeout=args.worker_timeout,
        admit=args.admit,
    )
    if args.data:
        engine.assert_tuples(_load_tuples(args.data))
    if not args.start:
        raise SDLError("give at least one --start PROCESS[(args)]")
    for spec in args.start:
        name, start_args = _parse_start(spec)
        engine.start(name, start_args)

    try:
        result = engine.run(max_steps=args.max_steps)
    except SDLError as exc:  # a runtime failure, not a usage error: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = (
        f"{result.reason}: {result.commits} commits, "
        f"{result.consensus_rounds} consensus, {result.rounds} rounds, "
        f"{result.steps} steps"
    )
    if result.crashes or result.restarts:
        summary += f", {result.crashes} crashes, {result.restarts} restarts"
    if result.plan_hits or result.plan_misses:
        summary += (
            f", plan cache {result.plan_hits}/"
            f"{result.plan_hits + result.plan_misses} hits"
        )
    if result.wal_frames or result.wal_segments:
        summary += (
            f", wal {result.wal_frames} frames / "
            f"{result.wal_segments} checkpoint segments"
        )
    if result.admit_tasks or result.admit_fallbacks:
        summary += (
            f", admit {result.admit_candidates} on workers / "
            f"{result.admit_fallbacks} serial fallbacks"
        )
    if result.worker_timeouts or result.worker_retries or result.worker_quarantined:
        summary += (
            f", workers {result.worker_timeouts} timeouts / "
            f"{result.worker_retries} retries / "
            f"{result.worker_quarantined} quarantined"
        )
    print(summary)
    if result.reason == "deadlock":
        for line in result.deadlocked:
            print("  blocked:", line)
    if engine.obs is not None:
        if args.metrics_out:
            engine.obs.write_metrics(args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
        if args.trace_out:
            retained = engine.obs.write_trace(args.trace_out)
            print(f"trace written to {args.trace_out} ({retained} spans)")
    print()
    print(render_dataspace(engine.dataspace, limit=args.limit))
    if args.trace:
        print()
        print(render_timeline(trace, limit=args.limit))
    if args.profile:
        print()
        print(render_profile(trace))
    return 0 if result.reason == "completed" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, check, or pretty-print SDL programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and compile a program")
    check.add_argument("program")
    check.set_defaults(func=_cmd_check)

    pretty = sub.add_parser("pretty", help="reformat a program")
    pretty.add_argument("program")
    pretty.set_defaults(func=_cmd_pretty)

    run = sub.add_parser("run", help="execute a program")
    run.add_argument("program")
    run.add_argument("--start", action="append", default=[],
                     help="process to start, e.g. Main or 'Worker(1, x)' (repeatable)")
    run.add_argument("--data", help="file of initial tuples, one per line")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-steps", type=int, default=1_000_000)
    run.add_argument("--limit", type=int, default=40, help="output rows to show")
    run.add_argument("--trace", action="store_true", help="print the event timeline")
    run.add_argument("--profile", action="store_true", help="print commits per round")
    run.add_argument("--commit", choices=["live", "serial", "group"], default=None,
                     help="round commit discipline (default: SDL_COMMIT or live)")
    run.add_argument("--validate", choices=["serial"], default=None,
                     help="cross-check group rounds against a serial replay")
    run.add_argument("--plan", choices=["on", "off"], default=None,
                     help="cost-based query planner (default: SDL_PLAN or on)")
    run.add_argument("--shards", default=None, metavar="SPEC",
                     help="dataspace storage layout: 'single', an integer N, "
                          "or 'head:N' (default: SDL_SHARDS or single)")
    run.add_argument("--store", choices=["object", "columnar"], default=None,
                     help="per-shard storage backend: per-tuple objects or "
                          "struct-of-arrays columns (default: SDL_STORE or "
                          "object)")
    run.add_argument("--workers", default=None, metavar="SPEC",
                     help="parallel group-round apply: an integer N, "
                          "'process:N', or 'thread:N' (default: SDL_WORKERS "
                          "or serial; needs --commit group and --shards N)")
    run.add_argument("--admit", choices=["serial", "parallel"], default=None,
                     help="group-round admission evaluation: serial on the "
                          "main process, or match evaluation on the worker "
                          "pool over cached shard snapshots (default: "
                          "SDL_ADMIT or serial; needs --commit group, "
                          "--workers N, and --shards N)")
    run.add_argument("--faults", default=None, metavar="PLAN",
                     help="fault-injection plan, e.g. "
                          "'seed=7; pre-commit:crash:name=W:at=2' "
                          "(default: SDL_FAULTS)")
    run.add_argument("--wal-dir", default=None, metavar="DIR",
                     help="persist checkpoints and the WAL as checksummed "
                          "segment files in DIR (default: SDL_WAL_DIR or "
                          "no recovery log)")
    run.add_argument("--worker-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-batch worker-pool join deadline; a miss "
                          "quarantines the group to serial apply (default: "
                          "SDL_WORKER_TIMEOUT or no deadline)")
    run.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="enable observability and write run metrics here "
                          "(Prometheus text, or JSON if PATH ends in .json)")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="enable observability and write the span trace "
                          "here as JSONL")
    run.set_defaults(func=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SDLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
