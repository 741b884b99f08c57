"""The end-to-end benchmark: whole programs, closed loop, one process each.

    python3 benchmarks/e2e/run.py --seed S [--out FILE]
        every workload, end-to-end metrics (tracing off) and then the
        per-layer metrics (one traced repetition), each in a fresh child
        interpreter; prints every metric with its unit, writes FILE.
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
        one workload, one mode, in this process; the last line of standard
        output is one JSON object (the contract of BENCHMARK.json).
    python3 benchmarks/e2e/run.py --compare A.json B.json
        B against A, metric by metric, with the bounds of BENCHMARK.json.

A run of one workload is one untimed warm-up repetition, then measured
repetitions until ``--seconds`` of ``Engine.run()`` time have been spent
(never fewer than three).  Every repetition does the same work (see
``workloads.py``), so what differs between them is interference from the
rest of the machine, which only ever adds time: throughput is commits /
``Engine.run()`` seconds of the fastest repetition, and set-up time the
median over at least fifteen set-ups.  README.md here has the glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"
SPEC_PATH = REPO / "BENCHMARK.json"

MIN_REPS = 3
SETUP_SAMPLES = 15
#: Fields that must be equal, not merely close, between two runs of one seed.
EXACT_COUNTS = ("commits", "rounds", "steps", "parallelism")

for _path in (str(HERE), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------

@dataclass
class Rep:
    """What one repetition measured; ``problems`` is empty when it passed."""

    setup_s: float = 0.0
    run_s: float = 0.0
    result: Any = None
    problems: list[str] = field(default_factory=list)
    notes: dict[str, float] = field(default_factory=dict)


def set_up(workload, inputs: dict[str, Any]) -> tuple[Any, str | None, float]:
    """The timed set-up: WAL directory, engine, dataspace, society.

    Returns ``(engine, workdir, seconds)``; hand the first two to
    :func:`discard` afterwards.  The WAL directory is inside the checkout.
    """
    gc.collect()
    start = time.perf_counter()
    workdir = None
    if workload.wal:
        OUT.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="wal-", dir=OUT)
    try:
        engine = workload.build(inputs, workdir)
    except Exception:
        discard(None, workdir)
        raise
    return engine, workdir, time.perf_counter() - start


def discard(engine, workdir: str | None) -> None:
    """Release what a built engine holds: WAL file handle and directory."""
    if engine is not None and engine.recovery is not None:
        engine.recovery.close()
    if workdir is not None:
        shutil.rmtree(workdir, ignore_errors=True)


def run_rep(workload, inputs: dict[str, Any], tracer=None) -> Rep:
    """Set up, run and check *workload* once; a raised error fails the rep."""
    rep = Rep()
    engine = workdir = None
    # The tracer goes in before set-up, so that Dataspace.subscribe is seen;
    # it records nothing outside Engine.run().
    with tracer if tracer is not None else nullcontext():
        try:
            engine, workdir, rep.setup_s = set_up(workload, inputs)
            start = time.perf_counter()
            rep.result = engine.run()
            rep.run_s = time.perf_counter() - start
            rep.problems = workload.check(engine, rep.result, inputs, workdir, rep.notes)
        except Exception:
            rep.problems = [traceback.format_exc(limit=4).strip().splitlines()[-1]]
        finally:
            discard(engine, workdir)
    return rep


def time_setup(workload, inputs: dict[str, Any]) -> float:
    """One more set-up sample: build the engine and throw it away."""
    engine, workdir, seconds = set_up(workload, inputs)
    discard(engine, workdir)
    return seconds


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    scale: str = "full", min_reps: int = MIN_REPS,
) -> dict[str, Any]:
    """Measure one workload in this process; see the module docstring."""
    from workloads import SCALES, WORKLOADS, resolved_config

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, SCALES[scale])
    out: dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "program": workload.program, "size": workload.size.format(**SCALES[scale]),
        "config": resolved_config(workload),
    }
    if workload.wal:
        out["wal_sync"] = "always"  # DurableLog's default; Engine exposes no knob
    try:
        run_rep(workload, inputs)  # warm-up: imports, caches, lazy set-up
        if trace:
            _measure_layers(workload, inputs, out)
        else:
            _measure_end_to_end(workload, inputs, seconds, min_reps, out)
    finally:
        from repro.runtime.parallel import shutdown_workers

        shutdown_workers()
    out["correct"] = out["failed"] == 0
    return out


def _counts(result) -> dict[str, float]:
    return {"commits": result.commits, "rounds": result.rounds,
            "steps": result.steps, "parallelism": result.parallelism}


def _failures(reps: list[Rep], out: dict[str, Any]) -> list[Rep]:
    """Record attempted/failed; return the repetitions that passed."""
    passed = [rep for rep in reps if not rep.problems]
    out["attempted"] = len(reps)
    out["failed"] = len(reps) - len(passed)
    out["errors"] = sorted({p for rep in reps for p in rep.problems})
    return passed


def _measure_end_to_end(workload, inputs, seconds: float, min_reps: int, out: dict[str, Any]) -> None:
    reps: list[Rep] = []
    while len(reps) < min_reps or sum(rep.run_s for rep in reps) < seconds:
        reps.append(run_rep(workload, inputs))
        if reps[-1].problems and len(reps) >= min_reps:
            break  # a failing workload need not fill the time budget
    passed = _failures(reps, out)
    setups = [rep.setup_s for rep in passed]
    # Sub-millisecond set-ups need more samples for a steady median.
    while passed and (
        len(setups) < SETUP_SAMPLES or (sum(setups) < 0.2 and len(setups) < 10 * SETUP_SAMPLES)
    ):
        setups.append(time_setup(workload, inputs))
    rates = [rep.result.commits / rep.run_s for rep in passed]
    counts = [_counts(rep.result) for rep in passed]
    if any(c != counts[0] for c in counts):
        out["failed"] = out["attempted"]
        out["errors"].append("repetitions of one input disagree on commits/rounds/steps")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["counts"] = counts[0] if counts else {}
    out["samples"] = {"commits_per_s": rates, "setup_s": setups,
                      "run_s": [rep.run_s for rep in passed]}
    out["metrics"] = {
        "commits_per_s": _metric(max(rates, default=0.0), "commits/s"),
        "setup_s": _metric(statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        "parallelism": _metric(out["counts"].get("parallelism", 0.0), "commits/round"),
        "failed_share": _metric(out["failed"] / out["attempted"], "ratio"),
    }


def _measure_layers(workload, inputs, out: dict[str, Any]) -> None:
    from tracer import Tracer, layer_metrics, layer_shares

    untraced = run_rep(workload, inputs)
    tracer = Tracer()
    traced = run_rep(workload, inputs, tracer)
    passed = _failures([untraced, traced], out)
    out["metrics"] = {}
    out["patches_restored"] = all(
        vars(owner)[attr] is original for owner, attr, original in tracer.patched
    )
    if len(passed) < 2:
        return
    spans = tracer.span_rows()
    metrics = layer_metrics(
        spans, tracer.step_durations, traced.result,
        untraced.run_s, traced.run_s, traced.notes.get("load_s", 0.0),
    )
    out["metrics"] = {name: _metric(value, unit) for name, (value, unit) in metrics.items()}
    out["counts"] = _counts(traced.result)
    out["layer_shares"] = layer_shares(spans)
    trace_file = OUT / f"trace-{workload.name}.json"
    out["trace_file"] = str(trace_file.relative_to(REPO))
    _write_json(
        trace_file,
        {
            "workload": workload.name, "seed": out["seed"], "scale": out["scale"],
            "untraced_run_s": untraced.run_s, "traced_run_s": traced.run_s,
            "span_self_s_total": sum(row["self_s"] for row in spans),
            "layer_shares": out["layer_shares"], "spans": spans,
            "step_durations_s": tracer.step_durations,
        },
    )


def _write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def contract_line(out: dict[str, Any], spec: dict[str, Any]) -> str:
    """The one JSON object the benchmark contract asks for."""
    wanted = spec["per_layer"] if out["trace"] else spec["end_to_end"]
    metrics = {m["name"]: out["metrics"][m["name"]] for m in wanted if m["name"] in out["metrics"]}
    return json.dumps({
        "correct": bool(out["correct"] and len(metrics) == len(wanted)),
        "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics,
    })


def print_metrics(out: dict[str, Any]) -> None:
    for name, metric in out["metrics"].items():
        print(f"{out['workload']:<16} {name:<44} {metric['value']:>16.6f} {metric['unit']}")
    if out.get("layer_shares"):
        ranked = sorted(out["layer_shares"].items(), key=lambda item: -item[1])
        top = ", ".join(f"{layer} {share:.0%}" for layer, share in ranked[:4])
        print(f"{out['workload']:<16} {'layers by self time':<44} {top}")
    print(f"{out['workload']:<16} {'attempted / failed':<44} {out['attempted']} / {out['failed']}"
          + ("  " + "; ".join(out["errors"]) if out["errors"] else ""))


# ----------------------------------------------------------------------
# every workload, each in a fresh child interpreter
# ----------------------------------------------------------------------

def _clean_env() -> dict[str, str]:
    """The environment without ``SDL_*``: ``Engine.__init__`` reads ten of them."""
    return {key: value for key, value in os.environ.items() if not key.startswith("SDL_")}


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def run_all(names: list[str], seed: int, seconds: float, scale: str, modes: list[int]) -> dict[str, Any]:
    report: dict[str, Any] = {
        "meta": {
            "seed": seed, "seconds": seconds, "scale": scale, "git_sha": _git_sha(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "min_reps": MIN_REPS,
        },
        "workloads": {},
    }
    OUT.mkdir(exist_ok=True)
    for name in names:
        entry: dict[str, Any] = {}
        for mode in modes:
            detail = OUT / f"detail-{name}-trace{mode}.json"
            detail.unlink(missing_ok=True)
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--scale", scale, "--trace", str(mode),
                 "--detail", str(detail)],
                env=_clean_env(), cwd=REPO, capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0 or not detail.exists():
                sys.stderr.write(done.stdout + done.stderr)
                raise SystemExit(f"{name} --trace {mode}: child exited with {done.returncode}")
            with open(detail, encoding="utf-8") as handle:
                out = json.load(handle)
            print_metrics(out)
            key = "per_layer" if mode else "end_to_end"
            entry[key] = out.pop("metrics")
            entry.setdefault("runs", {})[key] = out
        report["workloads"][name] = entry
    return report


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------

def _spread(metric: str, values: list[float]) -> float:
    """How uncertain one run's own value of *metric* is, as a share of it.

    ``commits_per_s`` is the fastest repetition: the gap down to the third
    fastest says how well the run pinned that floor.  ``setup_s`` is a
    median of n samples, which is uncertain by about their interquartile
    range / sqrt(n).
    """
    if len(values) < 3:
        return 0.0
    if metric == "commits_per_s":
        ranked = sorted(values, reverse=True)
        return (ranked[0] - ranked[2]) / ranked[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / (abs(median) * math.sqrt(len(values))) if median else 0.0


def compare(path_a: str, path_b: str) -> int:
    """Print B against A; 0 if every row is ok, 1 on a regression, 2 if only unresolved."""
    spec = load_spec()
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    print(f"A = {path_a} (seed {a['meta']['seed']}, {a['meta']['git_sha'][:12]})")
    print(f"B = {path_b} (seed {b['meta']['seed']}, {b['meta']['git_sha'][:12]})")
    print("change = (B - A) / A; a metric may get worse by its bound at most\n")
    header = f"{'workload':<16} {'metric':<14} {'A':>14} {'B':>14} {'change':>9} {'bound':>7} {'spread':>7}  verdict"
    print(header)
    verdicts: list[str] = []
    for name in (w["name"] for w in spec["workloads"]):
        entry_a, entry_b = a["workloads"].get(name, {}), b["workloads"].get(name, {})
        if "end_to_end" not in entry_a or "end_to_end" not in entry_b:
            continue
        run_a, run_b = entry_a["runs"]["end_to_end"], entry_b["runs"]["end_to_end"]
        for m in spec["end_to_end"]:
            va = entry_a["end_to_end"][m["name"]]["value"]
            vb = entry_b["end_to_end"][m["name"]]["value"]
            change = (vb - va) / va if va else math.inf
            worse = -change if m["better"] == "higher" else change
            sa = run_a["samples"].get(m["name"], [])
            sb = run_b["samples"].get(m["name"], [])
            spread = max(_spread(m["name"], sa), _spread(m["name"], sb))
            if m["better"] == "higher":
                all_better = bool(sa and sb) and min(sb) > max(sa)
            else:
                all_better = bool(sa and sb) and max(sb) < min(sa)
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            verdicts.append(verdict)
            print(f"{name:<16} {m['name']:<14} {va:>14.4f} {vb:>14.4f} {change:>+9.2%} "
                  f"{m['bound']:>7.0%} {spread:>7.1%}  {verdict}")
        for field in EXACT_COUNTS:
            va, vb = run_a["counts"].get(field), run_b["counts"].get(field)
            verdict = "ok" if va == vb else "regressed"
            verdicts.append(verdict)
            print(f"{name:<16} {field:<14} {va:>14.4f} {vb:>14.4f} {'exact':>9} {'0%':>7} {'':>7}  {verdict}")
        failed = run_a["failed"] + run_b["failed"]
        verdict = "ok" if failed == 0 else "regressed"
        verdicts.append(verdict)
        print(f"{name:<16} {'failed':<14} {run_a['failed']:>14d} {run_b['failed']:>14d} "
              f"{'':>9} {'0':>7} {'':>7}  {verdict}")
    tally = {v: verdicts.count(v) for v in ("ok", "regressed", "unresolved")}
    print(f"\n{tally['ok']} ok, {tally['regressed']} regressed, {tally['unresolved']} unresolved")
    return 1 if tally["regressed"] else 2 if tally["unresolved"] else 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all eight)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated program inputs")
    parser.add_argument("--seconds", type=float, help="Engine.run() seconds to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end only, 1: per-layer only (default: both)")
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--out", help="where the full report goes (default: benchmarks/e2e/out/result.json)")
    parser.add_argument("--detail", help="with --workload and --trace: also write everything measured to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if not SRC.is_dir() or not SPEC_PATH.is_file():
        sys.stderr.write(f"{SRC} or {SPEC_PATH} is missing: nothing to benchmark here\n")
        return 2
    if args.compare:
        return compare(*args.compare)

    for key in [k for k in os.environ if k.startswith("SDL_")]:
        del os.environ[key]
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(names)})")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.scale == "smoke":
        seconds = 0.0

    if args.workload is not None and args.trace is not None:
        min_reps = 1 if args.scale == "smoke" else MIN_REPS
        out = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.scale, min_reps)
        if args.detail:
            _write_json(Path(args.detail).resolve(), out)
        print_metrics(out)
        print(contract_line(out, spec))
        return 0

    modes = [args.trace] if args.trace is not None else [0, 1]
    selected = [args.workload] if args.workload is not None else names
    report = run_all(selected, args.seed, seconds, args.scale, modes)
    target = Path(args.out).resolve() if args.out else OUT / "result.json"
    _write_json(target, report)
    failed = sum(run["failed"] for entry in report["workloads"].values() for run in entry["runs"].values())
    print(f"\nwrote {target}; {failed} failed repetition(s)")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
