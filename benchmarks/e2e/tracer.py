"""Per-layer spans taken from outside the program.

The tracer wraps, at run time, the public callables at each layer boundary
of ``repro`` (the table :data:`TARGETS`), patching each name where its
caller looks it up.  While a root span (``Engine.run``) is open, every
wrapped call records a span; the tracer keeps a span stack so each span has
a parent, and aggregates ``(name, parent) -> calls, total_s, self_s`` in
memory, where self time is a span's duration minus the part its child spans
cover.  Raw durations are kept only for ``Executor.step``.  Nothing under
``src/`` knows about any of this, and :meth:`Tracer.uninstall` puts every
patched attribute back.

Span names are ``<layer>.<function>``; the layer is the ``repro`` module
that owns the code (``runtime.wakeup``, ``core.storage`` ...).  Dataspace
change listeners are spans too: ``Dataspace.subscribe`` is wrapped so that
each listener is timed under the module that defines it, which is how WAL
append + fsync lands on ``runtime.recovery``.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Any, Callable

__all__ = ["ROOT", "STEP", "TARGETS", "Tracer", "layer_metrics", "layer_shares"]

ROOT = "runtime.engine.run"
STEP = "runtime.executor.step"

#: ``(span name, module, owner class or None, attribute, kind)``.  The module
#: is where the *caller* looks the name up: ``partition`` is defined in
#: ``repro.core.consensus`` but called through ``repro.runtime.executor``'s
#: own binding, so that binding is what gets patched.  Kinds: ``call``
#: (time the call), ``rows`` (also add ``len(result)`` to the span's row
#: count), ``iter`` (the call returns an iterator; time every ``next``),
#: ``subscribe`` (wrap the listener passed in).
TARGETS: list[tuple[str, str, str | None, str, str]] = [
    (ROOT, "repro.runtime.engine", "Engine", "run", "call"),
    (STEP, "repro.runtime.executor", "Executor", "step", "call"),
    ("runtime.executor.try_consensus", "repro.runtime.executor", "Executor", "try_consensus", "call"),
    ("core.consensus.partition", "repro.runtime.executor", None, "partition", "call"),
    ("core.consensus.evaluate_composite", "repro.runtime.executor", None, "evaluate_composite", "call"),
    ("core.views.refresh", "repro.core.views", "Window", "refresh", "call"),
    ("core.views.footprint", "repro.core.views", "Window", "footprint", "call"),
    ("runtime.wakeup.affected", "repro.runtime.wakeup", "WakeupIndex", "affected", "call"),
    ("runtime.wakeup.add", "repro.runtime.wakeup", "WakeupIndex", "add", "call"),
    ("runtime.rounds.group_round", "repro.runtime.rounds", None, "run_group_round", "call"),
    ("runtime.commit.first_conflict", "repro.runtime.rounds", None, "first_conflict", "call"),
    ("runtime.commit.footprint_for", "repro.runtime.rounds", None, "footprint_for", "call"),
    ("runtime.scheduler.take_round", "repro.runtime.scheduler", "Scheduler", "take_round", "call"),
    ("runtime.scheduler.start_round", "repro.runtime.scheduler", "Scheduler", "start_round", "call"),
    ("runtime.scheduler.arbitrate", "repro.runtime.scheduler", "Scheduler", "arbitrate", "call"),
    ("core.query.evaluate", "repro.core.query", "Query", "evaluate", "call"),
    ("core.plan.plan_for", "repro.core.plan", "QueryPlanner", "plan_for", "call"),
    ("core.plan.iter_matches", "repro.core.plan", "QueryPlanner", "iter_matches", "iter"),
    ("core.dataspace.read.candidates", "repro.core.dataspace", "Dataspace", "candidates", "rows"),
    ("core.dataspace.read.candidates_probed", "repro.core.dataspace", "Dataspace", "candidates_probed", "rows"),
    ("core.dataspace.read.find_matching", "repro.core.dataspace", "Dataspace", "find_matching", "rows"),
    ("core.dataspace.read.count_matching", "repro.core.dataspace", "Dataspace", "count_matching", "call"),
    ("core.dataspace.write.insert", "repro.core.dataspace", "Dataspace", "insert", "call"),
    ("core.dataspace.write.insert_many", "repro.core.dataspace", "Dataspace", "insert_many", "call"),
    ("core.dataspace.write.retract", "repro.core.dataspace", "Dataspace", "retract", "call"),
    ("core.dataspace.write.retract_many", "repro.core.dataspace", "Dataspace", "retract_many", "call"),
    ("core.dataspace.subscribe", "repro.core.dataspace", "Dataspace", "subscribe", "subscribe"),
    ("core.storage.merge.merge_serial_lists", "repro.core.dataspace", None, "merge_serial_lists", "rows"),
    ("core.storage.merge.merge_by_serial", "repro.core.dataspace", None, "merge_by_serial", "rows"),
    ("runtime.parallel.dispatch", "repro.runtime.parallel", "WorkerPool", "dispatch", "call"),
    ("runtime.parallel.dispatch_matches", "repro.runtime.parallel", "WorkerPool", "dispatch_matches", "call"),
    ("runtime.parallel.bundle", "repro.runtime.parallel", "SnapshotShipper", "bundle", "call"),
]
for _store in ("TupleStore", "ColumnarStore"):
    for _attr in ("candidates", "candidates_probed", "arity_candidates", "field_candidates"):
        TARGETS.append((f"core.storage.probe.{_attr}", "repro.core.storage", _store, _attr, "call"))
    for _attr in ("admit", "admit_many", "remove"):
        TARGETS.append((f"core.storage.mutate.{_attr}", "repro.core.storage", _store, _attr, "call"))


class Tracer:
    """Installs the span wrappers, aggregates spans, and restores the names."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str | None], list[float]] = {}  # calls, total, self, rows
        self.step_durations: list[float] = []
        #: ``(owner, attribute, original)`` for every name patched; kept
        #: after :meth:`uninstall` so a test can check the restoration.
        self.patched: list[tuple[Any, str, Any]] = []
        self._stack: list[list[Any]] = []  # [name, child seconds]
        self._installed = False

    # -- span recording --------------------------------------------------
    def _span(self, name: str, fn: Callable, args: tuple, kwargs: dict, rows: bool = False) -> Any:
        stack = self._stack
        if not stack and name != ROOT:
            return fn(*args, **kwargs)  # outside Engine.run: set-up, output checks
        frame = [name, 0.0]
        stack.append(frame)
        count = 0
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if rows:
                count = len(result)
            return result
        finally:
            duration = perf_counter() - start
            stack.pop()
            parent = None
            if stack:
                stack[-1][1] += duration
                parent = stack[-1][0]
            record = self.spans.get((name, parent))
            if record is None:
                record = self.spans[(name, parent)] = [0, 0.0, 0.0, 0]
            record[0] += 1
            record[1] += duration
            record[2] += duration - frame[1]
            record[3] += count
            if name == STEP:
                self.step_durations.append(duration)

    def _wrap(self, name: str, original: Callable, kind: str) -> Callable:
        span = self._span
        if kind == "iter":
            def wrapper(*args, **kwargs):
                return _TimedIterator(self, name, span(name, original, args, kwargs))
        elif kind == "subscribe":
            def wrapper(dataspace, listener):
                module = getattr(listener, "__module__", None) or "unknown"
                listener_name = f"{module.removeprefix('repro.')}.listener"

                def timed_listener(change):
                    return span(listener_name, listener, (change,), {})

                return original(dataspace, timed_listener)
        else:
            rows = kind == "rows"

            def wrapper(*args, **kwargs):
                return span(name, original, args, kwargs, rows)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer already installed")
        for name, module_name, class_name, attr, kind in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                # Patch the class that defines the method, so an inherited
                # one (TupleStore.admit_many) is wrapped once, on its base.
                owner = next(k for k in getattr(owner, class_name).__mro__ if attr in vars(k))
            if any(o is owner and a == attr for o, a, __ in self.patched):
                continue
            original = vars(owner)[attr]
            self.patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, kind))
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original in self.patched:
            setattr(owner, attr, original)
        self._installed = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------
    def span_rows(self) -> list[dict[str, Any]]:
        return [
            {"name": name, "parent": parent, "calls": int(rec[0]),
             "total_s": rec[1], "self_s": rec[2], "rows": int(rec[3])}
            for (name, parent), rec in sorted(
                self.spans.items(), key=lambda item: -item[1][2]
            )
        ]


class _TimedIterator:
    """Times each ``next`` of a wrapped generator as one span."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        return self._tracer._span(self._name, next, (self._inner,), {})


# ----------------------------------------------------------------------
# from spans to per-layer metrics
# ----------------------------------------------------------------------

def _sum(spans: list[dict[str, Any]], prefix: str, field: str) -> float:
    return sum(
        row[field] for row in spans
        if row["name"] == prefix or row["name"].startswith(prefix + ".")
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def layer_shares(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Share of the traced run's self time per layer (``core.storage`` ...)."""
    total = sum(row["self_s"] for row in spans)
    shares: dict[str, float] = {}
    for row in spans:
        layer = ".".join(row["name"].split(".")[:2])
        shares[layer] = shares.get(layer, 0.0) + _ratio(row["self_s"], total)
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def layer_metrics(
    spans: list[dict[str, Any]],
    step_durations: list[float],
    result: Any,
    untraced_run_s: float,
    traced_run_s: float,
    load_s: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of ``BENCHMARK.json`` as ``name -> (value, unit)``.

    Times and call counts come from the spans of the one traced repetition;
    ratios of program events come from the ``RunResult`` counters of the
    same repetition.  A layer the workload never enters reads 0.
    """
    def calls(prefix: str) -> float:
        return _sum(spans, prefix, "calls")

    def self_s(prefix: str) -> float:
        return _sum(spans, prefix, "self_s")

    r = result
    commits = r.commits
    total_self = sum(row["self_s"] for row in spans)
    steps_sorted = sorted(step_durations)
    rows_read = _sum(spans, "core.dataspace.read", "rows")
    window_refreshes = r.window_delta_refreshes + r.window_full_invalidations
    pool_candidates = r.parallel_candidates + r.admit_candidates
    pool_fallbacks = r.parallel_fallbacks + r.admit_fallbacks
    m: dict[str, tuple[float, str]] = {
        "commits": (commits, "count"),
        "rounds": (r.rounds, "count"),
        "steps": (r.steps, "count"),
        "parallelism": (r.parallelism, "commits/round"),
        "runtime.engine.run_self_s": (self_s(ROOT), "s"),
        "trace.overhead_ratio": (_ratio(traced_run_s, untraced_run_s), "ratio"),
        "trace.unattributed_share": (_ratio(self_s(ROOT) + self_s(STEP), total_self), "ratio"),
        "runtime.executor.step_calls": (calls(STEP), "count"),
        "runtime.executor.step_self_s": (self_s(STEP), "s"),
        "runtime.executor.step_us_p50": (_percentile(steps_sorted, 0.50) * 1e6, "us"),
        "runtime.executor.step_us_p99": (_percentile(steps_sorted, 0.99) * 1e6, "us"),
        "runtime.executor.steps_per_commit": (_ratio(r.steps, commits), "ratio"),
        "runtime.executor.try_consensus_calls": (calls("runtime.executor.try_consensus"), "count"),
        "runtime.executor.try_consensus_self_s": (self_s("runtime.executor.try_consensus"), "s"),
        "runtime.executor.consensus_fire_ratio": (
            _ratio(r.consensus_rounds, calls("runtime.executor.try_consensus")), "ratio"),
        "core.consensus.partition_calls": (calls("core.consensus.partition"), "count"),
        "core.consensus.partition_self_s": (self_s("core.consensus.partition"), "s"),
        "core.consensus.evaluate_composite_self_s": (self_s("core.consensus.evaluate_composite"), "s"),
        "core.views.refresh_calls": (calls("core.views.refresh"), "count"),
        "core.views.refresh_self_s": (self_s("core.views.refresh"), "s"),
        "core.views.footprint_calls": (calls("core.views.footprint"), "count"),
        "core.views.footprint_self_s": (self_s("core.views.footprint"), "s"),
        "core.views.window_hit_rate": (r.window_hit_rate, "ratio"),
        "core.views.delta_refresh_share": (_ratio(r.window_delta_refreshes, window_refreshes), "ratio"),
        "runtime.wakeup.affected_calls": (calls("runtime.wakeup.affected"), "count"),
        "runtime.wakeup.affected_self_s": (self_s("runtime.wakeup.affected"), "s"),
        "runtime.wakeup.add_self_s": (self_s("runtime.wakeup.add"), "s"),
        "runtime.wakeup.checks_per_commit": (_ratio(r.wake_checks, commits), "ratio"),
        "runtime.wakeup.spurious_rate": (r.spurious_wake_rate, "ratio"),
        "runtime.rounds.group_round_calls": (calls("runtime.rounds.group_round"), "count"),
        "runtime.rounds.group_round_self_s": (self_s("runtime.rounds.group_round"), "s"),
        "runtime.commit.first_conflict_calls": (calls("runtime.commit.first_conflict"), "count"),
        "runtime.commit.first_conflict_self_s": (self_s("runtime.commit.first_conflict"), "s"),
        "runtime.commit.footprint_for_calls": (calls("runtime.commit.footprint_for"), "count"),
        "runtime.commit.footprint_for_self_s": (self_s("runtime.commit.footprint_for"), "s"),
        "runtime.commit.conflict_rate": (r.conflict_rate, "ratio"),
        "runtime.commit.avg_batch": (r.avg_batch, "commits/round"),
        "runtime.scheduler.self_s": (self_s("runtime.scheduler"), "s"),
        "core.query.evaluate_calls": (calls("core.query.evaluate"), "count"),
        "core.query.evaluate_self_s": (self_s("core.query.evaluate"), "s"),
        "core.plan.plan_for_self_s": (self_s("core.plan.plan_for"), "s"),
        "core.plan.iter_matches_self_s": (self_s("core.plan.iter_matches"), "s"),
        "core.plan.cache_hit_rate": (r.plan_hit_rate, "ratio"),
        "core.plan.rows_per_commit": (_ratio(rows_read, commits), "ratio"),
        "core.dataspace.read_calls": (calls("core.dataspace.read"), "count"),
        "core.dataspace.read_self_s": (self_s("core.dataspace.read"), "s"),
        "core.dataspace.rows_returned": (rows_read, "count"),
        "core.dataspace.write_calls": (calls("core.dataspace.write"), "count"),
        "core.dataspace.write_self_s": (self_s("core.dataspace.write"), "s"),
        "core.storage.probe_calls": (calls("core.storage.probe"), "count"),
        "core.storage.probe_self_s": (self_s("core.storage.probe"), "s"),
        "core.storage.mutate_self_s": (self_s("core.storage.mutate"), "s"),
        "core.storage.merge_calls": (calls("core.storage.merge"), "count"),
        "core.storage.merge_self_s": (self_s("core.storage.merge"), "s"),
        "core.storage.merge_rows": (_sum(spans, "core.storage.merge", "rows"), "count"),
        "runtime.parallel.dispatch_calls": (calls("runtime.parallel"), "count"),
        "runtime.parallel.dispatch_self_s": (self_s("runtime.parallel"), "s"),
        "runtime.parallel.candidates": (pool_candidates, "count"),
        "runtime.parallel.fallback_share": (
            _ratio(pool_fallbacks, pool_candidates + pool_fallbacks), "ratio"),
        "runtime.parallel.ship_bytes": (r.snapshot_ship_bytes, "bytes"),
        "runtime.recovery.append_calls": (calls("runtime.recovery.listener"), "count"),
        "runtime.recovery.append_self_s": (self_s("runtime.recovery.listener"), "s"),
        "runtime.recovery.wal_bytes_per_commit": (_ratio(r.wal_bytes, commits), "bytes"),
        "runtime.recovery.checkpoint_segments": (r.wal_segments, "count"),
        "runtime.recovery.load_s": (load_s, "s"),
    }
    return {name: (float(value), unit) for name, (value, unit) in m.items()}
