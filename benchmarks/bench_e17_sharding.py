"""E17 — shard-addressable storage: routing, un-probed scans, admission.

The partitioned store must be a pure performance/placement knob: identical
observable behavior (the differential property suite proves that), with

* **routing overhead ≤ 1.2×** — the facade's shard routing (tid->shard
  map, global bucket-size sums, serial merges) on a community workload
  whose queries pin position 0, where every read is a one-shard local hit;
* **un-probed scans ≤ 1.5×** — Sum3's guard pins no field, so every
  evaluation reads a whole arity across all shards; the facade keeps that
  order current instead of merging per query (ROADMAP target 1.2×, the
  assert leaves margin; the per-query merge measured 4–5×);
* **layout-blind admission** — under group commit, disjoint communities
  are admitted as one full batch per round whatever the layout: same
  rounds, same batch size, no conflicts, and a final state identical to
  the single layout.

Timing uses best-of-N inside one pedantic round to damp scheduler noise;
the shape assert keeps a generous margin above the expected ~1.0-1.1×.
"""

import time

import pytest

from _helpers import attach, once
from repro.core.actions import assert_tuple
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.programs.summation import run_sum3
from repro.runtime.engine import Engine
from repro.core.transactions import delayed

WORKERS = 24
DEPTH = 3
SHARDS = 4
SUM3_N = 512


def _community_engine(shards, commit="live", seed=7):
    """Disjoint communities: worker k drains <k, d> items (head-routed)."""
    a = Var("a")
    worker = ProcessDefinition(
        "W",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                assert_tuple("done", Var("k"), a)
            )
            for __ in range(DEPTH)
        ],
    )
    engine = Engine(
        definitions=[worker], seed=seed, commit=commit, shards=shards
    )
    engine.assert_tuples([(k, d) for k in range(WORKERS) for d in range(DEPTH)])
    for k in range(WORKERS):
        engine.start("W", (k,))
    return engine


def _drive(shards, commit="live"):
    engine = _community_engine(shards, commit)
    result = engine.run()
    assert result.completed
    assert engine.dataspace.count_matching(P["done", ANY, ANY]) == WORKERS * DEPTH
    return engine, result


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of_interleaved(n, fn_a, fn_b):
    """Best-of-n for two functions, measured alternately.

    Interleaving keeps slow drift in machine load from landing entirely
    on one side of the comparison, which a sequential best-of-n cannot.
    """
    best_a = best_b = float("inf")
    for __ in range(n):
        best_a = min(best_a, _timed(fn_a))
        best_b = min(best_b, _timed(fn_b))
    return best_a, best_b


@pytest.mark.parametrize("shards", ["single", SHARDS])
def test_e17_routing_runs(benchmark, shards):
    def run():
        return _drive(shards)[1]

    result = once(benchmark, run)
    attach(
        benchmark,
        shards=shards,
        rounds=result.rounds,
        steps=result.steps,
        commits=result.commits,
    )


def test_e17_shape_routing_overhead_within_1_2x(benchmark):
    def check():
        # Warm both paths once, then best-of-9 each, interleaved: the
        # best run is the least-noise estimate of the per-layout cost.
        _drive("single")
        _drive(SHARDS)
        single_s, sharded_s = _best_of_interleaved(
            9, lambda: _drive("single"), lambda: _drive(SHARDS)
        )
        ratio = sharded_s / single_s
        assert ratio <= 1.2, f"shard routing overhead {ratio:.2f}x exceeds 1.2x"
        # identical behavior: same end state under both layouts
        single_state = _drive("single")[0].dataspace.multiset()
        sharded_state = _drive(SHARDS)[0].dataspace.multiset()
        assert sharded_state == single_state
        return single_s, sharded_s, ratio

    single_s, sharded_s, ratio = once(benchmark, check)
    attach(
        benchmark,
        single_ms=round(single_s * 1e3, 2),
        sharded_ms=round(sharded_s * 1e3, 2),
        ratio=round(ratio, 3),
        shards=SHARDS,
    )


def test_e17_shape_unprobed_scan_within_1_5x(benchmark):
    values = list(range(SUM3_N))

    def check():
        run_sum3(values, seed=7)
        run_sum3(values, seed=7, shards=SHARDS)
        single_s, sharded_s = _best_of_interleaved(
            5,
            lambda: run_sum3(values, seed=7),
            lambda: run_sum3(values, seed=7, shards=SHARDS),
        )
        ratio = sharded_s / single_s
        assert ratio <= 1.5, f"un-probed scan under shards {ratio:.2f}x exceeds 1.5x"
        single = run_sum3(values, seed=7)
        sharded = run_sum3(values, seed=7, shards=SHARDS)
        assert sharded.total == single.total == sum(values)
        assert sharded.engine.dataspace.multiset() == single.engine.dataspace.multiset()
        assert sharded.result.commits == single.result.commits == SUM3_N - 1
        return single_s, sharded_s, ratio

    single_s, sharded_s, ratio = once(benchmark, check)
    attach(
        benchmark,
        single_ms=round(single_s * 1e3, 2),
        sharded_ms=round(sharded_s * 1e3, 2),
        ratio=round(ratio, 3),
        shards=SHARDS,
        n=SUM3_N,
    )


def test_e17_shape_admission_is_layout_blind(benchmark):
    def check():
        sharded = _community_engine(SHARDS, commit="group")
        sharded_result = sharded.run()
        single = _community_engine("single", commit="group")
        single_result = single.run()
        assert sharded_result.completed and single_result.completed
        # admission probes tuple keys, never shards: the layout changes no
        # decision, so the whole run is unchanged
        assert sharded.dataspace.multiset() == single.dataspace.multiset()
        assert sharded_result.conflicts == single_result.conflicts == 0
        assert sharded_result.max_batch == single_result.max_batch == WORKERS
        assert sharded_result.rounds == single_result.rounds
        return sharded_result

    sharded_result = once(benchmark, check)
    attach(
        benchmark,
        group_rounds=sharded_result.group_rounds,
        max_batch=sharded_result.max_batch,
        conflicts=sharded_result.conflicts,
        workers=WORKERS,
    )
