"""E18 — parallel group-round apply: speedup on shard-disjoint communities.

The worker pool must be a pure scheduling knob — bit-identical results
(the differential suites prove that) — that actually buys wall-clock
when the apply phase is compute-heavy and the batch splits into
shard-disjoint groups:

* **speedup ≥ 1.5× with 4 process workers** on a disjoint-communities
  workload whose action evaluation burns real CPU (``workloads.spin``),
  asserted only where the host grants ≥ 4 CPUs (GitHub runners do;
  smaller hosts print the measured ratio and skip the timing assert —
  four process workers on 2 CPUs measure ~0.97× — but still verify
  dispatch + identical state);
* **workers=1 overhead ≤ 1.1×** — requesting one worker resolves to no
  pool at all, so the serial path must be undisturbed.

Timing uses best-of-N inside one pedantic round, interleaved so load
drift lands on both sides of the comparison.
"""

import os
import time

import pytest

from _helpers import attach, once
from repro.core.actions import assert_tuple, let
from repro.core.expressions import Var, lift
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed
from repro.runtime.engine import Engine
from repro.workloads.compute import spin

COMMUNITIES = 8
DEPTH = 3
SHARDS = 8
POOL = "process:4"
UNITS = 100_000  # ~ms-scale per evaluation: apply must dominate the round
CPUS = len(os.sched_getaffinity(0))


def _community_engine(workers, units=UNITS, seed=7, obs=None):
    """Disjoint communities, compute-heavy apply: worker k drains <k, d>."""
    a = Var("a")
    burn = lift(spin, name="spin")
    worker = ProcessDefinition(
        "W",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                let(Var("n"), burn(a, units)),
                assert_tuple("done", Var("k"), Var("n")),
            )
            for __ in range(DEPTH)
        ],
    )
    engine = Engine(
        definitions=[worker], seed=seed, commit="group", shards=SHARDS,
        workers=workers, obs=obs,
    )
    engine.assert_tuples([(k, d) for k in range(COMMUNITIES) for d in range(DEPTH)])
    for k in range(COMMUNITIES):
        engine.start("W", (k,))
    return engine


def _drive(workers, units=UNITS):
    engine = _community_engine(workers, units)
    result = engine.run()
    assert result.completed
    assert (
        engine.dataspace.count_matching(P["done", ANY, ANY])
        == COMMUNITIES * DEPTH
    )
    return engine, result


def _signature(engine):
    return sorted(
        (inst.tid.serial, inst.tid.owner, inst.values)
        for inst in engine.dataspace.instances()
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of_interleaved(n, fn_a, fn_b):
    best_a = best_b = float("inf")
    for __ in range(n):
        best_a = min(best_a, _timed(fn_a))
        best_b = min(best_b, _timed(fn_b))
    return best_a, best_b


@pytest.mark.parametrize("workers", [None, "thread:4", POOL])
def test_e18_parallel_runs(benchmark, workers):
    def run():
        # Cheap burn for the smoke tier: correctness, not timing.
        return _drive(workers, units=2_000)

    engine, result = once(benchmark, run)
    if workers is not None:
        assert result.parallel_rounds > 0, "pool never dispatched"
        assert result.parallel_fallbacks == 0
    base_engine, __ = _drive(None, units=2_000)
    assert _signature(engine) == _signature(base_engine)
    attach(
        benchmark,
        workers=workers or "serial",
        rounds=result.rounds,
        commits=result.commits,
        parallel_groups=result.parallel_groups,
        parallel_candidates=result.parallel_candidates,
    )


def test_e18_shape_speedup_with_4_workers(benchmark):
    def check():
        # Warm both paths (forks the pool, fills plan caches), then
        # best-of-3 each — the burn makes single runs long enough that
        # more repetitions buy little.
        _drive(None)
        __, parallel_result = _drive(POOL)
        assert parallel_result.parallel_rounds > 0
        assert parallel_result.parallel_fallbacks == 0
        serial_s, parallel_s = _best_of_interleaved(
            3, lambda: _drive(None), lambda: _drive(POOL)
        )
        speedup = serial_s / parallel_s
        print(f"E18 parallel apply speedup {speedup:.2f}x ({CPUS} CPUs)")
        if CPUS >= 4:
            assert speedup >= 1.5, (
                f"parallel apply speedup {speedup:.2f}x below 1.5x "
                f"({CPUS} CPUs)"
            )
        # identical behavior either way: same end state, instance-exact
        serial_engine, __ = _drive(None)
        parallel_engine, __ = _drive(POOL)
        assert _signature(parallel_engine) == _signature(serial_engine)
        return serial_s, parallel_s, speedup, parallel_result

    serial_s, parallel_s, speedup, result = once(benchmark, check)
    attach(
        benchmark,
        serial_ms=round(serial_s * 1e3, 1),
        parallel_ms=round(parallel_s * 1e3, 1),
        speedup=round(speedup, 2),
        cpus=CPUS,
        asserted=CPUS >= 4,
        parallel_groups=result.parallel_groups,
        communities=COMMUNITIES,
    )


def test_e18_shape_workers_one_overhead_within_1_1x(benchmark):
    def check():
        # workers=1 must resolve to no pool: the serial path untouched.
        engine = _community_engine(1, units=2_000)
        assert engine.pool is None
        engine.run()
        _drive(None, units=2_000)
        serial_s, one_s = _best_of_interleaved(
            9,
            lambda: _drive(None, units=2_000),
            lambda: _drive(1, units=2_000),
        )
        ratio = one_s / serial_s
        assert ratio <= 1.1, f"workers=1 overhead {ratio:.2f}x exceeds 1.1x"
        return serial_s, one_s, ratio

    serial_s, one_s, ratio = once(benchmark, check)
    attach(
        benchmark,
        serial_ms=round(serial_s * 1e3, 2),
        workers1_ms=round(one_s * 1e3, 2),
        ratio=round(ratio, 3),
    )


def test_e18_shape_dispatch_is_counter_verified(benchmark):
    def check():
        engine = _community_engine("thread:4", units=2_000, obs=True)
        result = engine.run()
        assert result.completed
        # Disjoint communities: every group round splits, so the batch
        # counter and the pool gauges must all have fired.
        m = result.metrics
        assert m["sdl_parallel_batches_total"]["data"] == result.parallel_groups > 0
        assert m["sdl_parallel_apply_seconds"]["data"]["count"] > 0
        assert m["sdl_worker_pool_size"]["data"] == 4
        assert m["sdl_worker_pool_peak_inflight"]["data"] >= 2
        return result

    result = once(benchmark, check)
    attach(
        benchmark,
        parallel_rounds=result.parallel_rounds,
        parallel_groups=result.parallel_groups,
        peak_inflight=result.metrics["sdl_worker_pool_peak_inflight"]["data"],
    )
