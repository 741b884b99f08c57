"""E21 — parallel admission: speedup on match-heavy disjoint communities.

``admit="parallel"`` must be a pure scheduling knob — bit-identical
results (the differential suites prove that) — that actually buys
wall-clock when Phase B dominates the round: every candidate's query
carries a CPU-burning pure test (``workloads.spin``) evaluated over its
community's whole population, so serial admission walks
``communities x population`` burns per round while workers evaluate the
per-shard batches concurrently over cached snapshots:

* **speedup ≥ 1.5× with 4 process workers** where the host grants ≥ 4
  CPUs (GitHub runners do; smaller hosts print the measured ratio and
  skip the timing assert — four process workers on 2 CPUs measure
  ~0.98× — but still verify dispatch + identical state);
* **workers=1 overhead ≤ 1.1×** — one worker resolves to no pool, so the
  knob is inert and the serial path must be undisturbed.

Two burn-heavy stages per worker force two dispatch rounds, so the
second round's tasks refresh their shard snapshots from journal deltas
rather than re-shipping blobs — the residency claim, asserted on the
refresh counters.
"""

import os
import time

import pytest

from _helpers import attach, once
from repro.core.actions import assert_tuple
from repro.core.expressions import Var, lift
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import forall
from repro.core.transactions import delayed
from repro.runtime.engine import Engine
from repro.workloads.compute import spin

COMMUNITIES = 8
POP = 4  # tuples per community per stage: each burns one spin() in the test
SHARDS = 8
POOL = "process:4"
UNITS = 60_000  # ~ms-scale per row: admission must dominate the round
CPUS = len(os.sched_getaffinity(0))


def _admit_engine(workers, admit, units=UNITS, seed=7, obs=None):
    """Disjoint communities, match-heavy admission: worker k drains
    ``<k, d>`` then ``<k2, d>``, burning the test per candidate row."""
    a, b = Var("a"), Var("b")
    burn = lift(spin, name="spin")
    worker = ProcessDefinition(
        "W",
        params=("k", "k2"),
        body=[
            delayed(
                forall(a).match(P[Var("k"), a].retract())
                .such_that(burn(a, units) >= 0)
            ).then(assert_tuple(Var("k2"), a)),
            delayed(
                forall(b).match(P[Var("k2"), b].retract())
                .such_that(burn(b, units) >= 0)
            ).then(assert_tuple("done", Var("k"), b)),
        ],
    )
    engine = Engine(
        definitions=[worker], seed=seed, commit="group", shards=SHARDS,
        workers=workers, admit=admit, obs=obs,
    )
    engine.assert_tuples([(k, d) for k in range(COMMUNITIES) for d in range(POP)])
    for k in range(COMMUNITIES):
        engine.start("W", (k, k + COMMUNITIES))
    return engine


def _drive(workers, admit, units=UNITS):
    engine = _admit_engine(workers, admit, units)
    result = engine.run()
    assert result.completed
    assert (
        engine.dataspace.count_matching(P["done", ANY, ANY])
        == COMMUNITIES * POP
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


@pytest.mark.parametrize("workers,admit", [
    (None, "serial"), ("thread:4", "parallel"), (POOL, "parallel"),
])
def test_e21_admit_runs(benchmark, workers, admit):
    def run():
        # Cheap burn for the smoke tier: correctness, not timing.
        return _drive(workers, admit, units=2_000)

    engine, result = once(benchmark, run)
    if admit == "parallel":
        assert result.admit_rounds > 0, "admission never dispatched"
        assert result.admit_fallbacks == 0
        assert result.snapshot_ship_bytes > 0
        # Second-stage rounds must catch up from journal deltas, not blobs.
        assert result.snapshot_refreshes_delta > 0
    base_engine, __ = _drive(None, "serial", units=2_000)
    assert _signature(engine) == _signature(base_engine)
    attach(
        benchmark,
        workers=workers or "serial",
        admit=admit,
        rounds=result.rounds,
        commits=result.commits,
        admit_tasks=result.admit_tasks,
        admit_candidates=result.admit_candidates,
        ship_bytes=result.snapshot_ship_bytes,
    )


def test_e21_shape_speedup_with_4_workers(benchmark):
    def check():
        # Warm both paths (forks the pool, fills plan caches), then
        # best-of-3 each — the burn makes single runs long enough that
        # more repetitions buy little.
        _drive(None, "serial")
        __, parallel_result = _drive(POOL, "parallel")
        assert parallel_result.admit_rounds > 0
        assert parallel_result.admit_fallbacks == 0
        serial_s, parallel_s = _best_of_interleaved(
            3,
            lambda: _drive(None, "serial"),
            lambda: _drive(POOL, "parallel"),
        )
        speedup = serial_s / parallel_s
        print(f"E21 parallel admission speedup {speedup:.2f}x ({CPUS} CPUs)")
        if CPUS >= 4:
            assert speedup >= 1.5, (
                f"parallel admission speedup {speedup:.2f}x below 1.5x "
                f"({CPUS} CPUs)"
            )
        # identical behavior either way: same end state, instance-exact
        serial_engine, __ = _drive(None, "serial")
        parallel_engine, __ = _drive(POOL, "parallel")
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
        admit_tasks=result.admit_tasks,
        admit_candidates=result.admit_candidates,
        refreshes_delta=result.snapshot_refreshes_delta,
        refreshes_full=result.snapshot_refreshes_full,
        communities=COMMUNITIES,
    )


def test_e21_shape_workers_one_overhead_within_1_1x(benchmark):
    def check():
        # workers=1 resolves to no pool, so admit="parallel" must be
        # inert: the serial path untouched.
        engine = _admit_engine(1, "parallel", units=2_000)
        assert engine.pool is None
        assert engine.snapshots is None
        engine.run()
        _drive(None, "serial", units=2_000)
        serial_s, one_s = _best_of_interleaved(
            9,
            lambda: _drive(None, "serial", units=2_000),
            lambda: _drive(1, "parallel", units=2_000),
        )
        ratio = one_s / serial_s
        assert ratio <= 1.1, f"admit=parallel overhead {ratio:.2f}x exceeds 1.1x"
        return serial_s, one_s, ratio

    serial_s, one_s, ratio = once(benchmark, check)
    attach(
        benchmark,
        serial_ms=round(serial_s * 1e3, 2),
        workers1_ms=round(one_s * 1e3, 2),
        ratio=round(ratio, 3),
    )


def test_e21_shape_dispatch_is_counter_verified(benchmark):
    def check():
        engine = _admit_engine("thread:4", "parallel", units=2_000, obs=True)
        result = engine.run()
        assert result.completed
        # Disjoint communities: every burn round dispatches, so the
        # histogram, ship/refresh counters, and worker gauges all fired.
        m = result.metrics
        assert m["sdl_parallel_admit_seconds"]["data"]["count"] > 0
        assert m["sdl_snapshot_ship_bytes_total"]["data"] == (
            result.snapshot_ship_bytes
        ) > 0
        refreshes = m["sdl_snapshot_refresh_total"]["data"]
        assert sum(refreshes.values()) == (
            result.snapshot_refreshes_delta + result.snapshot_refreshes_full
        ) > 0
        versions = [
            value for name, value in m.items()
            if name.startswith("sdl_snapshot_worker_version_")
        ]
        assert versions, "no per-worker snapshot version gauges"
        return result

    result = once(benchmark, check)
    attach(
        benchmark,
        admit_rounds=result.admit_rounds,
        admit_tasks=result.admit_tasks,
        refreshes_delta=result.snapshot_refreshes_delta,
        refreshes_full=result.snapshot_refreshes_full,
    )
