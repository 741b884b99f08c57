"""Ablation benchmarks for the design choices DESIGN.md calls out.

* **A1 — content addressing**: the field index vs. arity-only scans.
  Quantifies "content-addressable" — the defining property of the
  paradigm (Section 1).
* **A3 — arity wake filters**: waking only plausibly-affected blocked
  tasks vs. waking everything on every change.
"""

import pytest

from _helpers import attach, once
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.query import exists

# ----------------------------------------------------------------------
# A1: field indexing
# ----------------------------------------------------------------------

SOUP = 3000


def _lookup_workload(indexed: bool) -> float:
    ds = Dataspace(indexed=indexed)
    for i in range(SOUP):
        ds.insert((f"tag{i % 300}", i, i % 7))
    a = Var("a")
    hits = 0
    for i in range(0, 300, 3):
        hits += len(ds.find_matching(P[f"tag{i}", a, ANY]))
    return hits


@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "arity-scan"])
def test_a1_content_addressing(benchmark, indexed):
    hits = once(benchmark, _lookup_workload, indexed)
    attach(benchmark, soup=SOUP, lookups=100, hits=hits, indexed=indexed)
    assert hits == 1000  # 10 per probed tag


def test_a1_shape_index_wins(benchmark):
    import time

    def measure():
        start = time.perf_counter()
        _lookup_workload(True)
        fast = time.perf_counter() - start
        start = time.perf_counter()
        _lookup_workload(False)
        slow = time.perf_counter() - start
        assert slow > 3 * fast, (slow, fast)
        return slow / fast

    ratio = once(benchmark, measure)
    attach(benchmark, slowdown_without_index=round(ratio, 1))


# ----------------------------------------------------------------------
# A3: wake filters
# ----------------------------------------------------------------------

def _noisy_waiters(wake_filter: str):
    """One waiter per arity 2..6 plus a spammer producing arity-8 noise;
    precise filters skip the noise wakeups entirely."""
    from repro.core.actions import assert_tuple
    from repro.core.constructs import guarded, repeat
    from repro.core.process import ProcessDefinition
    from repro.core.transactions import delayed, immediate
    from repro.runtime.engine import Engine
    from repro.runtime.events import Trace

    a = Var("a")
    n = Var("n")
    defs = [
        ProcessDefinition(
            f"Waiter{arity}",
            body=[
                delayed(exists(a).match(P[tuple(["sig"] + [ANY] * (arity - 2) + [a])]))
            ],
        )
        for arity in range(2, 7)
    ]
    fuel_pattern = P[tuple(["fuel"] + [ANY] * 6 + [n])]  # arity 8, like the noise
    spam = ProcessDefinition(
        "Spammer",
        body=[
            repeat(
                guarded(
                    immediate(exists(n).match(fuel_pattern.retract())).then(
                        assert_tuple(*(["noise"] * 7 + [n]))
                    )
                )
            ),
            # finally satisfy every waiter
            immediate().then(
                *(
                    assert_tuple(*(["sig"] + ["pad"] * (arity - 2) + [arity]))
                    for arity in range(2, 7)
                )
            ),
        ],
    )
    engine = Engine(
        definitions=defs + [spam], seed=4, wake_filter=wake_filter, trace=Trace(True)
    )
    engine.assert_tuples([tuple(["fuel"] + ["pad"] * 6 + [i]) for i in range(120)])
    for arity in range(2, 7):
        engine.start(f"Waiter{arity}")
    engine.start("Spammer")
    result = engine.run()
    assert result.completed
    return engine.trace.counters.wakeups


@pytest.mark.parametrize("mode", ["arity", "all"])
def test_a3_wake_filter(benchmark, mode):
    wakeups = once(benchmark, _noisy_waiters, mode)
    attach(benchmark, mode=mode, wakeups=wakeups)


def test_a3_shape_filter_suppresses_spurious_wakeups(benchmark):
    def check():
        precise = _noisy_waiters("arity")
        naive = _noisy_waiters("all")
        assert naive > 20 * precise, (naive, precise)
        return naive, precise

    naive, precise = once(benchmark, check)
    attach(benchmark, naive_wakeups=naive, filtered_wakeups=precise)
