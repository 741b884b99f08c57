"""Soak: a runaway loop runs to Engine.run()'s default step limit in flat memory.

One process retracts ``<x, a>`` and asserts ``<x, a + 1>`` forever; the
run must stop with ``StepLimitExceeded`` after the default ``max_steps``
(10**6 steps), and the resident set size must stay flat while it runs.
A sampling thread reads RSS from ``/proc/self/statm`` every half second;
the growth from the sample at 20 % of the run to the last sample must
stay under ``MAX_GROWTH_MB``.  About a minute on one core.

    PYTHONPATH=src python benchmarks/soak_step_limit.py

Exits 0 on success and prints the RSS samples; raises on failure.
"""

from __future__ import annotations

import inspect
import os
import threading
import time

from repro.core.actions import assert_tuple
from repro.core.constructs import guarded, repeat
from repro.core.expressions import Var
from repro.core.patterns import P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import immediate
from repro.errors import StepLimitExceeded
from repro.runtime.engine import Engine

#: The RSS growth the soak allows from 20 % of the run to its end.
MAX_GROWTH_MB = 8.0


def rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def main() -> None:
    default = inspect.signature(Engine.run).parameters["max_steps"].default
    assert default == 1_000_000, default
    a = Var("a")
    looper = ProcessDefinition("Main", body=[repeat(guarded(
        immediate(exists(a).match(P["x", a].retract())).then(assert_tuple("x", a + 1))
    ))])
    engine = Engine(definitions=[looper], seed=1)
    engine.assert_tuples([("x", 0)])
    engine.start("Main")

    samples: list[tuple[int, float]] = []
    done = threading.Event()

    def sample() -> None:
        while not done.wait(0.5):
            samples.append((engine.step_count, rss_mb()))

    sampler = threading.Thread(target=sample, daemon=True)
    start = time.perf_counter()
    sampler.start()
    try:
        engine.run()
    except StepLimitExceeded:
        pass
    else:
        raise AssertionError("the loop ended before the default step limit")
    finally:
        done.set()
        sampler.join()
    elapsed = time.perf_counter() - start
    samples.append((engine.step_count, rss_mb()))
    assert engine.step_count >= default, engine.step_count
    (row,) = engine.dataspace.multiset()  # one <x, n> tuple throughout
    assert row[0] == "x" and row[1] > 0, row

    settled = [mb for steps, mb in samples if steps >= default // 5]
    growth = settled[-1] - settled[0]
    for steps, mb in samples:
        print(f"{steps:>9} steps  {mb:7.1f} MB")
    print(f"{engine.step_count} steps in {elapsed:.1f} s, RSS growth {growth:+.2f} MB")
    assert growth < MAX_GROWTH_MB, f"RSS grew {growth:.2f} MB"


if __name__ == "__main__":
    main()
