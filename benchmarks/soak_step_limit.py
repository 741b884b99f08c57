"""Soak: long runs stay in flat memory.

1. *Runaway loop.*  One process retracts ``<x, a>`` and asserts
   ``<x, a + 1>`` forever; the run must stop with ``StepLimitExceeded``
   after the default ``max_steps`` (10**6 steps).
2. *Parked relay.*  ``RELAY_WIDTH`` delayed processes wait, each on its
   own ``<ping, k, v>`` behind a view that imports only that tuple; the
   one whose tuple is there retracts it, asserts the next and spawns
   ``Relay(k + RELAY_WIDTH)``, then retires — forever, until
   ``RELAY_STEPS``.  Process table, task table, window table, wakeup
   index, plan cache and kernel cache must stay bounded by the program
   (one query, one bound-name shape), not grow with the run.
3. *Consensus communities.*  ``COMMUNITY_WIDTH`` members at a time, in
   communities of ``COMMUNITY_SIZE``, each behind a ``where``-view whose
   guard names its keys, its community's cell numbers (``same``, with an
   enumerator); each asserts its cell, meets its community at a consensus
   that retracts the cells, spawns its successor ``COMMUNITY_WIDTH`` cells
   on and retires — so the keys take ever-new values until
   ``COMMUNITY_STEPS``.  The window router's routes, key and support
   tables, named-key index, inboxes and touched set, the counted consensus
   closure and the window table must stay bounded by the program, not
   grow with the run.

For both, a sampling thread reads RSS from ``/proc/self/statm`` every half
second; the growth from the sample at 20 % of the run to the last sample
must stay under ``MAX_GROWTH_MB``.  About two minutes on one core.

    PYTHONPATH=src python benchmarks/soak_step_limit.py

Exits 0 on success and prints the RSS samples; raises on failure.
"""

from __future__ import annotations

import inspect
import os
import threading
import time

from repro.core.actions import assert_tuple, spawn
from repro.core.constructs import guarded, repeat
from repro.core.dataspace import JOURNAL_DEPTH
from repro.core.expressions import Var, lift
from repro.core.patterns import P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.society import RETIRED_DEPTH
from repro.core.transactions import consensus, delayed, immediate
from repro.core.views import MAX_ROUTER_KEYS, WindowRouter, _KeyTable, import_rule
from repro.errors import StepLimitExceeded
from repro.runtime.engine import Engine

#: The RSS growth the soak allows from 20 % of a run to its end.
MAX_GROWTH_MB = 8.0
#: Parked relay processes alive at any time.
RELAY_WIDTH = 64
#: Steps the relay runs for (each relay takes about three).
RELAY_STEPS = 400_000
#: Consensus members alive at any time, and members per community.
COMMUNITY_WIDTH = 16
COMMUNITY_SIZE = 4
#: Steps the communities run for: several times ``MAX_ROUTER_KEYS`` cells.
COMMUNITY_STEPS = 100_000


def rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def soak(engine: Engine, limit: int, label: str, **run_options) -> None:
    """Run *engine* (``run(**run_options)``) into ``StepLimitExceeded`` at
    its step *limit*, sampling RSS; assert it stays flat from 20 % of the
    run on."""
    samples: list[tuple[int, float]] = []
    done = threading.Event()

    def sample() -> None:
        while not done.wait(0.5):
            samples.append((engine.step_count, rss_mb()))

    sampler = threading.Thread(target=sample, daemon=True)
    start = time.perf_counter()
    sampler.start()
    try:
        engine.run(**run_options)
    except StepLimitExceeded:
        pass
    else:
        raise AssertionError(f"{label}: the loop ended before the step limit")
    finally:
        done.set()
        sampler.join()
    elapsed = time.perf_counter() - start
    samples.append((engine.step_count, rss_mb()))
    assert engine.step_count >= limit, engine.step_count

    settled = [mb for steps, mb in samples if steps >= limit // 5]
    growth = settled[-1] - settled[0]
    for steps, mb in samples:
        print(f"{label}: {steps:>9} steps  {mb:7.1f} MB")
    print(f"{label}: {engine.step_count} steps in {elapsed:.1f} s, RSS growth {growth:+.2f} MB")
    assert growth < MAX_GROWTH_MB, f"{label}: RSS grew {growth:.2f} MB"


def runaway_loop() -> None:
    default = inspect.signature(Engine.run).parameters["max_steps"].default
    assert default == 1_000_000, default
    a = Var("a")
    looper = ProcessDefinition("Main", body=[repeat(guarded(
        immediate(exists(a).match(P["x", a].retract())).then(assert_tuple("x", a + 1))
    ))])
    engine = Engine(definitions=[looper], seed=1)
    engine.assert_tuples([("x", 0)])
    engine.start("Main")
    soak(engine, default, "loop")  # at run()'s default limit
    (row,) = engine.dataspace.multiset()  # one <x, n> tuple throughout
    assert row[0] == "x" and row[1] > 0, row


def parked_relay() -> None:
    k, v = Var("k"), Var("v")
    relay = ProcessDefinition(
        "Relay",
        params=("k",),
        body=[
            delayed(exists(v).match(P["ping", k, v].retract())).then(
                assert_tuple("ping", k + 1, v + 1), spawn("Relay", k + RELAY_WIDTH)
            )
        ],
        imports=[import_rule("ping", k, Var("any"))],
    )
    engine = Engine(definitions=[relay], seed=1)
    engine.assert_tuples([("ping", 0, 0)])
    for first in range(RELAY_WIDTH):
        engine.start("Relay", (first,))
    soak(engine, RELAY_STEPS, "relay", max_steps=RELAY_STEPS)
    (row,) = engine.dataspace.multiset()  # one <ping, k, k> tuple throughout
    assert row[0] == "ping" and row[1] == row[2] > RELAY_STEPS // 4, row
    planner = engine.planner
    bounds = {
        "live processes": (len(engine.society), RELAY_WIDTH + 1),
        "kept instances": (
            sum(1 for __ in engine.society.all_instances()), RELAY_WIDTH + 1 + RETIRED_DEPTH
        ),
        "tasks": (len(engine.tasks), RELAY_WIDTH + 1),
        "windows": (len(engine._windows), RELAY_WIDTH + 1),
        "wakeup registrations": (len(engine.wakeups), RELAY_WIDTH),
        "plans": (planner.cache_size, 1),
        "kernels": (planner.kernel_count, 1),
    }
    for what, (size, bound) in bounds.items():
        print(f"relay: {what:<22} {size:>6}  (bound {bound})")
        assert size <= bound, f"relay: {size} {what}, bound {bound}"


def _same_community(h: int, g: int) -> bool:
    return h // COMMUNITY_SIZE == g // COMMUNITY_SIZE


def _community_of(g: int) -> range:
    first = g - g % COMMUNITY_SIZE
    return range(first, first + COMMUNITY_SIZE)


def _is_int(value: object) -> bool:
    return type(value) is int


def consensus_communities() -> None:
    g, h, v = Var("g"), Var("h"), Var("v")
    same = lift(_same_community, "same", enumerator=_community_of, domain=_is_int)(h, g)
    member = ProcessDefinition(
        "Member",
        params=("g",),
        body=[
            immediate().then(assert_tuple("cell", g, 0), assert_tuple("live", g)),
            consensus(exists(v).match(P["cell", g, v].retract())).then(
                spawn("Member", g + COMMUNITY_WIDTH)
            ),
            immediate(exists().match(P["live", g].retract())),
        ],
        imports=[
            import_rule("cell", h, v, guard=same, where=[P["live", h]]),
            import_rule("live", h, guard=same),
        ],
    )
    engine = Engine(definitions=[member], seed=1)
    for first in range(COMMUNITY_WIDTH):
        engine.start("Member", (first,))
    soak(engine, COMMUNITY_STEPS, "consensus", max_steps=COMMUNITY_STEPS)
    fired = engine.trace.counters.consensus_rounds
    assert fired > COMMUNITY_STEPS // 20, fired
    router = WindowRouter.of(engine.dataspace)
    tables = router.tables.values()
    keyed = [table for table in tables if isinstance(table, _KeyTable)]
    index = engine.executor.consensus_index
    sizes = index.sizes()
    members = 2 * COMMUNITY_WIDTH
    bounds = {
        "live processes": (len(engine.society), members),
        "windows": (len(engine._windows), members),
        "router members": (len(router.members), members),
        "router touched": (len(router.touched), members),
        "router routes": (len(router.routes), 2),
        "router key tables": (len(keyed), 2),
        "router support tables": (len(tables) - len(keyed), 1),
        "router key verdicts": (
            sum(
                len(table.admitting) + sum(len(seen) for seen in table.members.values())
                for table in keyed
            ),
            2 * MAX_ROUTER_KEYS,
        ),
        "router named keys": (
            sum(len(inboxes) for table in tables for inboxes in table.named.values()),
            3 * members * COMMUNITY_SIZE,
        ),
        "inbox entries": (
            max((len(w._inbox) + len(w._support) for w in router.members), default=0),
            JOURNAL_DEPTH,
        ),
        "consensus index pids": (len(index.pids()), members),
        "consensus index tids": (sizes["tids"], 2 * members),
        "consensus components": (sizes["components"], members),
        "consensus stale + checks": (sizes["stale"] + sizes["checks"], members),
    }
    for what, (size, bound) in bounds.items():
        print(f"consensus: {what:<22} {size:>6}  (bound {bound})")
        assert size <= bound, f"consensus: {size} {what}, bound {bound}"


def main() -> None:
    runaway_loop()
    parked_relay()
    consensus_communities()


if __name__ == "__main__":
    main()
