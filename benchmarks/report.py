#!/usr/bin/env python
"""Regenerate the EXPERIMENTS.md measurement tables.

Runs the headline configuration of experiments E1-E10 — the series
EXPERIMENTS.md tabulates — once each and prints them as markdown tables
(smaller/faster configurations than the full benchmark harness uses, where
noted).  E12-E21 have no table here: ``bench_e12`` ... ``bench_e21`` hold
their set-ups, with assertions.

Usage:  python benchmarks/report.py
"""

from __future__ import annotations

import time

from repro.baselines import MessageSummer, SharedArraySummer
from repro.core.dataspace import Dataspace
from repro.core.expressions import variables
from repro.core.patterns import ANY, P
from repro.core.query import exists
from repro.core.views import FULL_VIEW, View
from repro.linda import LindaKernel
from repro.programs import (
    run_community_labeling,
    run_find,
    run_search,
    run_sort,
    run_sum1,
    run_sum2,
    run_sum3,
    run_worker_labeling,
)
from repro.viz import concurrency_profile
from repro.workloads import (
    random_array,
    random_blob_image,
    random_property_list,
    soup_rows,
)


def table(title: str, header: list[str], rows: list[list]) -> None:
    print(f"\n### {title}\n")
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("---" for __ in header) + "|")
    for row in rows:
        print("| " + " | ".join(str(c) for c in row) + " |")


def timed(func, *args, **kwargs):
    start = time.perf_counter()
    out = func(*args, **kwargs)
    return out, time.perf_counter() - start


def e1_e2() -> None:
    rows = []
    for n in (16, 64, 256):
        values = random_array(n, seed=n)
        for name, runner in (("Sum1", run_sum1), ("Sum2", run_sum2), ("Sum3", run_sum3)):
            out, seconds = timed(runner, values, seed=1)
            assert out.total == sum(values)
            rows.append(
                [
                    name,
                    n,
                    out.trace.counters.processes_created,
                    out.result.commits,
                    out.result.consensus_rounds,
                    out.result.rounds,
                    f"{out.result.parallelism:.2f}",
                    f"{seconds * 1000:.0f}",
                ]
            )
    table(
        "E1/E2 — summation codings (correct sum in every cell)",
        ["coding", "N", "processes", "commits", "consensus", "rounds", "parallelism", "ms"],
        rows,
    )


def e3() -> None:
    rows = []
    for length in (8, 32, 128):
        plist = random_property_list(length, seed=length)
        target = plist[-1][1]
        search, ts = timed(run_search, plist, target, seed=1)
        find, tf = timed(run_find, plist, target, seed=1)
        rows.append(
            [
                length,
                search.trace.counters.processes_created,
                find.trace.counters.processes_created,
                search.result.commits,
                find.result.commits,
                f"{ts*1000:.0f}",
                f"{tf*1000:.0f}",
            ]
        )
    table(
        "E3 — Search vs Find (property at the tail of the list)",
        ["L", "Search procs", "Find procs", "Search commits", "Find commits", "Search ms", "Find ms"],
        rows,
    )


def e4() -> None:
    rows = []
    for length in (4, 8, 16, 32):
        plist = random_property_list(length, seed=length * 7)
        out, seconds = timed(run_sort, plist, seed=2)
        assert out.answer == sorted(str(r[1]) for r in plist)
        rows.append(
            [length, out.result.commits, out.result.rounds, out.result.consensus_rounds, f"{seconds*1000:.0f}"]
        )
    table(
        "E4 — distributed sort (consensus detects termination)",
        ["L", "commits", "rounds", "consensus", "ms"],
        rows,
    )


def e5() -> None:
    rows = []
    for size in (4, 6, 8, 12, 16):
        image = random_blob_image(size, size, blobs=2, seed=size)
        community, tc = timed(run_community_labeling, image, seed=2)
        assert community.correct
        first = min((r for __, r in community.completions), default="-")
        worker_rounds = worker_ms = "-"
        if size <= 12:  # the worker model still enumerates every label pair
            worker, tw = timed(run_worker_labeling, image, seed=2)
            assert worker.correct and worker.labels == community.labels
            worker_rounds, worker_ms = worker.result.rounds, f"{tw*1000:.0f}"
        rows.append(
            [
                f"{size}x{size}",
                community.region_count(),
                worker_rounds,
                community.result.rounds,
                community.result.consensus_rounds,
                first,
                worker_ms,
                f"{tc*1000:.0f}",
            ]
        )
    table(
        "E5 — region labeling (both models correct in every cell)",
        ["image", "regions", "worker rounds", "community rounds", "region consensus",
         "first region done (round)", "worker ms", "community ms"],
        rows,
    )


def e6() -> None:
    x, y = variables("x y")
    query = (
        exists(x, y)
        .match(P[ANY, ANY, x], P[ANY, ANY, y])
        .such_that((x + y) < -1)
        .build()
    )
    rows = []
    for total in (100, 200, 400):
        soup, target = soup_rows(total, relevant_fraction=0.1, groups=10, seed=7)
        ds = Dataspace()
        ds.insert_many(soup)
        full = FULL_VIEW.window(ds, {})
        restricted = View(imports=[P[target, ANY, ANY]]).window(ds, {})
        __, t_full = timed(query.evaluate, full.refresh(), {})
        __, t_restricted = timed(query.evaluate, restricted.refresh(), {})
        rows.append(
            [
                total,
                int(total * 0.1),
                f"{t_full*1000:.1f}",
                f"{t_restricted*1000:.1f}",
                f"{t_full/t_restricted:.0f}x",
            ]
        )
    table(
        "E6 — view scoping on an exhaustive two-atom join",
        ["|D|", "|window|", "full view ms", "restricted view ms", "speedup"],
        rows,
    )


def e7() -> None:
    n = 400
    kernel = LindaKernel(seed=1)

    def producer(k):
        for i in range(n):
            yield k.out("item", i)

    def consumer(k):
        for __ in range(n):
            yield k.in_("item", ANY)

    kernel.eval(producer)
    kernel.eval(consumer)
    __, t_linda = timed(kernel.run)

    from repro.core.actions import assert_tuple
    from repro.core.constructs import guarded, repeat
    from repro.core.process import ProcessDefinition
    from repro.core.transactions import delayed, immediate
    from repro.runtime.engine import Engine

    a, i = variables("a i")
    prod = ProcessDefinition(
        "Producer",
        body=[repeat(guarded(immediate(exists(i).match(P["todo", i].retract())).then(assert_tuple("item", i))))],
    )
    cons = ProcessDefinition(
        "Consumer",
        body=[repeat(guarded(delayed(exists(a).match(P["item", a].retract())).then()))],
    )
    engine = Engine(definitions=[prod, cons], seed=1, on_deadlock="return")
    engine.assert_tuples([("todo", k) for k in range(n)])
    engine.start("Producer")
    engine.start("Consumer")
    __, t_sdl = timed(engine.run)
    table(
        "E7 — primitive producer/consumer throughput (400 items)",
        ["kernel", "total ms", "µs per op"],
        [
            ["Linda (out/in)", f"{t_linda*1000:.0f}", f"{t_linda/(2*n)*1e6:.0f}"],
            ["SDL (assert/retract txns)", f"{t_sdl*1000:.0f}", f"{t_sdl/(2*n)*1e6:.0f}"],
        ],
    )


def e8_inline() -> None:
    from repro.core.actions import assert_tuple
    from repro.core.expressions import Var
    from repro.core.process import ProcessDefinition
    from repro.core.query import exists
    from repro.core.transactions import consensus, immediate
    from repro.runtime.engine import Engine

    g = Var("g")
    member = ProcessDefinition(
        "Member",
        params=("g",),
        imports=[P[g, ANY]],
        exports=[P[g, ANY], P["done", ANY, ANY]],
        body=[
            immediate().then(assert_tuple(g, "arrived")),
            consensus(exists().match(P[g, ANY])).then(assert_tuple("done", g, 1)),
        ],
    )
    rows = []
    for processes, communities in ((8, 1), (32, 1), (32, 8), (64, 1), (64, 16)):
        def run():
            engine = Engine(definitions=[member], seed=1)
            for c in range(communities):
                engine.assert_tuples([(f"g{c}", "token")])
            for p in range(processes):
                engine.start("Member", (f"g{p % communities}",))
            return engine.run()

        result, seconds = timed(run)
        assert result.consensus_rounds == communities
        rows.append([processes, communities, result.consensus_rounds, result.steps, f"{seconds*1000:.0f}"])
    table(
        "E8 — consensus/quiescence detection scaling",
        ["processes", "communities", "consensus firings", "steps", "ms"],
        rows,
    )


def e9() -> None:
    rows = []
    for n in (32, 128, 512):
        out = run_sum3(random_array(n, seed=n), seed=1, detail=True)
        profile = concurrency_profile(out.trace)
        waves = [profile[r] for r in sorted(profile)]
        rows.append(
            [n, out.result.rounds, f"{out.result.parallelism:.1f}", " ".join(map(str, waves))]
        )
    table(
        "E9 — Sum3 concurrency profile (commits per round)",
        ["N", "rounds", "avg parallelism", "wave profile"],
        rows,
    )


def e10() -> None:
    rows = []
    for n in (16, 64, 256):
        values = random_array(n, seed=n)
        shared = SharedArraySummer(values)
        __, t_shared = timed(shared.run)
        actors = MessageSummer(values, seed=2)
        __, t_actors = timed(actors.run)
        sum1, t1 = timed(run_sum1, values, seed=1)
        sum3, t3 = timed(run_sum3, values, seed=1)
        rows.append(
            [
                n,
                shared.barriers,
                sum1.result.consensus_rounds,
                actors.network.messages_sent,
                f"{t_shared*1e6:.0f}",
                f"{t_actors*1e6:.0f}",
                f"{t1*1e6:.0f}",
                f"{t3*1e6:.0f}",
            ]
        )
    table(
        "E10 — traditional baselines vs SDL codings",
        ["N", "shared barriers", "Sum1 consensus", "actor messages",
         "shared µs", "actors µs", "Sum1 µs", "Sum3 µs"],
        rows,
    )


def main() -> None:
    print("# Experiment report (regenerated)")
    e1_e2()
    e3()
    e4()
    e5()
    e6()
    e7()
    e8_inline()
    e9()
    e10()


if __name__ == "__main__":
    main()
