#!/usr/bin/env python
"""Regenerate the EXPERIMENTS.md measurement tables.

Runs every experiment's headline configuration once and prints the series
as markdown tables (smaller/faster configurations than the full benchmark
harness uses, where noted).

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
    for size in (4, 6, 8):
        image = random_blob_image(size, size, blobs=2, seed=size)
        worker, tw = timed(run_worker_labeling, image, seed=2)
        community, tc = timed(run_community_labeling, image, seed=2)
        assert worker.correct and community.correct
        first = min((r for __, r in community.completions), default="-")
        rows.append(
            [
                f"{size}x{size}",
                worker.region_count(),
                worker.result.rounds,
                community.result.rounds,
                community.result.consensus_rounds,
                first,
                f"{tw*1000:.0f}",
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


def e12() -> None:
    from repro.core.actions import assert_tuple
    from repro.core.constructs import guarded, repeat
    from repro.core.expressions import Var
    from repro.core.process import ProcessDefinition
    from repro.core.transactions import delayed, immediate
    from repro.runtime.engine import Engine

    readers = 48
    i, v, n = Var("i"), Var("v"), Var("n")
    reader = ProcessDefinition(
        "Reader",
        params=("i",),
        body=[
            delayed(exists(v).match(P["cell", i, v].retract())).then(
                assert_tuple("got", i, v)
            )
        ],
    )
    writer = ProcessDefinition(
        "Writer",
        body=[
            repeat(
                guarded(
                    immediate(
                        exists(n).match(P["tok", n].retract()).such_that(n < readers)
                    ).then(assert_tuple("cell", n, n), assert_tuple("tok", n + 1))
                )
            )
        ],
    )
    rows = []
    for mode in ("keys", "arity", "all"):
        def run():
            engine = Engine(
                definitions=[reader, writer], seed=5, policy="fifo", wake_filter=mode
            )
            engine.assert_tuples([("tok", 0)])
            for k in range(readers):
                engine.start("Reader", (k,))
            engine.start("Writer")
            result = engine.run()
            return engine, result

        (engine, result), seconds = timed(run)
        rows.append(
            [
                mode,
                engine.trace.counters.failures,
                result.wakeups,
                result.precise_wakeups,
                result.spurious_wakeups,
                f"{result.spurious_wake_rate:.2f}",
                f"{seconds*1000:.0f}",
            ]
        )
    table(
        "E12 — wake filter precision (48 staggered readers)",
        ["wake_filter", "guard re-evals", "wakeups", "precise", "spurious",
         "spurious rate", "ms"],
        rows,
    )


def e13() -> None:
    from repro.core.actions import assert_tuple
    from repro.core.expressions import Var
    from repro.core.process import ProcessDefinition
    from repro.core.transactions import delayed
    from repro.runtime.engine import Engine

    a = Var("a")
    workers, depth = 32, 3
    worker = ProcessDefinition(
        "W",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                assert_tuple("done", Var("k"), a)
            )
            for __ in range(depth)
        ],
    )
    taker = ProcessDefinition(
        "T",
        body=[
            delayed(exists(a).match(P["tok", a].retract())).then(
                assert_tuple("tok", a + 1)
            )
        ],
    )
    rows = []
    for label, commit in (
        ("disjoint/serial", "serial"),
        ("disjoint/group", "group"),
        ("disjoint/live", "live"),
        ("contended/serial", "serial"),
        ("contended/group", "group"),
        ("contended/live", "live"),
    ):
        def run():
            validate = "serial" if commit == "group" else None
            if label.startswith("disjoint"):
                engine = Engine(definitions=[worker], seed=7, commit=commit, validate=validate)
                engine.assert_tuples([(k, d) for k in range(workers) for d in range(depth)])
                for k in range(workers):
                    engine.start("W", (k,))
            else:
                engine = Engine(definitions=[taker], seed=7, commit=commit, validate=validate)
                engine.assert_tuples([("tok", 0)])
                for __ in range(12):
                    engine.start("T")
            result = engine.run()
            assert result.completed
            return result

        result, seconds = timed(run)
        rows.append(
            [
                label,
                result.rounds,
                result.commits,
                result.max_batch or "-",
                f"{result.avg_batch:.2f}" if result.group_rounds else "-",
                result.conflicts if result.group_rounds else "-",
                f"{result.conflict_rate:.2f}" if result.group_rounds else "-",
                f"{seconds*1000:.0f}",
            ]
        )
    table(
        "E13 — group commit: rounds vs the serial reference "
        "(32 disjoint workers × depth 3; 12 contended takers; "
        "group runs validated by serial replay)",
        ["workload/commit", "rounds", "commits", "max batch", "avg batch",
         "conflicts", "conflict rate", "ms"],
        rows,
    )


def e14() -> None:
    from repro.core.actions import assert_tuple
    from repro.core.expressions import Var
    from repro.core.process import ProcessDefinition
    from repro.core.transactions import delayed
    from repro.programs.labeling import default_threshold, worker_definition
    from repro.runtime import RestartPolicy
    from repro.runtime.engine import Engine
    from repro.workloads import image_tuples

    a = Var("a")
    workers, depth = 24, 3
    worker = ProcessDefinition(
        "W",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                assert_tuple("done", Var("k"), a)
            )
            for __ in range(depth)
        ],
    )

    def community(**kw):
        engine = Engine(definitions=[worker], seed=7, on_deadlock="return", **kw)
        engine.assert_tuples([(k, d) for k in range(workers) for d in range(depth)])
        for k in range(workers):
            engine.start("W", (k,))
        return engine

    rows = []
    for label, kwargs in (
        ("no injector", {}),
        ("inert plan", {"faults": "pre-commit:crash:name=NoSuchProcess:at=1"}),
        (
            "3 crashes + restart",
            {
                "faults": "pre-commit:crash:name=W:at=1:max=3",
                "supervision": RestartPolicy(policy="restart", max_restarts=4),
            },
        ),
    ):
        def run():
            engine = community(**kwargs)
            return engine.run()

        result, seconds = timed(run)
        rows.append(
            [
                label,
                result.reason,
                result.rounds,
                result.commits,
                result.crashes,
                result.restarts,
                result.recoveries,
                f"{seconds*1000:.0f}",
            ]
        )
    table(
        "E14 — fault injection: overhead and supervised recovery "
        "(24 disjoint workers × depth 3)",
        ["configuration", "reason", "rounds", "commits", "crashes",
         "restarts", "recoveries", "ms"],
        rows,
    )

    image = random_blob_image(6, 6, blobs=2, seed=14)
    rows = []
    for interval in (8, 32, 128):
        def run():
            engine = Engine(
                definitions=[worker_definition(default_threshold())],
                seed=2,
                checkpoint_interval=interval,
            )
            engine.assert_tuples(image_tuples(image))
            engine.start("Threshold_and_label")
            result = engine.run()
            assert result.completed
            engine.recovery.verify()
            return engine, result

        (engine, result), seconds = timed(run)
        rows.append(
            [
                interval,
                result.checkpoints,
                engine.recovery.latest.size,
                engine.recovery.replayed,
                f"{seconds*1000:.0f}",
            ]
        )
    table(
        "E14 — checkpoint interval vs recovery cost (6x6 labeling, "
        "replay verified against the live state)",
        ["interval", "checkpoints", "state size", "replayed events", "ms"],
        rows,
    )


def e15() -> None:
    n = 64

    # disabled-overhead table: obs off vs on over the same seeded runs
    rows = []
    for label, kwargs in (
        ("E1 Sum2", {}),
        ("E13 Sum2/group", {"commit": "group", "validate": "serial", "checkpoint_interval": 16}),
    ):
        off, t_off = timed(run_sum2, list(range(n)), seed=15, **kwargs)
        on, t_on = timed(run_sum2, list(range(n)), seed=15, obs=True, **kwargs)
        assert off.total == on.total
        assert (off.result.rounds, off.result.commits) == (on.result.rounds, on.result.commits)
        rows.append(
            [
                label,
                on.result.rounds,
                on.result.commits,
                f"{t_off*1000:.0f}",
                f"{t_on*1000:.0f}",
                f"{t_on/t_off:.2f}x" if t_off else "-",
            ]
        )
    table(
        "E15 — observability overhead (identical seeded runs, obs off vs on)",
        ["workload", "rounds", "commits", "off ms", "on ms", "ratio"],
        rows,
    )

    # per-site latency table across the three instrumented workloads
    def site_rows(label, metrics):
        out = []
        for name, entry in sorted(metrics.items()):
            if entry.get("kind") != "histogram" or not name.endswith("_seconds"):
                continue
            data = entry["data"]
            if not data["count"]:
                continue
            site = name[len("sdl_"):-len("_seconds")]
            out.append(
                [
                    label,
                    site,
                    data["count"],
                    f"{data['p50']*1e6:.1f}",
                    f"{data['p95']*1e6:.1f}",
                    f"{data['max']*1e6:.1f}",
                ]
            )
        return out

    rows = []
    e1, __ = timed(run_sum2, list(range(n)), seed=15, obs=True)
    rows += site_rows("E1 Sum2", e1.result.metrics)
    image = random_blob_image(6, 6, blobs=2, seed=15)
    e5_run, __ = timed(run_worker_labeling, image, seed=2, obs=True)
    assert e5_run.correct
    rows += site_rows("E5 labeling", e5_run.result.metrics)
    e13_run, __ = timed(
        run_sum2, list(range(n)), seed=15, obs=True,
        commit="group", validate="serial", checkpoint_interval=16,
    )
    rows += site_rows("E13 group", e13_run.result.metrics)
    table(
        "E15 — per-site latency histograms (µs, bucket-estimated quantiles)",
        ["workload", "site", "count", "p50", "p95", "max"],
        rows,
    )


def e16() -> None:
    from repro.core.plan import QueryPlanner
    from repro.core.query import exists as q_exists

    a, b = variables("a b")
    reps = 20

    def eval_times(ds, query):
        naive_window = FULL_VIEW.window(ds)
        planned_window = FULL_VIEW.window(ds)
        planned_window.planner = QueryPlanner(ds)
        start = time.perf_counter()
        for __ in range(reps):
            assert query.evaluate(naive_window, {}, None).success
        t_naive = time.perf_counter() - start
        start = time.perf_counter()
        for __ in range(reps):
            assert query.evaluate(planned_window, {}, None).success
        t_planned = time.perf_counter() - start
        return t_naive / reps, t_planned / reps

    # selectivity-inverted joins at growing scale (wide atom textually first)
    rows = []
    for n in (500, 1500, 5000):
        ds = Dataspace()
        ds.insert_many([("data", i, i % 7) for i in range(n)])
        ds.insert(("probe", n - 1))
        query = q_exists(a, b).match(P["data", a, b], P["probe", a]).build()
        t_naive, t_planned = eval_times(ds, query)
        rows.append(
            [
                n + 1,
                f"{t_naive*1e3:.2f}",
                f"{t_planned*1e3:.3f}",
                f"{t_naive/t_planned:.0f}x" if t_planned else "-",
            ]
        )
    table(
        "E16 — selectivity-inverted 2-atom ∃ join (textual order worst-case)",
        ["tuples", "naive ms", "planned ms", "speedup"],
        rows,
    )

    # whole-program runs: planner on vs off, with cache behaviour
    rows = []
    plist = random_property_list(24, seed=16)
    for label, runner in (
        ("Sum2 n=64", lambda plan: run_sum2(list(range(64)), seed=16, plan=plan)),
        (
            "labeling 6x6",
            lambda plan: run_worker_labeling(
                random_blob_image(6, 6, blobs=2, seed=16), seed=2, plan=plan
            ),
        ),
        ("Find L=24", lambda plan: run_find(plist, plist[-1][1], seed=2, plan=plan)),
    ):
        on, t_on = timed(runner, "on")
        off, t_off = timed(runner, "off")
        result = on.result
        rows.append(
            [
                label,
                f"{t_off*1000:.0f}",
                f"{t_on*1000:.0f}",
                result.plan_misses,
                result.plan_hits,
                f"{result.plan_hit_rate:.3f}",
            ]
        )
    table(
        "E16 — whole programs, planner off vs on (plan cache amortisation)",
        ["workload", "off ms", "on ms", "plans built", "cache hits", "hit rate"],
        rows,
    )


def e17() -> None:
    from repro.core.actions import assert_tuple
    from repro.core.expressions import Var
    from repro.core.process import ProcessDefinition
    from repro.core.transactions import delayed
    from repro.runtime.engine import Engine

    a = Var("a")
    workers, depth = 24, 3
    worker = ProcessDefinition(
        "W",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                assert_tuple("done", Var("k"), a)
            )
            for __ in range(depth)
        ],
    )

    def run(shards, commit="live"):
        engine = Engine(
            definitions=[worker], seed=7, commit=commit, shards=shards
        )
        engine.assert_tuples([(k, d) for k in range(workers) for d in range(depth)])
        for k in range(workers):
            engine.start("W", (k,))
        result = engine.run()
        assert result.completed
        return engine, result

    # Sum3 pins no field: every evaluation is an un-probed arity scan,
    # the read a sharded layout must not re-assemble per query.
    sum3_values = list(range(512))
    sum3_single = None
    rows = []
    for shards in ("single", 2, 4, 8):
        __, t_best = min(
            (timed(run, shards) for __ in range(3)), key=lambda pair: pair[1]
        )
        engine, result = run(shards, commit="group")
        sizes = engine.dataspace.shard_sizes()
        sum3_best = min(
            timed(run_sum3, sum3_values, seed=7, shards=shards)[1] for __ in range(5)
        )
        if sum3_single is None:
            sum3_single = sum3_best
        rows.append(
            [
                engine.dataspace.shard_spec,
                f"{t_best*1000:.1f}",
                result.rounds,
                result.max_batch,
                "/".join(str(s) for s in sizes),
                f"{sum3_best*1000:.1f}",
                f"{sum3_best/sum3_single:.2f}x",
            ]
        )
    table(
        "E17 — sharded storage: routing cost, layout-blind group admission "
        f"({workers} communities x {depth}), un-probed scans (Sum3, N=512)",
        ["layout", "live ms (best of 3)", "group rounds", "max batch",
         "shard occupancy", "Sum3 ms (best of 5)", "Sum3 vs single"],
        rows,
    )


def e18() -> None:
    import os

    from repro.core.actions import assert_tuple, let
    from repro.core.expressions import Var, lift
    from repro.core.process import ProcessDefinition
    from repro.core.transactions import delayed
    from repro.runtime.engine import Engine
    from repro.workloads.compute import spin

    a = Var("a")
    communities, depth, units = 8, 3, 40_000
    burn = lift(spin, name="spin")
    worker = ProcessDefinition(
        "W",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                let(Var("n"), burn(a, units)),
                assert_tuple("done", Var("k"), Var("n")),
            )
            for __ in range(depth)
        ],
    )

    def run(workers):
        engine = Engine(
            definitions=[worker], seed=7, commit="group", shards=8,
            workers=workers,
        )
        engine.assert_tuples(
            [(k, d) for k in range(communities) for d in range(depth)]
        )
        for k in range(communities):
            engine.start("W", (k,))
        result = engine.run()
        assert result.completed
        return engine, result

    baseline = None
    rows = []
    for workers in (None, 1, "thread:4", "process:4"):
        run(workers)  # warm: pool fork, plan caches
        (engine, result), t_best = min(
            (timed(run, workers) for __ in range(3)), key=lambda pair: pair[1]
        )
        state = engine.dataspace.multiset()
        if baseline is None:
            baseline = (state, t_best)
        assert state == baseline[0], "parallel run diverged from serial"
        rows.append(
            [
                "serial" if workers is None else workers,
                f"{t_best*1000:.1f}",
                f"{baseline[1]/t_best:.2f}x",
                result.parallel_rounds,
                result.parallel_groups,
                result.parallel_fallbacks,
            ]
        )
    table(
        "E18 — parallel group-round apply: compute-heavy disjoint communities "
        f"({communities} x {depth}, spin={units}, {os.cpu_count()} CPU(s))",
        ["workers", "best-of-3 ms", "speedup", "parallel rounds",
         "groups dispatched", "fallbacks"],
        rows,
    )


def e19() -> None:
    import tempfile

    from repro.runtime import DurableLog

    interval = 64

    def build(ops):
        wal_dir = tempfile.mkdtemp(prefix="sdl-e19-")
        space = Dataspace(shards=4)
        log = DurableLog(space, wal_dir, interval=interval, keep=4)
        tids = []
        for i in range(ops):
            tids.append(space.insert(("item", i % 97, i)).tid)
            if len(tids) > 200:  # bounded live set: recovery cost should stay flat
                space.retract(tids.pop(0))
        log.close()
        return wal_dir, space, log

    rows = []
    for ops in (500, 2_000, 8_000):
        wal_dir, space, log = build(ops)
        (scratch, report), t_best = min(
            (timed(DurableLog.load, wal_dir) for __ in range(3)),
            key=lambda pair: pair[1],
        )
        assert report.intact
        assert sorted(i.values for i in scratch.instances()) == sorted(
            i.values for i in space.instances()
        ), "durable load diverged from live state"
        rows.append(
            [
                ops,
                log.wal_frames,
                f"{log.wal_bytes/1024:.0f}",
                report.segments_scanned,
                report.frames_replayed,
                f"{t_best*1000:.1f}",
            ]
        )
    table(
        "E19 — durable recovery: load time vs history length "
        f"(interval={interval}, keep=4, ~200 live instances)",
        ["operations", "wal frames", "wal KiB", "segments scanned",
         "frames replayed", "load ms (best of 3)"],
        rows,
    )

    from repro.core.actions import assert_tuple
    from repro.core.expressions import Var
    from repro.core.process import ProcessDefinition
    from repro.core.transactions import delayed
    from repro.runtime.engine import Engine

    a = Var("a")
    mover = ProcessDefinition(
        "Mover",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                assert_tuple("done", Var("k"), a)
            )
            for __ in range(4)
        ],
    )

    def run(faults=None, workers=None, worker_timeout=None):
        engine = Engine(
            definitions=[mover], seed=7, commit="group", shards=4,
            workers=workers, faults=faults, worker_timeout=worker_timeout,
        )
        engine.assert_tuples([(k, d) for k in range(6) for d in range(4)])
        for k in range(6):
            engine.start("Mover", (k,))
        result = engine.run()
        assert result.completed
        return engine, result

    base_engine, __ = run()
    base_state = base_engine.dataspace.multiset()
    rows = []
    for label, clause, timeout in (
        ("clean pool", None, None),
        ("garbage-plan at=1", "seed=5; worker-exec:garbage-plan:at=1", None),
        ("worker-crash at=1", "seed=5; worker-exec:worker-crash:at=1", None),
        ("worker-hang at=1", "seed=5; worker-exec:worker-hang:at=1", 0.05),
    ):
        engine, result = run(faults=clause, workers="thread:3", worker_timeout=timeout)
        identical = engine.dataspace.multiset() == base_state
        assert identical, f"{label}: worker faults changed observable state"
        rows.append(
            [
                label,
                result.worker_timeouts,
                result.worker_retries,
                result.worker_quarantined,
                result.worker_plan_rejects,
                result.parallel_fallbacks,
                "yes" if identical else "NO",
            ]
        )
    table(
        "E19 — supervised worker pool: seeded faults absorbed and counted "
        "(6 communities x 4, thread:3)",
        ["fault", "timeouts", "retries", "quarantined", "plan rejects",
         "serial fallbacks", "= serial state"],
        rows,
    )


def e20() -> None:
    from repro.core.expressions import Var
    from repro.core.patterns import pattern

    a = Var("a")
    scan_rows = [("reading", i % 50, i % 7, (i * 13) % 50) for i in range(20_000)]
    batch_rows = [("m", i, i + 1, i * 2, i % 7, i % 13) for i in range(5_000)]

    def build(store):
        ds = Dataspace(store=store)
        ds.insert_many(scan_rows)
        return ds

    spaces = {store: build(store) for store in ("object", "columnar")}
    rows = []
    for label, pat in (
        ("mid probe", pattern("reading", Var("x"), 3, Var("y"))),
        ("head probe", pattern("reading", 7, Var("x"), Var("y"))),
        ("repeated var", pattern("reading", a, Var("b"), a)),
    ):
        times = {}
        for store, ds in spaces.items():
            __, times[store] = min(
                (timed(ds.count_matching, pat) for __ in range(5)),
                key=lambda pair: pair[1],
            )
        n = spaces["object"].count_matching(pat)
        assert spaces["columnar"].count_matching(pat) == n
        rows.append(
            [
                label,
                n,
                f"{times['object']*1000:.2f}",
                f"{times['columnar']*1000:.2f}",
                f"{times['object']/times['columnar']:.1f}x",
            ]
        )

    def batch_cycle(store):
        ds = Dataspace(store=store)
        for __ in range(4):
            insts = ds.insert_many(batch_rows)
            ds.retract_many([i.tid for i in insts[: len(insts) // 2]])
        return ds

    times = {}
    for store in ("object", "columnar"):
        ds, times[store] = min(
            (timed(batch_cycle, store) for __ in range(3)),
            key=lambda pair: pair[1],
        )
    rows.append(
        [
            "batch assert/retract",
            4 * len(batch_rows),
            f"{times['object']*1000:.0f}",
            f"{times['columnar']*1000:.0f}",
            f"{times['object']/times['columnar']:.1f}x",
        ]
    )
    table(
        "E20 — columnar storage: hot-arity scans and batched mutation "
        "(20k rows scan, 4x5k batch cycle, best-of-N)",
        ["workload", "n", "object ms", "columnar ms", "speedup"],
        rows,
    )


def e21() -> None:
    import os

    from repro.core.actions import assert_tuple
    from repro.core.expressions import Var, lift
    from repro.core.process import ProcessDefinition
    from repro.core.query import forall
    from repro.core.transactions import delayed
    from repro.runtime.engine import Engine
    from repro.workloads.compute import spin

    a, b = Var("a"), Var("b")
    communities, pop, units = 8, 4, 20_000
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

    def run(workers, admit, obs=None):
        engine = Engine(
            definitions=[worker], seed=7, commit="group", shards=8,
            workers=workers, admit=admit, obs=obs,
        )
        engine.assert_tuples(
            [(k, d) for k in range(communities) for d in range(pop)]
        )
        for k in range(communities):
            engine.start("W", (k, k + communities))
        result = engine.run()
        assert result.completed
        return engine, result

    baseline = None
    rows = []
    for workers, admit in (
        (None, "serial"), ("thread:4", "parallel"), ("process:4", "parallel"),
    ):
        run(workers, admit)  # warm: pool fork, plan caches
        (engine, result), t_best = min(
            (timed(run, workers, admit) for __ in range(3)),
            key=lambda pair: pair[1],
        )
        state = engine.dataspace.multiset()
        if baseline is None:
            baseline = (state, t_best)
        assert state == baseline[0], "parallel admission diverged from serial"
        rows.append(
            [
                "serial" if workers is None else workers,
                f"{t_best*1000:.1f}",
                f"{baseline[1]/t_best:.2f}x",
                result.admit_rounds,
                result.admit_candidates,
                result.admit_fallbacks,
                f"{result.snapshot_ship_bytes/1024:.1f}",
                f"{result.snapshot_refreshes_delta}/{result.snapshot_refreshes_full}",
            ]
        )
    table(
        "E21 — parallel admission: match evaluation on workers over shard "
        f"snapshots ({communities} communities x {pop}, spin={units}, "
        f"{os.cpu_count()} CPU(s))",
        ["workers", "best-of-3 ms", "speedup", "admit rounds",
         "candidates on workers", "serial fallbacks", "shipped KiB",
         "refreshes delta/full"],
        rows,
    )

    # obs counter cross-check: the RunResult numbers above are mirrored
    # one-to-one by the metrics registry.
    __, result = run("thread:4", "parallel", obs=True)
    m = result.metrics
    refreshes = m["sdl_snapshot_refresh_total"]["data"]
    admit_hist = m["sdl_parallel_admit_seconds"]["data"]
    versions = sorted(
        name for name in m if name.startswith("sdl_snapshot_worker_version_")
    )
    assert m["sdl_snapshot_ship_bytes_total"]["data"] == result.snapshot_ship_bytes
    table(
        "E21 — snapshot residency counters (thread:4, obs on)",
        ["metric", "value"],
        [
            ["sdl_snapshot_ship_bytes_total", result.snapshot_ship_bytes],
            [
                "sdl_snapshot_refresh_total",
                ", ".join(f"{k}={v}" for k, v in sorted(refreshes.items())),
            ],
            ["sdl_parallel_admit_seconds count", admit_hist["count"]],
            ["worker snapshot version gauges", len(versions)],
            [
                "sdl_parallel_admit_fallbacks_total",
                sum(
                    m.get("sdl_parallel_admit_fallbacks_total", {})
                    .get("data", {}).values()
                ),
            ],
        ],
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
    e12()
    e13()
    e14()
    e15()
    e16()
    e17()
    e18()
    e19()
    e20()
    e21()


if __name__ == "__main__":
    main()
