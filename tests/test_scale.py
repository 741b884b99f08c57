"""Scale tests — the paper's "many thousands of concurrent processes".

These are correctness tests at large society sizes with wall-clock
guardrails, not micro-benchmarks; they ensure the engine's data structures
(wake filters, consensus memoisation, index-probed footprints) hold up.
"""

import time


from repro.core.actions import assert_tuple
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import consensus, delayed, immediate
from repro.programs import (
    run_community_labeling,
    run_sum2,
    run_sum3,
    run_worker_labeling,
)
from repro.programs.summation import sum3_definition
from repro.runtime.engine import Engine
from repro.workloads import array_tuples, random_array, random_blob_image


class TestThousandsOfProcesses:
    def test_sum2_with_two_thousand_processes(self):
        n = 2048
        values = random_array(n, seed=5)
        start = time.perf_counter()
        out = run_sum2(values, seed=3)
        elapsed = time.perf_counter() - start
        assert out.total == sum(values)
        assert out.trace.counters.processes_created == n - 1
        assert out.result.rounds <= 16  # logarithmic makespan survives scale
        assert elapsed < 30

    def test_sum3_with_four_thousand_tuples(self):
        n = 4096
        values = random_array(n, seed=5)
        out = run_sum3(values, seed=3)
        assert out.total == sum(values)
        assert out.result.parallelism > 50

    @staticmethod
    def _sum3_cpu_per_commit(n: int) -> float:
        """Best-of-3 CPU seconds per commit of live, planned Sum3 over
        the object store (pinned: the naive walk and the columnar store
        still copy each fetch, so their cost grows with N)."""
        values = random_array(n, seed=5)
        best = None
        for __ in range(3):
            engine = Engine(
                definitions=[sum3_definition()], seed=3,
                commit="live", plan="on", store="object",
            )
            engine.assert_tuples(array_tuples(values))
            engine.start("Sum3")
            start = time.process_time()
            result = engine.run()
            elapsed = time.process_time() - start
            assert result.commits == n - 1
            [(__, total)] = engine.dataspace.snapshot()
            assert total == sum(values)
            best = elapsed if best is None else min(best, elapsed)
        return best / (n - 1)

    def test_sum3_commit_cost_does_not_grow_with_n(self):
        """A fetch hands out its bucket uncopied, the snapshot cut is a
        length and arbitration rotates by offset, so a commit at N = 16 384
        costs about what it costs at N = 1 024 (1.4x on a 2-CPU x86-64
        box; copying every candidate list cost 6-7x)."""
        small = self._sum3_cpu_per_commit(1024)
        large = self._sum3_cpu_per_commit(16384)
        assert large <= 3 * small, (large, small)

    def test_hundreds_of_consensus_communities(self):
        g = Var("g")
        member = ProcessDefinition(
            "Member",
            params=("g",),
            imports=[P[g, ANY]],
            exports=[P[g, ANY], P["done", ANY]],
            body=[
                immediate().then(assert_tuple(g, "arrived")),
                consensus(exists().match(P[g, ANY])).then(assert_tuple("done", g)),
            ],
        )
        processes, communities = 400, 40
        engine = Engine(definitions=[member], seed=2)
        for c in range(communities):
            engine.assert_tuples([(f"g{c}", "token")])
        for p in range(processes):
            engine.start("Member", (f"g{p % communities}",))
        start = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - start
        assert result.completed
        assert result.consensus_rounds == communities
        assert engine.dataspace.count_matching(P["done", ANY]) == processes
        assert elapsed < 60

    def test_community_labeling_of_a_12x12_image(self):
        """144 ``Label`` processes with configuration-dependent views (a
        minute before their windows were delta-maintained)."""
        image = random_blob_image(12, 12, blobs=3, seed=1)
        start = time.perf_counter()
        out = run_community_labeling(image, seed=3)
        elapsed = time.perf_counter() - start
        assert out.correct
        assert out.trace.counters.processes_created == 1 + 144
        assert out.result.consensus_rounds == out.region_count()
        assert elapsed < 30

    def test_worker_labeling_of_a_12x12_image(self):
        """One replication joining two labels and two thresholds over 144
        pixels (half a minute while ``neighbor`` was only tested at the
        leaf, after both threshold probes of every label pair)."""
        image = random_blob_image(12, 12, blobs=3, seed=1)
        start = time.perf_counter()
        out = run_worker_labeling(image, seed=3, plan="on")
        elapsed = time.perf_counter() - start
        assert out.correct
        assert out.result.commits == 985
        assert elapsed < 15

    def test_thousand_delayed_waiters_all_served(self):
        """Weak fairness at scale: 1000 waiters, 1000 items."""
        a = Var("a")
        waiter = ProcessDefinition(
            "Waiter",
            params=("w",),
            body=[
                delayed(exists(a).match(P["item", a].retract())).then(
                    assert_tuple("served", Var("w"))
                )
            ],
        )
        n = 1000
        engine = Engine(definitions=[waiter], seed=9)
        engine.assert_tuples([("item", i) for i in range(n)])
        for w in range(n):
            engine.start("Waiter", (w,))
        start = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - start
        assert result.completed
        assert engine.dataspace.count_matching(P["served", ANY]) == n
        assert elapsed < 30
