"""Columnar ≡ object: the differential suite for the SoA backend.

The columnar store claims to be *observably identical* to the per-tuple
object store — same serials and versions, the same candidate **order**
(which feeds the seeded arbitration RNG), the same journal windows, and
at the engine level bit-identical program state and shard-independent
``RunResult`` counters under both commit modes, with and without shard
partitioning and worker pools.  Random op scripts and random programs
drive both backends side by side and assert the full observable surface
matches, mirroring the shards≡single suite in
``test_storage_properties``.
"""

from hypothesis import given, settings, strategies as st

from repro.core.actions import assert_tuple
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import P, pattern
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed
from repro.runtime.engine import Engine

a = Var("a")
b = Var("b")
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _changes_repr(changes):
    return [
        (
            c.version,
            [i.tid for i in c.asserted],
            [i.tid for i in c.retracted],
        )
        for c in changes
    ]


# ---------------------------------------------------------------------------
# dataspace-level differential property
# ---------------------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "retract", "batch", "retract_batch"]),
        st.integers(min_value=0, max_value=6),  # community
        st.integers(min_value=0, max_value=9),  # payload
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(script=ops, shards=st.sampled_from(["single", 3]))
def test_columnar_dataspace_is_observably_object(script, shards):
    obj = Dataspace(shards=shards)
    col = Dataspace(shards=shards, store="columnar")
    for op, c, n in script:
        if op == "insert":
            obj.insert((f"c{c}", n))
            col.insert((f"c{c}", n))
        elif op == "batch":
            rows = [(f"c{c}", n), (f"c{(c + 1) % 7}", n, n)]
            obj.insert_many(rows)
            col.insert_many(rows)
        elif op == "retract_batch":  # oldest two, in one event
            tids = sorted(obj.tids(), key=lambda t: t.serial)[:2]
            if tids:
                obj.retract_many(tids)
                col.retract_many(tids)
        else:  # retract the oldest instance, if any
            tids = sorted(obj.tids(), key=lambda t: t.serial)
            if tids:
                obj.retract(tids[0])
                col.retract(tids[0])
    assert col.store_kind == "columnar" and obj.store_kind == "object"
    assert col.serial == obj.serial
    assert col.version == obj.version
    assert col.tids() == obj.tids()
    assert col.multiset() == obj.multiset()
    # identical iteration ORDER, not just contents
    assert [i.tid for i in col.instances()] == [i.tid for i in obj.instances()]
    for pat in (
        pattern("c1", Var("a")),
        pattern(Var("k"), 3),
        pattern(Var("k"), Var("a")),
        pattern("c2", 3, Var("a")),
        pattern(Var("k"), a, a),  # repeated variable: the kernel path
    ):
        assert [i.tid for i in col.candidates(pat)] == [
            i.tid for i in obj.candidates(pat)
        ]
        assert [i.tid for i in col.find_matching(pat)] == [
            i.tid for i in obj.find_matching(pat)
        ]
        assert col.count_matching(pat) == obj.count_matching(pat)
    for probes in ([(0, "c1")], [(1, 3)], [(0, "c2"), (1, 3)], []):
        assert [i.tid for i in col.candidates_probed(2, probes)] == [
            i.tid for i in obj.candidates_probed(2, probes)
        ]
    assert _changes_repr(col.changes_since(0)) == _changes_repr(
        obj.changes_since(0)
    )
    for arity in (2, 3):
        assert list(col.by_arity(arity)) == list(obj.by_arity(arity))
        assert col.arity_size(arity) == obj.arity_size(arity)


@settings(max_examples=15, deadline=None)
@given(script=ops)
def test_unindexed_columnar_matches_indexed_object(script):
    """Cross the two axes: unindexed columnar vs. indexed object."""
    obj = Dataspace()
    col = Dataspace(indexed=False, store="columnar")
    for op, c, n in script:
        if op in ("insert", "retract_batch"):
            obj.insert((f"c{c}", n))
            col.insert((f"c{c}", n))
        elif op == "batch":
            rows = [(f"c{c}", n), (f"c{(c + 1) % 7}", n, n)]
            obj.insert_many(rows)
            col.insert_many(rows)
        else:
            tids = sorted(obj.tids(), key=lambda t: t.serial)
            if tids:
                obj.retract(tids[0])
                col.retract(tids[0])
    assert col.multiset() == obj.multiset()
    for pat in (
        pattern("c3", Var("a")),
        pattern(Var("k"), a, a),
        pattern(Var("k"), Var("a")),
    ):
        assert [i.tid for i in col.find_matching(pat)] == [
            i.tid for i in obj.find_matching(pat)
        ]
        assert col.count_matching(pat) == obj.count_matching(pat)


# ---------------------------------------------------------------------------
# engine-level differential property
# ---------------------------------------------------------------------------

def community_worker() -> ProcessDefinition:
    return ProcessDefinition(
        "Worker",
        params=("c",),
        body=[
            delayed(exists(a).match(P[Var("c"), a].retract())).then(
                assert_tuple("done", Var("c"), a)
            )
        ],
    )


def pair_merger() -> ProcessDefinition:
    return ProcessDefinition(
        "Merger",
        params=("c",),
        body=[
            delayed(
                exists(a, b).match(
                    P[Var("c"), a].retract(), P[Var("c"), b].retract()
                )
            ).then(assert_tuple(Var("c"), a + b))
        ],
    )


def _counters(result):
    """The RunResult counters that must be backend-independent.

    ``result.store`` is deliberately absent: it names the backend and so
    differs between the two runs by construction.
    """
    return {
        "reason": result.reason,
        "steps": result.steps,
        "rounds": result.rounds,
        "commits": result.commits,
        "wakeups": result.wakeups,
        "precise": result.precise_wakeups,
        "spurious": result.spurious_wakeups,
        "wake_checks": result.wake_checks,
        "group_rounds": result.group_rounds,
        "batch_commits": result.batch_commits,
        "conflicts": result.conflicts,
        "max_batch": result.max_batch,
        "plan_hits": result.plan_hits,
        "plan_misses": result.plan_misses,
        "dataspace_size": result.dataspace_size,
    }


def _run(store, n_comm, n_work, seed, commit, shards="single", workers=None):
    engine = Engine(
        definitions=[community_worker(), pair_merger()],
        seed=seed,
        commit=commit,
        shards=shards,
        store=store,
        workers=workers,
    )
    engine.assert_tuples(
        [(f"c{c}", i) for c in range(n_comm) for i in range(n_work + 2)]
    )
    for c in range(n_comm):
        for __ in range(n_work):
            engine.start("Worker", (f"c{c}",))
        engine.start("Merger", (f"c{c}",))
    result = engine.run()
    return engine.dataspace.multiset(), _counters(result)


class TestEngineEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        n_comm=st.integers(min_value=1, max_value=4),
        n_work=st.integers(min_value=1, max_value=4),
        seed=seeds,
        commit=st.sampled_from(["live", "group"]),
    )
    def test_columnar_run_is_bit_identical(self, n_comm, n_work, seed, commit):
        object_run = _run("object", n_comm, n_work, seed, commit)
        columnar_run = _run("columnar", n_comm, n_work, seed, commit)
        assert columnar_run == object_run

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds, commit=st.sampled_from(["live", "group"]))
    def test_columnar_sharded_run_is_bit_identical(self, seed, commit):
        object_run = _run("object", 3, 3, seed, commit, shards=4)
        columnar_run = _run("columnar", 3, 3, seed, commit, shards=4)
        assert columnar_run == object_run

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, commit=st.sampled_from(["live", "group"]))
    def test_columnar_run_is_deterministic_per_seed(self, seed, commit):
        first = _run("columnar", 3, 3, seed, commit, shards=4)
        second = _run("columnar", 3, 3, seed, commit, shards=4)
        assert first == second

    @settings(max_examples=4, deadline=None)
    @given(seed=seeds)
    def test_columnar_worker_pool_run_is_bit_identical(self, seed):
        object_run = _run(
            "object", 3, 3, seed, "group", shards=4, workers=2
        )
        columnar_run = _run(
            "columnar", 3, 3, seed, "group", shards=4, workers=2
        )
        assert columnar_run == object_run
