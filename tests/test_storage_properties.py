"""Sharded storage: routing units, the one journal, and shards≡single.

The layered store (``repro.core.storage``) claims the partitioned layout
is *observably identical* to the single-store monolith.  Identity here is
strong: not just the same match sets but the same candidate **order**
(which feeds the seeded arbitration RNG), the same journal windows, and —
at the engine level — the same program state and the same
shard-independent ``RunResult`` counters, under both live and group
commit, for random programs and seeds.  The identity table and the journal
live once on the facade, so the second half of the module checks that they
are layout- and backend-blind, bounded, and that what a shard ships to a
worker is a projection of them.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.core.actions import assert_tuple
from repro.core.dataspace import JOURNAL_DEPTH, Dataspace
from repro.core.expressions import Var
from repro.core.patterns import P, pattern
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.storage import (
    BaseStore,
    HeadPartitioner,
    SinglePartitioner,
    TupleStore,
    resolve_shards,
)
from repro.core.transactions import delayed
from repro.core.values import Atom
from repro.errors import EngineError, SDLError
from repro.runtime.engine import Engine
from repro.runtime.parallel import SnapshotShipper, load_shard, ship_shard

import pytest

a = Var("a")
seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# partitioner units
# ---------------------------------------------------------------------------

class TestResolveShards:
    def test_defaults_to_single(self):
        for spec in (None, "single", "", 1, "1"):
            assert isinstance(resolve_shards(spec), SinglePartitioner)

    def test_integer_and_spec_forms(self):
        for spec in (4, "4", "head:4", " HEAD:4 "):
            part = resolve_shards(spec)
            assert isinstance(part, HeadPartitioner)
            assert part.shard_count == 4
            assert part.spec == "head:4"

    def test_partitioner_passthrough(self):
        part = HeadPartitioner(3)
        assert resolve_shards(part) is part

    def test_spec_round_trips_through_dataspace(self):
        ds = Dataspace(shards=4)
        assert Dataspace(shards=ds.shard_spec).shard_count == 4

    def test_rejects_garbage(self):
        for bad in ("frob", "head:x", 0, -2, "head:0", True, 2.0):
            with pytest.raises(ValueError):
                resolve_shards(bad)

    def test_rejects_explicit_head_below_two(self):
        # An explicit head:N spec with N < 2 used to fall back silently to
        # SinglePartitioner ("head:1") or a generic count error ("head:0");
        # a spec that names the scheme must satisfy the scheme's own
        # validation, with a message that says so.
        for bad in ("head:1", "head:0", "head:-3", " HEAD:1 "):
            with pytest.raises(ValueError, match="head routing needs >= 2 shards"):
                resolve_shards(bad)
        # The bare-integer forms keep their historical meanings.
        assert isinstance(resolve_shards(1), SinglePartitioner)
        with pytest.raises(ValueError, match="shard count must be >= 1"):
            resolve_shards(0)


class TestHeadRouting:
    def test_stable_and_pure(self):
        part = HeadPartitioner(8)
        assert part.shard_of(2, "year") == part.shard_of(2, "year")
        assert part.shard_of_values(("year", 1)) == part.shard_of(2, "year")
        assert part.shard_of_values(()) == 0

    def test_equal_values_share_a_shard(self):
        # Atom("x") == "x" and True == 1 == 1.0: equal heads are the same
        # index-dict key in a single store, so routing must agree.
        part = HeadPartitioner(16)
        assert part.shard_of(2, Atom("year")) == part.shard_of(2, "year")
        assert part.shard_of(3, True) == part.shard_of(3, 1) == part.shard_of(3, 1.0)
        assert part.shard_of(3, False) == part.shard_of(3, 0)

    def test_arity_distinguishes(self):
        # Same head under different arities may land on different shards —
        # buckets are keyed by (arity, position, value), never mixed.
        part = HeadPartitioner(4)
        ds = Dataspace(shards=part)
        ds.insert(("k", 1))
        ds.insert(("k", 1, 2))
        for inst in ds.instances():
            home = part.shard_of_values(inst.values)
            assert inst in ds.stores[home].arity_candidates(inst.arity)

    def test_spread(self):
        # Sanity: many distinct heads should touch more than one shard.
        part = HeadPartitioner(4)
        used = {part.shard_of(2, f"c{i}") for i in range(64)}
        assert len(used) == 4


class TestStoreInvariants:
    def test_remove_raises_and_cleans_buckets(self):
        store = TupleStore(0)
        ds = Dataspace()
        inst = ds.insert(("x", 1))
        store.admit(inst)
        store.remove(inst)
        assert not store.by_arity and not store.by_field and not len(store)
        with pytest.raises(KeyError):
            store.remove(inst)

    def test_facade_retract_raises_sdl_error_in_every_layout(self):
        for shards in ("single", 4):
            ds = Dataspace(shards=shards)
            inst = ds.insert(("x", 1))
            ds.retract(inst.tid)
            with pytest.raises(SDLError):
                ds.retract(inst.tid)
            with pytest.raises(SDLError):
                ds.get(inst.tid)


# ---------------------------------------------------------------------------
# one journal: every layout serves the same windows
# ---------------------------------------------------------------------------

def _mirrored(rows_per_event, shards=4):
    """Two dataspaces fed the same events: (single, sharded)."""
    single, multi = Dataspace(), Dataspace(shards=shards)
    for rows in rows_per_event:
        single.insert_many(rows)
        multi.insert_many(rows)
    return single, multi


def _changes_repr(changes):
    if changes is None:
        return None
    return [
        (c.version, [i.tid for i in c.asserted], [i.tid for i in c.retracted])
        for c in changes
    ]


class TestJournalMerge:
    def test_batch_recombines_across_shards(self):
        rows = [(f"c{i}", i) for i in range(16)]
        single, multi = _mirrored([rows])
        assert _changes_repr(multi.changes_since(0)) == _changes_repr(
            single.changes_since(0)
        )

    def test_every_watermark_agrees(self):
        events = [[(f"c{i}", i), (f"c{i}", i, i)] for i in range(10)]
        single, multi = _mirrored(events)
        for version in range(single.version + 1):
            assert _changes_repr(multi.changes_since(version)) == _changes_repr(
                single.changes_since(version)
            ), f"diverged at watermark {version}"

    def test_overflow_window_matches_single(self):
        # Push both layouts past the journal depth; availability must flip
        # to None at exactly the same watermark.
        single, multi = Dataspace(), Dataspace(shards=4)
        for i in range(JOURNAL_DEPTH + 40):
            single.insert((f"c{i % 7}", i))
            multi.insert((f"c{i % 7}", i))
        live = single.version
        for version in (0, live - JOURNAL_DEPTH - 1, live - JOURNAL_DEPTH,
                        live - JOURNAL_DEPTH + 1, live - 1, live):
            s = single.changes_since(version)
            m = multi.changes_since(version)
            assert _changes_repr(m) == _changes_repr(s), (
                f"availability diverged at watermark {version}"
            )

    def test_retractions_merge_in_serial_order(self):
        single, multi = _mirrored([[(f"c{i}", i) for i in range(12)]])
        mark = single.version
        for ds in (single, multi):
            doomed = [inst.tid for inst in list(ds.instances())[::2]]
            for tid in doomed:
                ds.retract(tid)
        assert _changes_repr(multi.changes_since(mark)) == _changes_repr(
            single.changes_since(mark)
        )


class TestJournalOverflowGuard:
    """A window the journal no longer covers is refused whole —
    ``changes_since`` returns ``None``, never a partial list — and the
    window is global: how few of the dropped changes a shard saw is
    irrelevant.
    """

    def test_partially_forgotten_window_returns_none(self):
        # The cold shard sees one change, then the hot shard takes
        # JOURNAL_DEPTH more.  The cold shard's own suffix is one entry
        # long, but the journal has dropped part of the window, so the
        # facade refuses it and the shipper — which projects the facade
        # journal onto the shard — re-ships in full instead of sending a
        # delta it cannot vouch for.
        multi = Dataspace(shards=4)
        multi.insert_many([(f"c{i}", i) for i in range(8)])
        shard_of = multi.partitioner.shard_of_values
        cold = shard_of(("c0", 0))
        hot = next(f"c{i}" for i in range(8) if shard_of((f"c{i}", 0)) != cold)
        shipper = SnapshotShipper(multi)
        shipper.bundle(cold, multi.version, multi.version, ())
        mark = multi.version
        multi.insert(("c0", 99))
        assert [c.version for c in shipper._deltas_since(cold, mark)] == [mark + 1]
        for i in range(JOURNAL_DEPTH):
            multi.insert((hot, i))
        assert multi.changes_since(mark) is None
        assert shipper._deltas_since(cold, mark) is None
        rebuilt = shipper.bundle(cold, multi.version, multi.version, ())
        assert rebuilt[6] is not None and rebuilt[3] == multi.version
        # Windows that start inside the journal are still served.
        assert multi.changes_since(mark + 1) is not None
        assert multi.changes_since(multi.version) == []

    def test_mixed_fill_overflow_boundary_matches_single(self):
        # Skewed routing: one community takes most of the traffic, so its
        # home shard's journal is much fuller than its siblings'.  The
        # availability flip must still happen at exactly the single-store
        # watermark — JOURNAL_DEPTH behind live — at the boundary and
        # one event to either side of it.
        single, multi = Dataspace(), Dataspace(shards=4)
        for i in range(JOURNAL_DEPTH + 24):
            head = "hot" if i % 8 else f"cold{i % 3}"
            single.insert((head, i))
            multi.insert((head, i))
        live = single.version
        for version in (live - JOURNAL_DEPTH - 1, live - JOURNAL_DEPTH,
                        live - JOURNAL_DEPTH + 1):
            s = single.changes_since(version)
            m = multi.changes_since(version)
            assert _changes_repr(m) == _changes_repr(s), (
                f"availability diverged at watermark {version}"
            )
        assert multi.changes_since(live - JOURNAL_DEPTH - 1) is None
        assert multi.changes_since(live - JOURNAL_DEPTH) is not None


# ---------------------------------------------------------------------------
# dataspace-level differential property
# ---------------------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "retract", "batch"]),
        st.integers(min_value=0, max_value=6),  # community
        st.integers(min_value=0, max_value=9),  # payload
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(script=ops, shards=st.integers(min_value=2, max_value=5))
def test_sharded_dataspace_is_observably_single(script, shards):
    single, multi = Dataspace(), Dataspace(shards=shards)
    for op, c, n in script:
        if op == "insert":
            single.insert((f"c{c}", n))
            multi.insert((f"c{c}", n))
        elif op == "batch":
            rows = [(f"c{c}", n), (f"c{(c + 1) % 7}", n, n)]
            single.insert_many(rows)
            multi.insert_many(rows)
        else:  # retract the oldest instance, if any
            tids = sorted(single.tids(), key=lambda t: t.serial)
            if tids:
                single.retract(tids[0])
                multi.retract(tids[0])
    assert multi.serial == single.serial
    assert multi.version == single.version
    assert multi.tids() == single.tids()
    assert multi.multiset() == single.multiset()
    # identical iteration ORDER, not just contents
    assert [i.tid for i in multi.instances()] == [i.tid for i in single.instances()]
    for pat in (
        pattern("c1", Var("a")),
        pattern(Var("k"), 3),
        pattern(Var("k"), Var("a")),
        pattern("c2", 3, Var("a")),
    ):
        assert [i.tid for i in multi.candidates(pat)] == [
            i.tid for i in single.candidates(pat)
        ]
        assert [i.tid for i in multi.find_matching(pat)] == [
            i.tid for i in single.find_matching(pat)
        ]
        assert multi.count_matching(pat) == single.count_matching(pat)
    for probes in ([(0, "c1")], [(1, 3)], [(0, "c2"), (1, 3)], []):
        assert [i.tid for i in multi.candidates_probed(2, probes)] == [
            i.tid for i in single.candidates_probed(2, probes)
        ]
    assert _changes_repr(multi.changes_since(0)) == _changes_repr(
        single.changes_since(0)
    )


# ---------------------------------------------------------------------------
# the facade's identity table and journal: layout- and backend-blind, bounded
# ---------------------------------------------------------------------------

LAYOUTS = [
    (store, shards)
    for store in ("object", "columnar")
    for shards in ("single", "head:2", "head:4")
]

#: A filler of single inserts that stops just short of the journal depth,
#: then a random tail: the script ends on either side of the overflow
#: boundary, at the real depth.
scripts = st.tuples(
    st.integers(min_value=JOURNAL_DEPTH - 30, max_value=JOURNAL_DEPTH),
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "batch", "retract", "retract_many", "scan"]),
            st.integers(min_value=0, max_value=6),  # community
            st.integers(min_value=0, max_value=9),  # payload
        ),
        min_size=1,
        max_size=60,
    ),
)


def _replay(script):
    """Run one script against every layout x backend; return the dataspaces."""
    filler, tail = script
    spaces = [Dataspace(shards=shards, store=store) for store, shards in LAYOUTS]
    for ds in spaces:
        for i in range(filler):
            ds.insert((f"c{i % 7}", i))
        for op, c, n in tail:
            if op == "insert":
                ds.insert((f"c{c}", n))
            elif op == "batch":
                ds.insert_many([(f"c{c}", n), (f"c{(c + 1) % 7}", n, n)])
            elif op == "retract":  # the oldest instance, if any
                for inst in ds.instances():
                    ds.retract(inst.tid)
                    break
            elif op == "retract_many":
                ds.retract_many(list(ds._instances)[: n + 1])
            else:  # a probe-less read: sharded layouts start tracking the arity
                ds.by_arity(2 + c % 2)
            assert len(ds._journal) <= JOURNAL_DEPTH
    return spaces


def _project(changes, ds, shard):
    """What shard *shard*'s own journal would hold of *changes* (the oracle)."""
    if changes is None:
        return None
    shard_of = ds.partitioner.shard_of_values
    out = []
    for c in changes:
        asserted = [i.tid for i in c.asserted if shard_of(i.values) == shard]
        retracted = [i.tid for i in c.retracted if shard_of(i.values) == shard]
        if asserted or retracted:
            out.append((c.version, asserted, retracted))
    return out


class TestFacadeOwnsTheGlobals:
    @settings(max_examples=20, deadline=None)
    @given(script=scripts)
    def test_changes_since_is_layout_and_backend_blind(self, script):
        reference, *others = _replay(script)
        live = reference.version
        marks = {0, live - JOURNAL_DEPTH - 1, live - JOURNAL_DEPTH,
                 live - JOURNAL_DEPTH + 1, live - 1, live}
        for ds in others:
            assert ds.version == live
            assert [i.tid for i in ds.instances()] == [
                i.tid for i in reference.instances()
            ]
            for mark in marks:
                assert _changes_repr(ds.changes_since(mark)) == _changes_repr(
                    reference.changes_since(mark)
                ), f"{ds.store_kind}/{ds.shard_spec} diverged at watermark {mark}"

    @settings(max_examples=20, deadline=None)
    @given(script=scripts)
    def test_shipped_deltas_and_blobs_are_projections(self, script):
        for ds in _replay(script):
            shipper = SnapshotShipper(ds)
            live = ds.version
            for shard in range(ds.shard_count):
                for floor in (live - JOURNAL_DEPTH - 1, live - JOURNAL_DEPTH,
                              live - 7, live):
                    assert _changes_repr(
                        shipper._deltas_since(shard, floor)
                    ) == _project(ds.changes_since(floor), ds, shard)
                store = ds.stores[shard]
                store.candidates_probed(2, [(1, 3)])  # builds a lazy index
                blob = ship_shard(ds, shard)
                cls, wire_shard, indexed, instances = pickle.loads(blob)
                assert (cls, wire_shard, indexed) == (type(store), shard, True)
                assert len(instances) == len(store)
                clone = load_shard(blob)
                if ds.store_kind == "columnar":
                    assert not any(g.pos_index for g in clone.groups.values())
                for arity, probes in (
                    (2, []), (2, [(0, "c1")]), (2, [(1, 3)]),
                    (2, [(0, "c2"), (1, 3)]), (3, [(1, 3), (2, 3)]),
                ):
                    assert [i.tid for i in clone.candidates_probed(arity, probes)] == [
                        i.tid for i in store.candidates_probed(arity, probes)
                    ]

    @settings(max_examples=20, deadline=None)
    @given(script=scripts)
    def test_full_retract_leaves_nothing_behind(self, script):
        for ds in _replay(script):
            ds.retract_many(list(ds._instances))
            assert len(ds._journal) <= JOURNAL_DEPTH
            assert not ds._instances
            assert all(not order for order in ds._arity_order.values())
            assert ds.shard_sizes() == (0,) * ds.shard_count
            assert not ds._by_arity and not ds._by_field

    def test_store_contract_is_a_reviewed_list(self):
        # What a backend must implement.  Growing this list is a design
        # decision (every backend and every future index pays for it), so
        # it is spelled out here rather than discovered.
        public = sorted(
            name for name, member in vars(BaseStore).items()
            if callable(member) and not name.startswith("_")
        )
        assert public == [
            "admit", "admit_many", "arity_bucket", "arity_candidates",
            "arity_size", "candidates", "candidates_probed", "debug_by_arity",
            "debug_by_field", "field_bucket", "field_candidates", "field_size",
            "remove", "stats",
        ]
        assert BaseStore.__slots__ == ("shard", "indexed")


# ---------------------------------------------------------------------------
# indexed=False parity (regression: both storage modes, same match sets)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shards", ["single", 4])
def test_unindexed_store_matches_indexed(shards):
    layouts = [
        Dataspace(indexed=True, shards=shards),
        Dataspace(indexed=False, shards=shards),
    ]
    rows = [(f"c{i % 3}", i % 4) for i in range(24)] + [
        (f"c{i % 3}", i % 4, i) for i in range(12)
    ]
    for ds in layouts:
        ds.insert_many(rows)
    indexed, unindexed = layouts
    for pat in (
        pattern("c1", Var("a")),
        pattern(Var("k"), 2),
        pattern("c0", 1, Var("a")),
    ):
        assert [i.values for i in unindexed.find_matching(pat)] == [
            i.values for i in indexed.find_matching(pat)
        ]
        assert unindexed.count_matching(pat) == indexed.count_matching(pat)
    for probes in ([(0, "c1")], [(1, 2)], [(0, "c0"), (1, 1)]):
        # candidates_probed promises the full probe intersection in both
        # storage modes (the unindexed store applies probes as filters).
        assert [i.tid for i in unindexed.candidates_probed(2, probes)] == [
            i.tid for i in indexed.candidates_probed(2, probes)
        ]


# ---------------------------------------------------------------------------
# engine-level differential: shards=N ≡ single, live + group commit
# ---------------------------------------------------------------------------

b = Var("b")


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
    """The RunResult counters that must be layout-independent."""
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


def _run_workers(shards, n_comm, n_work, seed, commit):
    engine = Engine(
        definitions=[community_worker(), pair_merger()],
        seed=seed,
        commit=commit,
        shards=shards,
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
    @settings(max_examples=25, deadline=None)
    @given(
        n_comm=st.integers(min_value=1, max_value=4),
        n_work=st.integers(min_value=1, max_value=4),
        seed=seeds,
        commit=st.sampled_from(["live", "group"]),
    )
    def test_sharded_run_is_bit_identical(self, n_comm, n_work, seed, commit):
        single_state, single_counters = _run_workers(
            "single", n_comm, n_work, seed, commit
        )
        sharded_state, sharded_counters = _run_workers(
            4, n_comm, n_work, seed, commit
        )
        assert sharded_state == single_state
        assert sharded_counters == single_counters

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, commit=st.sampled_from(["live", "group"]))
    def test_sharded_run_is_deterministic_per_seed(self, seed, commit):
        first = _run_workers(4, 3, 3, seed, commit)
        second = _run_workers(4, 3, 3, seed, commit)
        assert first == second


class TestEngineWiring:
    def test_engine_rejects_dataspace_plus_shards(self):
        with pytest.raises(EngineError):
            Engine(dataspace=Dataspace(), shards=4)

    def test_engine_rejects_bad_spec(self):
        with pytest.raises(EngineError):
            Engine(shards="frob")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("SDL_SHARDS", "head:3")
        assert Engine().dataspace.shard_count == 3
        monkeypatch.delenv("SDL_SHARDS")
        assert Engine().dataspace.shard_count == 1

    def test_explicit_dataspace_keeps_its_layout(self, monkeypatch):
        monkeypatch.setenv("SDL_SHARDS", "head:3")
        assert Engine(dataspace=Dataspace()).dataspace.shard_count == 1

    def test_shard_gauges_in_metrics(self):
        engine = Engine(definitions=[community_worker()], seed=1, shards=4, obs=True)
        engine.assert_tuples([(f"c{c}", i) for c in range(4) for i in range(2)])
        for c in range(4):
            engine.start("Worker", (f"c{c}",))
        result = engine.run()
        assert result.completed
        assert result.metrics["sdl_shard_count"]["data"] == 4
        total = sum(
            value["data"]
            for name, value in result.metrics.items()
            if name.startswith("sdl_shard_occupancy_")
        )
        assert total == result.dataspace_size

    def test_checkpoint_recovery_round_trips_sharded(self, tmp_path):
        from repro.runtime.recovery import DurableLog

        ds = Dataspace(shards=4)
        taken = []
        log = DurableLog(ds, str(tmp_path), interval=8, on_checkpoint=taken.append)
        ds.insert_many([(f"c{i % 5}", i) for i in range(30)])
        for tid in sorted(ds.tids(), key=lambda t: t.serial)[::3]:
            ds.retract(tid)
        log.flush()
        latest = taken[-1]
        assert latest.version == ds.version
        assert latest.shard_counts is not None
        assert sum(latest.shard_counts) == latest.size
        # global serial order, not shard-major
        serials = [inst.tid.serial for inst in latest.instances]
        assert serials == sorted(serials)
        log.verify_durable()
        scratch, report = DurableLog.load(str(tmp_path))
        assert scratch.shard_count == 4
        assert scratch.multiset() == ds.multiset()
        log.close()
