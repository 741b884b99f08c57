"""Regression tests for the delta-driven reactivity pipeline.

Covers the three observable guarantees of the incremental engine:

* `insert_many` batches a bulk load into one change event;
* a window's footprint survives out-of-footprint mutations
  (delta refresh, no full invalidation, no footprint recompute);
* the `"keys"` wake filter delivers no spurious wakes where the seed's
  `"arity"` filter did, and the counters proving it surface in RunResult.
"""

from repro.core.actions import assert_tuple
from repro.core.dataspace import JOURNAL_DEPTH, Dataspace, DataspaceChange
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed, immediate
from repro.core.views import View, import_rule


class TestBatchedInsert:
    def test_insert_many_emits_single_change_event(self):
        ds = Dataspace()
        seen: list[DataspaceChange] = []
        ds.subscribe(seen.append)
        v0 = ds.version
        instances = ds.insert_many([("x", i) for i in range(5)])
        assert len(seen) == 1
        assert (len(seen[0].asserted), len(seen[0].retracted)) == (5, 0)
        assert seen[0].asserted == tuple(instances)
        assert ds.version == v0 + 1  # one event, one version bump

    def test_insert_many_keeps_per_row_serials(self):
        ds = Dataspace()
        instances = ds.insert_many([("x", i) for i in range(4)])
        serials = [inst.tid.serial for inst in instances]
        assert serials == sorted(serials)
        assert len(set(serials)) == 4

    def test_insert_many_single_row_is_plain_assert(self):
        ds = Dataspace()
        seen: list[DataspaceChange] = []
        ds.subscribe(seen.append)
        ds.insert_many([("x", 1)])
        assert [(len(c.asserted), len(c.retracted)) for c in seen] == [(1, 0)]

    def test_changes_since_replays_the_delta(self):
        ds = Dataspace()
        a = ds.insert(("a", 1))
        v = ds.version
        b = ds.insert(("b", 2))
        ds.retract(a.tid)
        changes = ds.changes_since(v)
        assert [(len(c.asserted), len(c.retracted)) for c in changes] == [(1, 0), (0, 1)]
        assert changes[0].asserted == (b,)
        assert changes[1].retracted == (a,)
        assert ds.changes_since(ds.version) == []

    def test_changes_since_reports_journal_gap(self):
        ds = Dataspace()
        v = ds.version
        for i in range(JOURNAL_DEPTH + 10):
            ds.insert(("x", i))
        assert ds.changes_since(v) is None


class TestChangesSinceBoundaries:
    """`changes_since` offset arithmetic at the journal-depth boundary.

    The slice start is computed from ``version`` deltas on the assumption
    that the version advances exactly once per journal entry — these tests
    pin that invariant against batched inserts and the exact overflow edge.
    """

    def test_insert_many_batch_is_one_journal_entry(self):
        ds = Dataspace()
        v = ds.version
        batch = ds.insert_many([("x", i) for i in range(7)])
        ds.insert(("y",))
        changes = ds.changes_since(v)
        assert [(len(c.asserted), len(c.retracted)) for c in changes] == [(7, 0), (1, 0)]
        assert changes[0].asserted == tuple(batch)
        # version delta == journal entries, not rows
        assert ds.version == v + 2

    def test_exactly_journal_depth_behind_is_replayable(self):
        ds = Dataspace()
        ds.insert(("seed",))
        v = ds.version
        for i in range(JOURNAL_DEPTH):
            ds.insert(("x", i))
        changes = ds.changes_since(v)
        assert changes is not None
        assert len(changes) == JOURNAL_DEPTH
        assert changes[0].version == v + 1
        assert changes[-1].version == ds.version

    def test_one_past_journal_depth_forces_rebuild(self):
        ds = Dataspace()
        ds.insert(("seed",))
        v = ds.version
        for i in range(JOURNAL_DEPTH + 1):
            ds.insert(("x", i))
        assert ds.changes_since(v) is None

    def test_one_short_of_journal_depth_replays(self):
        ds = Dataspace()
        ds.insert(("seed",))
        v = ds.version
        for i in range(JOURNAL_DEPTH - 1):
            ds.insert(("x", i))
        changes = ds.changes_since(v)
        assert len(changes) == JOURNAL_DEPTH - 1
        assert [c.version for c in changes] == list(range(v + 1, ds.version + 1))

    def test_mixed_batches_at_depth_boundary(self):
        # Batches count as single entries, so JOURNAL_DEPTH batch events
        # stay replayable no matter how many rows they carried.
        ds = Dataspace()
        v = ds.version
        for i in range(JOURNAL_DEPTH):
            ds.insert_many([("x", i, j) for j in range(3)])
        changes = ds.changes_since(v)
        assert changes is not None
        assert len(changes) == JOURNAL_DEPTH
        assert all((len(c.asserted), len(c.retracted)) == (3, 0) for c in changes)

    def test_none_fallback_triggers_full_window_rebuild(self):
        ds = Dataspace()
        view = View(imports=[import_rule("a", ANY)])
        window = view.window(ds)
        window.refresh()
        ds.insert(("a", 0))
        for i in range(JOURNAL_DEPTH + 5):
            ds.insert(("b", i))
        # The window fell past the journal horizon; refresh must still
        # converge on the true contents via the full-rebuild path.
        window.refresh()
        assert window.count_matching(P["a", ANY]) == 1
        assert window.count_matching(P["b", ANY]) == 0  # not imported


class TestWindowIncrementality:
    def test_out_of_footprint_mutation_keeps_memo_and_footprint(self):
        ds = Dataspace()
        view = View(imports=[import_rule("a", ANY)])
        window = view.window(ds)
        a1 = ds.insert(("a", 1))
        a2 = ds.insert(("a", 2))
        ds.insert(("b", 1))
        footprint = window.footprint()
        assert footprint == {a1.tid, a2.tid}
        assert window.stats.footprint_recomputes == 1
        window.imports_instance(a1)  # a lookup: footprint membership

        # Same-arity but out-of-footprint mutation: classified via the
        # delta path, never a full invalidation or recompute.
        ds.insert(("b", 99))
        assert window.footprint() == footprint
        assert window.stats.footprint_recomputes == 1
        assert window.stats.full_invalidations == 0
        assert window.stats.delta_refreshes >= 1

        hits = window.stats.hits
        assert window.imports_instance(a1)  # footprint survived: a hit, not a miss
        assert window.stats.hits == hits + 1

    def test_in_footprint_retraction_maintained_incrementally(self):
        ds = Dataspace()
        view = View(imports=[import_rule("a", ANY)])
        window = view.window(ds)
        a1 = ds.insert(("a", 1))
        a2 = ds.insert(("a", 2))
        assert window.footprint() == {a1.tid, a2.tid}
        ds.retract(a2.tid)
        a3 = ds.insert(("a", 3))
        assert window.footprint() == {a1.tid, a3.tid}
        assert window.stats.footprint_recomputes == 1
        assert window.stats.full_invalidations == 0

    def test_journal_gap_falls_back_to_full_recompute(self):
        ds = Dataspace()
        view = View(imports=[import_rule("a", ANY)])
        window = view.window(ds)
        a1 = ds.insert(("a", 1))
        assert window.footprint() == {a1.tid}
        for i in range(JOURNAL_DEPTH + 5):
            ds.insert(("b", i))
        a2 = ds.insert(("a", 2))
        assert window.footprint() == {a1.tid, a2.tid}
        assert window.stats.full_invalidations == 1
        assert window.stats.footprint_recomputes == 2

    def test_where_view_journal_gap_falls_back_to_full_recompute(self):
        ds = Dataspace()
        pi = Var("pi")
        view = View(imports=[import_rule("item", pi, where=[P["enable", pi]])])
        window = view.window(ds)
        i1 = ds.insert(("item", 1))
        i2 = ds.insert(("item", 2))
        ds.insert(("enable", 1))
        assert window.footprint() == {i1.tid}
        for i in range(JOURNAL_DEPTH + 5):
            ds.insert(("b", i))
        ds.insert(("enable", 2))  # its delta fell off the journal
        assert window.footprint() == {i1.tid, i2.tid}
        assert window.stats.full_invalidations == 1
        assert window.stats.footprint_recomputes == 2

    def test_config_dependent_view_is_delta_maintained(self):
        ds = Dataspace()
        pi = Var("pi")
        view = View(imports=[import_rule("item", pi, where=[P["enable", pi]])])
        window = view.window(ds)
        item = ds.insert(("item", 5))
        other = ds.insert(("item", 6))
        assert window.footprint() == set()
        enable = ds.insert(("enable", 5))  # different arity, but changes coverage
        assert window.footprint() == {item.tid}
        assert window.imports_instance(item)
        assert not window.imports_instance(other)

        # An unrelated change and a support tuple for nothing in the window
        # leave the decisions where they are: hits, not misses.
        ds.insert(("noise", 1, 2))
        ds.insert(("enable", 7))
        hits, misses = window.stats.hits, window.stats.misses
        assert window.imports_instance(item)
        assert not window.imports_instance(other)
        assert (window.stats.hits, window.stats.misses) == (hits + 2, misses)

        ds.retract(enable.tid)  # losing the support removes the item again
        assert window.footprint() == set()
        assert not window.imports_instance(item)
        assert window.stats.full_invalidations == 0
        assert window.stats.footprint_recomputes == 1


def _noise_program(wake_filter: str):
    """A parked reader (arity-2 watch) plus a same-arity noise producer."""
    a = Var("a")
    waiter = ProcessDefinition(
        "Waiter",
        body=[
            delayed(exists(a).match(P["item", a].retract())).then(
                assert_tuple("got", a)
            )
        ],
    )
    spammer = ProcessDefinition(
        "Spammer",
        body=[immediate().then(*(assert_tuple("noise", i) for i in range(6)))],
    )
    # Two-phase feeder: the <item> arrives one round after the noise, so an
    # arity-woken waiter retries (and fails) before the item exists.
    feeder = ProcessDefinition(
        "Feeder",
        body=[
            immediate().then(assert_tuple("prep", 1, 1)),
            immediate(exists(a).match(P["prep", a, ANY].retract())).then(
                assert_tuple("item", a)
            ),
        ],
    )
    from repro.runtime.engine import Engine

    engine = Engine(
        definitions=[waiter, spammer, feeder],
        seed=1,
        policy="fifo",
        wake_filter=wake_filter,
    )
    engine.start("Waiter")  # fifo: parks before any producer runs
    engine.start("Spammer")
    engine.start("Feeder")
    return engine


class TestWakePrecision:
    def test_keys_filter_has_no_spurious_wakes(self):
        engine = _noise_program("keys")
        result = engine.run()
        assert result.completed
        assert ("got", 1) in engine.dataspace.multiset()
        assert result.spurious_wakeups == 0
        assert result.precise_wakeups >= 1
        assert result.wakeups == 1  # the matching <item, 1> change only

    def test_arity_filter_wakes_spuriously_on_same_arity_noise(self):
        engine = _noise_program("arity")
        result = engine.run()
        assert result.completed
        assert result.spurious_wakeups >= 1
        assert result.spurious_wake_rate > 0.0

    def test_runresult_exposes_window_counters(self):
        a = Var("a")
        reader = ProcessDefinition(
            "Reader",
            imports=[import_rule("item", ANY)],
            body=[
                delayed(exists(a).match(P["item", a].retract())).then(
                    assert_tuple("got", a)
                )
            ],
        )
        feeder = ProcessDefinition(
            "Feeder", body=[immediate().then(assert_tuple("item", 7))]
        )
        from repro.runtime.engine import Engine

        engine = Engine(definitions=[reader, feeder], seed=1, policy="fifo")
        engine.start("Reader")
        engine.start("Feeder")
        result = engine.run()
        assert result.completed
        # Ordinary (non-``where``) views never take the full-invalidation
        # path — the proof that unrelated mutations no longer reset windows.
        assert result.window_full_invalidations == 0
        assert result.window_delta_refreshes >= 1
        assert 0.0 <= result.window_hit_rate <= 1.0

    def test_seeded_runs_remain_deterministic(self):
        import dataclasses

        results = []
        for _ in range(2):
            engine = _noise_program("keys")
            results.append(dataclasses.asdict(engine.run()))
        assert results[0] == results[1]
