"""Regression tests for the executor/dataspace hot-path correctness sweep.

Each test here pins a bug that group commit (PR 2's tentpole) would have
amplified: deep union-find recursion under large consensus partitions,
listener bookkeeping that detached the wrong registration, binding leakage
between match candidates in the snapshot lens, and a replication pump that
kept firing for an aborted process.

The observability PR added three more latent-leak fixes, pinned at the
bottom: the recovery log's dataspace listener outliving its engine,
``Scheduler.take_round`` ignoring ``round_size``, and
``Dataspace.count_matching``/``find_matching`` sharing one ``bound`` dict
across candidates.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import ABORT, assert_tuple
from repro.core.consensus import partition
from repro.core.constructs import guarded, replicate
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import ANY, P, Pattern
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import immediate
from repro.runtime.engine import Engine
from repro.runtime.events import Trace
from repro.runtime.executor import _SnapshotLens
from repro.runtime.scheduler import Scheduler


# ---------------------------------------------------------------------------
# consensus.partition / _UnionFind: deep chains must not blow the stack
# ---------------------------------------------------------------------------


class _StubWindow:
    """Exposes only what ``partition`` consumes: an iterable footprint.

    A tuple (rather than a set) keeps footprint iteration order under the
    test's control, which is what lets us steer the union-find into its
    worst-case parent chains.
    """

    __slots__ = ("_tids",)

    def __init__(self, tids):
        self._tids = tuple(tids)

    def footprint(self):
        return self._tids


class TestPartitionScale:
    def test_five_thousand_process_chain_partition(self):
        # Adversarial insertion order: N seeder processes each owning one
        # tuple, then probe processes whose ordered footprints repeatedly
        # graft the current component root under a fresh seeder.  Unions
        # only ever touch the top of the parent chain, so path compression
        # never flattens it during construction; the final find() walks a
        # chain ~N deep.  With the old recursive ``_UnionFind.find`` this
        # construction raises RecursionError at ~1000 processes.
        n = 2500  # 2n + 1 = 5001 processes, chain depth ~n
        windows = {}
        for i in range(1, n + 1):
            windows[i] = _StubWindow([("t", i)])  # seeders
        windows[0] = _StubWindow([("t", 0)])  # base of the chain
        for i in range(1, n + 1):
            windows[n + i] = _StubWindow([("t", i - 1), ("t", i)])  # probes
        groups = partition(windows)
        assert len(groups) == 1
        assert len(groups[0]) == 2 * n + 1

    def test_disjoint_communities_stay_disjoint_at_scale(self):
        windows = {
            pid: _StubWindow([("community", pid % 50)]) for pid in range(5000)
        }
        groups = partition(windows)
        assert len(groups) == 50
        assert all(len(g) == 100 for g in groups)


# ---------------------------------------------------------------------------
# Dataspace.subscribe: token-keyed registrations
# ---------------------------------------------------------------------------


class TestSubscribeTokens:
    def test_double_subscribe_single_unsubscribe(self):
        ds = Dataspace()
        seen: list[int] = []

        def listener(change):
            seen.append(1)

        first = ds.subscribe(listener)
        ds.subscribe(listener)
        first()  # must detach *its own* registration, leaving the second
        ds.insert(("x",))
        assert seen == [1]

    def test_unsubscribe_is_idempotent(self):
        # The pre-fix closure called ``list.remove``, so a double detach of
        # one registration silently removed the *other* equal listener.
        ds = Dataspace()
        seen: list[int] = []

        def listener(change):
            seen.append(1)

        first = ds.subscribe(listener)
        ds.subscribe(listener)
        first()
        first()  # second call must be a no-op, not kill the survivor
        ds.insert(("x",))
        assert seen == [1]

    def test_trace_observe_same_contract(self):
        trace = Trace()
        seen: list[int] = []

        def observer(event):
            seen.append(1)

        detach = trace.observe(observer)
        trace.observe(observer)
        detach()
        detach()
        from repro.runtime.events import TaskWoken

        trace.emit(TaskWoken(step=0, round=0, pid=1))
        assert seen == [1]


# ---------------------------------------------------------------------------
# _SnapshotLens.find_matching: candidate isolation
# ---------------------------------------------------------------------------


class TestSnapshotLensIsolation:
    def test_decoy_prefix_does_not_poison_later_candidates(self):
        # A decoy tuple matches the pattern prefix then fails on the last
        # element; the real tuple (inserted after the decoy, so visited
        # later from the arity index) must still match with clean bindings.
        ds = Dataspace()
        ds.insert(("pair", "v1", "decoy"))
        real = ds.insert(("pair", "v1", "key"))
        window = ds  # Dataspace implements the window candidate protocol
        lens = _SnapshotLens(window, ds.serial)
        a = Var("a")
        matched = lens.find_matching(P["pair", a, "key"])
        assert [inst.tid for inst in matched] == [real.tid]

    def test_caller_bound_dict_never_mutated(self):
        ds = Dataspace()
        ds.insert(("pair", "v1", "decoy"))
        ds.insert(("pair", "v2", "key"))
        lens = _SnapshotLens(ds, ds.serial)
        a = Var("a")
        bound = {"unrelated": 42}
        lens.find_matching(P["pair", a, "key"], bound)
        assert bound == {"unrelated": 42}


# ---------------------------------------------------------------------------
# replication pump: must stop once its process is aborted
# ---------------------------------------------------------------------------


class TestPumpAfterAbort:
    def test_pump_stops_firing_after_replica_body_abort(self):
        # A replica *body* (not a guard action) aborts the process while the
        # pump is still queued.  Pumps live outside the engine task table,
        # so the abort cannot mark them DONE; pre-fix, the orphaned pump
        # kept firing guards for the dead process — here it would consume
        # <job, 1> and assert <looted, 1> on behalf of an aborted process,
        # then park forever and deadlock the run.
        a = Var("a")
        kill_branch = guarded(
            immediate(exists().match(P["kill"].retract())),
            immediate().then(ABORT),  # abort from the replica body
        )
        job_branch = guarded(
            immediate(exists(a).match(P["job", a].retract())).then(
                assert_tuple("looted", a)
            )
        )
        main = ProcessDefinition("Main", body=[replicate(kill_branch, job_branch)])
        feeder = ProcessDefinition(
            "Feeder",
            body=[
                immediate().then(assert_tuple("tick", 1)),
                immediate().then(assert_tuple("tick", 2)),
                immediate().then(assert_tuple("job", 1)),  # after the abort
            ],
        )
        engine = Engine(
            definitions=[main, feeder],
            policy="fifo",  # deterministic round order: replica aborts, then pump steps
            on_deadlock="return",
        )
        engine.assert_tuples([("kill",)])
        engine.start("Main")
        engine.start("Feeder")
        result = engine.run()
        multiset = engine.dataspace.multiset()
        assert ("job", 1) in multiset  # the dead process must not consume it
        assert ("looted", 1) not in multiset
        assert result.completed

    def test_live_pump_stops_in_the_round_the_abort_commits(self):
        # Live mode with the job one round earlier: in round 3 the replica
        # commits its ABORT transaction, and the pump, stepped next in the
        # same round, finds <job, 1>.  A committed ABORT used to end the
        # task only when it resumed (round 4), so the pump fired for the
        # aborted process in between.
        a = Var("a")
        main = ProcessDefinition("Main", body=[replicate(
            guarded(
                immediate(exists().match(P["kill"].retract())),
                immediate().then(ABORT),
            ),
            guarded(
                immediate(exists(a).match(P["job", a].retract())).then(
                    assert_tuple("looted", a)
                )
            ),
        )])
        feeder = ProcessDefinition("Feeder", body=[
            immediate().then(assert_tuple("tick", 1)),
            immediate().then(assert_tuple("job", 1)),
        ])
        engine = Engine(
            definitions=[main, feeder], policy="fifo", commit="live",
            on_deadlock="return",
        )
        engine.assert_tuples([("kill",)])
        engine.start("Main")
        engine.start("Feeder")
        assert engine.run().completed
        assert engine.dataspace.multiset() == {("tick", 1): 1, ("job", 1): 1}


# ---------------------------------------------------------------------------
# The recovery log: a finished engine must leave no dataspace listener behind
# ---------------------------------------------------------------------------


class TestRecoveryTeardown:
    def _run_engine(self, wal_dir):
        a, b = Var("a"), Var("b")
        merge = ProcessDefinition(
            "Merge",
            body=[
                replicate(
                    immediate(
                        exists(a, b)
                        .match(P[ANY, a].retract(), P[ANY, b].retract())
                    ).then(assert_tuple("sum", a + b))
                )
            ],
        )
        engine = Engine(definitions=[merge], checkpoint_interval=2, wal_dir=str(wal_dir))
        engine.assert_tuples([(i, i * 10) for i in range(4)])
        engine.start("Merge")
        result = engine.run()
        assert result.completed
        return engine

    def test_finished_engine_leaves_zero_listeners(self, tmp_path):
        # Pre-fix the engine never called ``recovery.close()``, so every
        # finished engine left one live subscription on the dataspace —
        # a leak that also kept taking checkpoints for post-run mutations.
        engine = self._run_engine(tmp_path)
        assert engine.dataspace.listener_count == 0

    def test_post_run_changes_take_no_checkpoints(self, tmp_path):
        engine = self._run_engine(tmp_path)
        taken = engine.recovery.segments_written
        for i in range(10):
            engine.dataspace.insert(("late", i))
        assert engine.recovery.segments_written == taken
        assert engine.dataspace.listener_count == 0

    def test_recover_and_verify_still_work_after_teardown(self, tmp_path):
        # close() detaches the listener only; the segments stay loadable,
        # so post-run forensics keep working.
        engine = self._run_engine(tmp_path)
        engine.recovery.verify_durable()


# ---------------------------------------------------------------------------
# Scheduler.take_round: the round_size cap must be honored
# ---------------------------------------------------------------------------


class _StubItem:
    __slots__ = ("name", "queued")

    def __init__(self, name):
        self.name = name
        self.queued = False

    def __repr__(self):
        return self.name


class TestTakeRoundCap:
    def _scheduler(self, round_size):
        scheduler = Scheduler(random.Random(0), "fifo")
        scheduler.round_size = round_size
        return scheduler

    def test_overflow_stays_ready_and_queued(self):
        # Pre-fix ``take_round`` promoted the whole ready set regardless of
        # ``round_size`` (only ``start_round`` honored the cap).
        scheduler = self._scheduler(2)
        items = [_StubItem(f"i{i}") for i in range(5)]
        for item in items:
            scheduler.enqueue(item)
        first = scheduler.take_round()
        assert first == items[:2]
        assert all(not item.queued for item in first)
        assert all(item.queued for item in items[2:])
        assert scheduler.take_round() == items[2:4]
        assert scheduler.take_round() == items[4:5]
        assert scheduler.take_round() is None

    def test_losers_count_against_cap_but_are_never_dropped(self):
        scheduler = self._scheduler(2)
        items = [_StubItem(f"i{i}") for i in range(3)]
        for item in items:
            scheduler.enqueue(item)
        losers = [_StubItem("L0"), _StubItem("L1"), _StubItem("L2")]
        out = scheduler.take_round(prepend=losers)
        # All three losers lead the round (weak fairness trumps the cap);
        # the ready set contributes nothing and stays queued.
        assert out == losers
        assert all(item.queued for item in items)
        assert scheduler.take_round() == items[:2]

    def test_group_engine_respects_round_size(self):
        a, b = Var("a"), Var("b")
        merge = ProcessDefinition(
            "Merge",
            body=[
                immediate(
                    exists(a, b).match(P[ANY, a].retract(), P[ANY, b].retract())
                ).then(assert_tuple(0, a + b)),
            ],
        )
        engine = Engine(definitions=[merge], commit="group", seed=5)
        engine.assert_tuples([(i, 1) for i in range(8)])
        for _ in range(4):
            engine.start("Merge")
        engine.scheduler.round_size = 1
        result = engine.run()
        assert result.completed
        # One candidate per round means batches can never exceed 1.
        assert result.max_batch == 1
        total = sum(
            inst.values[1] for inst in engine.dataspace.find_matching(P[ANY, ANY])
        )
        assert total == 8


# ---------------------------------------------------------------------------
# Dataspace.count_matching / find_matching: candidate isolation
# ---------------------------------------------------------------------------


class _ScratchPattern(Pattern):
    """A pattern that (legally) treats its ``bound`` dict as scratch space.

    Matches ``<key, v>`` only when the mapping holds no ``_prev`` marker,
    then stashes one.  With per-candidate isolation every candidate sees a
    clean mapping, so *all* candidates match; with the pre-fix shared dict
    the first candidate's stash leaked into every later candidate's match
    and only one tuple ever matched.
    """

    def match(self, values, bound):
        got = super().match(values, bound)
        if got is None or "_prev" in bound:
            return None
        if isinstance(bound, dict):
            bound["_prev"] = values
        return got


class TestDataspaceCandidateIsolation:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=12))
    def test_stateful_pattern_cannot_leak_across_candidates(self, values):
        ds = Dataspace()
        for v in values:
            ds.insert(("key", v))
            ds.insert(("decoy", v, v))  # different arity: never a candidate
        a = Var("a")
        impure = _ScratchPattern(P["key", a].elements)
        pure = P["key", a]
        assert ds.count_matching(impure) == ds.count_matching(pure) == len(values)
        assert [inst.tid for inst in ds.find_matching(impure)] == [
            inst.tid for inst in ds.find_matching(pure)
        ]

    def test_caller_bound_dict_never_mutated(self):
        ds = Dataspace()
        ds.insert(("key", 1))
        ds.insert(("key", 2))
        a = Var("a")
        bound = {"unrelated": 42}
        ds.find_matching(_ScratchPattern(P["key", a].elements), bound)
        ds.count_matching(_ScratchPattern(P["key", a].elements), bound)
        assert bound == {"unrelated": 42}


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
