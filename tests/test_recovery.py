"""Checkpoint/replay recovery: fidelity, journal gaps, engine wiring."""

import pytest

from repro.core.dataspace import JOURNAL_DEPTH, Dataspace
from repro.errors import RecoveryError
from repro.runtime import Checkpoint, Engine, RecoveryLog
from repro.runtime.events import CheckpointTaken, Trace


def signature(space):
    return sorted((inst.values, inst.tid.owner) for inst in space.instances())


class TestConstruction:
    @pytest.mark.parametrize("interval", [0, -1, JOURNAL_DEPTH + 1])
    def test_bad_interval_rejected(self, interval, space):
        with pytest.raises(RecoveryError):
            RecoveryLog(space, interval=interval)

    def test_bad_keep_rejected(self, space):
        with pytest.raises(RecoveryError):
            RecoveryLog(space, keep=0)

    def test_baseline_checkpoint_captures_preloaded_state(self, year_space):
        log = RecoveryLog(year_space, interval=64)
        assert log.checkpoints_taken == 1
        assert log.latest.size == 4
        assert log.latest.version == year_space.version

    def test_engine_rejects_bad_interval(self):
        from repro.errors import EngineError

        with pytest.raises((EngineError, RecoveryError)):
            Engine(definitions=[], checkpoint_interval=0)


class TestCheckpointing:
    def test_captures_every_interval(self, space):
        log = RecoveryLog(space, interval=3)
        for i in range(7):
            space.insert(("t", i))
        # baseline + after changes 3 and 6
        assert log.checkpoints_taken == 3

    def test_keep_prunes_old_checkpoints(self, space):
        log = RecoveryLog(space, interval=1, keep=2)
        for i in range(5):
            space.insert(("t", i))
        assert log.checkpoints_taken == 6
        assert len(log.checkpoints) == 2
        assert log.latest.version == space.version

    def test_close_stops_capture_and_is_idempotent(self, space):
        log = RecoveryLog(space, interval=1)
        space.insert(("t", 0))
        taken = log.checkpoints_taken
        log.close()
        log.close()
        space.insert(("t", 1))
        assert log.checkpoints_taken == taken


class TestReplay:
    def test_recover_replays_asserts_and_retracts(self, space):
        first = space.insert(("keep", 1))
        log = RecoveryLog(space, interval=JOURNAL_DEPTH)
        doomed = space.insert(("gone", 2))
        space.insert(("late", 3))
        space.retract(doomed.tid)
        space.retract(first.tid)
        scratch = log.recover()
        assert log.replayed == 4
        assert signature(scratch) == signature(space)
        assert signature(scratch) == [(("late", 3), 0)]

    def test_recover_from_explicit_older_checkpoint(self, space):
        log = RecoveryLog(space, interval=2, keep=4)
        for i in range(6):
            space.insert(("t", i))
        oldest = log.checkpoints[0]
        scratch = log.recover(oldest)
        assert signature(scratch) == signature(space)
        assert log.replayed > log.interval  # replayed past newer checkpoints

    def test_verify_passes_on_faithful_replay(self, year_space):
        log = RecoveryLog(year_space, interval=8)
        year_space.insert(("year", 91))
        scratch = log.verify()
        assert signature(scratch) == signature(year_space)

    def test_verify_reports_divergence(self, space):
        log = RecoveryLog(space, interval=JOURNAL_DEPTH)
        space.insert(("t", 1))
        # Sabotage the baseline: pretend the checkpoint held a phantom tuple.
        phantom = Dataspace().insert(("phantom", 0))
        log.checkpoints[0] = Checkpoint(
            version=log.checkpoints[0].version,
            instances=log.checkpoints[0].instances + (phantom,),
        )
        with pytest.raises(RecoveryError, match="diverges"):
            log.verify()

    def test_journal_gap_raises(self, space):
        log = RecoveryLog(space, interval=JOURNAL_DEPTH, keep=8)
        stale = log.latest
        for i in range(JOURNAL_DEPTH + 1):
            space.insert(("t", i))
        with pytest.raises(RecoveryError, match="journal gap"):
            log.recover(stale)

    def test_drifted_shard_counts_raise(self):
        # shard_counts records the per-shard occupancy at capture;
        # recovery re-routes every tuple, so a count vector that disagrees
        # with the actual placement means the checkpoint is internally
        # inconsistent and must be rejected.
        space = Dataspace(shards=4)
        log = RecoveryLog(space, interval=4)
        space.insert_many([(f"c{i % 5}", i) for i in range(24)])
        good = log.latest
        assert log.recover(good).multiset() == space.multiset()
        counts = list(good.shard_counts)
        counts[0], counts[1] = counts[1] + 1, counts[0] - 1
        bad = Checkpoint(
            version=good.version,
            instances=good.instances,
            shard_counts=tuple(counts),
        )
        with pytest.raises(RecoveryError, match="shard counts"):
            log.recover(bad)
        log.close()


class TestEngineIntegration:
    def _labeling_engine(self, **kw):
        from repro.core.actions import assert_tuple
        from repro.core.expressions import Var
        from repro.core.patterns import P
        from repro.core.process import ProcessDefinition
        from repro.core.query import exists
        from repro.core.transactions import delayed

        a = Var("a")
        mover = ProcessDefinition(
            "Mover",
            body=[
                delayed(exists(a).match(P["src", a].retract())).then(
                    assert_tuple("dst", a)
                )
                for __ in range(4)
            ],
        )
        engine = Engine(definitions=[mover], seed=3, on_deadlock="return", **kw)
        engine.assert_tuples([("src", i) for i in range(4)])
        engine.start("Mover")
        return engine

    def test_engine_checkpoints_and_verifies(self):
        trace = Trace(detail=True)
        engine = self._labeling_engine(checkpoint_interval=2, trace=trace)
        result = engine.run()
        assert result.reason == "completed"
        assert result.checkpoints == engine.recovery.checkpoints_taken
        assert result.checkpoints >= 2
        events = list(trace.of_kind(CheckpointTaken))
        assert len(events) == result.checkpoints  # baseline included
        engine.recovery.verify()

    def test_no_recovery_log_without_interval(self):
        engine = self._labeling_engine()
        assert engine.recovery is None
        assert engine.run().checkpoints == 0
