"""Checkpoint + WAL recovery: construction, checkpointing, replay, engine wiring.

A bare ``Dataspace`` has no rounds, so the standalone tests mark their own
consistent points with ``flush()``.
"""

import os

import pytest

from repro.core.dataspace import JOURNAL_DEPTH, Dataspace
from repro.errors import RecoveryError
from repro.runtime import DurableLog, Engine, RepairEvent
from repro.runtime.events import CheckpointTaken, Trace
from repro.runtime.recovery import _MAGIC, _frame, _scan_frames


def signature(space):
    return sorted((inst.values, inst.tid.owner) for inst in space.instances())


def checkpoints(wal_dir):
    """The checkpoint segment paths in *wal_dir*, oldest first."""
    names = sorted(n for n in os.listdir(wal_dir) if n.startswith("ckpt-"))
    return [os.path.join(wal_dir, n) for n in names]


def rewrite(path, edit):
    """Rewrite a segment, every frame checksummed, with *edit*(records)."""
    with open(path, "rb") as handle:
        data = handle.read()
    records = [record for __, record in _scan_frames(data, os.path.basename(path), [])]
    with open(path, "wb") as handle:
        handle.write(_MAGIC + b"".join(_frame(record) for record in edit(records)))


class TestConstruction:
    @pytest.mark.parametrize("interval", [0, -1])
    def test_bad_interval_rejected(self, interval, space, tmp_path):
        with pytest.raises(RecoveryError):
            DurableLog(space, str(tmp_path), interval=interval)

    def test_bad_keep_rejected(self, space, tmp_path):
        with pytest.raises(RecoveryError):
            DurableLog(space, str(tmp_path), keep=0)

    def test_baseline_checkpoint_captures_preloaded_state(self, year_space, tmp_path):
        log = DurableLog(year_space, str(tmp_path), interval=64)
        assert log.segments_written == 1
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact and report.frames_replayed == 0
        assert report.checkpoint_version == year_space.version
        assert signature(scratch) == signature(year_space)
        log.close()

    def test_engine_rejects_bad_interval(self, tmp_path):
        with pytest.raises(RecoveryError):
            Engine(definitions=[], checkpoint_interval=0, wal_dir=str(tmp_path))

    def test_interval_beyond_the_journal_depth_round_trips(self, space, tmp_path):
        # Replay reads the WAL, not the dataspace's bounded journal, so an
        # interval longer than the journal is fine.
        log = DurableLog(space, str(tmp_path), interval=2 * JOURNAL_DEPTH)
        for i in range(JOURNAL_DEPTH + 100):
            space.insert(("t", i))
            if i % 50 == 49:
                log.flush()
        log.close()
        assert log.segments_written == 1  # the baseline only
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact and report.frames_replayed == JOURNAL_DEPTH + 100
        assert signature(scratch) == signature(space)


class TestCheckpointing:
    def test_captures_every_interval(self, space, tmp_path):
        log = DurableLog(space, str(tmp_path), interval=3)
        for i in range(7):
            space.insert(("t", i))
            log.flush()
        # baseline + after changes 3 and 6
        assert log.segments_written == 3
        log.close()

    def test_keep_prunes_old_checkpoints(self, space, tmp_path):
        log = DurableLog(space, str(tmp_path), interval=1, keep=2)
        for i in range(5):
            space.insert(("t", i))
            log.flush()
        assert log.segments_written == 6
        kept = checkpoints(str(tmp_path))
        assert len(kept) == 2
        assert kept[-1].endswith(f"-{space.version:020d}.seg")
        log.close()

    def test_close_stops_capture_and_is_idempotent(self, space, tmp_path):
        listeners = space.listener_count
        log = DurableLog(space, str(tmp_path), interval=1)
        space.insert(("t", 0))
        log.flush()
        taken = log.segments_written
        log.close()
        log.close()
        space.insert(("t", 1))
        log.flush()
        assert log.segments_written == taken
        assert space.listener_count == listeners


class TestReplay:
    def test_recover_replays_asserts_and_retracts(self, space, tmp_path):
        first = space.insert(("keep", 1))
        log = DurableLog(space, str(tmp_path), interval=64)
        doomed = space.insert(("gone", 2))
        space.insert(("late", 3))
        space.retract(doomed.tid)
        space.retract(first.tid)
        log.close()
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact and report.frames_replayed == 4
        assert signature(scratch) == signature(space)
        assert signature(scratch) == [(("late", 3), 0)]

    def test_recover_from_explicit_older_checkpoint(self, space, tmp_path):
        log = DurableLog(space, str(tmp_path), interval=2, keep=4)
        for i in range(6):
            space.insert(("t", i))
            log.flush()
        log.close()
        for path in checkpoints(str(tmp_path))[1:]:
            os.unlink(path)  # only the baseline is left to start from
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact and report.checkpoint_version == 0
        assert signature(scratch) == signature(space)
        assert report.frames_replayed > log.interval  # replayed past newer checkpoints

    def test_verify_passes_on_faithful_replay(self, year_space, tmp_path):
        log = DurableLog(year_space, str(tmp_path), interval=8)
        year_space.insert(("year", 91))
        report = log.verify_durable()
        assert report.intact and report.end_version == year_space.version
        log.close()

    def test_verify_reports_divergence(self, space, tmp_path):
        log = DurableLog(space, str(tmp_path), interval=JOURNAL_DEPTH)
        space.insert(("t", 1))

        def phantom(records):
            # The baseline, intact on disk, but holding a phantom tuple.
            meta, __end = records
            return [meta[:5] + (1,), ("inst", [(999, 0, ("phantom", 0))]), ("end", 1)]

        (baseline,) = checkpoints(str(tmp_path))
        rewrite(baseline, phantom)
        with pytest.raises(RecoveryError, match="diverges"):
            log.verify_durable()
        log.close()

    def test_drifted_shard_counts_raise(self, tmp_path):
        # shard_counts records the per-shard occupancy at capture; load
        # re-routes every tuple, so a count vector that disagrees with the
        # actual placement means the checkpoint is internally inconsistent
        # and must be rejected, here in favour of the older baseline.
        space = Dataspace(shards=4)
        log = DurableLog(space, str(tmp_path), interval=4)
        for batch in range(4):
            space.insert_many([(f"c{i % 5}", i) for i in range(batch * 6, batch * 6 + 6)])
        log.close()
        baseline, newest = checkpoints(str(tmp_path))
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact and report.checkpoint_version == space.version
        assert scratch.multiset() == space.multiset()

        def drift(records):
            meta = records[0]
            counts = list(meta[4])
            counts[0], counts[1] = counts[1] + 1, counts[0] - 1
            return [meta[:4] + (tuple(counts), meta[5])] + records[1:]

        rewrite(newest, drift)
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.repairs == [
            RepairEvent(os.path.basename(newest), 0, "invalid-checkpoint")
        ]
        assert report.checkpoints_skipped == 1 and report.checkpoint_version == 0
        assert scratch.multiset() == space.multiset()  # the WAL from the baseline


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

    def test_engine_checkpoints_and_verifies(self, tmp_path):
        trace = Trace(detail=True)
        engine = self._labeling_engine(
            checkpoint_interval=2, trace=trace, wal_dir=str(tmp_path)
        )
        result = engine.run()
        assert result.reason == "completed"
        assert result.checkpoints == result.wal_segments
        assert result.checkpoints >= 2
        events = list(trace.of_kind(CheckpointTaken))
        assert len(events) == result.checkpoints  # baseline included
        engine.recovery.verify_durable()

    def test_no_recovery_log_without_interval(self):
        engine = self._labeling_engine()
        assert engine.recovery is None
        assert engine.run().checkpoints == 0
