"""DurableLog: segment round-trips, detect-and-truncate repair, engine wiring.

The contract under test (SEMANTICS §15): a durable load never silently
returns corrupt state — every outcome is either the persisted history's
state at a *consistent point* (a ``flush()``: no transaction in flight)
or an explicit :class:`RecoveryError`, with every truncation/fallback
recorded as a :class:`RepairEvent`.  A bare ``Dataspace`` has no rounds,
so the standalone tests mark their own consistent points.
"""

import glob
import os
import random

import pytest

from repro.core.dataspace import Dataspace
from repro.errors import EngineError, RecoveryError
from repro.runtime import DurableLog, Engine
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.recovery import (
    _MAGIC,
    RepairEvent,
    _scan_frames,
    _state_signature,
)


def signature(space):
    return sorted((inst.values, inst.tid.owner) for inst in space.instances())


def seg_files(wal_dir, kind="*"):
    return sorted(glob.glob(os.path.join(wal_dir, f"{kind}-*.seg")))


def fill(space, n=40, retract_every=4):
    tids = [space.insert(("item", i, str(i))).tid for i in range(n)]
    for tid in tids[::retract_every]:
        space.retract(tid)


def insert_marked(space, log, n, every=1):
    """Insert ``("t", i)`` for i < n, a consistent point every *every* rows."""
    for i in range(n):
        space.insert(("t", i))
        if (i + 1) % every == 0:
            log.flush()


def frames(path):
    """``(offset, record)`` of every frame in a segment, plus its length."""
    with open(path, "rb") as handle:
        data = handle.read()
    return list(_scan_frames(data, os.path.basename(path), [])), len(data)


class TestRoundTrip:
    @pytest.mark.parametrize("shards", [None, 4])
    def test_load_rebuilds_live_state(self, tmp_path, shards):
        space = Dataspace(shards=shards)
        log = DurableLog(space, str(tmp_path), interval=8)
        fill(space)
        log.close()
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact
        assert signature(scratch) == signature(space)
        assert report.frames_replayed >= 0
        assert report.checkpoint_version <= report.end_version

    def test_empty_dataspace_round_trips(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=8)
        log.close()
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact
        assert signature(scratch) == []

    def test_preloaded_baseline_is_durable(self, tmp_path):
        space = Dataspace()
        space.insert(("pre", 1))
        space.insert(("pre", 2))
        log = DurableLog(space, str(tmp_path), interval=8)
        log.close()
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact
        assert signature(scratch) == signature(space)
        assert report.frames_replayed == 0  # all state in the baseline

    def test_verify_durable_proves_disk_equals_live(self, tmp_path):
        space = Dataspace(shards=2)
        log = DurableLog(space, str(tmp_path), interval=16)
        fill(space, n=30)
        report = log.verify_durable()
        assert report.intact
        log.close()

    def test_counters_track_frames_and_segments(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=8)
        insert_marked(space, log, 20, every=4)
        assert log.wal_frames == 20  # change frames; markers are not counted
        assert log.wal_bytes > 0
        # The interval is tested at consistent points only: 8 and 16 hit it.
        assert log.segments_written == 1 + 20 // 8
        # One fsync per marker, four per checkpoint (tmp file, directory,
        # new WAL segment, directory) — and none per frame.
        assert log.fsyncs == 5 + 4 * log.segments_written
        log.close()  # nothing unmarked, nothing to sync
        assert log.fsyncs == 5 + 4 * log.segments_written

    def test_no_checkpoint_between_consistent_points(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=8)
        for i in range(20):
            space.insert(("t", i))
        # 20 changes and no consistent point: nothing was checkpointed (a
        # checkpoint could hold half a transaction) and nothing synced.
        assert log.segments_written == 1
        assert log.fsyncs == 4
        log.flush()
        assert log.segments_written == 2
        assert log.fsyncs == 4 + 1 + 4
        log.close()


class TestConstruction:
    def test_sync_parameter_is_gone(self, tmp_path):
        # One fsync per consistent point is the only discipline left.
        with pytest.raises(TypeError):
            DurableLog(Dataspace(), str(tmp_path), sync="checkpoint")

    def test_inherited_interval_bound_enforced(self, tmp_path):
        with pytest.raises(RecoveryError):
            DurableLog(Dataspace(), str(tmp_path), interval=0)

    def test_fresh_epoch_wipes_stale_segments(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=8)
        fill(space, n=20)
        log.close()
        assert len(seg_files(str(tmp_path))) > 2
        log2 = DurableLog(Dataspace(), str(tmp_path), interval=8)
        log2.close()
        # Only the new epoch's baseline pair survives the wipe.
        fresh = [os.path.basename(p) for p in seg_files(str(tmp_path))]
        assert fresh == [
            "ckpt-00000000000000000000.seg",
            "wal-00000000000000000000.seg",
        ]

    def test_retention_prunes_old_segment_pairs(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=4, keep=2)
        insert_marked(space, log, 40)
        log.close()
        assert log.segments_written == 11
        assert len(seg_files(str(tmp_path), "ckpt")) == 2
        # WAL chain stays aligned with the kept checkpoints, so the oldest
        # kept checkpoint can still replay forward to the live state.
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact
        assert signature(scratch) == signature(space)


class TestRepair:
    def corrupt(self, path, offset=None, flip=0x01):
        data = bytearray(open(path, "rb").read())
        index = len(data) // 2 if offset is None else offset
        data[index] ^= flip
        open(path, "wb").write(bytes(data))

    def test_bit_flip_in_newest_checkpoint_falls_back(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=8)
        fill(space, n=30)
        log.close()
        self.corrupt(seg_files(str(tmp_path), "ckpt")[-1])
        scratch, report = DurableLog.load(str(tmp_path))
        assert not report.intact
        assert report.checkpoints_skipped == 1
        # The older checkpoint + full WAL replay still reach the end state.
        assert signature(scratch) == signature(space)

    def test_torn_wal_tail_loads_verified_prefix(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=64)
        insert_marked(space, log, 10)
        log.close()
        wal = seg_files(str(tmp_path), "wal")[-1]
        records, size = frames(wal)
        assert [r[0] for __, r in records] == ["chg", "end"] * 10
        os.truncate(wal, size - 7)  # tear the last marker mid-frame
        scratch, report = DurableLog.load(str(tmp_path))
        # Two counted repairs: the torn marker, and the change frame it
        # would have closed — whole on disk, but not known to end a
        # transaction, so dropped from its own offset.
        assert [(r.offset, r.kind) for r in report.repairs] == [
            (records[-1][0], "torn"), (records[-2][0], "torn"),
        ]
        assert report.frames_replayed == 9
        assert signature(scratch) == [
            (("t", i), 0) for i in range(9)
        ]  # the surviving prefix, exactly

    def test_interrupted_round_is_a_counted_repair(self, tmp_path):
        """A clean end-of-file behind unmarked frames is a crash inside a
        round: every frame passes its checksum, and the load still must not
        apply them — nor call the log intact."""
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=64)
        insert_marked(space, log, 9, every=3)
        space.insert(("t", 9))
        space.insert(("t", 10))
        log._wal_handle.flush()  # the bytes reach the file; no marker does
        records, __ = frames(log._wal_path)
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.repairs == [
            RepairEvent(os.path.basename(log._wal_path), records[-2][0], "torn")
        ]
        assert (report.end_version, report.frames_replayed) == (9, 9)
        assert signature(scratch) == [(("t", i), 0) for i in range(9)]
        log.close()  # the consistent point arrives: now it is all there
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact and report.end_version == 11

    def test_marker_naming_a_missing_version_is_a_broken_chain(self, tmp_path):
        space = Dataspace()
        injector = FaultInjector(
            FaultPlan.parse("seed=0; wal-append:torn-write:at=3")
        )
        injector.rng.randrange = lambda *a: 0  # the tear keeps zero bytes
        log = DurableLog(space, str(tmp_path), interval=64, faults=injector)
        insert_marked(space, log, 3)
        log.close()
        scratch, report = DurableLog.load(str(tmp_path))
        # Frame 3 vanished whole, so no checksum fails; its marker says the
        # writer got to version 3 while the reader only saw 2.
        assert [r.kind for r in report.repairs] == ["broken-chain"]
        assert signature(scratch) == [(("t", i), 0) for i in range(2)]

    def test_flip_mid_wal_truncates_from_there(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=64)
        for i in range(10):
            space.insert(("t", i))
        log.close()
        wal = seg_files(str(tmp_path), "wal")[-1]
        self.corrupt(wal, offset=len(_MAGIC) + 20)
        scratch, report = DurableLog.load(str(tmp_path))
        assert any(r.kind == "corrupt" for r in report.repairs)
        assert report.frames_replayed < 10
        live = signature(space)
        assert signature(scratch) == live[: len(signature(scratch))]

    def test_missing_wal_segment_is_a_broken_chain(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=8, keep=16)
        insert_marked(space, log, 40)
        log.close()
        wals = seg_files(str(tmp_path), "wal")
        assert len(wals) == 6  # baseline + one per 8 marked changes
        hole = wals[len(wals) // 2]
        hole_version = int(os.path.basename(hole)[4:-4])
        os.unlink(hole)
        for ckpt in seg_files(str(tmp_path), "ckpt"):
            if int(os.path.basename(ckpt)[5:-4]) > hole_version:
                os.unlink(ckpt)  # force the load to cross the hole
        scratch, report = DurableLog.load(str(tmp_path))
        assert any(r.kind == "broken-chain" for r in report.repairs)
        assert report.end_version == hole_version  # replayed up to the hole
        assert signature(scratch) == [(("t", i), 0) for i in range(hole_version)]

    def test_every_checkpoint_corrupt_raises(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=8)
        fill(space, n=20)
        log.close()
        for ckpt in seg_files(str(tmp_path), "ckpt"):
            open(ckpt, "wb").write(b"\x00" * 64)
        with pytest.raises(RecoveryError):
            DurableLog.load(str(tmp_path))

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            DurableLog.load(str(tmp_path))

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            DurableLog.load(str(tmp_path / "nope"))

    def test_truncated_checkpoint_is_invalid_as_a_whole(self, tmp_path):
        """A checkpoint missing its "end" frame must be skipped entirely,
        not half-loaded (atomic tmp+rename makes this unreachable in
        normal operation; a torn-write fault or crash-mid-rename isn't)."""
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=8)
        fill(space, n=20)
        log.close()
        newest = seg_files(str(tmp_path), "ckpt")[-1]
        data = open(newest, "rb").read()
        open(newest, "wb").write(data[: len(data) - 10])
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.checkpoints_skipped == 1
        assert signature(scratch) == signature(space)

    def test_verify_durable_raises_on_disk_corruption(self, tmp_path):
        space = Dataspace()
        log = DurableLog(space, str(tmp_path), interval=64)
        for i in range(10):
            space.insert(("t", i))
        wal = log._wal_path
        log._wal_handle.flush()
        self.corrupt(wal, offset=len(_MAGIC) + 12)
        with pytest.raises(RecoveryError):
            log.verify_durable()
        log.close()


class TestInjectedStorageFaults:
    def run_with(self, tmp_path, plan, n=30, interval=8):
        space = Dataspace()
        injector = FaultInjector(FaultPlan.parse(plan))
        log = DurableLog(space, str(tmp_path), interval=interval, faults=injector)
        insert_marked(space, log, n)  # every insert is its own transaction
        log.close()
        return space, injector

    @pytest.mark.parametrize(
        "action", ["torn-write", "bit-flip", "lost-fsync"]
    )
    def test_wal_append_faults_load_a_prefix_or_repair(self, tmp_path, action):
        space, injector = self.run_with(
            tmp_path, f"seed=11; wal-append:{action}:at=5", interval=64
        )
        assert injector.total_fired == 1
        scratch, report = DurableLog.load(str(tmp_path))
        assert not report.intact  # the damage was found, never glossed over
        # Exactly the four transactions marked before the damaged frame.
        assert signature(scratch) == signature(space)[:4]

    @pytest.mark.parametrize(
        "action", ["torn-write", "bit-flip", "lost-fsync"]
    )
    def test_checkpoint_faults_fall_back_without_data_loss(self, tmp_path, action):
        space, injector = self.run_with(
            tmp_path, f"seed=3; checkpoint-write:{action}:at=3", n=20
        )
        assert injector.total_fired == 1  # the third checkpoint, v16: the newest
        scratch, report = DurableLog.load(str(tmp_path))
        # The WAL is intact, so the older checkpoint replays all the way.
        assert (report.checkpoints_skipped, report.checkpoint_version) == (1, 8)
        assert signature(scratch) == signature(space)
        assert report.end_version == space.version

    @pytest.mark.parametrize("action", ["short-read", "bit-flip"])
    def test_segment_read_faults_never_load_garbage(self, tmp_path, action):
        space, __ = self.run_with(tmp_path, "seed=1")
        reader = FaultInjector(
            FaultPlan.parse(f"seed=9; segment-read:{action}:at=1")
        )
        scratch, report = DurableLog.load(str(tmp_path), faults=reader)
        live = signature(space)
        got = signature(scratch)
        assert got == live[: len(got)]
        assert report.repairs or got == live

    def test_storage_faults_never_touch_engine_rng(self, tmp_path):
        """An injected storage fault must not consume the injector's RNG
        when it does not fire, and never the engine's at all."""
        space, injector = self.run_with(
            tmp_path, "seed=7; wal-append:torn-write:at=1000"
        )
        assert injector.total_fired == 0
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact
        assert signature(scratch) == signature(space)


class TestEngineIntegration:
    @staticmethod
    def _writer():
        from repro.core.actions import assert_tuple
        from repro.core.process import ProcessDefinition
        from repro.core.transactions import delayed

        return ProcessDefinition(
            "Writer",
            params=("i",),
            body=[delayed().then(assert_tuple("out", 1))],
        )

    def _noop_engine(self, tmp_path, **kw):
        engine = Engine(
            definitions=[self._writer()], wal_dir=str(tmp_path), **kw
        )
        for i in range(6):
            engine.start("Writer", (i,))
        return engine

    def test_wal_dir_selects_durable_log(self, tmp_path):
        engine = self._noop_engine(tmp_path, checkpoint_interval=4)
        assert isinstance(engine.recovery, DurableLog)
        result = engine.run()
        assert result.completed
        assert result.wal_frames > 0
        assert result.wal_bytes > 0
        assert result.wal_segments >= 1
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact
        assert signature(scratch) == signature(engine.dataspace)

    def test_wal_dir_defaults_interval_without_checkpoint_arg(self, tmp_path):
        engine = self._noop_engine(tmp_path)
        assert isinstance(engine.recovery, DurableLog)
        assert engine.recovery.interval == 64

    def test_checkpoint_interval_without_wal_dir_raises(self, monkeypatch):
        # There is one recovery log, the durable one: an interval with no
        # directory to write it to is a configuration error.
        monkeypatch.delenv("SDL_WAL_DIR", raising=False)
        with pytest.raises(EngineError, match="WAL directory"):
            Engine(definitions=[], checkpoint_interval=8)

    def test_sdl_wal_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SDL_WAL_DIR", str(tmp_path))
        engine = Engine(definitions=[])
        assert isinstance(engine.recovery, DurableLog)
        assert engine.wal_dir == str(tmp_path)
        engine.recovery.close()

    def test_durable_run_is_bit_identical_to_bare(self, tmp_path):
        bare = self._noop_engine(tmp_path / "w1", checkpoint_interval=4)
        r1 = bare.run()
        plain = Engine(definitions=[self._writer()], seed=0)
        # Same program without a WAL: durable logging must not perturb
        # scheduling, arbitration, or results.
        for i in range(6):
            plain.start("Writer", (i,))
        r2 = plain.run()
        assert _state_signature(bare.dataspace) == _state_signature(plain.dataspace)
        assert (r1.reason, r1.steps, r1.rounds, r1.commits) == (
            r2.reason, r2.steps, r2.rounds, r2.commits
        )

    @pytest.mark.parametrize("commit", ["live", "group"])
    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_limit_then_resume_stays_durable(self, tmp_path, commit, limit):
        # A round/step limit is not the end of the run.  The engine used to
        # close the log at *every* summary, so a second ``run()`` committed
        # with no listener: the WAL stopped at the limit while the live
        # dataspace moved on, and ``load`` reported the stale prefix intact.
        from repro.programs.summation import array_tuples, sum3_definition

        space = Dataspace()
        listeners = space.listener_count
        engine = Engine(
            definitions=[sum3_definition()], seed=3, commit=commit,
            wal_dir=str(tmp_path), dataspace=space,
        )
        engine.assert_tuples(array_tuples(list(range(1, 65))))
        engine.start("Sum3")
        first = engine.run(max_rounds=limit)
        assert first.reason == "round-limit"
        # The prefix is already durable at the limit (flush + fsync)...
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact and report.end_version == space.version
        assert scratch.multiset() == space.multiset()
        # ...and the log is still subscribed for whatever the resumed run
        # commits.
        assert space.listener_count > listeners
        second = engine.run()
        assert second.completed
        assert second.commits > first.commits
        assert second.wal_frames > first.wal_frames
        assert [v for __, v in space.snapshot()] == [sum(range(1, 65))]
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact and report.end_version == space.version
        assert scratch.multiset() == space.multiset()
        # A terminal reason still tears the subscription down.
        assert space.listener_count == listeners

    def test_step_limit_flushes_and_stays_subscribed(self, tmp_path):
        engine = self._noop_engine(
            tmp_path, checkpoint_interval=4, on_deadlock="return"
        )
        first = engine.run(max_steps=2)
        assert first.reason == "step-limit"
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact
        assert signature(scratch) == signature(engine.dataspace)
        assert engine.run().completed
        assert engine.dataspace.listener_count == 0
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact
        assert signature(scratch) == signature(engine.dataspace)

    @staticmethod
    def _assert_reloads_live_state(engine, wal_dir):
        scratch, report = DurableLog.load(str(wal_dir))
        assert report.intact and report.end_version == engine.dataspace.version
        assert scratch.multiset() == engine.dataspace.multiset()

    def test_deadlock_then_assert_then_run_stays_durable(self, tmp_path):
        # A terminal result closes the log, and a closed log used to drop
        # every later change: here the tuple that unblocks the waiter and
        # the whole resumed run, so ``load`` returned ``[]`` "intact".
        from repro.core.actions import assert_tuple
        from repro.core.expressions import Var
        from repro.core.patterns import P
        from repro.core.process import ProcessDefinition
        from repro.core.query import exists
        from repro.core.transactions import delayed

        a = Var("a")
        waiter = ProcessDefinition(
            "W",
            body=[delayed(exists(a).match(P["go", a].retract())).then(assert_tuple("done", a))],
        )
        engine = Engine(definitions=[waiter], wal_dir=str(tmp_path), on_deadlock="return")
        engine.start("W")
        assert engine.run().reason == "deadlock"
        engine.assert_tuples([("go", 7)])
        self._assert_reloads_live_state(engine, tmp_path)
        assert engine.run().completed
        assert engine.dataspace.multiset() == {("done", 7): 1}
        self._assert_reloads_live_state(engine, tmp_path)
        assert engine.dataspace.listener_count == 0  # closed again

    def test_completed_then_start_then_run_stays_durable(self, tmp_path):
        engine = self._noop_engine(tmp_path, checkpoint_interval=4)
        first = engine.run()
        assert first.completed
        engine.start("Writer", (6,))
        second = engine.run()
        assert second.completed and second.commits == first.commits + 1
        self._assert_reloads_live_state(engine, tmp_path)
        assert second.checkpoints == first.checkpoints + 1  # the new baseline
        assert engine.dataspace.listener_count == 0

    def test_obs_metrics_expose_wal_sites(self, tmp_path):
        engine = self._noop_engine(tmp_path, checkpoint_interval=4, obs=True)
        result = engine.run()
        assert result.metrics["sdl_wal_frames_total"]["data"] > 0
        assert (
            result.metrics["sdl_wal_fsyncs_total"]["data"] == engine.recovery.fsyncs
        )
        assert "sdl_wal_append_seconds" in result.metrics
        assert "sdl_checkpoint_write_seconds" in result.metrics

    def test_assert_tuples_outside_run_is_a_consistent_point(self, tmp_path):
        # Loaded, never run: the rows must not sit in a file buffer waiting
        # for a round boundary that never comes.
        engine = self._noop_engine(tmp_path)
        engine.assert_tuples([("seed", i) for i in range(5)])
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact and report.end_version == 1
        assert scratch.multiset() == engine.dataspace.multiset()
        engine.recovery.close()

    @pytest.mark.parametrize("commit", ["live", "group"])
    def test_policy_raises_leave_a_marked_log(self, tmp_path, commit):
        # ``on_deadlock="raise"`` leaves run() by exception, twice: at the
        # step limit and at the deadlock.  Both fire between steps, so what
        # was committed before them is a consistent point on disk.
        from repro.core.patterns import P
        from repro.core.process import ProcessDefinition
        from repro.core.query import exists
        from repro.core.transactions import delayed
        from repro.errors import DeadlockError, StepLimitExceeded

        waiter = ProcessDefinition(
            "Waiter", body=[delayed(exists().match(P["never"]))]
        )
        engine = Engine(
            definitions=[self._writer(), waiter], commit=commit,
            wal_dir=str(tmp_path),
        )
        for i in range(6):
            engine.start("Writer", (i,))
        engine.start("Waiter")
        with pytest.raises(StepLimitExceeded):
            engine.run(max_steps=3)
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact and report.end_version == engine.dataspace.version
        assert signature(scratch) == signature(engine.dataspace)
        with pytest.raises(DeadlockError):
            engine.run()
        assert len(engine.dataspace) == 6
        scratch, report = DurableLog.load(str(tmp_path))
        assert report.intact
        assert signature(scratch) == signature(engine.dataspace)
        engine.recovery.close()


def sum3_engine(wal_dir, commit, n=64):
    from repro.programs.summation import array_tuples, sum3_definition

    engine = Engine(
        definitions=[sum3_definition()], seed=3, commit=commit, wal_dir=wal_dir
    )
    engine.assert_tuples(array_tuples(list(range(1, n + 1))))
    engine.start("Sum3")
    return engine, sum(range(1, n + 1))


@pytest.mark.parametrize("commit", ["live", "group"])
class TestConsistentPoints:
    """Sum3 (two retracts and one assert per transaction) through an engine:
    the array's total is the program invariant, broken by any state that
    holds part of a transaction."""

    def test_one_fsync_per_consistent_point(self, tmp_path, commit, monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        engine, __ = sum3_engine(str(tmp_path), commit)
        result = engine.run()
        assert result.completed
        log = engine.recovery
        assert log.fsyncs == len(calls)  # every one the log issues, none else
        assert log.segments_written <= log.keep  # nothing retired: count on disk
        markers = sum(
            record[0] == "end"
            for wal in seg_files(str(tmp_path), "wal")
            for __, record in frames(wal)[0]
        )
        # One per marker; four per checkpoint (tmp file, directory, the new
        # WAL segment, directory).  A marker per round that changed
        # something, plus the one behind assert_tuples.
        assert log.fsyncs == markers + 4 * log.segments_written
        assert 1 < markers <= result.rounds + 1
        # One chg frame per transaction, plus the load's.
        assert result.wal_frames == 1 + result.commits

    def test_every_crash_point_reloads_between_transactions(self, tmp_path, commit):
        """Cut the log at every frame boundary and at three seeded offsets
        inside every frame — every prefix a crash could leave.  Each load
        raises or returns a state the run passed through between two
        transactions, and calls the log intact only when the cut is a
        consistent point."""
        wal_dir = str(tmp_path)
        engine, expected = sum3_engine(wal_dir, commit)
        assert engine.run().completed
        rng = random.Random(24)
        cuts = wrong = frame_count = 0
        cut_inside_a_transaction = False
        # Newest segment first, shrinking in place: what is on disk is then
        # always a crash image of the run (older segments whole, this one
        # cut, nothing newer).
        for wal in reversed(seg_files(wal_dir, "wal")):
            records, size = frames(wal)
            starts = [offset for offset, __ in records] + [size]
            marked = {len(_MAGIC)} | {
                starts[i + 1] for i, (__, r) in enumerate(records) if r[0] == "end"
            }
            inside = [
                cut
                for lo, hi in zip(starts, starts[1:])
                for cut in rng.sample(range(lo + 1, hi), 3)
            ]
            frame_count += len(records)
            # A Sum3 transaction retracts two rows and asserts one, all in
            # one chg frame: a cut inside such a frame tears a transaction.
            cut_inside_a_transaction |= any(
                r[0] == "chg" and r[2] and r[3] for __, r in records
            )
            for cut in sorted(set(starts) | set(inside), reverse=True):
                os.truncate(wal, cut)
                cuts += 1
                try:
                    scratch, report = DurableLog.load(wal_dir)
                except RecoveryError:
                    continue
                total = sum(inst.values[1] for inst in scratch.instances())
                baseline = report.end_version == 0 and len(scratch) == 0
                wrong += not (total == expected or baseline)
                assert report.intact == (cut in marked), (wal, cut, report.repairs)
            # Before this segment there was the checkpoint it continues,
            # alone: taken behind a marker, so consistent and intact.
            os.unlink(wal)
            scratch, report = DurableLog.load(wal_dir)
            assert report.intact and report.frames_replayed == 0
            os.unlink(wal.replace("wal-", "ckpt-"))
        # One boundary cut and three inside cuts per frame, at least.
        assert cuts >= 4 * frame_count and wrong == 0
        assert cut_inside_a_transaction
