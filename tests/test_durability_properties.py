"""Property-based durability: every load is an exact, *marked* historical state.

The core theorem: for any operation history with any consistent points
marked in it, any shard layout, any checkpoint interval, and any single
seeded corruption of the on-disk segments, ``DurableLog.load`` either
raises :class:`RecoveryError` or returns a dataspace whose state equals
the history's state at exactly ``report.end_version`` — and that version
is one the history marked (or the baseline): a verified prefix of whole
rounds, never an invented, silently corrupted or half-applied state.  The
``chaos`` tests at the bottom run the same check through a full engine
run; CI's durability job executes them per-seed.
"""

from __future__ import annotations

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataspace import Dataspace
from repro.errors import RecoveryError
from repro.runtime import DurableLog, Engine
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.recovery import _MAGIC
from tests.test_chaos_properties import assert_atomic


def signature(space):
    return sorted((inst.values, inst.tid.owner) for inst in space.instances())


# A history is a list of ops: ("insert", payload), ("retract", k) where k
# picks among the tuples still alive at that point (modulo its length), or
# ("mark",) — a consistent point: the changes since the last one were whole
# transactions.  Without marks a history is one round, and every property
# below would hold of a loader that returns the baseline or everything.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("retract"), st.integers(min_value=0, max_value=30)),
        st.just(("mark",)),
    ),
    min_size=1,
    max_size=80,
)


def apply_history(space, log, ops):
    """Apply ops and close the log.

    Returns the signature after each change (index = version) and the
    versions at which a consistent point was marked — the baseline and the
    one ``close()`` implies included.
    """
    live = []
    snapshots = [signature(space)]
    marked = {0}
    for kind, *arg in ops:
        if kind == "insert":
            live.append(space.insert(("op", arg[0], len(snapshots))).tid)
            snapshots.append(signature(space))
        elif kind == "mark":
            log.flush()
            marked.add(len(snapshots) - 1)
        elif live:
            tid = live.pop(arg[0] % len(live))
            space.retract(tid)
            snapshots.append(signature(space))
    log.close()
    marked.add(len(snapshots) - 1)
    return snapshots, marked


class TestDurableRoundTripProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        ops=ops_strategy,
        shards=st.sampled_from([None, 4]),
        interval=st.sampled_from([2, 8, 64]),
    )
    def test_clean_load_equals_final_state(self, tmp_path_factory, ops, shards, interval):
        wal_dir = str(tmp_path_factory.mktemp("wal"))
        space = Dataspace(shards=shards)
        log = DurableLog(space, wal_dir, interval=interval)
        snapshots, __ = apply_history(space, log, ops)
        scratch, report = DurableLog.load(wal_dir)
        assert report.intact
        assert report.end_version == len(snapshots) - 1
        assert signature(scratch) == snapshots[-1]

    @settings(max_examples=25, deadline=None)
    @given(
        ops=ops_strategy,
        shards=st.sampled_from([None, 4]),
        interval=st.sampled_from([2, 8, 64]),
        victim=st.integers(min_value=0, max_value=10**6),
        offset=st.integers(min_value=0, max_value=10**6),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_corrupted_load_is_a_verified_prefix(
        self, tmp_path_factory, ops, shards, interval, victim, offset, flip
    ):
        wal_dir = str(tmp_path_factory.mktemp("wal"))
        space = Dataspace(shards=shards)
        log = DurableLog(space, wal_dir, interval=interval)
        snapshots, marked = apply_history(space, log, ops)

        files = [
            p
            for p in sorted(glob.glob(os.path.join(wal_dir, "*.seg")))
            if os.path.getsize(p) > len(_MAGIC)  # magic-only tails: nothing to flip
        ]
        path = files[victim % len(files)]
        data = bytearray(open(path, "rb").read())
        # Flip one byte past the magic so the header itself stays a segment.
        index = len(_MAGIC) + offset % (len(data) - len(_MAGIC))
        data[index] ^= flip
        open(path, "wb").write(bytes(data))

        try:
            scratch, report = DurableLog.load(wal_dir)
        except RecoveryError:
            return  # every checkpoint broken: an explicit refusal, not silence
        assert report.end_version in marked
        assert signature(scratch) == snapshots[report.end_version]
        # A flip that mattered is always a counted repair or skipped
        # checkpoint; a flip that didn't (pickle slack) must load intact.
        if report.end_version != len(snapshots) - 1:
            assert report.repairs or report.checkpoints_skipped

    @settings(deadline=None)  # no max_examples pin: CI's profile scales it
    @given(
        ops=ops_strategy,
        interval=st.sampled_from([4, 16]),
        at=st.integers(min_value=1, max_value=20),
        action=st.sampled_from(["torn-write", "bit-flip", "lost-fsync"]),
        fault_seed=st.integers(min_value=0, max_value=99),
    )
    def test_injected_write_fault_is_a_verified_prefix(
        self, tmp_path_factory, ops, interval, at, action, fault_seed
    ):
        wal_dir = str(tmp_path_factory.mktemp("wal"))
        space = Dataspace()
        injector = FaultInjector(
            FaultPlan.parse(f"seed={fault_seed}; wal-append:{action}:at={at}")
        )
        log = DurableLog(space, wal_dir, interval=interval, faults=injector)
        snapshots, marked = apply_history(space, log, ops)
        try:
            scratch, report = DurableLog.load(wal_dir)
        except RecoveryError:
            return
        head = len(snapshots) - 1
        assert report.end_version in marked
        assert signature(scratch) == snapshots[report.end_version]
        if report.end_version != head:
            # Every loss is counted, a torn append that persisted nothing
            # included: the marker behind it names a version the reader
            # never saw.  (What no log can count is a crash before any byte
            # of a round persisted; close() rules that out here.)
            assert injector.total_fired and report.repairs

    @pytest.mark.parametrize("at", [1, 2])
    def test_torn_write_keeping_zero_bytes_is_a_counted_repair(self, tmp_path, at):
        """A torn append that persists nothing drops frame *at* whole, so no
        checksum fails; the version gap it leaves must stop the replay.
        Swept over every fault seed: a few of them draw the empty prefix."""
        ops = [op for k in range(3) for op in (("insert", k), ("mark",))]
        for fault_seed in range(100):
            wal_dir = str(tmp_path / f"wal-{fault_seed}")
            space = Dataspace()
            injector = FaultInjector(
                FaultPlan.parse(f"seed={fault_seed}; wal-append:torn-write:at={at}")
            )
            log = DurableLog(space, wal_dir, interval=64, faults=injector)
            snapshots, __ = apply_history(space, log, ops)
            scratch, report = DurableLog.load(wal_dir)
            # The damage is in frame *at*, so exactly the marked
            # transactions before it survive, and the loss is counted.
            assert report.end_version == at - 1 and report.repairs, fault_seed
            assert signature(scratch) == snapshots[at - 1], fault_seed


def _writer():
    from repro.core.actions import assert_tuple
    from repro.core.expressions import Var
    from repro.core.patterns import P
    from repro.core.query import exists
    from repro.core.process import ProcessDefinition
    from repro.core.transactions import delayed

    a = Var("a")
    return ProcessDefinition(
        "Chaos",
        params=("c",),
        body=[
            delayed(exists(a).match(P[Var("c"), a].retract())).then(
                assert_tuple("done", Var("c"), a)
            )
        ],
    )


CHAOS_SEEDS = [int(s) for s in os.environ.get("SDL_CHAOS_SEEDS", "3 17 41").split()]


class TestChaosSmoke:
    """Engine-level durability chaos; CI's durability job runs this class
    across its seed matrix (``SDL_CHAOS_SEEDS`` overrides the seed set)."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("action", ["torn-write", "bit-flip", "lost-fsync"])
    @pytest.mark.parametrize("commit", ["live", "group"])
    def test_engine_wal_survives_storage_chaos(self, tmp_path, seed, action, commit):
        engine = Engine(
            definitions=[_writer()],
            seed=seed,
            commit=commit,
            shards=4,
            wal_dir=str(tmp_path),
            checkpoint_interval=8,
            faults=f"seed={seed}; wal-append:{action}:prob=0.15",
            on_deadlock="return",
        )
        engine.assert_tuples([(f"c{c}", i) for c in range(3) for i in range(4)])
        for c in range(3):
            for __ in range(4):
                engine.start("Chaos", (f"c{c}",))
        result = engine.run()
        assert result.wal_frames > 0

        live = signature(engine.dataspace)
        try:
            scratch, report = DurableLog.load(str(tmp_path))
        except RecoveryError:
            return  # refused outright: counted, never silent
        got = signature(scratch)
        if report.intact:
            assert got == live
        else:
            # Damage found ⇒ explicit repairs, and the loaded state is a
            # strict subset of what the engine committed — never invented.
            assert report.repairs or report.checkpoints_skipped
            assert len(got) <= len(live)
        # Whatever was lost, it was lost in whole transactions: every item
        # is still in its community or became exactly one done record —
        # unless the load is the baseline, before the items were asserted.
        state = scratch.multiset()
        if state:
            assert_atomic(state, 3, 4)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_engine_wal_clean_run_verifies(self, tmp_path, seed):
        engine = Engine(
            definitions=[_writer()],
            seed=seed,
            shards=4,
            commit="group",
            wal_dir=str(tmp_path),
            checkpoint_interval=8,
            on_deadlock="return",
        )
        engine.assert_tuples([(f"c{c}", i) for c in range(2) for i in range(3)])
        for c in range(2):
            for __ in range(3):
                engine.start("Chaos", (f"c{c}",))
        engine.run()
        report = engine.recovery.verify_durable()
        assert report.intact
