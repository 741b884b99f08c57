"""Checkpoint + write-ahead-log recovery for the shared dataspace.

The dataspace changes only through atomic transactions, so its history
is one serial sequence of :class:`~repro.core.dataspace.DataspaceChange`
events, one per transaction (its retractions and its assertions) or bulk
load.  A :class:`DurableLog` subscribes to the dataspace and keeps that
history on disk: a directory of **segment files** — length-prefixed,
CRC32-checksummed frames behind an 8-byte magic — holding full
:class:`Checkpoint` snapshots (committed atomically by tmp-file+rename)
and a WAL of change frames between them.  The unit of durability is the
**consistent point** — a moment no transaction is in flight, which the
engine announces at every round boundary and on every exit from
``run()`` by calling :meth:`DurableLog.flush`: change frames are buffered
writes, and ``flush`` closes them with one ``end`` marker frame and one
fsync, then takes a checkpoint once ``interval`` changes (transactions,
or loads) have gathered.

:meth:`DurableLog.load` rebuilds a dataspace from disk alone: it verifies
every frame checksum, **truncates at the first torn or corrupt frame**
(recording a :class:`RepairEvent`, never silently loading garbage), falls
back to an older checkpoint when the newest one is damaged, and replays
the WAL marker by marker into a scratch dataspace — frames no marker
closes are dropped and counted, so a load raises or returns exactly the
state at a consistent point, never half a transaction.
:meth:`DurableLog.verify_durable` proves a fault-free reload identical to
the live state (multiset of ``(values, owner)`` pairs; instance serials
may differ — identity is an engine artefact, not state).

A checkpoint holds the instances in global serial order whatever the
layout.  Under a sharded dataspace (``shards`` > 1) it also records
``shard_counts``, the per-store occupancy at capture: the scratch
dataspace — built with the live partitioner's spec — re-routes every
tuple (routing is a pure function of the tuple's value), and a placement
that disagrees with the recorded counts exposes a lying checkpoint.

Storage faults (`wal-append`/`checkpoint-write`/`segment-read` sites with
`torn-write`/`bit-flip`/`short-read`/`lost-fsync` actions) are injected
through the same seeded :class:`~repro.runtime.faults.FaultInjector` the
executor uses, so chaos tests can prove the detect-and-truncate repair
rules under deterministic corruption schedules.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.dataspace import Dataspace, DataspaceChange, _sort_key
from repro.core.tuples import TupleId, TupleInstance
from repro.errors import RecoveryError

__all__ = [
    "Checkpoint",
    "DurableLog",
    "DurableLoadReport",
    "RepairEvent",
]


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """A consistent snapshot: every live instance as of *version*.

    ``instances`` is in global serial order.  ``shard_counts`` is ``None``
    for a single-store dataspace; for a sharded one it holds the per-store
    instance counts, which reloading must reproduce by re-routing.
    """

    version: int
    instances: tuple[TupleInstance, ...]
    shard_counts: tuple[int, ...] | None = None

    @property
    def size(self) -> int:
        return len(self.instances)

    def __repr__(self) -> str:
        shards = "" if self.shard_counts is None else f", shards={self.shard_counts}"
        return f"Checkpoint(v={self.version}, |D|={self.size}{shards})"


def _state_signature(space: Dataspace) -> list[tuple]:
    """Order-independent state identity: sorted ``(values, owner)`` pairs."""
    return sorted(
        ((_sort_key(inst.values), inst.tid.owner) for inst in space.instances()),
    )


# ======================================================================
# durable segments (DurableLog)
# ======================================================================
#
# Segment format.  Every ``*.seg`` file is an 8-byte magic followed by
# frames; a frame is ``>I`` payload length, ``>I`` CRC32 of the payload,
# then the payload (a pickled record tuple).  Torn tails, zeroed pages
# (a lost fsync), and flipped bits all fail the length/CRC/unpickle
# checks, and the repair rule is uniform: the valid prefix survives, the
# first bad frame and everything after it is truncated.
#
# Checkpoint segment ``ckpt-<version>.seg``:
#     ("meta", version, shard_spec, indexed, shard_counts, count)
#     ("inst", [(serial, owner, values), ...])   # chunks of _CHUNK
#     ("end", count)                             # commit marker
# A checkpoint missing its "end" frame (or failing any check before it)
# is *invalid as a whole* — load falls back to the next older one.
#
# WAL segment ``wal-<version>.seg`` (opened when checkpoint <version>
# commits, so segments chain contiguously):
#     ("chg", version, [(serial, owner, values), ...], [(serial, owner), ...])
#     ("end", version)                           # consistent-point marker
# A chg frame is one dataspace change: a whole transaction (what it
# asserted, what it retracted) or a bulk load.  One is written per
# dataspace version, so frame versions must increase by exactly one
# across the chain; replay stops at the first violation (a repeat, or a
# gap where a frame vanished whole) as if the frame were corrupt.  chg
# frames are buffered writes; an "end" marker naming the last version
# written closes them and is the only thing that is fsynced.  Replay
# applies chg frames only once their marker arrives: frames after the
# last marker belong to a round that never reached its consistent point
# and are dropped as one "torn" repair.  Checkpoints are taken only right
# after a marker, so every segment ends on one.

_MAGIC = b"SDLSEG1\n"
_HEADER = struct.Struct(">II")
_CHUNK = 512          # instances per checkpoint frame
_MAX_FRAME = 1 << 26  # 64 MiB sanity bound on a single frame


def _frame(record: Any) -> bytes:
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _corrupt(data: bytes, action: str, rng, lo: int = 0) -> bytes:
    """Apply a storage-fault *action* to *data* (seeded by the injector RNG).

    ``torn-write`` keeps a strict prefix, ``bit-flip`` flips one bit at or
    after byte *lo* (past the magic, so the damage lands in a frame), and
    ``lost-fsync`` models the page cache never reaching disk: the bytes
    occupy their offsets but read back as zeros.
    """
    if not data:
        return data
    if action == "torn-write":
        return data[: rng.randrange(max(1, len(data)))]
    if action == "bit-flip":
        lo = min(lo, len(data) - 1)
        index = rng.randrange(lo, len(data))
        return data[:index] + bytes([data[index] ^ (1 << rng.randrange(8))]) + data[index + 1:]
    if action == "lost-fsync":
        return b"\x00" * len(data)
    raise RecoveryError(f"unknown storage fault action {action!r}")  # pragma: no cover


@dataclass(frozen=True, slots=True)
class RepairEvent:
    """One detect-and-truncate repair performed by :meth:`DurableLog.load`."""

    file: str    # segment file name (not the full path)
    offset: int  # byte offset of the first unusable frame
    kind: str    # "torn" (open rounds too) | "corrupt" | "invalid-checkpoint" | "broken-chain"

    def __repr__(self) -> str:
        return f"RepairEvent({self.file}:{self.offset} {self.kind})"


@dataclass(slots=True)
class DurableLoadReport:
    """What :meth:`DurableLog.load` found on disk and how it repaired it."""

    checkpoint_version: int = -1   # version of the checkpoint actually loaded
    end_version: int = -1          # the consistent point reached: last marked version applied
    frames_replayed: int = 0       # WAL change frames applied (whole rounds only)
    segments_scanned: int = 0      # segment files opened (checkpoints + WAL)
    checkpoints_skipped: int = 0   # damaged checkpoints skipped over
    repairs: list[RepairEvent] = field(default_factory=list)

    @property
    def intact(self) -> bool:
        """True when the whole log loaded without a single repair."""
        return not self.repairs


def _scan_frames(
    data: bytes, name: str, repairs: list[RepairEvent]
) -> Iterator[tuple[int, Any]]:
    """Yield ``(offset, record)`` for the valid frame prefix of *data*.

    Stops at the first torn or corrupt frame, appending one
    :class:`RepairEvent`; a clean end-of-file stops silently.
    """
    size = len(data)
    offset = len(_MAGIC)
    while offset < size:
        if offset + _HEADER.size > size:
            repairs.append(RepairEvent(name, offset, "torn"))
            return
        length, crc = _HEADER.unpack_from(data, offset)
        if length == 0 or length > _MAX_FRAME:
            repairs.append(RepairEvent(name, offset, "torn"))
            return
        start = offset + _HEADER.size
        if start + length > size:
            repairs.append(RepairEvent(name, offset, "torn"))
            return
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            repairs.append(RepairEvent(name, offset, "corrupt"))
            return
        try:
            record = pickle.loads(payload)
        except Exception:
            repairs.append(RepairEvent(name, offset, "corrupt"))
            return
        yield offset, record
        offset = start + length


class DurableLog:
    """Checkpoints and a write-ahead log of one dataspace, in *wal_dir*.

    Every checkpoint is committed to ``wal_dir`` as an atomic segment
    file and every dataspace change is appended to the live WAL segment.

    Commit protocol.  The unit of durability is the **consistent point**:
    a moment at which no transaction is in flight.  The engine marks one
    at every round boundary, on every exit from ``run()`` and after
    ``assert_tuples()``; a standalone user marks its own with
    :meth:`flush` (:meth:`close` and :meth:`verify_durable` imply one).

    * a change only ``write()``s its ``chg`` frame into the segment's
      file buffer — no flush, no fsync, nothing kept in this object;
    * :meth:`flush` appends one ``("end", version)`` marker behind the
      frames written since the last one, flushes, and fsyncs **once**:
      when it returns, everything up to this consistent point is on disk,
      and :meth:`load` applies frames only up to the last marker it finds;
    * ``interval`` is tested only there, so a checkpoint never lands
      inside a round and every segment ends on a marker.  A checkpoint is
      built in full as ``.tmp``, fsynced, then ``os.replace``-d into
      place, then the *directory* is fsynced — readers see either the old
      file set or the new one, never a partial checkpoint under its final
      name; rotation then closes the old segment (the marker just synced
      it) and creates and fsyncs the new one.

    A change, and so a frame, is one transaction or one bulk load, and
    ``interval`` counts them: replay after a crash is bounded by
    ``interval`` transactions + one round.  The interval has no upper
    bound, because nothing is replayed from the dataspace's bounded
    journal.

    Opening a ``DurableLog`` starts a fresh durability epoch: stale
    ``*.seg`` files in *wal_dir* are removed before the baseline
    checkpoint commits (version counters restart per run, so mixing
    epochs in one directory could alias).  Use :meth:`load` *before*
    constructing a new log to recover a previous epoch's state.  A log
    that was closed takes up again with :meth:`resume`.

    *faults* is the engine's seeded :class:`~repro.runtime.faults.FaultInjector`
    (or ``None``); the ``wal-append`` and ``checkpoint-write`` sites fire
    here, corrupting bytes on their way to disk.
    """

    def __init__(
        self,
        dataspace: Dataspace,
        wal_dir: str,
        interval: int = 64,
        keep: int = 4,
        on_checkpoint: Callable[[Checkpoint], None] | None = None,
        obs=None,
        faults=None,
    ) -> None:
        if interval < 1:
            raise RecoveryError(f"checkpoint interval must be >= 1, got {interval}")
        if keep < 1:
            raise RecoveryError(f"keep must be >= 1, got {keep}")
        self.dataspace = dataspace
        self.wal_dir = os.fspath(wal_dir)
        self.interval = interval
        self.keep = keep  # checkpoint segments (each with its WAL) retained
        self.on_checkpoint = on_checkpoint
        #: Observability hook (``repro.obs.Observability`` or ``None``):
        #: times every capture (site ``checkpoint``), WAL write and load.
        self.obs = obs
        self.faults = faults
        self.wal_frames = 0       # WAL change frames appended
        self.wal_bytes = 0        # bytes handed to the WAL segment, markers included
        self.segments_written = 0  # checkpoint segments committed
        self.fsyncs = 0           # every os.fsync issued, files and directory
        self._since_checkpoint = 0  # changes since the newest checkpoint
        self._unmarked: int | None = None  # last version written behind no marker yet
        self._wal_handle = None
        self._wal_path: str | None = None
        self._unsubscribe: Callable[[], None] | None = None
        os.makedirs(self.wal_dir, exist_ok=True)
        for name in os.listdir(self.wal_dir):
            if name.endswith(".seg") or name.endswith(".tmp"):
                os.unlink(os.path.join(self.wal_dir, name))
        self.resume()

    def resume(self) -> None:
        """Log again after :meth:`close` (a no-op while open).

        Commits a baseline checkpoint of the current state — whatever
        changed while the log was closed is in it — and subscribes to
        every change after it.  The closed epoch's segments stay until
        retention drops them.  The new checkpoint is newer than all of
        them; a load that falls back to an older one replays on into the
        new epoch only if nothing changed while the log was closed, and
        otherwise stops at the closed epoch's last consistent point (a
        ``broken-chain`` repair).
        """
        if self._unsubscribe is None:
            self._capture()
            self._unsubscribe = self.dataspace.subscribe(self._on_change)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _ckpt_path(self, version: int) -> str:
        return os.path.join(self.wal_dir, f"ckpt-{version:020d}.seg")

    def _wal_path_for(self, version: int) -> str:
        return os.path.join(self.wal_dir, f"wal-{version:020d}.seg")

    def _fsync(self, fd: int) -> None:
        os.fsync(fd)
        self.fsyncs += 1
        if self.obs is not None:
            self.obs.count("sdl_wal_fsyncs_total")

    def _fsync_dir(self) -> None:
        fd = os.open(self.wal_dir, os.O_RDONLY)
        try:
            self._fsync(fd)
        finally:
            os.close(fd)

    def _capture(self) -> None:
        obs = self.obs
        start = obs.spans.now() if obs is not None else 0
        space = self.dataspace
        checkpoint = Checkpoint(
            version=space.version,
            instances=tuple(space.instances()),
            shard_counts=space.shard_sizes() if space.shard_count > 1 else None,
        )
        if obs is not None:
            obs.observe_ns(
                "checkpoint",
                start,
                obs.spans.now() - start,
                {"version": checkpoint.version, "size": checkpoint.size},
            )
        self._since_checkpoint = 0
        if self.on_checkpoint is not None:
            self.on_checkpoint(checkpoint)
        self._persist_checkpoint(checkpoint)
        self._rotate_wal(checkpoint.version)
        self._retire_segments()

    def _persist_checkpoint(self, checkpoint: Checkpoint) -> None:
        obs = self.obs
        start = obs.spans.now() if obs is not None else 0
        meta = (
            "meta",
            checkpoint.version,
            self.dataspace.shard_spec,
            self.dataspace.indexed,
            checkpoint.shard_counts,
            checkpoint.size,
        )
        parts = [_MAGIC, _frame(meta)]
        instances = checkpoint.instances
        for base in range(0, len(instances), _CHUNK):
            chunk = [
                (inst.tid.serial, inst.tid.owner, inst.values)
                for inst in instances[base : base + _CHUNK]
            ]
            parts.append(_frame(("inst", chunk)))
        parts.append(_frame(("end", checkpoint.size)))
        data = b"".join(parts)
        faults = self.faults
        if faults is not None:
            action = faults.fire("checkpoint-write")
            if action is not None:
                data = _corrupt(data, action, faults.rng, lo=len(_MAGIC))
        path = self._ckpt_path(checkpoint.version)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            self._fsync(handle.fileno())
        os.replace(tmp, path)
        self._fsync_dir()
        self.segments_written += 1
        if obs is not None:
            obs.observe_ns(
                "checkpoint-write",
                start,
                obs.spans.now() - start,
                {"version": checkpoint.version, "bytes": len(data)},
            )

    def _rotate_wal(self, version: int) -> None:
        if self._wal_handle is not None:
            # Checkpoints are taken right behind a marker, whose fsync
            # already covered everything in the old segment.
            self._wal_handle.close()
        path = self._wal_path_for(version)
        self._wal_handle = open(path, "wb")
        self._wal_path = path
        self._wal_handle.write(_MAGIC)
        self._wal_handle.flush()
        self._fsync(self._wal_handle.fileno())
        self._fsync_dir()

    def _retire_segments(self) -> None:
        """Drop checkpoint/WAL segments older than the ``keep`` window."""
        versions = sorted(
            v for __, v in _segment_files(self.wal_dir) if __ == "ckpt"
        )
        if len(versions) <= self.keep:
            return
        cutoff = versions[-self.keep]
        for kind, version in _segment_files(self.wal_dir):
            if version < cutoff:
                name = f"{kind}-{version:020d}.seg"
                os.unlink(os.path.join(self.wal_dir, name))

    def _on_change(self, change: DataspaceChange) -> None:
        # A buffered write and nothing else: the change is one transaction
        # of a round still in flight, so it is neither synced nor
        # checkpointed until the next consistent point (flush) closes it
        # with a marker.
        record = (
            "chg",
            change.version,
            [(i.tid.serial, i.tid.owner, i.values) for i in change.asserted],
            [(i.tid.serial, i.tid.owner) for i in change.retracted],
        )
        obs = self.obs
        start = obs.spans.now() if obs is not None else 0
        data = _frame(record)
        faults = self.faults
        if faults is not None:
            action = faults.fire("wal-append")
            if action is not None:
                data = _corrupt(data, action, faults.rng)
        self._wal_handle.write(data)
        self._unmarked = change.version
        self._since_checkpoint += 1
        self.wal_frames += 1
        self.wal_bytes += len(data)
        if obs is not None:
            obs.count("sdl_wal_frames_total")
            obs.count("sdl_wal_bytes_total", amount=len(data))
            obs.observe_ns(
                "wal-append",
                start,
                obs.spans.now() - start,
                {"version": change.version, "bytes": len(data)},
            )

    def flush(self) -> None:
        """Mark a consistent point: no transaction is in flight.

        Closes the frames written since the last marker with one ``end``
        frame, flushes and fsyncs once — everything up to here is durable
        when this returns — then takes a checkpoint if ``interval``
        changes have accumulated.  Stays subscribed; free when nothing
        changed since the last call.
        """
        handle = self._wal_handle
        if handle is None:
            return
        if self._unmarked is not None:
            obs = self.obs
            start = obs.spans.now() if obs is not None else 0
            data = _frame(("end", self._unmarked))
            handle.write(data)
            handle.flush()
            self._fsync(handle.fileno())
            self.wal_bytes += len(data)
            if obs is not None:
                obs.count("sdl_wal_bytes_total", amount=len(data))
                obs.observe_ns(
                    "wal-append",
                    start,
                    obs.spans.now() - start,
                    {"version": self._unmarked, "bytes": len(data)},
                )
            self._unmarked = None
        if self._since_checkpoint >= self.interval:
            self._capture()

    def close(self) -> None:
        """Mark a last consistent point, close the segment, stop logging.

        Idempotent; :meth:`resume` takes logging up again."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._wal_handle is not None:
            self.flush()
            self._wal_handle.close()
            self._wal_handle = None

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls, wal_dir: str, faults=None, obs=None, store: "str | None" = None
    ) -> tuple[Dataspace, DurableLoadReport]:
        """Rebuild a dataspace from segment files alone (no live engine).

        Walks checkpoints newest-first until one passes every frame check
        (skipping damaged ones as counted repairs), loads it into a
        scratch dataspace built with the recorded shard spec, then
        replays the WAL segment chain from that version forward, marker
        by marker, stopping at the first torn/corrupt frame or
        version-order violation.  The result is always the persisted
        history's state at a *consistent point* — a verified prefix of
        whole rounds; corrupt or unmarked state is truncated and reported,
        never silently loaded.

        Raises :class:`RecoveryError` when no intact checkpoint survives.
        *faults* drives the ``segment-read`` fault site (short reads and
        in-flight bit flips) for chaos tests.  *store* selects the scratch
        dataspace's storage backend — the segment format is deliberately
        backend-independent (value rows, not layout), so a log written
        under either backend loads into either.
        """
        start = obs.spans.now() if obs is not None else 0
        report = DurableLoadReport()
        ckpts = sorted(
            (v for kind, v in _segment_files(wal_dir) if kind == "ckpt"),
            reverse=True,
        )
        if not ckpts:
            raise RecoveryError(f"no checkpoint segments in {wal_dir!r}")
        scratch: Dataspace | None = None
        tid_map: dict[tuple[int, int], TupleId] = {}
        loaded_version = -1
        for version in ckpts:
            path = os.path.join(wal_dir, f"ckpt-{version:020d}.seg")
            candidate = cls._load_checkpoint(path, report, faults, store)
            if candidate is None:
                report.checkpoints_skipped += 1
                continue
            scratch, tid_map = candidate
            loaded_version = version
            break
        if scratch is None:
            raise RecoveryError(
                f"no intact checkpoint in {wal_dir!r} "
                f"({report.checkpoints_skipped} damaged candidate(s) skipped)"
            )
        report.checkpoint_version = loaded_version
        report.end_version = loaded_version
        cls._replay_wal_chain(wal_dir, scratch, tid_map, loaded_version, report, faults)
        if obs is not None:
            obs.observe_ns(
                "segment-load",
                start,
                obs.spans.now() - start,
                {
                    "checkpoint": report.checkpoint_version,
                    "replayed": report.frames_replayed,
                    "repairs": len(report.repairs),
                },
            )
            if report.repairs:
                for event in report.repairs:
                    obs.count("sdl_wal_repairs_total", kind=event.kind)
        return scratch, report

    @staticmethod
    def _read_segment(path: str, report: DurableLoadReport, faults) -> bytes | None:
        """Read a segment file, applying ``segment-read`` faults; ``None``
        when the magic is missing (the file is unusable as a whole)."""
        report.segments_scanned += 1
        with open(path, "rb") as handle:
            data = handle.read()
        if faults is not None:
            action = faults.fire("segment-read")
            if action == "short-read":
                data = data[: faults.rng.randrange(max(1, len(data)))]
            elif action == "bit-flip":
                data = _corrupt(data, "bit-flip", faults.rng, lo=len(_MAGIC))
        if not data.startswith(_MAGIC):
            report.repairs.append(
                RepairEvent(os.path.basename(path), 0, "torn")
            )
            return None
        return data

    @classmethod
    def _load_checkpoint(
        cls, path: str, report: DurableLoadReport, faults, store: "str | None" = None
    ) -> tuple[Dataspace, dict[tuple[int, int], TupleId]] | None:
        """Parse and validate one checkpoint segment; ``None`` if damaged."""
        name = os.path.basename(path)
        data = cls._read_segment(path, report, faults)
        if data is None:
            return None
        repairs: list[RepairEvent] = []
        records = list(_scan_frames(data, name, repairs))
        report.repairs.extend(repairs)
        valid = cls._checkpoint_records_valid(records)
        if valid is None:
            if not repairs:  # structurally wrong, not just truncated
                report.repairs.append(RepairEvent(name, 0, "invalid-checkpoint"))
            return None
        meta, instances = valid
        __, version, shard_spec, indexed, shard_counts, __count = meta
        try:
            scratch = Dataspace(indexed=indexed, shards=shard_spec, store=store)
        except Exception:
            report.repairs.append(RepairEvent(name, 0, "invalid-checkpoint"))
            return None
        tid_map: dict[tuple[int, int], TupleId] = {}
        for serial, owner, values in instances:
            rebuilt = scratch.insert(values, owner=owner)
            tid_map[(serial, owner)] = rebuilt.tid
        if (
            shard_counts is not None
            and scratch.shard_count == len(shard_counts)
            and scratch.shard_sizes() != tuple(shard_counts)
        ):
            # Routing is a pure function of the value, so a drifted
            # count vector means the checkpoint lies about its
            # own layout — reject it rather than trust its contents.
            report.repairs.append(RepairEvent(name, 0, "invalid-checkpoint"))
            return None
        return scratch, tid_map

    @staticmethod
    def _checkpoint_records_valid(records) -> tuple[tuple, list] | None:
        """Structural validation: meta first, instances, committed "end"."""
        if not records:
            return None
        first = records[0][1]
        if not (isinstance(first, tuple) and len(first) == 6 and first[0] == "meta"):
            return None
        instances: list = []
        committed = False
        for __, record in records[1:]:
            if committed:
                return None  # frames after the commit marker
            if not isinstance(record, tuple) or not record:
                return None
            if record[0] == "inst" and len(record) == 2:
                instances.extend(record[1])
            elif record[0] == "end" and len(record) == 2:
                if record[1] != len(instances) or record[1] != first[5]:
                    return None
                committed = True
            else:
                return None
        if not committed:
            return None
        return first, instances

    @classmethod
    def _replay_wal_chain(
        cls,
        wal_dir: str,
        scratch: Dataspace,
        tid_map: dict[tuple[int, int], TupleId],
        from_version: int,
        report: DurableLoadReport,
        faults,
    ) -> None:
        """Replay WAL segments at/after *from_version*, marker by marker.

        ``chg`` frames are staged and reach *scratch* only when the ``end``
        marker naming their last version arrives, so *scratch* is always at
        a consistent point.  Truncates at the first corruption anywhere in
        the chain (later segments included: a hole in the middle makes
        everything after it unreliable); frames no marker closed are
        dropped as one ``torn`` repair at the first of them."""
        chain = sorted(
            v for kind, v in _segment_files(wal_dir) if kind == "wal" and v >= from_version
        )
        last_version = from_version  # last version staged or applied
        for seg_version in chain:
            path = os.path.join(wal_dir, f"wal-{seg_version:020d}.seg")
            name = os.path.basename(path)
            if seg_version != last_version:
                # Segment wal-V opens exactly when checkpoint V commits, so
                # a fully-replayed predecessor ends at version V.  A name
                # that disagrees means a segment vanished (or its tail was
                # lost): the history has a hole, everything after it is
                # unreliable.
                report.repairs.append(RepairEvent(name, 0, "broken-chain"))
                return
            data = cls._read_segment(path, report, faults)
            if data is None:
                return
            before = len(report.repairs)
            # The open round: ``(offset, asserted, retracted)`` of the frames
            # read but not yet closed by a marker, and the keys they assert
            # / retract (every retraction is resolved before anything is
            # applied).
            staged: list[tuple[int, list, list]] = []
            asserted_keys: set[tuple[int, int]] = set()
            retracted_keys: set[tuple[int, int]] = set()
            for offset, record in _scan_frames(data, name, report.repairs):
                kind = record[0] if isinstance(record, tuple) and record else None
                if kind == "end" and len(record) == 2:
                    if record[1] != last_version:
                        # The marker names the last version its writer
                        # appended: a frame before it vanished whole.
                        report.repairs.append(RepairEvent(name, offset, "broken-chain"))
                        break
                    for __, asserted, retracted in staged:
                        for serial, owner, values in asserted:
                            tid_map[(serial, owner)] = scratch.insert(values, owner=owner).tid
                        for key in retracted:
                            scratch.retract(tid_map.pop(key))
                    report.frames_replayed += len(staged)
                    report.end_version = last_version
                    staged.clear()
                    asserted_keys.clear()
                    retracted_keys.clear()
                    continue
                if kind != "chg" or len(record) != 4 or not isinstance(record[1], int):
                    report.repairs.append(RepairEvent(name, offset, "corrupt"))
                    break
                __, version, asserted, retracted = record
                if version != last_version + 1:
                    # One chg frame is written per dataspace version, so
                    # a gap means a frame vanished whole (a torn write
                    # that kept zero bytes leaves nothing to fail a CRC):
                    # replaying past it would apply later changes to a
                    # state that is missing one.
                    report.repairs.append(RepairEvent(name, offset, "broken-chain"))
                    break
                asserted_keys.update((serial, owner) for serial, owner, __ in asserted)
                resolvable = True
                for key in retracted:
                    if key in retracted_keys or not (key in tid_map or key in asserted_keys):
                        resolvable = False  # nothing before it asserted this instance
                        break
                    retracted_keys.add(key)
                if not resolvable:
                    report.repairs.append(RepairEvent(name, offset, "broken-chain"))
                    break
                staged.append((offset, asserted, retracted))
                last_version = version
            if staged:
                # An interrupted round: its frames are whole, but the
                # consistent point that would have closed them never
                # reached the disk, so applying them could stop mid-
                # transaction.  Segments end on a marker, so this is the
                # end of the usable chain.
                report.repairs.append(RepairEvent(name, staged[0][0], "torn"))
            if len(report.repairs) > before:
                return  # this segment ended in a repair: drop the rest

    # ------------------------------------------------------------------
    # durable verification
    # ------------------------------------------------------------------
    def verify_durable(self) -> DurableLoadReport:
        """Prove the on-disk log rebuilds the live state, end to end.

        Marks a consistent point (the caller vouches that no transaction
        is in flight), loads everything back through :meth:`load`
        (fault-free), and compares state signatures.  Raises
        :class:`RecoveryError` on any repair or divergence — an intact
        log must reproduce the live dataspace exactly.
        """
        self.flush()
        scratch, report = self.load(
            self.wal_dir, obs=self.obs, store=self.dataspace.store_kind
        )
        if not report.intact:
            raise RecoveryError(
                f"durable log required repairs on verify: {report.repairs!r}"
            )
        if _state_signature(scratch) != _state_signature(self.dataspace):
            raise RecoveryError(
                "durable recovery diverges from live state "
                f"(disk v{report.end_version}, live v{self.dataspace.version})"
            )
        return report

    def __repr__(self) -> str:
        return (
            f"DurableLog({self.wal_dir!r}, interval={self.interval}, "
            f"frames={self.wal_frames}, segments={self.segments_written})"
        )


def _segment_files(wal_dir: str) -> list[tuple[str, int]]:
    """The ``(kind, version)`` pairs of segment files in *wal_dir*."""
    out: list[tuple[str, int]] = []
    try:
        names = os.listdir(wal_dir)
    except FileNotFoundError:
        raise RecoveryError(f"no such WAL directory: {wal_dir!r}") from None
    for name in names:
        if not name.endswith(".seg"):
            continue
        stem = name[:-4]
        kind, __, version = stem.partition("-")
        if kind in ("ckpt", "wal") and version.isdigit():
            out.append((kind, int(version)))
    return out
