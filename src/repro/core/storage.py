"""Shard-addressable tuple storage: stores, partitioners, and layouts.

The dataspace of the paper is one logical multiset, but its physical layout
need not be monolithic: this module splits storage into *shards* — each a
content index (arity and field buckets) over the tuples it is handed —
plus a :class:`Partitioner` strategy deciding which shard a tuple lives in.
The :class:`~repro.core.dataspace.Dataspace` facade routes every operation
and owns everything *global*, exactly once: the ``tid -> instance`` identity
table, serial/version numbering, the change journal, listener notification
and deterministic cross-shard iteration order.  A store only ever sees
operations for tuples it owns, and keeps no tid table and no journal.

Two shard strategies exist today:

* ``single`` — one store holding everything; bit-identical to the
  pre-shard monolith and the differential baseline for everything else;
* ``head`` — a tuple's home shard is a stable hash of ``(arity, field 0)``.
  SDL programs address communities through their leading type-tag field
  (``<year, n>``, ``<c3, item>``), so head routing sends each community's
  tuples — and the field-index buckets probing position 0 — to one shard.

Orthogonally to the shard layout, two **storage backends** implement the
same store interface (:func:`resolve_store`):

* :class:`TupleStore` (``"object"``, the default) — buckets of
  ``TupleInstance`` references: a serial-ascending list per arity, which a
  probe-less fetch hands out uncopied, and a ``tid -> instance`` dict per
  ``(arity, position, value)`` field key.  It stays the live
  differential baseline, exactly as the naive matcher does for the
  planner;
* :class:`ColumnarStore` (``"columnar"``) — a struct-of-arrays layout:
  per-arity **column groups** hold one contiguous value column per field
  (plain lists, promoted to ``array('q')`` when a column is homogeneous
  machine ints) plus a serial column and a tombstone'd instance row.
  Scans (:meth:`ColumnarStore.scan` / :meth:`ColumnarStore.scan_count`,
  driven by :func:`repro.core.plan.scan_spec`) walk columns instead of
  chasing per-tuple pointers; batched admits extend columns in one C-level
  call; retracts tombstone rows and compact when the dead fraction wins.

Both backends follow one index rule: an ``(arity, position)`` field index
comes into being at the first lookup that needs it (a probe, a bucket
fetch, a size estimate), built by one pass over the arity's rows in
serial order, and is maintained by every admit and removal from then on;
a position no query reads is never indexed.  A built index holds exactly
what one maintained since load would — the *exact* bucket sizes the
facade's narrowest-bucket selection depends on, in serial order — so
candidate order (and therefore seeded arbitration) is bit-identical
whenever, and in whichever backend, an index was built.

The head hash is :func:`zlib.crc32` over the tuple's arity and a
*canonical key* of its first field, **not** Python's builtin ``hash``:
``PYTHONHASHSEED`` randomises ``str.__hash__`` per process, and shard
placement must be stable across runs for checkpoints and differential
tests to be meaningful.  The canonical key respects Python's value
equality classes (``Atom("x") == "x"``, ``True == 1 == 1.0``) — equal
heads are equal dict keys in the single store's indexes, so they must
land in the same shard for routing to agree with lookup.

The strategy surface is deliberately tiny (``shard_of`` /
``shard_of_values``) so a view-derived community partitioner — the
paper's §3 placement, where a process's window determines its community —
can plug in later without touching the facade.
"""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import attrgetter
from typing import Any, Iterable

from repro.core.tuples import TupleId, TupleInstance
from repro.core.values import value_repr

__all__ = [
    "BaseStore",
    "TupleStore",
    "ColumnarStore",
    "Partitioner",
    "SinglePartitioner",
    "HeadPartitioner",
    "resolve_shards",
    "resolve_store",
    "merge_by_serial",
    "merge_serial_lists",
    "cut_at_serial",
    "cut_len",
]


class BaseStore:
    """The store half of the shard contract: what a backend must provide.

    A store is a dumb content index — it assigns no serials, bumps no
    versions, keeps no tid table and no journal, and notifies nobody.  The
    owning facade admits instances that already carry their global serial
    and hands back the same instance to remove.  Admissions only append,
    so iteration order within a store equals ascending-serial order in
    every backend, which is what lets the facade merge shards back into
    the exact iteration order of a single store.
    """

    __slots__ = ("shard", "indexed")

    #: Backend tag, mirrored by ``Dataspace.store_kind`` and the
    #: ``Engine(store=)`` / ``SDL_STORE`` / ``--store`` knob.
    kind = "object"

    def __init__(self, shard: int, indexed: bool = True) -> None:
        self.shard = shard
        self.indexed = indexed

    def __len__(self) -> int:
        raise NotImplementedError

    def admit(self, instance: TupleInstance) -> None:
        raise NotImplementedError

    def admit_many(self, instances: Iterable[TupleInstance]) -> None:
        """Admit a serial-ascending batch (backends may vectorise)."""
        for instance in instances:
            self.admit(instance)

    def remove(self, instance: TupleInstance) -> None:
        """Unindex an instance this store admitted (``KeyError`` otherwise)."""
        raise NotImplementedError

    def arity_size(self, arity: int) -> int:
        raise NotImplementedError

    def field_size(self, arity: int, position: int, value: Any) -> int:
        raise NotImplementedError

    def arity_bucket(self, arity: int) -> dict:
        """``tid -> instance`` for one arity, ascending-serial order."""
        raise NotImplementedError

    def field_bucket(self, arity: int, position: int, value: Any) -> dict:
        raise NotImplementedError

    def arity_candidates(self, arity: int) -> list[TupleInstance]:
        raise NotImplementedError

    def field_candidates(
        self, arity: int, position: int, value: Any
    ) -> list[TupleInstance]:
        raise NotImplementedError

    def candidates(self, pat, bound) -> list[TupleInstance]:
        """Narrowest-index candidates for a pattern (store-local half of
        ``Dataspace.candidates``); must reproduce the object store's
        bucket choice, first-wins tie-break, and serial order exactly."""
        raise NotImplementedError

    def candidates_probed(
        self, arity: int, probes: list[tuple[int, Any]]
    ) -> list[TupleInstance]:
        """The probe intersection in serial order (store-local half of
        ``Dataspace.candidates_probed``).  It may be a bucket itself:
        read-only, valid until the next mutation."""
        raise NotImplementedError

    def debug_by_arity(self) -> dict:
        raise NotImplementedError

    def debug_by_field(self) -> dict:
        raise NotImplementedError

    def stats(self) -> dict:
        """Backend-specific occupancy counters (observability gauges)."""
        return {}


class TupleStore(BaseStore):
    """One storage shard's content indexes over ``TupleInstance`` objects.

    The original per-tuple-object backend and the live differential
    baseline for :class:`ColumnarStore`.  An arity bucket is a ``list`` in
    ascending-serial order: admissions append (serials come from one
    monotone counter) and a removal bisects on ``tid.serial`` and deletes
    the row, so a probe-less fetch hands the bucket out as is, uncopied —
    read-only and valid until the next mutation (SEMANTICS §12).  A field
    bucket is a ``tid -> instance`` dict (insertion order is serial order;
    deletion preserves it), keyed ``(arity, position, value)`` in one flat
    ``by_field`` table, and a field probe copies its usually small bucket.

    Field indexes are demand-built (SEMANTICS §12): an ``(arity,
    position)`` index comes into being at the first lookup that needs it
    — one pass over the arity bucket in serial order, so it holds exactly
    what an index maintained since load would — and ``positions`` records
    it, so admits and removals maintain it from then on and touch no
    other position.  A lookup that hits a bucket is one dict lookup; only
    a miss asks whether the position is indexed yet.
    """

    __slots__ = ("count", "by_arity", "by_field", "positions")

    kind = "object"

    def __init__(self, shard: int, indexed: bool = True) -> None:
        super().__init__(shard, indexed)
        self.count = 0
        self.by_arity: dict[int, list[TupleInstance]] = {}
        self.by_field: dict[tuple[int, int, Any], dict[TupleId, TupleInstance]] = {}
        #: arity -> the positions whose field index is built, in build order.
        self.positions: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return self.count

    def admit(self, instance: TupleInstance) -> None:
        """Index an already-built instance (serial assigned by the facade)."""
        self.count += 1
        values = instance.values
        arity = len(values)
        rows = self.by_arity.get(arity)
        if rows is None:
            self.by_arity[arity] = [instance]
        else:
            rows.append(instance)
        positions = self.positions.get(arity)
        if positions:
            by_field = self.by_field
            tid = instance.tid
            for position in positions:
                by_field.setdefault((arity, position, values[position]), {})[tid] = instance

    def remove(self, instance: TupleInstance) -> None:
        """Unindex one instance; raises ``KeyError`` when absent."""
        values = instance.values
        arity = len(values)
        rows = self.by_arity[arity]
        _delete_row(rows, instance)
        self.count -= 1
        if not rows:
            del self.by_arity[arity]
        positions = self.positions.get(arity)
        if positions:
            by_field = self.by_field
            tid = instance.tid
            for position in positions:
                key = (arity, position, values[position])
                field_bucket = by_field[key]
                del field_bucket[tid]
                if not field_bucket:
                    del by_field[key]

    def _miss(
        self, arity: int, position: int, value: Any
    ) -> dict[TupleId, TupleInstance] | None:
        """The bucket of a key ``by_field`` lacks: ``None`` (empty) when
        the position is indexed already or indexing is off, else the
        bucket after building the position's index (``None`` again if no
        row holds *value*).  A built bucket is never empty, so callers
        write ``by_field.get(key) or self._miss(...)``."""
        positions = self.positions.get(arity, ())
        if not self.indexed or position in positions:
            return None
        self.positions[arity] = positions + (position,)
        by_field = self.by_field
        for inst in self.by_arity.get(arity, ()):
            by_field.setdefault((arity, position, inst.values[position]), {})[inst.tid] = inst
        return by_field.get((arity, position, value))

    # -- sizes and buckets ---------------------------------------------
    def arity_size(self, arity: int) -> int:
        return len(self.by_arity.get(arity, ()))

    def field_size(self, arity: int, position: int, value: Any) -> int:
        bucket = self.by_field.get((arity, position, value)) or self._miss(
            arity, position, value
        )
        return len(bucket) if bucket else 0

    def arity_bucket(self, arity: int) -> dict:
        return {inst.tid: inst for inst in self.by_arity.get(arity, ())}

    def field_bucket(self, arity: int, position: int, value: Any) -> dict:
        return (
            self.by_field.get((arity, position, value))
            or self._miss(arity, position, value)
            or {}
        )

    def arity_candidates(self, arity: int) -> list[TupleInstance]:
        return self.by_arity.get(arity) or []

    def field_candidates(
        self, arity: int, position: int, value: Any
    ) -> list[TupleInstance]:
        bucket = self.by_field.get((arity, position, value)) or self._miss(
            arity, position, value
        )
        return list(bucket.values()) if bucket else []

    # -- candidate enumeration -----------------------------------------
    def candidates(self, pat, bound) -> list[TupleInstance]:
        """Single-store candidate fetch: narrowest index bucket, first wins
        (a probe-less fetch is the arity bucket itself, uncopied)."""
        best: dict[TupleId, TupleInstance] | None = None
        if self.indexed:
            arity = pat.arity
            for position, value in pat.index_constants(bound):
                bucket = self.by_field.get((arity, position, value)) or self._miss(
                    arity, position, value
                )
                if bucket is None:
                    return []
                if best is None or len(bucket) < len(best):
                    best = bucket
            if best is not None:
                return list(best.values())
        return self.by_arity.get(pat.arity) or []

    def candidates_probed(
        self, arity: int, probes: list[tuple[int, Any]]
    ) -> list[TupleInstance]:
        """This store's instances of *arity* consistent with every probe.

        The store-local half of ``Dataspace.candidates_probed``: narrowest
        local field bucket enumerated, remaining probes applied as direct
        value filters.  The output — the full probe intersection in
        ascending-serial order — is independent of which bucket was
        enumerated, so per-shard results union to exactly the global
        intersection.  With no probes it is the arity bucket itself,
        uncopied: read-only, valid until the next mutation.
        """
        best: dict[TupleId, TupleInstance] | None = None
        best_position = -1
        if self.indexed and probes:
            for position, value in probes:
                bucket = self.by_field.get((arity, position, value)) or self._miss(
                    arity, position, value
                )
                if bucket is None:
                    return []
                if best is None or len(bucket) < len(best):
                    best = bucket
                    best_position = position
        if best is None:
            rows = self.by_arity.get(arity) or []
            if not probes:
                return rows
            rest = probes  # no field index: filter the arity bucket
        else:
            rows = best.values()
            rest = [probe for probe in probes if probe[0] != best_position]
        if len(rest) == 1:
            ((position, value),) = rest
            return [inst for inst in rows if inst.values[position] == value]
        if rest:
            return [
                inst
                for inst in rows
                if all(inst.values[position] == value for position, value in rest)
            ]
        return list(rows)

    # -- inspection ----------------------------------------------------
    def debug_by_arity(self) -> dict:
        return {
            arity: {inst.tid: inst for inst in rows}
            for arity, rows in self.by_arity.items()
        }

    def debug_by_field(self) -> dict:
        """Every field bucket, the unbuilt positions computed on the side:
        inspecting builds no index, so it never changes what a write
        maintains."""
        out: dict[tuple[int, int, Any], dict[TupleId, TupleInstance]] = {}
        if not self.indexed:
            return out
        out.update(self.by_field)
        for arity, rows in self.by_arity.items():
            built = self.positions.get(arity, ())
            for position in range(arity):
                if position not in built:
                    for inst in rows:
                        out.setdefault(
                            (arity, position, inst.values[position]), {}
                        )[inst.tid] = inst
        return out

    def stats(self) -> dict:
        return {
            "instances": self.count,
            "field_keys": len(self.by_field),
            "indexed_positions": _sorted_positions(self.positions.items()),
        }

    def __repr__(self) -> str:
        return f"TupleStore(shard={self.shard}, |D|={self.count})"


# ----------------------------------------------------------------------
# columnar backend
# ----------------------------------------------------------------------

#: Tombstones required before a column group is eligible for compaction
#: (and the dead fraction must reach half the rows) — small groups churn
#: without ever paying a rebuild.
_COMPACT_MIN = 64


class _ColumnGroup:
    """The struct-of-arrays rows of one arity: parallel per-field columns.

    ``insts[row]`` is the instance (``None`` = tombstone), ``serials[row]``
    its global serial, and ``cols[pos][row]`` its field values — columns
    are plain lists until compaction proves one homogeneous machine-int,
    when it is promoted to a contiguous ``array('q')`` (and demoted back
    the moment a non-int value arrives).  Rows only append, so row order
    is ascending-serial order; compaction drops tombstones wholesale,
    which preserves it.
    """

    __slots__ = (
        "arity", "serials", "insts", "cols", "dead", "pos_index",
    )

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.serials: list[int] = []
        self.insts: list[TupleInstance | None] = []
        self.cols: list = [[] for __ in range(arity)]
        self.dead = 0
        #: The built value indexes, ``position -> value -> {row: None}``
        #: (an ordered row set — rows insert ascending and deletes
        #: preserve order): a position is indexed at its first lookup and
        #: maintained afterwards — exact sizes, paid only for positions
        #: queries use.
        self.pos_index: dict[int, dict[Any, dict[int, None]]] = {}

    def live_count(self) -> int:
        return len(self.insts) - self.dead


def _value_index(group: _ColumnGroup, position: int) -> dict[Any, dict[int, None]]:
    """*group*'s value index of *position*, built from its live rows."""
    index: dict[Any, dict[int, None]] = {}
    col = group.cols[position]
    for row, instance in enumerate(group.insts):
        if instance is not None:
            index.setdefault(col[row], {})[row] = None
    return index


def _promote(col: list):
    """A compacted column's storage: ``array('q')`` iff homogeneous ints."""
    for v in col:
        if type(v) is not int:
            return col
    try:
        return array("q", col)
    except OverflowError:  # ints beyond 64 bits stay in the list
        return col


class ColumnarStore(BaseStore):
    """Struct-of-arrays backend: per-arity column groups + tombstones.

    Observably identical to :class:`TupleStore` by construction — same
    admission order, same exact bucket sizes, same candidate contents and
    serial order — while scans run over contiguous columns and batched
    admits become column extends.  The extra machinery it carries
    (:meth:`scan` / :meth:`scan_count`) is the column-scan kernel target
    of :func:`repro.core.plan.scan_spec`.  Field indexes follow the same
    rule as :class:`TupleStore`, position 0 included: a group's
    ``pos_index`` gains a position at its first lookup, and admits,
    removals and compaction maintain only the positions it holds.
    """

    __slots__ = ("groups", "rows", "compactions")

    kind = "columnar"

    def __init__(self, shard: int, indexed: bool = True) -> None:
        super().__init__(shard, indexed)
        self.groups: dict[int, _ColumnGroup] = {}
        #: tid -> row index within its arity's group (rewritten on compact).
        self.rows: dict[TupleId, int] = {}
        self.compactions = 0

    def __len__(self) -> int:
        return len(self.rows)

    # -- admission -----------------------------------------------------
    def _group(self, arity: int) -> _ColumnGroup:
        group = self.groups.get(arity)
        if group is None:
            group = self.groups[arity] = _ColumnGroup(arity)
        return group

    def admit(self, instance: TupleInstance) -> None:
        group = self._group(len(instance.values))
        row = len(group.insts)
        group.serials.append(instance.tid.serial)
        group.insts.append(instance)
        values = instance.values
        cols = group.cols
        for position in range(group.arity):
            col = cols[position]
            try:
                col.append(values[position])
            except (TypeError, OverflowError):
                # a promoted array('q') met a non-int: demote to a list
                col = list(col)
                col.append(values[position])
                cols[position] = col
        self.rows[instance.tid] = row
        for position, index in group.pos_index.items():
            index.setdefault(values[position], {})[row] = None

    def admit_many(self, instances: Iterable[TupleInstance]) -> None:
        """Vectorised batch admission: one column extend per field.

        The batch is grouped by arity (each sub-batch stays in ascending
        serial order), then every column takes the whole sub-batch in one
        C-level ``extend`` instead of a Python-level append per row.
        """
        batches: dict[int, list[TupleInstance]] = {}
        for instance in instances:
            batches.setdefault(len(instance.values), []).append(instance)
        rows = self.rows
        for arity, batch in batches.items():
            group = self._group(arity)
            base = len(group.insts)
            group.serials.extend(instance.tid.serial for instance in batch)
            group.insts.extend(batch)
            cols = group.cols
            for position in range(arity):
                col = cols[position]
                start = len(col)
                try:
                    col.extend(inst.values[position] for inst in batch)
                except (TypeError, OverflowError):
                    # array.extend appends item-by-item, so a mid-batch
                    # type miss leaves a partial prefix: roll it back,
                    # demote the column, and take the batch whole.
                    del col[start:]
                    col = list(col)
                    col.extend(inst.values[position] for inst in batch)
                    cols[position] = col
            pos_index = group.pos_index
            if pos_index:
                for offset, instance in enumerate(batch):
                    row = base + offset
                    rows[instance.tid] = row
                    for position, index in pos_index.items():
                        index.setdefault(instance.values[position], {})[row] = None
            else:
                for offset, instance in enumerate(batch):
                    rows[instance.tid] = base + offset

    # -- removal + compaction ------------------------------------------
    def remove(self, instance: TupleInstance) -> None:
        row = self.rows.pop(instance.tid)  # KeyError contract, as TupleStore
        group = self.groups[len(instance.values)]
        group.insts[row] = None
        group.dead += 1
        values = instance.values
        for position, index in group.pos_index.items():
            bucket = index[values[position]]
            del bucket[row]
            if not bucket:
                del index[values[position]]
        if group.dead >= _COMPACT_MIN and group.dead * 2 >= len(group.insts):
            self._compact(group)

    def _compact(self, group: _ColumnGroup) -> None:
        """Drop tombstones: rebuild the group's columns from live rows.

        Live rows keep their relative (ascending-serial) order, so every
        ordering invariant survives; the rebuilt columns are where list ->
        ``array('q')`` promotion happens.  Built indexes are rebuilt too
        (their rows renumbered), never discarded — a probe that was cheap
        before compaction stays cheap after.
        """
        live = [inst for inst in group.insts if inst is not None]
        group.insts = live
        group.serials = [inst.tid.serial for inst in live]
        group.cols = [
            _promote([inst.values[position] for inst in live])
            for position in range(group.arity)
        ]
        group.dead = 0
        rows = self.rows
        for row, instance in enumerate(live):
            rows[instance.tid] = row
        for position in group.pos_index:
            group.pos_index[position] = _value_index(group, position)
        self.compactions += 1

    # -- indexes -------------------------------------------------------
    @staticmethod
    def _bucket_rows(
        group: _ColumnGroup, position: int, value: Any
    ) -> dict[int, None] | None:
        """Live rows holding *value* at *position* (``None`` = empty
        bucket), building the position's index at its first lookup."""
        index = group.pos_index.get(position)
        if index is None:
            index = group.pos_index[position] = _value_index(group, position)
        return index.get(value)

    # -- sizes and buckets ---------------------------------------------
    def arity_size(self, arity: int) -> int:
        group = self.groups.get(arity)
        return group.live_count() if group is not None else 0

    def field_size(self, arity: int, position: int, value: Any) -> int:
        if not self.indexed:
            return 0  # mirror TupleStore: no field index, empty buckets
        group = self.groups.get(arity)
        if group is None or not group.arity:
            return 0
        bucket = self._bucket_rows(group, position, value)
        return len(bucket) if bucket is not None else 0

    def arity_bucket(self, arity: int) -> dict:
        group = self.groups.get(arity)
        if group is None or not group.live_count():
            return {}
        return {
            inst.tid: inst for inst in group.insts if inst is not None
        }

    def field_bucket(self, arity: int, position: int, value: Any) -> dict:
        if not self.indexed:
            return {}
        group = self.groups.get(arity)
        if group is None or not group.arity:
            return {}
        bucket = self._bucket_rows(group, position, value)
        if not bucket:
            return {}
        insts = group.insts
        return {insts[row].tid: insts[row] for row in bucket}

    def arity_candidates(self, arity: int) -> list[TupleInstance]:
        group = self.groups.get(arity)
        if group is None:
            return []
        return self._live(group)

    def field_candidates(
        self, arity: int, position: int, value: Any
    ) -> list[TupleInstance]:
        if not self.indexed:
            return []
        group = self.groups.get(arity)
        if group is None or not group.arity:
            return []
        bucket = self._bucket_rows(group, position, value)
        if not bucket:
            return []
        insts = group.insts
        return [insts[row] for row in bucket]

    def _live(self, group: _ColumnGroup) -> list[TupleInstance]:
        if group.dead:
            return [inst for inst in group.insts if inst is not None]
        return list(group.insts)

    # -- candidate enumeration -----------------------------------------
    def candidates(self, pat, bound) -> list[TupleInstance]:
        group = self.groups.get(pat.arity)
        if group is None:
            return []
        best: dict[int, None] | None = None
        if self.indexed and group.arity:
            for position, value in pat.index_constants(bound):
                bucket = self._bucket_rows(group, position, value)
                if bucket is None:
                    return []
                if best is None or len(bucket) < len(best):
                    best = bucket
            if best is not None:
                insts = group.insts
                return [insts[row] for row in best]
        return self._live(group)

    def candidates_probed(
        self, arity: int, probes: list[tuple[int, Any]]
    ) -> list[TupleInstance]:
        group = self.groups.get(arity)
        if group is None:
            return []
        best: dict[int, None] | None = None
        best_position = -1
        if self.indexed and probes and group.arity:
            for position, value in probes:
                bucket = self._bucket_rows(group, position, value)
                if bucket is None:
                    return []
                if best is None or len(bucket) < len(best):
                    best = bucket
                    best_position = position
        insts = group.insts
        if best is None:
            rest = probes if not self.indexed else []
            if rest:
                return [
                    inst
                    for inst in insts
                    if inst is not None
                    and all(inst.values[p] == v for p, v in rest)
                ]
            return self._live(group)
        rest = [probe for probe in probes if probe[0] != best_position]
        if rest:
            cols = group.cols
            return [
                insts[row]
                for row in best
                if all(cols[p][row] == v for p, v in rest)
            ]
        return [insts[row] for row in best]

    # -- the column-scan kernel ----------------------------------------
    def scan(
        self,
        arity: int,
        probes: list[tuple[int, Any]],
        repeats: list[tuple[int, int]],
    ) -> list[TupleInstance]:
        """Instances satisfying every probe and repeat, serial-ascending.

        The kernel target of :func:`repro.core.plan.scan_spec`: equality
        over contiguous columns replaces per-candidate ``Pattern.match``.
        The result equals ``[inst for inst in candidates_probed(arity,
        probes) if repeats hold]`` — which is exactly the object store's
        filtered match set — because a compiled pattern matches iff all
        its probes pass and all its repeated variables agree.
        """
        group = self.groups.get(arity)
        if group is None:
            return []
        insts = group.insts
        return [insts[row] for row in self._kernel_rows(group, probes, repeats)]

    def scan_count(
        self,
        arity: int,
        probes: list[tuple[int, Any]],
        repeats: list[tuple[int, int]],
    ) -> int:
        group = self.groups.get(arity)
        if group is None:
            return 0
        return len(self._kernel_rows(group, probes, repeats))

    def _kernel_rows(
        self,
        group: _ColumnGroup,
        probes: list[tuple[int, Any]],
        repeats: list[tuple[int, int]],
    ) -> list[int]:
        """Live rows of *group* passing every probe and repeat, ascending."""
        cols = group.cols
        if self.indexed and probes and group.arity:
            best: dict[int, None] | None = None
            best_position = -1
            for position, value in probes:
                bucket = self._bucket_rows(group, position, value)
                if bucket is None:
                    return []
                if best is None or len(bucket) < len(best):
                    best = bucket
                    best_position = position
            rest = [probe for probe in probes if probe[0] != best_position]
            if not rest and not repeats:
                return list(best)
            # the common single-filter shapes, without per-row generators
            if not rest and len(repeats) == 1:
                ca, cb = cols[repeats[0][0]], cols[repeats[0][1]]
                return [row for row in best if ca[row] == cb[row]]
            if not repeats and len(rest) == 1:
                (p0, v0) = rest[0]
                cp = cols[p0]
                return [row for row in best if cp[row] == v0]
            return [
                row
                for row in best
                if all(cols[p][row] == v for p, v in rest)
                and all(cols[a][row] == cols[b][row] for a, b in repeats)
            ]
        insts = group.insts
        if probes:
            # No index to lean on: walk the first probe's column with the
            # C-level ``index`` scan, verifying the rest per hit.
            (p0, v0), rest = probes[0], probes[1:]
            col0 = cols[p0]
            out: list[int] = []
            row = 0
            while True:
                try:
                    row = col0.index(v0, row)
                except ValueError:
                    return out
                if (
                    insts[row] is not None
                    and all(cols[p][row] == v for p, v in rest)
                    and all(cols[a][row] == cols[b][row] for a, b in repeats)
                ):
                    out.append(row)
                row += 1
        if repeats:
            (a0, b0), rest = repeats[0], repeats[1:]
            pairs = zip(cols[a0], cols[b0], insts)
            if not rest:
                return [
                    row
                    for row, (x, y, inst) in enumerate(pairs)
                    if x == y and inst is not None
                ]
            return [
                row
                for row, (x, y, inst) in enumerate(pairs)
                if x == y
                and inst is not None
                and all(cols[a][row] == cols[b][row] for a, b in rest)
            ]
        if group.dead:
            return [row for row, inst in enumerate(insts) if inst is not None]
        return list(range(len(insts)))

    # -- inspection ----------------------------------------------------
    def debug_by_arity(self) -> dict:
        out: dict[int, dict[TupleId, TupleInstance]] = {}
        for arity, group in self.groups.items():
            if group.live_count():
                out[arity] = {
                    inst.tid: inst for inst in group.insts if inst is not None
                }
        return out

    def debug_by_field(self) -> dict:
        out: dict[tuple[int, int, Any], dict[TupleId, TupleInstance]] = {}
        if not self.indexed:
            return out
        for arity, group in self.groups.items():
            insts = group.insts
            for position in range(arity):
                # an unbuilt position is computed on the side, not built:
                # inspection never changes what a write maintains
                index = group.pos_index.get(position)
                if index is None:
                    index = _value_index(group, position)
                for value, rows in index.items():
                    out[(arity, position, value)] = {
                        insts[row].tid: insts[row] for row in rows
                    }
        return out

    def stats(self) -> dict:
        rows = sum(len(group.insts) for group in self.groups.values())
        dead = sum(group.dead for group in self.groups.values())
        numeric = sum(
            1
            for group in self.groups.values()
            for col in group.cols
            if isinstance(col, array)
        )
        return {
            "groups": len(self.groups),
            "rows": rows,
            "dead_rows": dead,
            "numeric_columns": numeric,
            "indexed_positions": _sorted_positions(
                (arity, group.pos_index) for arity, group in self.groups.items()
            ),
            "compactions": self.compactions,
        }

    def __repr__(self) -> str:
        return (
            f"ColumnarStore(shard={self.shard}, |D|={len(self.rows)}, "
            f"groups={len(self.groups)})"
        )


def resolve_store(spec: "str | None") -> tuple[str, type]:
    """Normalise an ``Engine(store=)`` / ``SDL_STORE`` / ``--store`` value.

    Returns ``(kind, store_class)``.  Accepts ``None``/``""``/``"object"``
    (the per-tuple-object baseline) or ``"columnar"`` (the struct-of-arrays
    backend); anything else raises ``ValueError``.
    """
    if spec is None:
        return "object", TupleStore
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in ("", "object", "obj"):
            return "object", TupleStore
        if text in ("columnar", "column", "col"):
            return "columnar", ColumnarStore
    raise ValueError(
        f"unknown store backend {spec!r} (choose 'object' or 'columnar')"
    )


# ----------------------------------------------------------------------
# partitioning strategies
# ----------------------------------------------------------------------

class Partitioner:
    """Strategy mapping tuples (and position-0 index keys) to shards.

    Invariant relied on throughout the runtime: a tuple's home shard is a
    pure function of ``(arity, values[0])`` — so any query, watcher, or
    write footprint that pins position 0 of an arity is confined to one
    known shard, while constraints on other positions may touch them all.
    """

    __slots__ = ()

    spec: str = "single"
    shard_count: int = 1

    def shard_of(self, arity: int, head: Any) -> int:
        """Home shard of any tuple with this *arity* and first field."""
        raise NotImplementedError

    def shard_of_values(self, values: tuple) -> int:
        """Home shard of a concrete value tuple (empty tuples -> shard 0)."""
        if not values:
            return 0
        return self.shard_of(len(values), values[0])


class SinglePartitioner(Partitioner):
    """Everything in shard 0 — today's behavior, the differential baseline."""

    __slots__ = ()

    spec = "single"
    shard_count = 1

    def shard_of(self, arity: int, head: Any) -> int:
        return 0

    def __repr__(self) -> str:
        return "SinglePartitioner()"


def _canonical_key(obj: Any) -> str:
    """A process-stable text key constant across each ``==`` class.

    Values that compare equal are the same index-dict key in a single
    store, so they must hash to the same shard: atoms equal their bare
    string (``Atom`` subclasses ``str``), and Python's numeric tower makes
    ``True == 1 == 1.0``.  Everything else falls back to ``value_repr``,
    which is deterministic for SDL's value domain.
    """
    if isinstance(obj, str):  # Atom included — equal to its bare string
        return "s:" + str(obj)
    if isinstance(obj, (bool, int, float)):
        if isinstance(obj, float) and not obj.is_integer():
            return "f:" + repr(obj)
        return "n:" + repr(int(obj))
    if isinstance(obj, tuple):
        return "t:(" + ",".join(_canonical_key(item) for item in obj) + ")"
    return "o:" + value_repr(obj)


class HeadPartitioner(Partitioner):
    """Stable hash of ``(arity, field 0)`` over *n* shards."""

    __slots__ = ("shard_count", "spec", "_cache")

    _CACHE_CAP = 8192
    #: Memo entries dropped per eviction — an oldest slice, not the whole
    #: cache: a routing working set sitting at the cap must not recompute
    #: every key each round.
    _EVICT_SLICE = _CACHE_CAP // 8

    def __init__(self, shards: int) -> None:
        if shards < 2:
            raise ValueError(f"head partitioning needs >= 2 shards, got {shards}")
        self.shard_count = shards
        self.spec = f"head:{shards}"
        # Memo over (arity, head).  dict keys respect the same ``==``
        # classes the canonical key does (Atom("x") == "x", True == 1),
        # so a cache hit can never disagree with a fresh computation.
        self._cache: dict = {}

    def shard_of(self, arity: int, head: Any) -> int:
        cache = self._cache
        memo = (arity, head)
        try:
            return cache[memo]
        except KeyError:
            pass
        except TypeError:  # unhashable head: compute without caching
            key = f"{arity}|{_canonical_key(head)}"
            return zlib.crc32(key.encode("utf-8", "surrogatepass")) % self.shard_count
        key = f"{arity}|{_canonical_key(head)}"
        shard = zlib.crc32(key.encode("utf-8", "surrogatepass")) % self.shard_count
        if len(cache) >= self._CACHE_CAP:
            # Bounded eviction: drop the oldest slice (dict preserves
            # insertion order) and keep the rest.  Routing is a pure
            # function of the memo key, so eviction can only ever cost a
            # recomputation — it cannot change any key's shard.
            for stale in list(islice(iter(cache), self._EVICT_SLICE)):
                del cache[stale]
        cache[memo] = shard
        return shard

    def __repr__(self) -> str:
        return f"HeadPartitioner({self.shard_count})"


def resolve_shards(spec: "str | int | Partitioner | None") -> Partitioner:
    """Normalise an ``Engine(shards=)`` / ``SDL_SHARDS`` / ``--shards`` value.

    Accepts ``None``/``"single"``/``1`` (one store), an integer or digit
    string ``N`` (``head`` routing over N shards), an explicit
    ``"head:N"`` spec with ``N >= 2``, or an already-built
    :class:`Partitioner`.  An explicit ``head:N`` with ``N < 2`` is an
    error, not a silent fallback to the single layout —
    :class:`HeadPartitioner` itself refuses those counts, and a spec that
    names the scheme must mean it.
    """
    if spec is None:
        return SinglePartitioner()
    if isinstance(spec, Partitioner):
        return spec
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in ("", "single"):
            return SinglePartitioner()
        explicit_head = False
        if ":" in text:
            scheme, __, text = text.partition(":")
            if scheme != "head":
                raise ValueError(
                    f"unknown shard routing {scheme!r} in shards spec "
                    f"{spec!r} (schemes: head)"
                )
            if ":" in text:
                raise ValueError(
                    f"too many ':' in shards spec {spec!r} "
                    "(expected head:count)"
                )
            explicit_head = True
        if not text.lstrip("-").isdigit():
            raise ValueError(
                f"bad shard count {text!r} in shards spec {spec!r} "
                "(expected an integer, 'single', or head:count)"
            )
        spec = int(text)
        if explicit_head and spec < 2:
            raise ValueError(
                f"head routing needs >= 2 shards, got {spec} in shards "
                f"spec (use 'single' or omit the scheme for one store)"
            )
    if not isinstance(spec, int) or isinstance(spec, bool):
        raise ValueError(f"unknown shards spec {spec!r}")
    if spec < 1:
        raise ValueError(f"shard count must be >= 1, got {spec}")
    if spec == 1:
        return SinglePartitioner()
    return HeadPartitioner(spec)


_serial_of = attrgetter("tid.serial")


def merge_serial_lists(parts: Iterable) -> list[TupleInstance]:
    """Merge per-shard serial-ascending instance runs into global serial order.

    Each part iterates in ascending-serial order (see :class:`BaseStore`),
    so the merged list is exactly the iteration order a single store would
    have produced — the facade's determinism guarantee for cross-shard
    reads.  The parts are concatenated and sorted on ``tid.serial``:
    Timsort finds the k ascending runs and merges them in C, and serials
    are unique, so the result is the k-way merge.
    """
    out: list[TupleInstance] = []
    runs = 0
    for part in parts:
        before = len(out)
        out.extend(part)
        runs += len(out) > before
    if runs > 1:
        out.sort(key=_serial_of)
    return out


def merge_by_serial(buckets: Iterable) -> list[TupleInstance]:
    """:func:`merge_serial_lists` over per-shard ``tid -> instance`` dicts."""
    return merge_serial_lists(bucket.values() for bucket in buckets)


def _sorted_positions(built: Iterable) -> tuple[tuple[int, int], ...]:
    """``stats()["indexed_positions"]``: the built ``(arity, position)``
    indexes, sorted, from ``(arity, positions)`` pairs."""
    return tuple(sorted(
        (arity, position) for arity, positions in built for position in positions
    ))


def _delete_row(rows: list[TupleInstance], instance: TupleInstance) -> None:
    """Delete *instance* from serial-ascending *rows* (``KeyError`` if absent).

    Bisection finds the one row that can hold its serial; that row must
    carry *instance*'s tid.  A tid match, not identity: the parallel
    worker's shard snapshot replays retractions shipped as pickled copies.
    """
    tid = instance.tid
    index = bisect_left(rows, tid.serial, key=_serial_of)
    if index == len(rows) or rows[index].tid != tid:
        raise KeyError(tid)
    del rows[index]


def cut_len(rows: list[TupleInstance], serial: int) -> int:
    """How many of serial-ascending *rows* were asserted at or before *serial*.

    Rows ascend by serial, so the survivors of a snapshot watermark are a
    prefix and its length is one bisection — no slice is built.  The
    snapshot lens hands the planner ``(rows, cut_len(rows, serial))``.
    """
    if not rows or rows[-1].tid.serial <= serial:
        return len(rows)
    return bisect_right(rows, serial, key=_serial_of)


def cut_at_serial(rows: list[TupleInstance], serial: int) -> list[TupleInstance]:
    """The instances of serial-ascending *rows* asserted at or before *serial*.

    The list form of :func:`cut_len` (same bisection, so the planner's
    prefix, the naive walk's list and the ``admit="parallel"`` worker's
    row count agree by construction): *rows* itself when nothing is
    hidden, else the prefix slice.
    """
    n = cut_len(rows, serial)
    return rows if n == len(rows) else rows[:n]
