"""The shared dataspace: a content-addressable multiset of tuple instances.

The dataspace maintains two auxiliary index structures so that queries are
content-addressable rather than linear scans:

* an **arity index** — all instances of a given tuple length;
* a **field index** — instances keyed by ``(arity, position, value)``,
  built for an ``(arity, position)`` at the first lookup that names it and
  maintained from then on (see :mod:`repro.core.storage`).

Pattern matching asks the dataspace for a *candidate set* via
:meth:`Dataspace.candidates`; the narrowest applicable index is chosen using
the constants currently determinable in the pattern.

The dataspace also keeps a monotonically increasing **version** (bumped on
every change event) and supports change listeners; the runtime engine uses
both to implement delayed-transaction wakeup and the trace journal.  Every
change event is additionally recorded in a bounded **journal** so consumers
holding a version watermark (notably :class:`~repro.core.views.Window`) can
pull the *delta* since their last refresh instead of recomputing from
scratch — the mechanical basis of the delta-driven reactivity pipeline.

Physically, the dataspace is a **routing facade** over one or more
:class:`~repro.core.storage.BaseStore` shards selected by a
:class:`~repro.core.storage.Partitioner` (``Dataspace(shards=...)``).  A
shard is a content index over the tuples it is handed; everything global
lives exactly once, here, whatever the layout or backend:

* **one identity table** — ``tid -> instance`` in admission order, which
  *is* global serial order (serials and versions are assigned by the
  facade), so membership, lookup, iteration and the multiset never consult
  a shard;
* **one journal** — a single bounded deque of the last
  :data:`JOURNAL_DEPTH` change events; :meth:`changes_since` is an offset
  slice of it.

Under ``head`` partitioning the observable behavior is identical to the
``single`` layout — the remaining properties that make this true, each
load-bearing for the differential test suite:

* **serial order, maintained** — serials only grow, so within one store
  every bucket iterates in ascending-serial order (admits append).  A
  cross-shard *probe-less* read of an arity is served from a per-arity
  serial list kept on the facade: built once (lazily, on the first such
  read) by merging the shards' buckets, then kept current — an admit
  appends (global serial order), a retract bisects on serial and deletes
  — so the read hands that list out uncopied, exactly as a single store
  hands out its arity bucket.  What remains cross-shard (position >= 1
  field probes, column scans, ``by_field``) concatenates the shards'
  ascending runs and sorts them on serial in C
  (:func:`~repro.core.storage.merge_serial_lists`).  Either way the
  result is a single store's iteration order exactly;
* **global bucket selection** — :meth:`candidates` picks the narrowest
  index bucket by *global* size with the same first-wins tie-break as a
  single store, so seeded-RNG arbitration over the result is unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.patterns import Pattern
from repro.core.plan import scan_spec
from repro.core.storage import (
    BaseStore,
    Partitioner,
    _delete_row,
    merge_by_serial,
    merge_serial_lists,
    resolve_shards,
    resolve_store,
)
from repro.core.tuples import TupleId, TupleInstance, make_tuple
from repro.core.values import value_repr
from repro.errors import SDLError

__all__ = ["Dataspace", "DataspaceChange", "JOURNAL_DEPTH"]

#: How many change events the journal retains.  A consumer more than this
#: many events behind gets ``None`` from :meth:`Dataspace.changes_since`
#: and must recompute from scratch.
JOURNAL_DEPTH = 512


class DataspaceChange:
    """One atomic change event: the instances one version retracted and
    asserted.

    A transaction is one change (:meth:`Dataspace.apply_change`: all its
    retractions, then all its assertions), and so is a bulk load
    (:meth:`Dataspace.insert_many`), so listeners see one notification
    per transaction or load rather than one per row; a single
    :meth:`Dataspace.insert` / :meth:`Dataspace.retract` call emits a
    change carrying one instance.
    """

    __slots__ = ("asserted", "retracted", "version")

    def __init__(
        self,
        asserted: tuple[TupleInstance, ...],
        retracted: tuple[TupleInstance, ...],
        version: int,
    ) -> None:
        self.asserted = asserted
        self.retracted = retracted
        self.version = version

    def __repr__(self) -> str:
        return f"change +{len(self.asserted)}/-{len(self.retracted)} @v{self.version}"


class Dataspace:
    """A finite (but large) multiset of tuples, per the paper's Section 2.1.

    Instances are identified by :class:`~repro.core.tuples.TupleId`; identical
    value sequences may coexist as distinct instances.  All mutation goes
    through :meth:`apply_change` (a transaction) or :meth:`insert` /
    :meth:`retract` and their ``_many`` forms (loads, replay, the Linda
    kernel) so the indexes stay consistent.
    """

    def __init__(
        self,
        indexed: bool = True,
        shards: "str | int | Partitioner | None" = "single",
        store: "str | None" = None,
    ) -> None:
        """*indexed=False* disables the field index (arity buckets remain),
        degrading candidate selection to arity scans — exists only for the
        A1 ablation benchmark quantifying what content addressing buys.
        *shards* selects the physical layout (see
        :func:`~repro.core.storage.resolve_shards`) and *store* the storage
        backend within each shard (see
        :func:`~repro.core.storage.resolve_store`); every layout × backend
        combination is observably identical, so both are performance/
        placement knobs only."""
        #: Observability hook (``repro.obs.Observability`` or ``None``).
        #: ``None`` keeps :meth:`candidates` on the original path at
        #: original cost; the engine attaches a live instance when
        #: observability is enabled (see ``attach_obs``).
        self._obs = None
        self.indexed = indexed
        self.partitioner: Partitioner = resolve_shards(shards)
        #: The storage backend (``"object"`` or ``"columnar"``) shared by
        #: every shard — layout and backend compose orthogonally.
        self.store_kind, store_cls = resolve_store(store)
        self._columnar = self.store_kind == "columnar"
        self.stores: tuple[BaseStore, ...] = tuple(
            store_cls(i, indexed) for i in range(self.partitioner.shard_count)
        )
        #: Fast path: the sole store under ``single`` layout, else ``None``.
        self._single: BaseStore | None = (
            self.stores[0] if len(self.stores) == 1 else None
        )
        #: The identity table: every live instance by tid.  Insertion
        #: order is admission order, which is global serial order.
        self._instances: dict[TupleId, TupleInstance] = {}
        #: The last :data:`JOURNAL_DEPTH` change events, one per version.
        self._journal: deque[DataspaceChange] = deque(maxlen=JOURNAL_DEPTH)
        #: Multi-shard only: arity -> serial-ascending instance list, for
        #: the arities that have been read probe-less (see
        #: :meth:`_arity_ordered`).  Admissions append and retracts
        #: bisect and delete, so it holds exactly the live tuples of those
        #: arities.
        self._arity_order: dict[int, list[TupleInstance]] = {}
        self._serial = 0
        self._version = 0
        #: Listeners keyed by registration token: the same callable may be
        #: subscribed several times, and each unsubscribe must detach its
        #: own registration (``list.remove`` would detach the *first equal*
        #: one, and cost O(n)).  Dicts preserve registration order.
        self._listeners: dict[int, Callable[[DataspaceChange], None]] = {}
        self._listener_token = 0
        #: Cached tuple of the listeners, rebuilt lazily after any
        #: subscribe/unsubscribe: steady-state mutation then notifies with
        #: O(1) allocations instead of copying the registry every change.
        self._listener_snapshot: tuple[Callable[[DataspaceChange], None], ...] | None = ()

    # ------------------------------------------------------------------
    # shard layout
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.stores)

    @property
    def shard_spec(self) -> str:
        """The normalised layout spec (``"single"`` or ``"head:N"``)."""
        return self.partitioner.spec

    def shard_sizes(self) -> tuple[int, ...]:
        """Per-shard occupancy (observability gauges, placement tests)."""
        return tuple(len(store) for store in self.stores)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instances)

    def __contains__(self, tid: TupleId) -> bool:
        return tid in self._instances

    def __iter__(self) -> Iterator[TupleInstance]:
        return self.instances()

    @property
    def version(self) -> int:
        """Monotone counter bumped once by every change event."""
        return self._version

    @property
    def serial(self) -> int:
        """The most recently issued tuple serial (snapshot watermark).

        Instances admitted later carry strictly greater serials, so
        ``inst.tid.serial <= dataspace.serial`` captured now identifies
        exactly the instances that existed at the capture point.
        """
        return self._serial

    def get(self, tid: TupleId) -> TupleInstance:
        try:
            return self._instances[tid]
        except KeyError:
            raise SDLError(f"tuple {tid!r} is not in the dataspace") from None

    def instances(self) -> Iterator[TupleInstance]:
        """Iterate over all live instances (global admission order)."""
        return iter(self._instances.values())

    def tids(self) -> frozenset[TupleId]:
        return frozenset(self._instances)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, values: Iterable[Any], owner: int = 0) -> TupleInstance:
        """Assert a tuple built from *values*, owned by process *owner*."""
        instance = self._admit(values, owner)
        self._bump((instance,), ())
        return instance

    def insert_many(self, rows: Iterable[Iterable[Any]], owner: int = 0) -> list[TupleInstance]:
        """Assert several tuples as **one** change event.

        Each row still gets its own serial (instance identity is per-row),
        but listeners receive a single batched :class:`DataspaceChange` and
        the version is bumped once, so bulk-loading an initial dataspace
        costs O(1) notifications instead of an O(n) listener storm.  The
        batch reaches each shard as one ``admit_many`` call, which the
        columnar backend turns into per-field column extends.
        """
        instances = []
        for row in rows:
            self._serial += 1
            instances.append(make_tuple(row, self._serial, owner))
        if not instances:
            return instances
        self._instances.update((instance.tid, instance) for instance in instances)
        if self._single is not None:
            self._single.admit_many(instances)
        else:
            shard_of = self.partitioner.shard_of_values
            arity_order = self._arity_order
            parts: dict[int, list[TupleInstance]] = {}
            for instance in instances:
                parts.setdefault(shard_of(instance.values), []).append(instance)
                order = arity_order.get(len(instance.values))
                if order is not None:
                    order.append(instance)
            for shard, batch in parts.items():
                self.stores[shard].admit_many(batch)
        self._bump(tuple(instances), ())
        return instances

    def _admit(self, values: Iterable[Any], owner: int) -> TupleInstance:
        """Route a new instance to its home shard (no change event)."""
        self._serial += 1
        instance = make_tuple(values, self._serial, owner)
        self._instances[instance.tid] = instance
        if self._single is not None:
            self._single.admit(instance)
        else:
            shard = self.partitioner.shard_of_values(instance.values)
            self.stores[shard].admit(instance)
            order = self._arity_order.get(len(instance.values))
            if order is not None:
                order.append(instance)
        return instance

    def retract(self, tid: TupleId) -> TupleInstance:
        """Retract one instance; other instances with equal values survive."""
        instance = self._instances.pop(tid, None)
        if instance is None:
            raise SDLError(f"cannot retract {tid!r}: not in the dataspace")
        self._unindex(instance)
        self._bump((), (instance,))
        return instance

    def retract_many(self, tids: Iterable[TupleId]) -> list[TupleInstance]:
        """Retract several instances as **one** change event.

        The batched dual of :meth:`insert_many`: one version bump, one
        listener notification, one journal entry.  The batch is validated
        up front — every tid present, no duplicates — so a bad batch
        mutates nothing.
        """
        tids = list(tids)
        if not tids:
            return []
        instances = self._remove(tids)
        self._bump((), tuple(instances))
        return instances

    def apply_change(
        self,
        retracted: Sequence[TupleInstance],
        assertions: Iterable[tuple[int, Iterable[Iterable[Any]]]],
    ) -> list[TupleInstance]:
        """Carry out one transaction's effect as **one** change event:
        retract every instance of *retracted*, then assert the rows of
        every ``(owner, rows)`` group of *assertions*, in order; return
        the asserted instances.

        The version is bumped once and listeners see one
        :class:`DataspaceChange` holding both sides, so a transaction is
        one journal entry and one WAL frame.  The retractions are checked
        first, as by :meth:`retract_many`: a tid that is not live, or
        named twice, raises before anything changes.  An effect with
        nothing in it changes nothing, the version included.
        """
        if retracted:
            gone = tuple(self._remove([inst.tid for inst in retracted]))
        else:
            gone = ()
        admit = self._admit
        asserted = []
        for owner, rows in assertions:
            for values in rows:
                asserted.append(admit(values, owner))
        if gone or asserted:
            self._bump(tuple(asserted), gone)
        return asserted

    def _remove(self, tids: list[TupleId]) -> list[TupleInstance]:
        """Drop every instance of *tids* from the table and the indexes
        (no change event), or raise before dropping any: each tid must be
        live and named once."""
        if len(tids) > 1 and len(set(tids)) != len(tids):
            raise SDLError("cannot retract batch: duplicate tuple ids")
        table = self._instances
        for tid in tids:
            if tid not in table:
                raise SDLError(f"cannot retract {tid!r}: not in the dataspace")
        instances = [table.pop(tid) for tid in tids]
        unindex = self._unindex
        for instance in instances:
            unindex(instance)
        return instances

    def _arity_ordered(self, arity: int) -> list[TupleInstance]:
        """All instances of *arity* in global serial order (sharded layouts).

        The first probe-less read of an arity merges the shards' buckets
        once (into a fresh list: the stores' own buckets are never
        aliased); :meth:`_admit` / :meth:`insert_many` append and
        :meth:`_unindex` bisects and deletes, so later reads re-assemble
        nothing and hand the list out uncopied.  An arity never read this
        way is never tracked.
        """
        order = self._arity_order.get(arity)
        if order is None:
            order = self._arity_order[arity] = merge_serial_lists(
                s.arity_candidates(arity) for s in self.stores
            )
        return order

    def _unindex(self, instance: TupleInstance) -> None:
        """Drop a retracted instance from its home shard's content index
        (routing is a pure function of the values, so the partitioner names
        the shard) and from its arity's maintained order."""
        if self._single is not None:
            self._single.remove(instance)
            return
        shard = self.partitioner.shard_of_values(instance.values)
        self.stores[shard].remove(instance)
        order = self._arity_order.get(len(instance.values))
        if order is not None:
            _delete_row(order, instance)

    def _bump(
        self,
        asserted: tuple[TupleInstance, ...],
        retracted: tuple[TupleInstance, ...],
    ) -> None:
        self._version += 1
        change = DataspaceChange(asserted, retracted, self._version)
        self._journal.append(change)
        listeners = self._listener_snapshot
        if listeners is None:
            listeners = self._listener_snapshot = tuple(self._listeners.values())
        for listener in listeners:
            listener(change)

    def changes_since(self, version: int) -> list[DataspaceChange] | None:
        """The change events after *version*, oldest first.

        Returns ``None`` when the journal no longer reaches back to
        *version* (the consumer fell more than :data:`JOURNAL_DEPTH` events
        behind) — the caller must then recompute from scratch.
        """
        if version >= self._version:
            return []
        journal = self._journal
        if not journal or journal[0].version > version + 1:
            return None
        # Versions advance by exactly 1 per journal entry, so the slice
        # starts at a computable offset rather than a scan.
        start = len(journal) - (self._version - version)
        return [journal[i] for i in range(start, len(journal))]

    @property
    def listener_count(self) -> int:
        """Live change-listener registrations (leak checks in tests)."""
        return len(self._listeners)

    def subscribe(self, listener: Callable[[DataspaceChange], None]) -> Callable[[], None]:
        """Register a change listener; returns an unsubscribe callable.

        Each registration is independent (subscribing the same callable
        twice yields two registrations) and unsubscribe is idempotent: it
        detaches exactly its own registration, in O(1).
        """
        self._listener_token += 1
        token = self._listener_token
        self._listeners[token] = listener
        self._listener_snapshot = None

        def unsubscribe() -> None:
            if self._listeners.pop(token, None) is not None:
                self._listener_snapshot = None

        return unsubscribe

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def by_arity(self, arity: int) -> Mapping[TupleId, TupleInstance]:
        """All instances with the given arity, as a fresh serial-ordered
        ``tid -> instance`` dict built on demand (a snapshot, not a view).

        Sharded layouts build it from the facade's maintained serial order
        (and start maintaining it).  Each call is O(bucket): prefer
        :meth:`arity_size` when only the count matters, and the planner's
        :meth:`candidates_probed` for enumeration.
        """
        if self._single is not None:
            return self._single.arity_bucket(arity)
        return {inst.tid: inst for inst in self._arity_ordered(arity)}

    def by_field(self, arity: int, position: int, value: Any) -> Mapping[TupleId, TupleInstance]:
        """All instances of *arity* with *value* at *position* (live view).

        Sharded layouts return a *fresh* serial-ordered merge instead of a
        live view, except that a position-0 key lives entirely in its home
        shard, so that case stays a live view; prefer :meth:`field_size`
        when only the count matters.
        """
        if self._single is not None:
            return self._single.field_bucket(arity, position, value)
        if position == 0 and self.indexed:
            home = self.stores[self.partitioner.shard_of(arity, value)]
            return home.field_bucket(arity, position, value)
        buckets = [
            b
            for b in (s.field_bucket(arity, position, value) for s in self.stores)
            if b
        ]
        if not buckets:
            return {}
        if len(buckets) == 1:
            return buckets[0]
        return {inst.tid: inst for inst in merge_by_serial(buckets)}

    def arity_size(self, arity: int) -> int:
        """Global size of one arity bucket without materialising a merge."""
        if self._single is not None:
            return self._single.arity_size(arity)
        return sum(store.arity_size(arity) for store in self.stores)

    def field_size(self, arity: int, position: int, value: Any) -> int:
        """Global size of one field bucket without materialising a merge."""
        if self._single is not None:
            return self._single.field_size(arity, position, value)
        if position == 0 and self.indexed:
            home = self.stores[self.partitioner.shard_of(arity, value)]
            return home.field_size(arity, position, value)
        return sum(
            store.field_size(arity, position, value) for store in self.stores
        )

    def candidates(
        self,
        pat: Pattern,
        bound: Mapping[str, Any] | None = None,
    ) -> list[TupleInstance]:
        """Instances that could match *pat* under the bindings *bound*.

        The narrowest single-field index determinable from the pattern's
        constants is consulted.  Candidates are *not* guaranteed to match —
        callers must still run :meth:`Pattern.match`.  The result may be an
        index bucket itself, uncopied: it is read-only and valid until the
        next mutation of the dataspace (SEMANTICS §12), so a caller that
        mutates must stop iterating first (or copy).

        Layout-independence: bucket choice uses *global* bucket sizes with
        the single store's first-wins tie-break, a probe-less scan reads the
        maintained arity order, and cross-shard field buckets are merged in
        serial order — so the returned list (contents *and* order, which
        feeds the seeded arbitration RNG) is identical under every shard
        layout.
        """
        obs = self._obs
        start = obs.spans.now() if obs is not None else 0
        bound = bound or {}
        single = self._single
        if single is not None:
            out = single.candidates(pat, bound)
        else:
            out = self._candidates_sharded(pat, bound, obs)
        if obs is not None:
            obs.observe_ns(
                "match",
                start,
                obs.spans.now() - start,
                {"arity": pat.arity, "n": len(out)},
            )
        return out

    def _candidates_sharded(
        self, pat: Pattern, bound: Mapping[str, Any], obs
    ) -> list[TupleInstance]:
        """:meth:`candidates` over a partitioned layout (global bucket sizes)."""
        arity = pat.arity
        best_probe: tuple[int, Any] | None = None
        best_size = -1
        best_shard = -1
        if self.indexed:
            for position, value in pat.index_constants(bound):
                if position == 0:
                    shard = self.partitioner.shard_of(arity, value)
                    size = self.stores[shard].field_size(arity, position, value)
                else:
                    shard = -1
                    size = sum(
                        s.field_size(arity, position, value) for s in self.stores
                    )
                if size == 0:
                    return []  # absent bucket: same short-circuit as one store
                if best_probe is None or size < best_size:
                    best_probe, best_size, best_shard = (position, value), size, shard
        if best_probe is None:
            if obs is not None:
                obs.count("sdl_shard_queries_total", route="cross")
            return self._arity_ordered(arity)
        position, value = best_probe
        if best_shard >= 0:
            if obs is not None:
                obs.count("sdl_shard_queries_total", route="local")
            return self.stores[best_shard].field_candidates(arity, position, value)
        if obs is not None:
            obs.count("sdl_shard_queries_total", route="cross")
        return merge_serial_lists(
            s.field_candidates(arity, position, value) for s in self.stores
        )

    def candidates_probed(
        self,
        arity: int,
        probes: Iterable[tuple[int, Any]],
    ) -> list[TupleInstance]:
        """Candidates of *arity* consistent with every ``(position, value)`` probe.

        The planner's candidate fetch: the narrowest applicable field bucket
        is enumerated and every remaining probe is applied as a direct value
        filter, so the result is the **intersection** of all probe buckets —
        unlike :meth:`candidates`, which consults only the single narrowest
        bucket and leaves the rest to per-candidate pattern matching.  An
        empty probe bucket short-circuits to ``[]``.  Probes must name
        distinct positions (true of any single pattern's fields).

        A probe pinning position 0 confines the whole query to the home
        shard of ``(arity, value)`` — the routed fast path; no probes at all
        reads the maintained arity order; otherwise the per-shard
        intersections are merged by serial.  Every way the
        output is the full intersection in ascending-serial order, which a
        single store produces too, so layouts are indistinguishable.

        Aliasing contract: a probe-less fetch returns the store's arity
        bucket (or the maintained arity order) itself, uncopied, so every
        result is read-only and valid until the next mutation of the
        dataspace: no caller may sort it, append to it or hold it across
        an insert or retract.  Query evaluation never mutates the
        dataspace (SEMANTICS §12), so every search is safe.
        """
        obs = self._obs
        start = obs.spans.now() if obs is not None else 0
        probes = list(probes)
        single = self._single
        if single is not None:
            out = single.candidates_probed(arity, probes)
        else:
            home = -1
            for position, value in probes:
                if position == 0:
                    home = self.partitioner.shard_of(arity, value)
                    break
            if home >= 0:
                if obs is not None:
                    obs.count("sdl_shard_queries_total", route="local")
                out = self.stores[home].candidates_probed(arity, probes)
            else:
                if obs is not None:
                    obs.count("sdl_shard_queries_total", route="cross")
                if probes:
                    out = merge_serial_lists(
                        s.candidates_probed(arity, probes) for s in self.stores
                    )
                else:
                    out = self._arity_ordered(arity)
        if obs is not None:
            obs.observe_ns(
                "match",
                start,
                obs.spans.now() - start,
                {"arity": arity, "n": len(out), "probes": len(probes)},
            )
        return out

    def attach_obs(self, obs) -> None:
        """Attach an observability hook timing every :meth:`candidates` call."""
        self._obs = obs

    def count_matching(self, pat: Pattern, bound: Mapping[str, Any] | None = None) -> int:
        """Number of instances matching *pat* under *bound*.

        Every candidate is matched against its **own copy** of *bound*
        (mirroring ``core/matching.py`` and the executor's snapshot lens):
        a pattern implementation that treats the mapping as scratch space
        must never leak bindings from one candidate into the next.  When
        the pattern has no unbound binding variables the mapping cannot be
        written at all, so one shared copy serves every candidate.

        Under the columnar backend, a pattern reducible to pure column
        probes (:func:`~repro.core.plan.scan_spec`) is counted by the
        column-scan kernel instead of per-candidate matching; the count is
        identical by the kernel-equivalence argument documented there.
        """
        bound = dict(bound or {})
        if self._columnar:
            spec = scan_spec(pat, bound)
            if spec is not None:
                return self._scan_count(pat.arity, spec)
        if _cannot_bind(pat, bound):
            return sum(
                1
                for inst in self.candidates(pat, bound)
                if pat.match(inst.values, bound) is not None
            )
        return sum(
            1
            for inst in self.candidates(pat, bound)
            if pat.match(inst.values, dict(bound)) is not None
        )

    def find_matching(
        self,
        pat: Pattern,
        bound: Mapping[str, Any] | None = None,
    ) -> list[TupleInstance]:
        """All instances matching *pat* under *bound* (snapshot list).

        Per-candidate binding isolation as in :meth:`count_matching`, with
        the same shared-copy fast path for patterns that cannot bind and
        the same columnar column-scan kernel (result contents *and* serial
        order are identical to the filtered candidate walk).
        """
        bound = dict(bound or {})
        if self._columnar:
            spec = scan_spec(pat, bound)
            if spec is not None:
                return self._scan_find(pat.arity, spec)
        if _cannot_bind(pat, bound):
            return [
                inst
                for inst in self.candidates(pat, bound)
                if pat.match(inst.values, bound) is not None
            ]
        return [
            inst
            for inst in self.candidates(pat, bound)
            if pat.match(inst.values, dict(bound)) is not None
        ]

    def _scan_count(
        self, arity: int, spec: tuple[list[tuple[int, Any]], list[tuple[int, int]]]
    ) -> int:
        """Columnar kernel: count rows passing the probes + repeats."""
        obs = self._obs
        start = obs.spans.now() if obs is not None else 0
        probes, repeats = spec
        single = self._single
        if single is not None:
            out = single.scan_count(arity, probes, repeats)
        else:
            home = self._scan_home(arity, probes)
            if home >= 0:
                out = self.stores[home].scan_count(arity, probes, repeats)
            else:
                out = sum(
                    store.scan_count(arity, probes, repeats)
                    for store in self.stores
                )
        if obs is not None:
            obs.observe_ns(
                "match", start, obs.spans.now() - start, {"arity": arity, "n": out}
            )
        return out

    def _scan_find(
        self, arity: int, spec: tuple[list[tuple[int, Any]], list[tuple[int, int]]]
    ) -> list[TupleInstance]:
        """Columnar kernel: the rows passing the probes + repeats, by serial."""
        obs = self._obs
        start = obs.spans.now() if obs is not None else 0
        probes, repeats = spec
        single = self._single
        if single is not None:
            out = single.scan(arity, probes, repeats)
        else:
            home = self._scan_home(arity, probes)
            if home >= 0:
                out = self.stores[home].scan(arity, probes, repeats)
            else:
                out = merge_serial_lists(
                    store.scan(arity, probes, repeats) for store in self.stores
                )
        if obs is not None:
            obs.observe_ns(
                "match",
                start,
                obs.spans.now() - start,
                {"arity": arity, "n": len(out)},
            )
        return out

    def _scan_home(self, arity: int, probes: list[tuple[int, Any]]) -> int:
        """Home shard of a scan pinning position 0, else -1 (all shards).

        Routing is a pure function of ``(arity, values[0])``, so a
        position-0 probe confines matches to one shard whether or not the
        field index exists — same confinement :meth:`candidates_probed`
        uses.
        """
        for position, value in probes:
            if position == 0:
                return self.partitioner.shard_of(arity, value)
        return -1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def snapshot(self) -> list[tuple]:
        """The current multiset of value tuples, sorted for stable comparison."""
        return sorted(
            (inst.values for inst in self.instances()),
            key=_sort_key,
        )

    def multiset(self) -> dict[tuple, int]:
        """Value tuples with multiplicities — handy in tests."""
        counts: dict[tuple, int] = {}
        for inst in self._instances.values():
            counts[inst.values] = counts.get(inst.values, 0) + 1
        return counts

    # Back-compat debug views of the merged index tables (a structural
    # property test asserts both drain to empty after a full retract).
    @property
    def _by_arity(self) -> dict[int, dict[TupleId, TupleInstance]]:
        if self._single is not None:
            return self._single.debug_by_arity()
        merged: dict[int, dict[TupleId, TupleInstance]] = {}
        for store in self.stores:
            for arity, bucket in store.debug_by_arity().items():
                merged.setdefault(arity, {}).update(bucket)
        return merged

    @property
    def _by_field(self) -> dict[tuple[int, int, Any], dict[TupleId, TupleInstance]]:
        if self._single is not None:
            return self._single.debug_by_field()
        merged: dict[tuple[int, int, Any], dict[TupleId, TupleInstance]] = {}
        for store in self.stores:
            for key, bucket in store.debug_by_field().items():
                merged.setdefault(key, {}).update(bucket)
        return merged

    def __repr__(self) -> str:
        if len(self) <= 8:
            body = ", ".join(
                "<" + ",".join(value_repr(v) for v in inst.values) + ">"
                for inst in self.instances()
            )
            return f"Dataspace({body})"
        return f"Dataspace(|D|={len(self)}, v={self._version})"


def _cannot_bind(pat: Pattern, bound: Mapping[str, Any]) -> bool:
    """Can matching *pat* under *bound* never produce a new binding?

    True for pure literal/wildcard patterns and for patterns whose variable
    fields are all already bound (they act as equality tests) — in either
    case :meth:`Pattern.match` returns only empty binding dicts, so callers
    may share one *bound* mapping across candidates.
    """
    names = pat.binding_variables()
    return not names or names <= bound.keys()


def _sort_key(values: tuple) -> tuple:
    """Total order over heterogeneous value tuples for stable snapshots."""
    return tuple((type(v).__name__, repr(v)) for v in values)
