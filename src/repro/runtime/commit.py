"""Footprint recording and conflict admission for group-commit rounds.

The paper's performance claim (Section 3) is that views bound transaction
scope so that "transactions whose windows do not overlap may proceed
concurrently".  PR 1 gave every window a precise instance-level footprint;
this module uses footprints *per transaction* to decide which candidates of
one scheduler round may commit together while staying serial-equivalent to
the seeded arbitration order.

A candidate's footprint has a **read side** and a **write side**:

* reads — one :class:`~repro.runtime.wakeup.AtomWatcher` per query atom
  (and per ``Membership`` pattern in test expressions and ``let`` bodies),
  i.e. the ``(arity, position, value)`` index keys whose population the
  query's verdict depends on.  Unanalysable queries and config-dependent
  views degrade to ``reads_all`` (conflicts with every write);
* writes — the tuple ids it retracts plus a conservative description of
  the tuples it would assert (per position: a known value, or unknown).

Candidate *L* (later in arbitration order) conflicts with admitted
candidate *E* iff

* **r-w** — some write of *E* may touch a read watcher of *L*: *L*'s
  snapshot evaluation could differ from its serial evaluation after *E*;
* **w-w** — they retract a common tuple id: only one retraction can
  succeed.

Assert/assert overlap is *not* a conflict: the dataspace is a multiset, so
insertions commute.  The asymmetric direction (*E* reads what *L* writes)
is also not a conflict: *E* precedes *L* serially and never observes *L*'s
writes in either execution.  The admitted set is therefore the largest
prefix-closed subsequence of the arbitration order with pairwise-compatible
footprints, and replaying it serially in that order from the round-start
state reproduces the batch state exactly (checked by
:func:`validate_serial_equivalence` under ``validate="serial"``).

Both sides of r-w are equality conjunctions over ``(arity, positions ->
values)``, so admission does not walk pairs: :class:`AdmittedBatch` keys
the admitted writes by shape and :func:`first_conflict` probes it with the
candidate's own watchers and retracted ids.  :func:`conflicts` and
:meth:`WriteRecord.touches` state the relation pairwise and serve as the
test oracle.

**A w-w conflict implies an r-w conflict at the same or an earlier
admitted index.**  A retracted instance matched one of the candidate's
query atoms, and the admitted footprint retracting the same tuple id keeps
an all-positions-known :class:`WriteRecord` for it, which touches that
atom's watcher (a ``reads_all`` candidate conflicts from the first write
on).  So the round walk probes with the read side alone, *before*
evaluating a candidate, and finds the winner the full footprint would.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.core.actions import AssertTuple, Let
from repro.core.dataspace import Dataspace
from repro.core.patterns import pattern
from repro.core.query import FORALL, Match, QueryResult
from repro.core.transactions import Transaction, apply, stage
from repro.core.tuples import TupleId
from repro.errors import EngineError, QueryError
from repro.runtime.wakeup import AtomWatcher, _expr_watchers, derive_subscription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.process import ProcessInstance

__all__ = [
    "WriteRecord",
    "Footprint",
    "read_side",
    "footprint_for",
    "complete_footprint",
    "conflicts",
    "AdmittedBatch",
    "first_conflict",
    "validate_serial_equivalence",
]


class WriteRecord:
    """One written tuple: exact (a retraction) or predicted (an assertion)."""

    __slots__ = ("arity", "known")

    def __init__(
        self, arity: int, known: Mapping[int, Any] | Iterable[tuple[int, Any]]
    ) -> None:
        self.arity = arity
        self.known = dict(known)  # position -> value; absent positions unknown

    def touches(self, watcher: AtomWatcher) -> bool:
        """Could this write affect the population *watcher* observes?

        Unknown positions are treated as matching anything — degrading a
        predicted assert to its arity key is conservative, never unsound.
        """
        if self.arity != watcher.arity:
            return False
        known = self.known
        for position, value in watcher.probes:
            if position in known and known[position] != value:
                return False
        return True

    def __repr__(self) -> str:
        body = ",".join(
            f"{p}={self.known[p]!r}" if p in self.known else f"{p}=?"
            for p in range(self.arity)
        )
        return f"write({body})"


class Footprint:
    """The read/write footprint of one evaluated round candidate.

    Under a sharded dataspace the footprint additionally carries its
    *shard-sets*, one per conflict rule:

    * ``read_shards`` — the shards this candidate's watchers observe, or
      ``None`` when unbounded (reads-all, or a watcher without a
      position-0 constant);
    * ``write_shards`` — the shards its writes (retractions plus predicted
      asserts) land in, or ``None`` when some assert's head is unknown;
    * ``retract_shards`` — the shards its retracted instances live in
      (always exact: retractions know every field).

    ``writes`` and the shard-sets are filled in by
    :func:`complete_footprint`, i.e. only on admitted footprints: parallel
    apply groups the batch by ``read_shards | retract_shards`` and
    ``validate_plan`` holds worker plans inside ``write_shards``.
    Admission itself does not consult the shard-sets — it probes the
    :class:`AdmittedBatch` key index.

    ``read_key`` caches the read side's content key (:meth:`content_key`),
    under which a batch shares one verdict among content-equal probes.
    """

    __slots__ = (
        "pid", "reads_all", "watchers", "retract_tids", "writes",
        "read_shards", "write_shards", "retract_shards", "read_key",
    )

    def __init__(
        self,
        pid: int,
        reads_all: bool,
        watchers: Sequence[AtomWatcher],
        retract_tids: frozenset[TupleId],
        writes: Sequence[WriteRecord],
        read_shards: frozenset[int] | None = None,
        write_shards: frozenset[int] | None = None,
        retract_shards: frozenset[int] = frozenset(),
    ) -> None:
        self.pid = pid
        self.reads_all = reads_all
        self.watchers = tuple(watchers)
        self.retract_tids = retract_tids
        self.writes = tuple(writes)
        self.read_shards = read_shards
        self.write_shards = write_shards
        self.retract_shards = retract_shards
        self.read_key: tuple | None = None

    def content_key(self) -> tuple:
        """``(reads_all, ((arity, positions, values), ...))``, built once.

        Everything :meth:`AdmittedBatch.first_conflict_index` reads of a
        probe without retracted ids: two probes with equal keys (under the
        dict equality the batch's tables use) get the same answer.
        """
        key = self.read_key
        if key is None:
            key = self.read_key = (
                self.reads_all,
                tuple([(w.arity, w.positions, w.values) for w in self.watchers]),
            )
        return key

    def __repr__(self) -> str:
        reads = "ANY" if self.reads_all else f"{len(self.watchers)} watchers"
        r = "?" if self.read_shards is None else sorted(self.read_shards)
        w = "?" if self.write_shards is None else sorted(self.write_shards)
        return (
            f"footprint(pid={self.pid}, reads={reads}, "
            f"retracts={len(self.retract_tids)}, writes={len(self.writes)}, "
            f"shards=r{r}/w{w})"
        )


def footprint_for(
    txn: Transaction,
    result: QueryResult,
    process: "ProcessInstance",
    scope: dict[str, Any],
    reads: tuple[bool, tuple[AtomWatcher, ...]],
) -> Footprint:
    """Record what admission must check of *txn* evaluated (as *result*)
    for *process*: its reads and the tuple ids it retracts.

    *reads* is the candidate's :func:`read_side`, derived once before it
    was evaluated: the round walk probes the admitted batch with the read
    side alone, evaluates only a candidate that survives that probe, and
    calls this for the candidate it admits.  The rest — retraction
    records, predicted asserts, shard-sets — is derived by
    :func:`complete_footprint`.  A failed *result* retracts nothing, so
    its footprint carries reads only.
    """
    reads_all, watchers = reads
    retract_tids = frozenset([inst.tid for inst in result.all_retracted()])
    return Footprint(process.pid, reads_all, watchers, retract_tids, ())


def complete_footprint(
    footprint: Footprint,
    txn: Transaction,
    result: QueryResult,
    scope: dict[str, Any],
    partitioner=None,
) -> Footprint:
    """Fill in, in place, what is read off an *admitted* footprint.

    Later candidates probe its writes — one exact :class:`WriteRecord` per
    retracted instance, one predicted record per assert — and, under a
    multi-shard *partitioner* (``repro.core.storage.Partitioner``, or
    ``None``), the apply phase reads its shard-sets.  Returns *footprint*
    (from :func:`footprint_for`, for the successful *result*).
    """
    retracted = result.all_retracted()
    writes = [
        WriteRecord(len(inst.values), enumerate(inst.values)) for inst in retracted
    ]
    writes.extend(_assert_intents(txn, result, scope))
    footprint.writes = tuple(writes)
    if partitioner is not None and partitioner.shard_count > 1:
        footprint.read_shards = _read_shards(
            partitioner, footprint.reads_all, footprint.watchers
        )
        footprint.write_shards = _write_shards(partitioner, writes)
        footprint.retract_shards = frozenset(
            [partitioner.shard_of_values(inst.values) for inst in retracted]
        )
    return footprint


def _read_shards(
    partitioner, reads_all: bool, watchers: Sequence[AtomWatcher]
) -> frozenset[int] | None:
    """The shards a footprint's reads provably stay inside, or ``None``.

    Routing rests on the partitioner invariant that a tuple's home shard
    is a pure function of ``(arity, field 0)``: a watcher pinning position
    0 only observes populations of that one shard.  Anything less
    determinate makes the read side unbounded — which only keeps the
    candidate off the worker pool, never affects admission.
    """
    if reads_all:
        return None
    shards: set[int] = set()
    for watcher in watchers:
        if 0 not in watcher.positions:
            return None
        head = watcher.values[watcher.positions.index(0)]
        shards.add(partitioner.shard_of(watcher.arity, head))
    return frozenset(shards)


def _write_shards(
    partitioner, writes: Sequence[WriteRecord]
) -> frozenset[int] | None:
    """The shards a footprint's writes provably land in, or ``None``.

    Retraction records always know every position; a predicted assert
    whose head is unresolved makes the write side unbounded.
    """
    shards: set[int] = set()
    for write in writes:
        if 0 not in write.known:
            return None
        shards.add(partitioner.shard_of(write.arity, write.known[0]))
    return frozenset(shards)


def read_side(
    txn: Transaction, process: "ProcessInstance", scope: dict[str, Any]
) -> tuple[bool, tuple[AtomWatcher, ...]]:
    """Extract *txn*'s read side: ``(reads_all, watchers)``.

    Pure in the transaction/view/scope — no dataspace, RNG, or counter
    access — which is what lets the round walk decide a loser before
    evaluating it, and carry a deferred loser's read side into the next
    round while its transaction and scope are unchanged.
    """
    sub = derive_subscription([txn], process.view, scope, "keys")
    if sub.wake_any:
        return True, ()
    watchers = list(sub.watchers)
    # `let` bodies may read the window through Membership/count expressions
    # — those reads are invisible to the query-derived subscription.
    for action in txn.actions:
        if isinstance(action, Let):
            got = _expr_watchers(action.expr, scope, with_keys=True)
            if got is None:
                return True, ()
            watchers.extend(got)
    return False, tuple(watchers)


def _assert_intents(
    txn: Transaction, result: QueryResult, scope: dict[str, Any]
) -> list[WriteRecord]:
    """Predict the index keys of the tuples *txn* would assert.

    Positions are resolved through :meth:`Pattern.index_constants` under
    the match bindings — never by evaluating action expressions, which may
    have effects.  Unresolvable positions are left out of ``known``.
    """
    intents: list[WriteRecord] = []
    asserts = [a for a in txn.actions if isinstance(a, AssertTuple)]
    if not asserts:
        return intents
    envs = (
        [{**scope, **m.bindings} for m in result.matches]
        if result.matches
        else [dict(scope)]
    )
    for action in asserts:
        arity = action.pattern.arity
        for env in envs:
            try:
                known = action.pattern.index_constants(env)
            except QueryError:
                # A raising field predicts nothing (an unbounded write);
                # applying the assertion raises the transaction's error.
                known = ()
            intents.append(WriteRecord(arity, known))
    return intents


def conflicts(later: Footprint, earlier: Footprint) -> bool:
    """Does *later* conflict with the already-admitted *earlier*?

    The pairwise statement of the conflict rules, and with
    :meth:`WriteRecord.touches` the test oracle for :class:`AdmittedBatch`;
    the engine path never calls it.
    """
    # w-w: both retract the same instance — only one retraction can succeed.
    if later.retract_tids and not later.retract_tids.isdisjoint(earlier.retract_tids):
        return True
    # r-w: an earlier write may change what `later`'s query observed.
    if not earlier.writes:
        return False
    if later.reads_all:
        return True
    return any(
        write.touches(watcher)
        for write in earlier.writes
        for watcher in later.watchers
    )


#: A memo miss in :meth:`AdmittedBatch.first_conflict_index` (``None`` is
#: an answer: no conflict).
_UNASKED = object()


class _WriteGroup:
    """The admitted writes of one ``(arity, known positions)`` shape.

    Answers, for a watcher, the first admitted index whose write in this
    group touches it.  Per watcher shape the group lazily builds one table
    keyed on the written values at the positions both shapes know; a
    watcher shape sharing no position with the writes is touched by every
    one of them, i.e. from the group's first index on.
    """

    __slots__ = ("positions", "first", "rows", "tables")

    def __init__(self, positions: tuple[int, ...], first: int) -> None:
        self.positions = positions
        self.first = first  # admitted index of the group's first write
        #: ``(known, admitted index)`` per write, in admission order.
        self.rows: list[tuple[dict[int, Any], int]] = []
        #: watcher positions -> ``(pick, shared, table)``, or ``None`` when
        #: nothing is shared: *shared* are the positions both know, *pick*
        #: their indexes into a watcher's ``values``, *table* maps written
        #: values at *shared* to the first admitted index writing them.
        self.tables: dict[tuple[int, ...], tuple | None] = {}

    def add(self, known: dict[int, Any], index: int) -> None:
        self.rows.append((known, index))
        for entry in self.tables.values():
            if entry is not None:
                __, shared, table = entry
                table.setdefault(tuple([known[p] for p in shared]), index)

    def first_touching(self, watcher: AtomWatcher) -> int | None:
        try:
            entry = self.tables[watcher.positions]
        except KeyError:
            entry = self._build(watcher.positions)
        if entry is None:
            return self.first
        values = watcher.values
        return entry[2].get(tuple([values[i] for i in entry[0]]))

    def _build(self, watcher_positions: tuple[int, ...]) -> tuple | None:
        known_positions = self.positions
        pick = tuple(
            [i for i, p in enumerate(watcher_positions) if p in known_positions]
        )
        entry = None
        if pick:
            shared = tuple([watcher_positions[i] for i in pick])
            table: dict[tuple, int] = {}
            for known, index in self.rows:
                table.setdefault(tuple([known[p] for p in shared]), index)
            entry = (pick, shared, table)
        self.tables[watcher_positions] = entry
        return entry


class AdmittedBatch:
    """The footprints admitted so far in one round, indexed by what they write.

    List-like (``append``, ``len``, indexing) for the apply phase; for
    admission it answers :func:`first_conflict` in time proportional to the
    *candidate's* footprint, not the batch: retracted tuple ids map to the
    first admitted index retracting them, and writes are grouped by
    ``(arity, known positions)`` (a predicted assert's unknown positions
    are simply absent from its shape, so it is indexed like an exact
    retraction — there is no residual list to walk).

    Between two appends the answer is a pure function of the batch and the
    candidate, so a read-only candidate's answer is memoised under its
    :meth:`Footprint.content_key`: every loser probing with the same reads
    as an earlier one costs one dict hit.  ``append`` clears the memo.
    """

    __slots__ = ("_footprints", "_retracts", "_first_write", "_groups", "_verdicts")

    def __init__(self, footprints: Iterable[Footprint] = ()) -> None:
        self._footprints: list[Footprint] = []
        self._retracts: dict[TupleId, int] = {}
        self._first_write: int | None = None  # first footprint with any write
        #: arity -> known positions -> group.
        self._groups: dict[int, dict[tuple[int, ...], _WriteGroup]] = {}
        #: content key of a read-only probe -> its answer, for this batch.
        self._verdicts: dict[tuple, int | None] = {}
        for footprint in footprints:
            self.append(footprint)

    def __len__(self) -> int:
        return len(self._footprints)

    def __getitem__(self, index: int) -> Footprint:
        return self._footprints[index]

    def append(self, footprint: Footprint) -> None:
        index = len(self._footprints)
        self._footprints.append(footprint)
        self._verdicts.clear()
        retracts = self._retracts
        for tid in footprint.retract_tids:
            retracts.setdefault(tid, index)
        if not footprint.writes:
            return
        if self._first_write is None:
            self._first_write = index
        for write in footprint.writes:
            shapes = self._groups.setdefault(write.arity, {})
            positions = tuple(sorted(write.known))
            group = shapes.get(positions)
            if group is None:
                group = shapes[positions] = _WriteGroup(positions, index)
            group.add(write.known, index)

    def first_conflict_index(self, candidate: Footprint) -> int | None:
        """The least admitted index *candidate* conflicts with, or ``None``.

        Equal to the index the pairwise :func:`conflicts` walk stops at:
        the minimum over w-w (a shared retracted tid) and r-w (an admitted
        write touching one of the candidate's watchers).  A candidate
        without retracted ids is answered from the memo when a
        content-equal one was asked since the last append; an unhashable
        key (a watcher value that cannot be hashed) skips the memo.
        """
        if candidate.retract_tids:
            return self._walk(candidate)
        key = candidate.content_key()
        verdicts = self._verdicts
        try:
            index = verdicts.get(key, _UNASKED)
        except TypeError:
            return self._walk(candidate)
        if index is _UNASKED:
            index = verdicts[key] = self._walk(candidate)
        return index

    def _walk(self, candidate: Footprint) -> int | None:
        best: int | None = None
        retracts = self._retracts
        if retracts:
            for tid in candidate.retract_tids:
                index = retracts.get(tid)
                if index is not None and (best is None or index < best):
                    if index == 0:
                        return 0
                    best = index
        first_write = self._first_write
        if first_write is None or (best is not None and best <= first_write):
            return best
        if candidate.reads_all:
            return first_write
        for watcher in candidate.watchers:
            shapes = self._groups.get(watcher.arity)
            if shapes is None:
                continue
            for group in shapes.values():
                if best is not None and group.first >= best:
                    continue  # nothing in this group precedes the best so far
                index = group.first_touching(watcher)
                if index is not None and (best is None or index < best):
                    best = index
        return best


def first_conflict(
    admitted: "AdmittedBatch | Sequence[Footprint]", candidate: Footprint
) -> Footprint | None:
    """The first admitted footprint *candidate* conflicts with, or ``None``.

    A plain sequence is indexed first, so there is one lookup path; the
    pairwise walk over :func:`conflicts` returns the same footprint and is
    kept as the test oracle.
    """
    batch = admitted if isinstance(admitted, AdmittedBatch) else AdmittedBatch(admitted)
    index = batch.first_conflict_index(candidate)
    return None if index is None else batch[index]


# ----------------------------------------------------------------------
# serial-equivalence validation (``validate="serial"``)
# ----------------------------------------------------------------------

def _retracting_twins(window, recorded: QueryResult, replayed: QueryResult) -> QueryResult:
    """*replayed*, retracting value-equal twins of what *recorded* retracted.

    Forced bindings do not pin a wildcard field, so the replay may have
    matched another instance than the batch retracted; the serial run that
    justifies the batch is the one retracting equal values.  Fails when
    the replay's window no longer holds them.
    """
    retracted = recorded.all_retracted()
    if not retracted:
        return replayed
    twins: list = []
    taken: set[TupleId] = set()
    for inst in retracted:
        twin = next(
            (
                candidate
                for candidate in window.find_matching(pattern(*inst.values))
                if candidate.tid not in taken
            ),
            None,
        )
        if twin is None:
            return QueryResult(False)
        taken.add(twin.tid)
        twins.append(twin)
    match = replayed.matches[0]
    return QueryResult(True, [Match(match.bindings, match.instances, tuple(twins))])


def validate_serial_equivalence(
    pre_rows: Sequence[tuple],
    admitted: Sequence[tuple["ProcessInstance", Transaction, QueryResult]],
    post_multiset: Mapping[tuple, int],
    round_count: int,
    export_policy: str = "error",
    obs=None,
) -> None:
    """Replay one admitted batch serially and compare final states.

    Rebuilds the round-start dataspace from *pre_rows*, replays every
    admitted transaction in arbitration order — forcing each ∃ query's
    recorded bindings, and retracting value-equal twins of the instances
    the batch retracted — and asserts the resulting multiset equals the
    batch-committed one.
    The staged callbacks are never run, and a private RNG keeps the check
    invisible to the engine's seeded arbitration stream.

    Raises :class:`EngineError` on any divergence — a conflict the admission
    rules failed to detect.  *obs* (an ``Observability`` or ``None``) times
    the whole replay under the ``group-validate`` site.
    """
    start = obs.spans.now() if obs is not None else 0
    scratch = Dataspace()
    scratch.insert_many(pre_rows)
    rng = random.Random(0)
    for process, txn, recorded in admitted:
        window = process.view.window(scratch, process.params)
        scope = process.scope()
        if txn.query.quantifier != FORALL:
            scope = {**scope, **recorded.bindings}
        replayed = txn.query.evaluate(window.refresh(), scope, rng)
        if replayed.success and txn.query.quantifier != FORALL:
            replayed = _retracting_twins(window, recorded, replayed)
        if not replayed.success:
            raise EngineError(
                f"group commit violated serial equivalence in round "
                f"{round_count}: {txn!r} (pid {process.pid}) committed in "
                f"the batch but fails when replayed serially"
            )
        apply((stage(txn, window, scope, process.pid, rng, replayed, export_policy),), scratch)
    if scratch.multiset() != dict(post_multiset):
        raise EngineError(
            f"group commit violated serial equivalence in round "
            f"{round_count}: batch state differs from serial replay "
            f"(batch={dict(post_multiset)!r}, serial={scratch.multiset()!r})"
        )
    if obs is not None:
        obs.observe_ns(
            "group-validate",
            start,
            obs.spans.now() - start,
            {"round": round_count, "admitted": len(admitted)},
        )
