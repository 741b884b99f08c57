"""Consensus sets and consensus-transaction resolution (paper Section 2.2).

A **consensus set** is "a set of processes closed under the transitive
closure of the relation ``p needs q ≡ Import(p) ∩ Import(q) ∩ D ≠ ∅``".
A consensus transaction fires "whenever all processes in the consensus set
are ready to execute consensus transactions"; detection "is very similar to
the quiescence detection problem".

This module provides the pure pieces:

* :func:`needs` — the pairwise overlap relation, computed on window
  footprints;
* :func:`partition` — the closure: a union-find partition of a set of
  processes into consensus sets, linear in total footprint size;
* :class:`ConsensusIndex` — the counted closure: the import-overlap
  components of the whole live society, kept from what changed, with a
  runner count each; a component with no runner is a consensus set ready
  to be evaluated (:func:`partition` stays the oracle);
* :func:`evaluate_composite` — given the members of one consensus set, all
  parked at consensus transactions, check simultaneous satisfiability (each
  member's query evaluated net of earlier members' retractions) and return
  the composite effect, or ``None`` if some member is not ready.

The runtime engine decides *when* to attempt detection and applies the
composite effect atomically (all retractions, then all assertions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.core.query import QueryResult
from repro.core.transactions import Transaction
from repro.core.tuples import TupleId
from repro.core.views import Window, WindowRouter

__all__ = [
    "needs",
    "partition",
    "ConsensusIndex",
    "ConsensusParticipant",
    "CompositeEffect",
    "evaluate_composite",
]


def needs(window_p: Window, window_q: Window) -> bool:
    """``Import(p) ∩ Import(q) ∩ D ≠ ∅`` for the two processes' windows."""
    return window_p.overlaps(window_q)


class _UnionFind:
    """Minimal union-find over arbitrary hashable keys."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: dict[Any, Any] = {}

    def find(self, key: Any) -> Any:
        # Iterative with full path compression: a `needs`-chain of N
        # processes produces parent chains of depth O(N), and the obvious
        # recursive formulation hits Python's recursion limit near a
        # thousand pids.
        parent = self.parent
        root = parent.setdefault(key, key)
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(self, a: Any, b: Any) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def partition(windows: Mapping[int, Window]) -> list[frozenset[int]]:
    """Partition pids into consensus sets via shared imported instances.

    Two processes are linked iff some live dataspace instance is in both
    import footprints; consensus sets are the connected components.  Runs in
    O(sum of footprint sizes) using a tuple-instance-keyed union-find rather
    than O(P^2) pairwise tests.
    """
    uf = _UnionFind()
    tuple_rep: dict[TupleId, int] = {}
    for pid, window in windows.items():
        uf.find(pid)
        for tid in window.footprint():
            other = tuple_rep.get(tid)
            if other is None:
                tuple_rep[tid] = pid
            else:
                uf.union(other, pid)
    groups: dict[Any, set[int]] = {}
    for pid in windows:
        groups.setdefault(uf.find(pid), set()).add(pid)
    return [frozenset(g) for g in groups.values()]


#: The pseudo-pid of the hub: every live process whose window imports all
#: of D (an unrestricted import set) is linked to it while D is non-empty,
#: and so is every restricted process importing anything.
HUB = 0


class _Component:
    """One import-overlap component of the live society, with the number
    of its members that are not waiting (``runners``)."""

    __slots__ = ("members", "runners")

    def __init__(self, members: set[int], runners: int) -> None:
        self.members = members
        self.runners = runners


class ConsensusIndex:
    """The counted closure: consensus detection kept across attempts
    (SEMANTICS §5).

    Built, in O(society), by :meth:`start` at the first park at a
    consensus point; before that it holds nothing and costs nothing.
    From then on it tracks every live process:

    * ``_seen`` — per restricted process, its window's footprint set (the
      window's own, read-only), and ``_importers``, ``tid -> pids``
      importing it, folded from each window's logged changes
      (:meth:`Window.settle`), never from a copy or a diff;
    * ``_hub`` — processes whose window imports all of D, linked through
      the :data:`HUB` pseudo-pid;
    * ``_of`` — the component of every tracked pid, each with its runner
      count.  An added shared tid merges two components; a dropped one
      that may have been a bridge marks its component stale, unless one
      hop shows the two sides still meet.

    :meth:`sync` folds in only what changed: processes spawned since the
    last call (from the society's spawn count) and the windows the router
    filed into (``WindowRouter.touched``).  A component whose runner count
    is 0 consists of waiters only, and is exactly a consensus set no live
    non-waiting process shares an instance with; :meth:`free_components`
    lists those in :func:`partition`'s order (earliest member in waiter
    order).  :meth:`park`, :meth:`unpark` and :meth:`forget` change one
    count.
    """

    __slots__ = (
        "started", "_society", "_window_of", "_dataspace", "_router",
        "_windows", "_pids", "_seen", "_hub", "_hub_on", "_importers",
        "_of", "_free", "_stale", "_checks", "_waiting", "_parks", "_spawned",
    )

    def __init__(self) -> None:
        self.started = False
        self._society: Any = None
        self._window_of: Callable[[Any], Window] | None = None
        self._dataspace: Any = None
        self._router: WindowRouter | None = None
        #: live tracked pid -> its window.
        self._windows: dict[int, Window] = {}
        #: restricted window -> its pid.
        self._pids: dict[Window, int] = {}
        self._seen: dict[int, set[TupleId]] = {}
        self._hub: set[int] = set()
        #: The hub links its members: some process imports all of D, and D
        #: is not empty.
        self._hub_on = False
        self._importers: dict[TupleId, set[int]] = {}
        self._of: dict[int, _Component] = {}
        #: Components with no runner.
        self._free: set[_Component] = set()
        #: Components that may have split (one lost an edge it may have
        #: needed): re-walked before anyone relies on their shape.
        self._stale: set[_Component] = set()
        #: Edge losses to check once everything is folded: pids that must
        #: all still share a tid with the first (:meth:`_adjacent`).
        self._checks: list[tuple[int, ...]] = []
        #: waiting pid -> its park number (waiter order).
        self._waiting: dict[int, int] = {}
        self._parks = 0
        #: The society's spawn count when it was last read.
        self._spawned = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, society: Any, window_of: Callable[[Any], Window], dataspace: Any) -> None:
        """Track every live process of *society* (``window_of(process)`` is
        its window over *dataspace*) and watch the dataspace's router."""
        self._society, self._window_of, self._dataspace = society, window_of, dataspace
        self._router = router = WindowRouter.of(dataspace)
        router.touched = {}
        self._spawned = society.total_spawned
        for process in society.live():
            self._track(process.pid, window_of(process))
        self._hub_on = bool(self._hub) and len(dataspace) > 0
        self._rebuild()
        self.started = True

    def _track(self, pid: int, window: Window) -> None:
        """Index *pid*'s footprint.  A window whose refresh raises leaves
        the index as it was."""
        if window.view.imports is None:
            self._hub.add(pid)
        else:
            window.watch()
            footprint, __ = window.settle()
            self._pids[window] = pid
            self._seen[pid] = footprint
            importers = self._importers
            for tid in footprint:
                holders = importers.get(tid)
                if holders is None:
                    importers[tid] = {pid}
                else:
                    holders.add(pid)
        self._windows[pid] = window

    def forget(self, pid: int) -> None:
        """Drop *pid*, which finished or crashed: one count, and an edge
        check on what it linked, made at the next :meth:`sync`."""
        window = self._windows.pop(pid, None)
        if window is None:
            return
        comp = self._of.pop(pid)
        comp.members.discard(pid)
        if self._waiting.pop(pid, None) is None:
            comp.runners -= 1
        if pid in self._hub:
            self._hub.discard(pid)
        else:
            # Every tid the index may file under *pid*: the footprint set
            # and the changes logged since the last fold.
            log = window.unwatch()
            del self._pids[window]
            # Each tid's importers left behind are a clique: one of each
            # stands for it, and the cliques must still meet.
            stand_ins = set()
            importers = self._importers
            for tid in self._seen.pop(pid).union(log):
                holders = importers.get(tid)
                if holders is not None and pid in holders:
                    holders.discard(pid)
                    if holders:
                        stand_ins.add(next(iter(holders)))
                    else:
                        del importers[tid]
            if len(stand_ins) > 1 and not self._hub_on:
                self._checks.append(tuple(stand_ins))
        self._recount(comp)

    def pids(self) -> set[int]:
        """Every pid the index holds (bounded-memory checks)."""
        out = set(self._windows) | set(self._of) | set(self._waiting)
        for holders in self._importers.values():
            out |= holders
        out.discard(HUB)
        return out

    def sizes(self) -> dict[str, int]:
        """How much each structure holds (bounded-memory checks)."""
        return {
            "tracked": len(self._windows),
            "tids": len(self._importers),
            "components": len({id(comp) for comp in self._of.values()}),
            "free": len(self._free),
            "stale": len(self._stale),
            "checks": len(self._checks),
        }

    # ------------------------------------------------------------------
    # counts
    # ------------------------------------------------------------------
    def park(self, pid: int) -> None:
        """*pid* now waits at a consensus point (it was not waiting)."""
        self._waiting[pid] = self._parks
        self._parks += 1
        comp = self._of.get(pid)
        if comp is not None:  # else spawned since the last sync: counted there
            comp.runners -= 1
            self._recount(comp)

    def unpark(self, pid: int) -> None:
        """*pid* no longer waits (it was waiting)."""
        del self._waiting[pid]
        comp = self._of.get(pid)
        if comp is not None:
            comp.runners += 1
            self._recount(comp)

    def _recount(self, comp: _Component) -> None:
        if comp.runners == 0 and len(comp.members) > (HUB in comp.members):
            self._free.add(comp)
        else:
            self._free.discard(comp)
        if not comp.members:
            self._stale.discard(comp)

    # ------------------------------------------------------------------
    # folding what changed
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Fold in the windows touched and the processes spawned since the
        last call, then check the edges lost on the way and re-walk the
        stale components that hold a waiter.  Every check and walk runs
        once all is folded, when each tracked footprint set is what the
        index holds."""
        society = self._society
        router = self._router
        touched = router.touched
        while True:
            router.catch_up()
            while touched:
                window = next(iter(touched))
                pid = self._pids.get(window)
                if pid is not None:
                    self._fold(pid, window)  # a raise leaves the window touched
                del touched[window]
            if self._spawned == society.total_spawned:
                break
            while self._spawned < society.total_spawned:
                pid = self._spawned + 1
                process = society.find_live(pid)
                if process is not None:
                    self._join(pid, self._window_of(process))
                self._spawned = pid
            # joining may have touched windows: fold again
        hub_on = bool(self._hub) and len(self._dataspace) > 0
        if hub_on != self._hub_on:
            self._hub_on = hub_on
            self._checks.clear()
            self._rebuild()
        elif self._checks:
            # A pid gone since its check was recorded may have been the
            # link: its component is re-walked.
            of = self._of
            for pids in self._checks:
                alive = [pid for pid in pids if pid in of]
                if alive and (len(alive) < len(pids) or not self._adjacent(alive)):
                    self._stale.add(of[alive[0]])
            self._checks.clear()
        for comp in [c for c in self._stale if c.runners < len(c.members)]:
            self._split(comp)

    def _join(self, pid: int, window: Window) -> None:
        """Track *pid*, spawned since the last sync, as a runner."""
        self._track(pid, window)
        comp = self._of[pid] = _Component({pid}, 0 if pid in self._waiting else 1)
        self._recount(comp)
        if pid in self._hub:
            if self._hub_on:
                self._merge(comp, self._of[HUB])
            # else the hub check at the end of the sync rebuilds, if need be
            return
        footprint = self._seen[pid]
        for tid in footprint:
            for other in self._importers[tid]:
                if other != pid:
                    self._merge(self._of[pid], self._of[other])
                    break
        if footprint and self._hub_on:
            self._merge(self._of[pid], self._of[HUB])

    def _fold(self, pid: int, window: Window) -> None:
        """Fold one restricted window's footprint changes.  Each logged tid
        is filed under *pid* iff it is in the footprint now; an add merges
        components, and a drop that leaves other importers is an edge
        loss to check."""
        before = self._seen[pid]
        footprint, log = window.settle()
        if footprint is not before:  # re-materialised: a new set
            self._seen[pid] = footprint
            log = before.union(log, footprint)
        if not log:
            return
        importers = self._importers
        of = self._of
        for tid in log:
            holders = importers.get(tid)
            if tid in footprint:
                if holders is None:
                    importers[tid] = {pid}
                elif pid not in holders:
                    other = next(iter(holders))
                    holders.add(pid)
                    if of[other] is not of[pid]:
                        self._merge(of[pid], of[other])
            elif holders is not None and pid in holders:
                holders.discard(pid)
                if not holders:
                    del importers[tid]
                elif not self._hub_on:
                    # the importers left are a clique: one stands for all
                    self._checks.append((pid, next(iter(holders))))
        if self._hub_on:  # linked to the hub iff it imports anything
            if footprint and of[pid] is not of[HUB]:
                self._merge(of[pid], of[HUB])
            elif not footprint and of[pid] is of[HUB]:
                self._detach_from_hub(pid)

    def _adjacent(self, pids: list[int]) -> bool:
        """Does every pid of *pids* share a tid with the first?  One hop is
        enough to keep two cliques that met through a lost edge together;
        ``False`` means "maybe not"."""
        pivot, pending = pids[0], set(pids[1:])
        pending.discard(pivot)
        importers = self._importers
        for tid in self._seen.get(pivot, ()):
            if not pending:
                break
            holders = importers[tid]
            pending = {pid for pid in pending if pid not in holders}
        return not pending

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------
    def _merge(self, a: _Component, b: _Component) -> None:
        if a is b:
            return
        if len(a.members) < len(b.members):
            a, b = b, a
        a.members |= b.members
        a.runners += b.runners
        of = self._of
        for member in b.members:
            of[member] = a
        self._free.discard(b)
        if b in self._stale:
            self._stale.discard(b)
            self._stale.add(a)
        self._recount(a)

    def _detach_from_hub(self, pid: int) -> None:
        """Hub on: *pid* imports nothing now, so it is alone."""
        comp = self._of[pid]
        comp.members.discard(pid)
        waiting = pid in self._waiting
        if not waiting:
            comp.runners -= 1
        self._recount(comp)
        alone = self._of[pid] = _Component({pid}, 0 if waiting else 1)
        self._recount(alone)

    def _rebuild(self) -> None:
        """Every component from scratch (start, and the hub turning on or off)."""
        self._of.clear()
        self._free.clear()
        self._stale.clear()
        pids = list(self._windows)
        if self._hub_on:
            linked = {HUB} | self._hub | {pid for pid, fp in self._seen.items() if fp}
            self._install(linked)
            pids = [pid for pid in pids if pid not in linked]
        self._walk(pids)

    def _split(self, comp: _Component) -> None:
        self._stale.discard(comp)
        self._free.discard(comp)
        self._walk(list(comp.members))

    def _walk(self, pids: list[int]) -> None:
        """Install the components of *pids* (a union of components) by
        walking the importer index."""
        seen, importers = self._seen, self._importers
        done: set[int] = set()
        for start in pids:
            if start in done:
                continue
            members = {start}
            expanded: set[TupleId] = set()
            queue = [start]
            for pid in queue:  # grows while walking
                for tid in seen.get(pid, ()):
                    if tid in expanded:
                        continue
                    expanded.add(tid)
                    for other in importers[tid]:
                        if other not in members:
                            members.add(other)
                            queue.append(other)
            done |= members
            self._install(members)

    def _install(self, members: set[int]) -> None:
        waiting = self._waiting
        comp = _Component(members, sum(1 for m in members if m != HUB and m not in waiting))
        of = self._of
        for member in members:
            of[member] = comp
        self._recount(comp)

    def free_components(self) -> list[frozenset[int]]:
        """The components no runner belongs to, each reached at its
        earliest member in waiter order: :func:`partition`'s order over
        the waiters, less the sets a runner shares an instance with."""
        waiting = self._waiting
        ordered = sorted(
            (min(waiting[m] for m in comp.members if m != HUB), comp)
            for comp in self._free
        )
        return [frozenset(comp.members - {HUB}) for __, comp in ordered]

    def has_free(self) -> bool:
        return bool(self._free)


@dataclass(slots=True)
class ConsensusParticipant:
    """One process parked at a consensus transaction."""

    pid: int
    transaction: Transaction
    window: Window
    scope: dict[str, Any]


@dataclass(slots=True)
class CompositeEffect:
    """The composite transformation of one fired consensus."""

    results: dict[int, QueryResult]
    retract_tids: list[TupleId]

    @property
    def pids(self) -> list[int]:
        return sorted(self.results)


def evaluate_composite(
    participants: Sequence[ConsensusParticipant],
    rng: random.Random | None = None,
) -> CompositeEffect | None:
    """Check simultaneous satisfiability of all participants' queries.

    Members are evaluated in pid order; member *i* may not bind instances
    already retracted by members < *i* (mirroring "first performing the
    retractions associated with each of the participating transactions").
    Returns ``None`` — consensus not ready — as soon as any member's query
    fails; no effects are applied here.
    """
    ordered = sorted(participants, key=lambda p: p.pid)
    excluded: set[TupleId] = set()
    results: dict[int, QueryResult] = {}
    for participant in ordered:
        result = participant.transaction.query.evaluate(
            participant.window.refresh(),
            participant.scope,
            rng,
            excluded=frozenset(excluded),
        )
        if not result.success:
            return None
        results[participant.pid] = result
        for match in result.matches:
            excluded.update(inst.tid for inst in match.retracted)
    return CompositeEffect(results=results, retract_tids=sorted(excluded))
