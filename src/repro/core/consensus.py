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
  processes into consensus sets, linear in the distinct footprints' size;
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
from typing import Any, Callable, Iterable, Mapping, Sequence

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


def partition(windows: Mapping[int, Window]) -> list[frozenset[int]]:
    """Partition pids into consensus sets via shared imported instances.

    Two processes are linked iff some live dataspace instance is in both
    import footprints; consensus sets are the connected components, in
    the order of their first pid.  Each distinct window's footprint is
    walked once, into a union-find over the windows that import anything:
    the processes sharing one are linked through it.  So the cost is
    O(P + the sizes of the distinct footprints), not O(P^2) pairwise tests.
    """
    parent: dict[Window, Window] = {}
    owner: dict[TupleId, Window] = {}

    def root(window: Window) -> Window:
        # Iterative, halving the path: a ``needs``-chain of N windows can
        # leave a parent chain O(N) deep.
        while parent[window] is not window:
            parent[window] = window = parent[parent[window]]
        return window

    for window in dict.fromkeys(windows.values()):
        footprint = window.footprint()
        if footprint:
            parent[window] = window
        for tid in footprint:
            parent[root(window)] = root(owner.setdefault(tid, window))
    groups: dict[Any, set[int]] = {}
    for pid, window in windows.items():
        groups.setdefault(root(window) if window in parent else pid, set()).add(pid)
    return [frozenset(g) for g in groups.values()]


class _Node:
    """One window of the live society: its tracked members, and its
    footprint set (the window's own, read-only; the dataspace itself for
    the full window).  It links its members iff that set was not empty
    when the index last looked (``linked``)."""

    __slots__ = ("window", "members", "seen", "linked")

    def __init__(self, window: Window, seen: Any) -> None:
        self.window, self.seen, self.linked = window, seen, False
        self.members: set[int] = set()


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
    From then on it tracks every live process, through its window:

    * ``_nodes`` — per window, one per view instance, its member pids and
      footprint set, and ``_importers``, ``tid -> nodes``, folded from each
      window's logged changes (:meth:`Window.settle`), never from a copy
      or a diff.  Every unrestricted window is the one full node (key
      ``None``): while D is not empty it overlaps every node importing
      anything, and no tid is filed under it;
    * ``_of`` — the component of every tracked pid, each with its runner
      count.  A node links its members iff its footprint is not empty.
      An added shared tid merges two components; a dropped one that may
      have been a bridge marks its component stale, unless one hop shows
      the two sides still meet.

    :meth:`sync` folds in only what changed: processes spawned since the
    last call (from the society's spawn count) and the windows the router
    filed into (``WindowRouter.touched``).  A component whose runner count
    is 0 consists of waiters only, and is exactly a consensus set no live
    non-waiting process shares an instance with; :meth:`free_components`
    lists those in :func:`partition`'s order (earliest member in waiter
    order).  :meth:`park`, :meth:`unpark` and :meth:`forget` change one
    count, unless a window's last member leaves.
    """

    __slots__ = (
        "started", "_society", "_window_of", "_dataspace", "_router", "_nodes",
        "_node_of", "_importers", "_of", "_free", "_stale", "_checks",
        "_waiting", "_parks", "_spawned",
    )

    def __init__(self) -> None:
        self.started = False
        self._society: Any = None
        self._window_of: Callable[[Any], Window] | None = None
        self._dataspace: Any = None
        self._router: WindowRouter | None = None
        #: window (``None``: every unrestricted one) -> its node.
        self._nodes: dict[Window | None, _Node] = {}
        self._node_of: dict[int, _Node] = {}
        self._importers: dict[TupleId, set[_Node]] = {}
        self._of: dict[int, _Component] = {}
        #: Components with no runner.
        self._free: set[_Component] = set()
        #: Components that may have split (one lost an edge it may have
        #: needed): re-walked before anyone relies on their shape.
        self._stale: set[_Component] = set()
        #: Edge losses to check once everything is folded: nodes that must
        #: all still share a tid with the first (:meth:`_adjacent`).
        self._checks: list[tuple[_Node, ...]] = []
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
            self._join(process.pid, window_of(process))
        self.started = True

    def _join(self, pid: int, window: Window) -> None:
        """Track *pid*, in its window's node.  A new restricted window is
        settled first: one whose refresh raises leaves the index as it
        was."""
        key = None if window.view.imports is None else window
        node = fresh = self._nodes.get(key)
        if node is None:
            seen = self._dataspace if key is None else window.settle()[0]
            node = self._nodes[key] = _Node(window, seen)
        comp = self._of[pid] = _Component({pid}, 0 if pid in self._waiting else 1)
        self._recount(comp)
        if node.linked:
            self._merge(comp, self._of[next(iter(node.members))])
        node.members.add(pid)
        self._node_of[pid] = node
        if fresh is None and key is not None:
            self._relink(node, self._file(node, node.seen))

    def forget(self, pid: int) -> None:
        """Drop *pid*, which finished or crashed: one count, unless it was
        its window's last member.  Then the node goes, and what it linked
        is checked at the next :meth:`sync`."""
        node = self._node_of.pop(pid, None)
        if node is None:
            return
        comp = self._of.pop(pid)
        comp.members.discard(pid)
        if self._waiting.pop(pid, None) is None:
            comp.runners -= 1
        node.members.discard(pid)
        if not node.members:
            if node.seen is self._dataspace:
                del self._nodes[None]
                if node.linked:  # every linked node met through it
                    self._stale.add(comp)
            else:
                del self._nodes[node.window]
                # Every tid the index may file under the node: the
                # footprint set and the changes logged since the last fold.
                tids, node.seen = node.seen.union(node.window.unwatch()), ()
                self._relink(node, self._file(node, tids))
        self._recount(comp)

    def pids(self) -> set[int]:
        """Every pid the index holds (bounded-memory checks)."""
        out = set(self._node_of) | set(self._of) | set(self._waiting)
        for node in {*self._nodes.values(), *(n for ns in self._importers.values() for n in ns)}:
            out |= node.members
        return out

    def sizes(self) -> dict[str, int]:
        """How much each structure holds (bounded-memory checks)."""
        return {
            "tracked": len(self._node_of),
            "nodes": len(self._nodes),
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
        if comp.runners == 0 and comp.members:
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
                node = self._nodes.get(window)
                if node is not None:
                    self._fold(node)  # a raise leaves the window touched
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
        full = self._nodes.get(None)
        if full is not None:
            self._relink(full, ())
        for nodes in self._checks:
            # A node gone or emptied since its check was recorded may have
            # been the link: its component is re-walked.
            alive = [node for node in nodes if node.linked]
            if alive and (len(alive) < len(nodes) or not self._adjacent(alive)):
                self._stale.add(self._of[next(iter(alive[0].members))])
        self._checks.clear()
        for comp in [c for c in self._stale if c.runners < len(c.members)]:
            self._split(comp)

    def _fold(self, node: _Node) -> None:
        """Fold one restricted window's footprint changes."""
        before = node.seen
        footprint, log = node.window.settle()
        if footprint is not before:  # re-materialised: a new set
            node.seen = footprint
            log = before.union(log, footprint)
        if log:
            stand_ins = self._file(node, log)
            if stand_ins or bool(footprint) != node.linked:
                self._relink(node, stand_ins)

    def _relink(self, node: _Node, stand_ins: Iterable[_Node]) -> None:
        """*node*'s footprint set was folded: one that emptied unlinks its
        members, one that filled links them; the importers that dropped
        tids left (*stand_ins*) must still meet."""
        if not node.seen:
            if node.linked:
                self._unlink(node)
                self._check(stand_ins)
        elif not node.linked:
            self._link(node)
        elif stand_ins:
            self._check((node, *stand_ins))

    def _file(self, node: _Node, tids: Iterable[TupleId]) -> set[_Node]:
        """File *node* under each of *tids* iff its footprint holds it.  A
        tid it newly shares merges components; of the importers a dropped
        tid leaves, a clique, one stands for all: the stand-ins are
        returned."""
        importers, of, footprint = self._importers, self._of, node.seen
        member = next(iter(node.members), None)
        stand_ins = set()
        for tid in tids:
            holders = importers.get(tid)
            if tid in footprint:
                if holders is None:
                    importers[tid] = {node}
                elif node not in holders:
                    other = of[next(iter(next(iter(holders)).members))]
                    if of[member] is not other:
                        self._merge(of[member], other)
                    holders.add(node)
            elif holders is not None and node in holders:
                holders.discard(node)
                if holders:
                    stand_ins.add(next(iter(holders)))
                else:
                    del importers[tid]
        return stand_ins

    def _check(self, nodes: Any) -> None:
        """Record that *nodes* must all still share a tid with the first,
        unless the full node links them anyway."""
        full = self._nodes.get(None)
        if len(nodes) > 1 and (full is None or not full.linked):
            self._checks.append(tuple(nodes))

    def _adjacent(self, nodes: list[_Node]) -> bool:
        """Does every node of *nodes* share a tid with the first?  One hop
        is enough to keep two cliques that met through a lost edge
        together; ``False`` means "maybe not"."""
        pivot, pending = nodes[0], set(nodes[1:])
        pending.discard(pivot)
        importers = self._importers
        for tid in pivot.seen:
            if not pending:
                break
            holders = importers[tid]
            pending = {node for node in pending if node not in holders}
        return not pending

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------
    def _merge(self, a: _Component, b: _Component) -> _Component:
        if a is b:
            return a
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
        return a

    def _link(self, node: _Node) -> None:
        """*node* imports something now: one component holds its members,
        with the full node's (every linked node's, for the full node).
        Its tids were filed already (:meth:`_file`)."""
        node.linked = True
        full = self._nodes.get(None)
        if node is full:  # it meets every linked node: none can split
            others = [other for other in self._nodes.values() if other.linked]
            self._checks.clear()
            self._stale.clear()
        else:
            others = [full] if full is not None and full.linked else []
        of = self._of
        comp = of[next(iter(node.members))]
        for pid in [*node.members, *(next(iter(other.members)) for other in others)]:
            comp = self._merge(comp, of[pid])

    def _unlink(self, node: _Node) -> None:
        """*node* imports nothing now: each of its members is alone."""
        node.linked = False
        of, waiting = self._of, self._waiting
        for pid in node.members:
            comp = of[pid]
            comp.members.discard(pid)
            comp.runners -= pid not in waiting
            self._recount(comp)
            self._install({pid})

    def _split(self, comp: _Component) -> None:
        """Install the components *comp* may have split into (the full
        node links nothing) by walking the importer index."""
        self._stale.discard(comp)
        self._free.discard(comp)
        importers, node_of = self._importers, self._node_of
        done: set[int] = set()
        for start in comp.members:
            if start in done:
                continue
            members, first = {start}, node_of[start]
            queue = [first] if first.linked else []
            reached, expanded = set(queue), set()
            for node in queue:  # grows while walking
                members |= node.members
                for tid in node.seen:
                    if tid not in expanded:
                        expanded.add(tid)
                        for other in importers[tid]:
                            if other not in reached:
                                reached.add(other)
                                queue.append(other)
            done |= members
            self._install(members)

    def _install(self, members: set[int]) -> None:
        waiting = self._waiting
        comp = _Component(members, sum(1 for m in members if m not in waiting))
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
            (min(waiting[m] for m in comp.members), comp) for comp in self._free
        )
        return [frozenset(comp.members) for __, comp in ordered]

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
