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
* :class:`ConsensusIndex` — the same closure kept across attempts: a
  ``tid -> waiting pids`` index folded from footprint differences, plus a
  blocker witness per waiter, so an attempt walks only the components no
  witness already rules out (:func:`partition` stays the oracle);
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
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.query import QueryResult
from repro.core.transactions import Transaction
from repro.core.tuples import TupleId
from repro.core.views import Window

__all__ = [
    "needs",
    "partition",
    "blocking_runner",
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


#: ``runner pid -> its footprint``, or ``None`` unless it is a live process
#: that is not waiting at a consensus transaction.
RunnerFootprint = Callable[[int], "frozenset[TupleId] | None"]


def blocking_runner(
    footprint: set[TupleId],
    runners: Iterable[int],
    runner_footprint: RunnerFootprint,
) -> tuple[int, TupleId] | None:
    """The first runner importing an instance of *footprint*, with that tid.

    A consensus set is only ready when every member of its closure waits;
    a live process that is not waiting but shares an instance with the set
    belongs to that closure.  This is the full scan: one set intersection
    per runner, in the order *runners* gives.
    """
    if not footprint:
        return None
    for runner in runners:
        other = runner_footprint(runner)
        small, large = (other, footprint) if len(other) < len(footprint) else (footprint, other)
        for tid in small:
            if tid in large:
                return runner, tid
    return None


class ConsensusIndex:
    """Consensus detection state kept across attempts.

    * ``_seen`` — per waiter, the footprint folded into the index last time;
    * ``_importers`` — ``tid -> waiting pids`` importing that instance, so a
      component is a walk over shared tids;
    * ``_witnesses`` — per waiter, a ``(runner, tid)`` that blocked its
      component.  It still blocks while the runner is live and not waiting
      and *tid* is in both footprints; then the component is skipped with
      no walk and no scan.

    :meth:`sync` folds the current waiter footprints in (identity first: an
    unchanged window returns the same frozen set); :meth:`unblocked`
    yields the components no runner belongs to, in :func:`partition`'s
    order.  :meth:`forget` drops a process that finished or crashed.
    """

    __slots__ = ("_seen", "_importers", "_witnesses")

    def __init__(self) -> None:
        self._seen: dict[int, frozenset[TupleId]] = {}
        self._importers: dict[TupleId, set[int]] = {}
        self._witnesses: dict[int, tuple[int, TupleId]] = {}

    def sync(self, footprints: Mapping[int, frozenset[TupleId]]) -> None:
        """Make the index describe exactly the waiters in *footprints*."""
        seen = self._seen
        for pid in [pid for pid in seen if pid not in footprints]:
            self._unindex(pid)
        importers = self._importers
        for pid, now in footprints.items():
            before = seen.get(pid)
            if before is now:
                continue
            if before is None:
                added: Iterable[TupleId] = now
            else:
                added = now - before
                self._drop_tids(pid, before - now)
            for tid in added:
                holders = importers.get(tid)
                if holders is None:
                    importers[tid] = {pid}
                else:
                    holders.add(pid)
            seen[pid] = now

    def forget(self, pid: int) -> None:
        """Drop every entry naming *pid*, as a waiter or as a blocker."""
        if pid in self._seen:
            self._unindex(pid)
        witnesses = self._witnesses
        for waiter in [w for w, (runner, __) in witnesses.items() if runner == pid]:
            del witnesses[waiter]

    def pids(self) -> set[int]:
        """Every pid the index holds (bounded-memory checks)."""
        out = set(self._seen)
        for holders in self._importers.values():
            out |= holders
        for waiter, (runner, __) in self._witnesses.items():
            out.update((waiter, runner))
        return out

    def _unindex(self, pid: int) -> None:
        self._drop_tids(pid, self._seen.pop(pid))
        self._witnesses.pop(pid, None)

    def _drop_tids(self, pid: int, tids: Iterable[TupleId]) -> None:
        importers = self._importers
        for tid in tids:
            holders = importers[tid]
            holders.discard(pid)
            if not holders:
                del importers[tid]

    def _witnessed(self, pid: int, runner_footprint: RunnerFootprint) -> bool:
        """Does *pid* hold a witness that still blocks it?  Drops a stale one."""
        witness = self._witnesses.get(pid)
        if witness is None:
            return False
        runner, tid = witness
        if tid in self._seen[pid]:
            footprint = runner_footprint(runner)
            if footprint is not None and tid in footprint:
                return True
        del self._witnesses[pid]
        return False

    def unblocked(
        self,
        waiters: Iterable[int],
        runners: Callable[[], Iterable[int]],
        runner_footprint: RunnerFootprint,
    ) -> Iterator[frozenset[int]]:
        """The components of the synced waiters that no runner belongs to.

        Waiters are visited in *waiters* order and a component is yielded at
        its earliest member, which is :func:`partition`'s order.  A walk
        starts only at an unvisited waiter with no valid witness and stops
        at the first member that has one or is already known blocked.  A
        walk that completes pays the full :func:`blocking_runner` scan over
        *runners()* and, if blocked, records the witness on every member
        that imports the shared tid.
        """
        visited: set[int] = set()
        blocked: set[int] = set()
        for start in waiters:
            if start in visited or self._witnessed(start, runner_footprint):
                continue
            members, union, stopped = self._walk(start, blocked, runner_footprint)
            visited |= members
            if stopped:
                blocked |= members
                continue
            blocker = blocking_runner(union, runners(), runner_footprint)
            if blocker is not None:
                for owner in self._importers[blocker[1]]:
                    self._witnesses[owner] = blocker
                blocked |= members
                continue
            yield frozenset(members)

    def _walk(
        self, start: int, blocked: set[int], runner_footprint: RunnerFootprint
    ) -> tuple[set[int], set[TupleId], bool]:
        """``(members, tids, stopped)`` of the component of *start*.

        Each tid is expanded once, so a completed walk costs the component's
        index entries and its *tids* are the union footprint.  The walk
        stops as soon as it meets a member known blocked or holding a valid
        witness.
        """
        seen = self._seen
        importers = self._importers
        members = {start}
        expanded: set[TupleId] = set()
        queue = [start]
        for pid in queue:  # grows while walking
            for tid in seen[pid]:
                if tid in expanded:
                    continue
                expanded.add(tid)
                for other in importers[tid]:
                    if other in members:
                        continue
                    if other in blocked or self._witnessed(other, runner_footprint):
                        return members, expanded, True
                    members.add(other)
                    queue.append(other)
        return members, expanded, False


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
