"""Content-addressed wakeup: which parked item does a change reawaken?

When a delayed transaction (or a blocked selection / replication pump)
parks, the engine derives a :class:`Subscription` from the transaction's
query patterns: one :class:`AtomWatcher` per query atom (and per
:class:`~repro.core.query.Membership` pattern inside the test expression),
carrying the atom's arity plus every ``(position, value)`` constant
determinable from the process scope via
:meth:`~repro.core.patterns.Pattern.index_constants`.

The :class:`WakeupIndex` registers each watcher under its *full* probe
shape — the table of its ``(arity, positions)``, keyed by the values at
those positions; the empty shape when no constant is determinable — so a
dataspace change costs one hash probe per shape registered for each changed
tuple's arity instead of a scan of the blocked tasks.  The lookup is exact:
a bucket hit means every probe of the watcher equals the changed tuple's
field, so delivered wakes are exactly the changes that touch a tuple the
query could newly (mis)match, with no per-candidate verification
(:meth:`Subscription.matches` is the test oracle of that claim).

Soundness (at-least-once wake): a parked query's satisfiability can only
change when the dataspace gains or loses a tuple matching one of its atoms
under the constants known at park time; fewer known constants only widen a
watcher, so unevaluable fields degrade precision, never soundness.  Three
conservative fallbacks remain wake-on-any-change: configuration-dependent
views (``where`` context atoms), test expressions with unanalysable nodes,
and the explicit ``wake_filter="all"`` ablation.  ``wake_filter="arity"``
reproduces the seed's coarse per-arity filter (watchers without probes) for
A/B measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.expressions import BinOp, Call, Const, Expr, UnOp, Var
from repro.core.query import Membership, Query
from repro.core.transactions import Transaction
from repro.core.tuples import TupleInstance
from repro.core.views import View

__all__ = [
    "AtomWatcher",
    "Subscription",
    "WAKE_ANY",
    "WakeupStats",
    "WakeupIndex",
    "derive_subscription",
    "txn_arities",
]


@dataclass(slots=True)
class WakeupStats:
    """Aggregate counters over one engine run (exposed via ``RunResult``)."""

    key_watchers: int = 0     # watchers registered under a keyed shape
    arity_watchers: int = 0   # watchers registered under the empty shape
    any_subscriptions: int = 0  # parked items on the wake-on-any fallback
    wake_checks: int = 0      # subscriptions delivered from key buckets


class AtomWatcher:
    """One query atom's wake condition: arity plus known field constants.

    The ``(position, value)`` probes are kept unzipped — ``positions`` is
    the *shape* and ``values`` the key the wakeup and admission indexes
    file this watcher under.
    """

    __slots__ = ("arity", "positions", "values")

    def __init__(self, arity: int, probes: Sequence[tuple[int, Any]] = ()) -> None:
        self.arity = arity
        self.positions = tuple([position for position, __ in probes])
        self.values = tuple([value for __, value in probes])

    @property
    def probes(self) -> tuple[tuple[int, Any], ...]:
        return tuple(zip(self.positions, self.values))

    def matches(self, inst: TupleInstance) -> bool:
        if inst.arity != self.arity:
            return False
        values = inst.values
        return all(values[p] == v for p, v in zip(self.positions, self.values))

    def __repr__(self) -> str:
        body = ",".join(f"{p}={v!r}" for p, v in zip(self.positions, self.values))
        return f"watch(arity={self.arity}{',' + body if body else ''})"


class Subscription:
    """The wake condition of one parked item: any-change, or a watcher set."""

    __slots__ = ("wake_any", "watchers")

    def __init__(self, watchers: Sequence[AtomWatcher] = (), wake_any: bool = False) -> None:
        self.wake_any = wake_any
        self.watchers = tuple(watchers)

    def matches(self, instances: Iterable[TupleInstance]) -> bool:
        if self.wake_any:
            return True
        return any(w.matches(inst) for inst in instances for w in self.watchers)

    def __repr__(self) -> str:
        return "sub(ANY)" if self.wake_any else f"sub({list(self.watchers)!r})"


#: Shared wake-on-every-change subscription (conservative fallback).
WAKE_ANY = Subscription(wake_any=True)


# ----------------------------------------------------------------------
# subscription derivation
# ----------------------------------------------------------------------

def derive_subscription(
    txns: Sequence[Transaction],
    view: View,
    scope: dict[str, Any],
    mode: str = "keys",
) -> Subscription:
    """Build the wake condition for an item parking on *txns*.

    *mode*: ``"keys"`` (field-constant precision, the default),
    ``"arity"`` (the seed's per-arity filter), ``"all"`` (ablation: wake on
    every change).
    """
    if mode == "all" or view.config_dependent:
        return WAKE_ANY
    with_keys = mode == "keys"
    watchers: list[AtomWatcher] = []
    for txn in txns:
        got = _query_watchers(txn.query, scope, with_keys)
        if got is None:
            return WAKE_ANY
        watchers.extend(got)
    return Subscription(watchers)


def _query_watchers(
    query: Query, scope: dict[str, Any], with_keys: bool
) -> list[AtomWatcher] | None:
    watchers = [
        AtomWatcher(
            atom.pattern.arity,
            atom.pattern.index_constants(scope) if with_keys else (),
        )
        for atom in query.atoms
    ]
    if query.test is not None:
        got = _expr_watchers(query.test, scope, with_keys)
        if got is None:
            return None
        watchers.extend(got)
    return watchers


def _expr_watchers(
    expr: Expr, scope: dict[str, Any], with_keys: bool
) -> list[AtomWatcher] | None:
    if isinstance(expr, Membership):
        watchers = [
            AtomWatcher(
                pat.arity,
                pat.index_constants(scope) if with_keys else (),
            )
            for pat in expr.patterns
        ]
        if expr.test is not None:
            inner = _expr_watchers(expr.test, scope, with_keys)
            if inner is None:
                return None
            watchers.extend(inner)
        return watchers
    if isinstance(expr, BinOp):
        left = _expr_watchers(expr.left, scope, with_keys)
        right = _expr_watchers(expr.right, scope, with_keys)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(expr, UnOp):
        return _expr_watchers(expr.operand, scope, with_keys)
    if isinstance(expr, Call):
        out: list[AtomWatcher] = []
        for arg in expr.args:
            got = _expr_watchers(arg, scope, with_keys)
            if got is None:
                return None
            out.extend(got)
        return out
    if isinstance(expr, (Var, Const)):
        return []
    # Unknown expression node: be conservative.
    return None


def txn_arities(query: Query) -> set[int] | None:
    """Arities a change must touch to possibly affect *query*; None = any.

    The seed's coarse oracle, retained for the A3 ablation and as the
    refinement baseline of the wakeup-soundness property tests.
    """
    watchers = _query_watchers(query, {}, with_keys=False)
    if watchers is None:
        return None
    return {w.arity for w in watchers}


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------

class WakeupIndex:
    """Registry of parked items keyed by the full probe shape they watch.

    A watcher is an equality conjunction over ``(arity, positions ->
    values)``, so the index keeps one table per ``(arity, positions)``
    *shape*, keyed by the tuple of values at those positions:
    ``arity -> {positions: {values: {tid}}}``; a probe-less watcher is the
    empty shape ``()``.  A changed instance is looked up once per shape
    registered for its arity, and every bucket hit is a delivered wake —
    there is no candidate verification.

    Items are any objects with a ``tid``; registration order is preserved
    (re-registering a parked item under a new subscription keeps its slot)
    so wake delivery stays FIFO — the weak-fairness order of the seed.
    """

    __slots__ = ("stats", "obs", "_items", "_subs", "_any", "_shapes", "_order", "_seq")

    def __init__(self, stats: WakeupStats | None = None, obs=None) -> None:
        self.stats = stats if stats is not None else WakeupStats()
        #: Observability hook (``repro.obs.Observability`` or ``None``);
        #: ``None`` keeps :meth:`affected` on the original path.
        self.obs = obs
        self._items: dict[int, Any] = {}
        self._subs: dict[int, Subscription] = {}
        self._any: set[int] = set()
        #: arity -> positions -> values at those positions -> tids.
        self._shapes: dict[int, dict[tuple[int, ...], dict[tuple, set[int]]]] = {}
        self._order: dict[int, int] = {}  # tid -> registration sequence
        self._seq = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, tid: int) -> bool:
        return tid in self._items

    def items(self) -> list[Any]:
        """Registered items in FIFO registration order (deadlock reports)."""
        return [self._items[tid] for tid in sorted(self._items, key=self._order.__getitem__)]

    def get(self, tid: int) -> Any | None:
        return self._items.get(tid)

    # ------------------------------------------------------------------
    def add(self, item: Any, sub: Subscription) -> None:
        """Register (or re-register) *item* under *sub*."""
        tid = item.tid
        if tid in self._items:
            original = self._order[tid]
            self._unlink(tid)
            self._order[tid] = original  # keep the FIFO slot on re-park
        else:
            self._seq += 1
            self._order[tid] = self._seq
        self._items[tid] = item
        self._subs[tid] = sub
        if sub.wake_any:
            self._any.add(tid)
            self.stats.any_subscriptions += 1
            return
        for watcher in sub.watchers:
            shapes = self._shapes.setdefault(watcher.arity, {})
            table = shapes.setdefault(watcher.positions, {})
            table.setdefault(watcher.values, set()).add(tid)
            if watcher.positions:
                self.stats.key_watchers += 1
            else:
                self.stats.arity_watchers += 1

    def discard(self, tid: int) -> None:
        """Remove *tid* from the index (no-op when absent)."""
        if tid not in self._items:
            return
        self._unlink(tid)
        self._order.pop(tid, None)

    def _unlink(self, tid: int) -> None:
        del self._items[tid]
        sub = self._subs.pop(tid)
        self._any.discard(tid)
        if sub.wake_any:
            return
        for watcher in sub.watchers:
            # Two watchers of one subscription may share a bucket: the
            # second finds it already emptied and pruned.
            shapes = self._shapes.get(watcher.arity)
            table = shapes.get(watcher.positions) if shapes is not None else None
            bucket = table.get(watcher.values) if table is not None else None
            if bucket is None:
                continue
            bucket.discard(tid)
            if not bucket:
                del table[watcher.values]
                if not table:
                    del shapes[watcher.positions]
                    if not shapes:
                        del self._shapes[watcher.arity]

    # ------------------------------------------------------------------
    def affected(self, instances: Sequence[TupleInstance]) -> list[Any]:
        """Items whose subscription matches the changed *instances*.

        Returned in FIFO registration order; items are *not* removed (the
        engine decides — consensus-tagged selections stay registered).
        """
        if not self._items:
            return []
        obs = self.obs
        start = obs.spans.now() if obs is not None else 0
        keyed: set[int] = set()
        by_arity = self._shapes
        for inst in instances:
            values = inst.values
            shapes = by_arity.get(len(values))
            if shapes is None:
                continue
            for positions, table in shapes.items():
                bucket = table.get(tuple([values[p] for p in positions]))
                if bucket is not None:
                    keyed |= bucket
        # Wake-on-any items are in no key bucket, so the sets are disjoint.
        checked = len(keyed)
        self.stats.wake_checks += checked
        woken = keyed | self._any
        out = [self._items[tid] for tid in sorted(woken, key=self._order.__getitem__)]
        if obs is not None:
            obs.observe_ns(
                "wakeup",
                start,
                obs.spans.now() - start,
                {"changed": len(instances), "checked": checked, "woken": len(out)},
            )
        return out
