"""Views and windows — SDL's relativistic abstraction mechanism.

Each process carries a :class:`View` made of **import** and **export** rule
sets.  At the start of every transaction the runtime computes the process's
*window* ``W = Import(p) ∩ D``; the transaction is evaluated against the
window as if it were the whole dataspace.  Retractions of window tuples map
back to retractions of the underlying instances; assertions are admitted
only if covered by the export set (``D' = (D - W_r) ∪ (Export(p) ∩ W_a)``).

A :class:`ViewRule` is a pattern plus an optional guard, e.g. the paper's ::

    IMPORT  alpha : alpha <= 87 => <year, alpha>

is ``ViewRule(P["year", a], guard=(a <= 87))``.

SDL additionally "allows the view to depend upon the current configuration
of the dataspace" (Section 3.3): a rule may carry ``where`` context atoms
that must be satisfiable in the *full* dataspace for the rule to cover a
tuple.  This is what lets the region-labeling ``Label`` process import
exactly the tuples of its own region's 4-connected neighbourhood.

A restricted window is its import **footprint**, the set of live
instances its rules cover.  Its first refresh materialises the footprint
through the dataspace indexes (:meth:`Window._materialise`, also the test
oracle) and makes the window a member of the dataspace's
:class:`WindowRouter`.  From then on the footprint is **maintained, not
recomputed**: the router pulls the delta journal
(:meth:`Dataspace.changes_since`) once per version for all its members and
files each changed instance only into the inboxes of the windows that can
import it; a window's refresh drains its own inboxes, and its lookups are
footprint membership.  Retracted instances are evicted and asserted
instances are classified on arrival.  For ordinary rules (pattern + guard)
that is everything, because an import decision depends only on the tuple's
own values and the process parameters.  A rule carrying ``where`` context
atoms makes coverage configuration-dependent: a changed instance that can
be a witness of a ``where`` atom under the window's params may flip the
decision for the head instances it joins with, so exactly those are
re-decided (:meth:`Window._reclassify`, seeded by :func:`_support_seeds`)
— by the ordinary :meth:`View.imports_value`, against the current
dataspace.  Only a journal gap or :meth:`Window.detach` takes a window out
of the router; its next refresh materialises the footprint again.
:class:`WindowStats` counts hits/misses/delta-vs-full refreshes so the
incrementality is observable from :class:`~repro.runtime.engine.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.dataspace import JOURNAL_DEPTH, Dataspace
from repro.core.expressions import (
    Bindings, Const, Expr, NamedKeys, evaluator, is_pure, named_keys,
)
from repro.core.patterns import LitElement, Pattern, VarElement, pattern as make_pattern
from repro.core.tuples import TupleId, TupleInstance
from repro.errors import SDLError, ViewError

__all__ = [
    "ViewRule",
    "View",
    "Window",
    "WindowStats",
    "WindowRouter",
    "FULL_VIEW",
    "import_rule",
    "export_rule",
]


class ViewRule:
    """One import or export rule: a pattern, an optional guard, and optional
    configuration-context atoms (``where``) evaluated against the full
    dataspace."""

    __slots__ = ("pattern", "guard", "where", "_check", "_guard_first", "_named", "_keyed")

    def __init__(
        self,
        pat: Pattern,
        guard: Expr | None = None,
        where: Sequence[Pattern] = (),
    ) -> None:
        if not isinstance(pat, Pattern):
            raise ViewError(f"view rule needs a Pattern, got {pat!r}")
        self.pattern = pat
        #: Guard variables bound by neither the pattern nor a ``where`` atom
        #: must be process parameters; they are checked when the rule is
        #: evaluated, not here.
        self.guard = guard
        self.where = tuple(where)
        #: The guard's evaluator, built on first use (:meth:`covers`).
        self._check: Any = None
        #: The guard may be asked before the ``where`` atoms: it is pure and
        #: no atom has a literal expression field, so ``where`` cannot raise
        #: and the order changes no verdict and no exception.
        self._guard_first = (
            bool(self.where)
            and guard is not None
            and is_pure(guard)
            and not any(
                isinstance(element, LitElement) and not isinstance(element.expr, Const)
                for atom in self.where
                for element in atom.elements
            )
        )
        #: :func:`named_keys` of the guard, per key variable, on first use.
        self._named: dict[str, NamedKeys | None] = {}
        #: :func:`_rule_key` per tuple of parameter names, on first use.
        self._keyed: dict[tuple, tuple | None] = {}

    def named(self, name: str) -> NamedKeys | None:
        """How the guard names the values of variable *name*, or ``None``."""
        try:
            return self._named[name]
        except KeyError:
            spec = self._named[name] = named_keys(self.guard, name)
            return spec

    def __reduce__(self):
        # Rebuild from the fields alone: the compiled guard is generated code.
        return (ViewRule, (self.pattern, self.guard, self.where))

    def covers(
        self,
        values: tuple,
        dataspace: Dataspace,
        params: Mapping[str, Any],
    ) -> bool:
        """Does this rule cover the value tuple *values*?

        *params* are the owning process's parameters, visible to the
        pattern, the guard, and the ``where`` atoms.  The reference order
        is pattern, ``where``, guard; a guard that raises is a
        :class:`~repro.errors.ViewError` where that order reaches it.  When
        the guard may go first (``_guard_first``) a false guard skips the
        ``where`` probe, and a raising one is reported only if ``where``
        passes — the same verdict and the same error either way.
        """
        new = self.pattern.match(values, params)
        if new is None:
            return False
        merged = {**params, **new}
        if self._guard_first:
            try:
                if not self._passes_guard(merged):
                    return False
            except SDLError:
                if _where_satisfiable(dataspace, self.where, merged):
                    raise
                return False
            return _where_satisfiable(dataspace, self.where, merged)
        if self.where and not _where_satisfiable(dataspace, self.where, merged):
            return False
        return self.guard is None or self._passes_guard(merged)

    def covers_named(self, values: tuple, dataspace: Dataspace, params: Mapping[str, Any]) -> bool:
        """:meth:`covers` for a keyable rule whose guard is known to be
        true on *values*' key field: pattern, then ``where``.  Neither
        can raise on a keyable rule (:func:`_rule_key`)."""
        new = self.pattern.match(values, params)
        if new is None:
            return False
        return not self.where or _where_satisfiable(dataspace, self.where, {**params, **new})

    def _passes_guard(self, env: dict[str, Any]) -> bool:
        check = self._check
        if check is None:
            check = self._check = evaluator(self.guard)
        try:
            return bool(check(env))
        except SDLError:
            raise
        except Exception as exc:
            raise ViewError(
                f"guard of view rule {self!r} cannot be evaluated under "
                f"{Bindings(env)!r}: {type(exc).__name__}: {exc}"
            ) from exc

    def __repr__(self) -> str:
        parts = [repr(self.pattern)]
        if self.guard is not None:
            parts.append(f"if {self.guard!r}")
        if self.where:
            parts.append("where " + ", ".join(repr(w) for w in self.where))
        return " ".join(parts)


def _where_satisfiable(
    dataspace: Dataspace,
    atoms: Sequence[Pattern],
    bound: dict[str, Any],
) -> bool:
    """Existential conjunctive match of *atoms* against the full dataspace."""
    if not atoms:
        return True
    head, rest = atoms[0], atoms[1:]
    for inst in dataspace.candidates(head, bound):
        new = head.match(inst.values, bound)
        if new is None:
            continue
        if _where_satisfiable(dataspace, rest, {**bound, **new}):
            return True
    return False


def _params_fix(pat: Pattern, params: Mapping[str, Any]) -> tuple[tuple[int, Any], ...]:
    """``(position, value)`` for the fields of *pat* the params alone fix."""
    try:
        return tuple(pat.index_constants(params))
    except Exception:
        # A literal that raises under the params constrains nothing here;
        # the error belongs to the evaluation that reaches that field.
        return ()


def _support_seeds(view: "View", params: Mapping[str, Any]) -> list[tuple]:
    """One seed per ``(import rule, where atom)`` of a configuration-
    dependent *view*, resolved under *params*.

    A seed ``(arity, fixed, repeats, head_arity, head_probes, links, rule)`` tests
    whether a changed instance can be a witness of the ``where`` atom **under
    the params alone** — right arity, the fields the params fix
    (``fixed``: constants, param-bound variables, literals over params) equal,
    a repeated variable agreeing with itself (``repeats``) — leaving fields
    that depend on head- or where-bound variables unconstrained.  For such an
    instance the head instances whose verdict it can flip are fetched with
    ``head_probes`` (the rule pattern's own params-fixed fields) plus, per
    ``(head position, witness position)`` in ``links``, the witness's value
    for each variable the atom shares with the rule pattern.
    """
    seeds = []
    for rule in view.imports:
        if not rule.where:
            continue
        head = rule.pattern
        head_probes = _params_fix(head, params)
        for atom in rule.where:
            binders: dict[str, int] = {}
            repeats = []
            for position, element in enumerate(atom.elements):
                if isinstance(element, VarElement) and element.name not in params:
                    first = binders.setdefault(element.name, position)
                    if first != position:
                        repeats.append((first, position))
            links = tuple(
                (position, binders[element.name])
                for position, element in enumerate(head.elements)
                if isinstance(element, VarElement) and element.name in binders
            )
            seeds.append(
                (atom.arity, _params_fix(atom, params), tuple(repeats),
                 head.arity, head_probes, links, rule)
            )
    return seeds


def _as_rule(rule: "ViewRule | Pattern") -> ViewRule:
    if isinstance(rule, ViewRule):
        return rule
    if isinstance(rule, Pattern):
        return ViewRule(rule)
    raise ViewError(f"expected ViewRule or Pattern, got {rule!r}")


def import_rule(*fields: Any, guard: Expr | None = None, where: Sequence[Pattern] = ()) -> ViewRule:
    """Build an import rule from pattern fields (sugar over :class:`ViewRule`)."""
    return ViewRule(make_pattern(*fields), guard=guard, where=where)


#: Export rules have the same shape as import rules.
export_rule = import_rule


class View:
    """A process view: import and export rule sets.

    ``View.full()`` (also exposed as :data:`FULL_VIEW`) is the unrestricted
    view used when a process definition omits its view — "we will omit it
    whenever the view covers the entire dataspace".
    """

    __slots__ = ("imports", "exports", "unrestricted", "config_dependent", "_routes")

    def __init__(
        self,
        imports: Iterable[ViewRule | Pattern] | None = None,
        exports: Iterable[ViewRule | Pattern] | None = None,
    ) -> None:
        self.imports: tuple[ViewRule, ...] | None = (
            None if imports is None else tuple(_as_rule(r) for r in imports)
        )
        self.exports: tuple[ViewRule, ...] | None = (
            None if exports is None else tuple(_as_rule(r) for r in exports)
        )
        self.unrestricted = self.imports is None and self.exports is None
        #: Some import rule carries ``where`` context atoms: a decision can
        #: change when *other* instances come or go, so a consumer caching
        #: decisions must re-decide on support changes (:class:`Window`) or
        #: react to any change (the wake filter).
        self.config_dependent = bool(self.imports) and any(
            rule.where for rule in self.imports
        )
        #: arity -> (rules without a constant head, {head value: rules}),
        #: built on first use (:meth:`imports_value`).
        self._routes: dict[int, tuple] = {}

    @classmethod
    def full(cls) -> "View":
        return cls(None, None)

    def imports_value(
        self, values: tuple, dataspace: Dataspace, params: Mapping[str, Any]
    ) -> bool:
        if self.imports is None:
            return True
        return any(rule.covers(values, dataspace, params) for rule in self._routed(values))

    def _routed(self, values: tuple) -> tuple[ViewRule, ...]:
        """The import rules whose pattern can match *values*, in rule order.

        :meth:`Pattern.match` fails a rule of another arity, or one whose
        position 0 is a constant unequal to ``values[0]``, before anything
        else, so skipping those rules changes no verdict.  A value equal to
        no rule's head constant gets the rules without one.
        """
        route = self._routes.get(len(values))
        if route is None:
            route = self._routes[len(values)] = _route(self.imports, len(values))
        general, by_head = route
        return by_head.get(values[0], general) if by_head else general

    def exports_value(
        self, values: tuple, dataspace: Dataspace, params: Mapping[str, Any]
    ) -> bool:
        if self.exports is None:
            return True
        return any(rule.covers(values, dataspace, params) for rule in self.exports)

    def window(self, dataspace: Dataspace, params: Mapping[str, Any] | None = None) -> "Window":
        return Window(dataspace, self, dict(params or {}))

    def instance_key(self, params: Mapping[str, Any]) -> Any:
        """The view instance under *params*, whose window its processes
        share: ``None`` for every unrestricted view (D), else the view and
        the parameters by type and value (:func:`_typed`), or a key of its
        own if a parameter has no hash."""
        key = None if self.unrestricted else (self, _typed(tuple(params.items())))
        try:
            hash(key)
        except TypeError:
            return self, object()
        return key

    def __repr__(self) -> str:
        if self.unrestricted:
            return "View(FULL)"
        imp = "ALL" if self.imports is None else list(self.imports)
        exp = "ALL" if self.exports is None else list(self.exports)
        return f"View(import={imp}, export={exp})"


def _head_constant(rule: ViewRule) -> tuple[bool, Any]:
    element = rule.pattern.elements[0]
    if isinstance(element, LitElement) and isinstance(element.expr, Const):
        return True, element.expr.value
    return False, None


def _route(rules: tuple[ViewRule, ...], arity: int) -> tuple:
    """``(general, by_head)`` for the *arity* rules (:meth:`View._routed`)."""
    rules = tuple(rule for rule in rules if rule.pattern.arity == arity)
    heads = [_head_constant(rule) for rule in rules]
    general = tuple(rule for rule, (fixed, __) in zip(rules, heads) if not fixed)
    by_head: dict[Any, tuple[ViewRule, ...]] = {}
    for fixed, value in heads:
        # ``value == value`` leaves out NaN, which Pattern.match never
        # equals but a dict lookup would find by identity.
        if fixed and value == value and value not in by_head:
            by_head[value] = tuple(
                rule for rule, (has, head) in zip(rules, heads)
                if not has or head == value
            )
    return general, by_head


#: The unrestricted view covering the entire dataspace.
FULL_VIEW = View.full()


@dataclass(slots=True)
class WindowStats:
    """Reactivity counters for one window (aggregated into ``RunResult``).

    ``hits`` counts import decisions answered by footprint membership:
    every row of an enumeration a restricted window filters, and every
    :meth:`Window.imports_instance` of a live instance.  ``misses`` counts
    lookups of instances that are not live, which no footprint holds, so
    the rules decide them; classification during refresh counts as
    neither.  ``delta_refreshes`` counts refreshes that drained inboxes,
    ``full_invalidations`` those that rebuilt a footprint a journal gap
    made stale, and ``footprint_recomputes`` every materialisation.
    """

    hits: int = 0
    misses: int = 0
    delta_refreshes: int = 0
    full_invalidations: int = 0
    footprint_recomputes: int = 0

    def absorb(self, other: "WindowStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.delta_refreshes += other.delta_refreshes
        self.full_invalidations += other.full_invalidations
        self.footprint_recomputes += other.footprint_recomputes


class Window:
    """``W = Import(p) ∩ D`` for one view instance, shared by its processes.

    The window exposes the same content-addressing surface as the dataspace
    (:meth:`candidates`, :meth:`find_matching`, :meth:`count_matching`).
    An unrestricted window passes the dataspace through.  A restricted one
    is its **footprint**, the set of instances its import rules cover, and
    filters every enumeration by membership in it.  :meth:`refresh` brings
    the footprint to the dataspace's version: a window that is no member
    of the dataspace's :class:`WindowRouter` (never refreshed, detached, or
    dropped by a journal gap) materialises it from scratch and joins; a
    member drains the inboxes the router filed its changes into — also for
    configuration-dependent views (``where`` atoms).  So a view guard that
    raises on a live tuple its rules reach raises at every refresh.
    """

    __slots__ = (
        "dataspace", "view", "params", "stats", "planner", "key",
        "_version", "_footprint", "_footprint_frozen", "_seeds",
        "_router", "_inbox", "_support", "_named", "_log", "_last",
    )

    def __init__(self, dataspace: Dataspace, view: View, params: dict[str, Any]) -> None:
        self.dataspace = dataspace
        self.view = view
        self.params = params
        self.stats = WindowStats()
        #: Engine-attached :class:`repro.core.plan.QueryPlanner` (or ``None``
        #: for the naive textual-order walk).  Query evaluation dispatches on
        #: this attribute, so a bare ``View.window(...)`` — e.g. the serial
        #: replay of ``validate_serial_equivalence`` — stays naive.
        self.planner = None
        #: The engine's key for the view instance (:meth:`View.instance_key`).
        self.key = None
        #: The dataspace version the window is current at; ``None`` until
        #: the first refresh and whenever the window leaves the router.
        self._version: int | None = None
        #: The footprint of a restricted view, ``None`` until materialised.
        #: It is current only while the window is a router member; one left
        #: after a journal gap marks the next refresh a full invalidation.
        self._footprint: set[TupleId] | None = None
        self._footprint_frozen: frozenset[TupleId] | None = None
        #: :func:`_support_seeds` of a ``where``-view, resolved when the
        #: window first joins (they depend only on the view and the params).
        self._seeds: list[tuple] | None = None
        #: The dataspace's :class:`WindowRouter` while this window is one
        #: of its members, and the two inboxes it files changed instances
        #: into: ``_inbox`` for the import rules, ``_support`` for the
        #: ``where`` support seeds.
        self._router: WindowRouter | None = None
        self._inbox: _Inbox | None = None
        self._support: _Inbox | None = None
        #: Per import rule whose guard names its keys under the params
        #: (:func:`_named_rules`), ``(key position, key set, NamedKeys)``;
        #: resolved at the first materialisation.
        self._named: dict[ViewRule, tuple] | None = None
        #: While a consensus index watches the window (from its first
        #: :meth:`settle`), the tids whose footprint membership changed
        #: since the last one, oldest first; else ``None``.
        self._log: list[TupleId] | None = None
        #: The last probe: ``(version, arity, probes, store rows, rows)``.
        self._last: tuple = (None, None, None, 0, None)

    def refresh(self) -> "Window":
        """Bring the footprint to the dataspace's current version."""
        version = self.dataspace.version
        if self._version == version:
            return self
        if self.view.imports is None:
            # Unrestricted import: the footprint is D.
            self._footprint_frozen = None
            self._version = version
            return self
        router = self._router
        if router is not None:
            # However far behind the window is, the router has filed every
            # change its rules can import; only a router gap or an
            # overflowing inbox makes it leave.
            router.catch_up()
        if self._router is not None:
            self._drain()
            self.stats.delta_refreshes += 1
        else:
            if self._footprint is not None:  # left by a journal gap
                self._footprint = self._footprint_frozen = None
                self.stats.full_invalidations += 1
            self._materialise()
        self._version = version
        return self

    def _materialise(self) -> None:
        """Compute the footprint from scratch and join the router.

        Rule by rule through the dataspace's content-addressing indexes,
        so a narrowly-scoped view pays O(|window|), not O(|D|).  A rule
        whose guard names its keys (:func:`_named_rules`) probes those
        keys, plus the router's live instances with a key outside the
        guard's domain, instead of its head bucket, and its guard is not
        asked on an in-domain key; any other keyable rule's guard is asked
        once per key value, and ``covers`` only for the candidates it
        admits.  This is also the test oracle for the footprint the router
        maintains.
        """
        self.stats.footprint_recomputes += 1
        dataspace, params = self.dataspace, self.params
        router = WindowRouter.of(dataspace)
        router.catch_up()
        if self._named is None:
            self._named = _named_rules(self.view, params)
        out: set[TupleId] = set()
        verdicts: dict[ViewRule, dict[Any, bool]] = {}
        for rule in self.view.imports:
            admits = _key_filter(rule, params, verdicts.setdefault(rule, {}))
            named = self._named.get(rule)
            rows = None if named is None else router.named_rows(rule, params, named)
            if rows is None:
                rows = dataspace.candidates(rule.pattern, params)
            for inst in rows:
                tid = inst.tid
                if tid in out:
                    continue
                values = inst.values
                if named is not None:
                    position, keys, spec = named
                    key = values[position]
                    if spec.within(key):
                        if key in keys and rule.covers_named(values, dataspace, params):
                            out.add(tid)
                        continue
                if (admits is None or admits(values)) and rule.covers(values, dataspace, params):
                    out.add(tid)
        router.join(self, verdicts)
        self._footprint = out
        self._footprint_frozen = None

    def _decide(self, values: tuple) -> bool:
        """:meth:`View.imports_value` for a window with named rules
        (:attr:`_named`), a named rule's guard answered by its key set on
        an in-domain key: same verdict, same error, no guard call."""
        named = self._named
        dataspace, params = self.dataspace, self.params
        for rule in self.view._routed(values):
            entry = named.get(rule)
            if entry is not None:
                position, keys, spec = entry
                key = values[position]
                if spec.within(key):
                    if key in keys and rule.covers_named(values, dataspace, params):
                        return True
                    continue
            if rule.covers(values, dataspace, params):
                return True
        return False

    def _drain(self) -> None:
        """Fold the window's inboxes into its footprint.

        An instance filed for the import rules is decided again if it is
        still live and evicted otherwise; one filed for the support seeds
        goes through :meth:`_reclassify`.  The inboxes are emptied only
        after the fold: a raising guard leaves them whole, so the next
        refresh raises again.
        """
        inbox = self._inbox
        if inbox:
            dataspace, params = self.dataspace, self.params
            footprint = self._footprint
            named, decide = self._named, self.view.imports_value
            log = self._log
            for inst in inbox:
                tid = inst.tid
                if tid in dataspace and (
                    self._decide(inst.values) if named else decide(inst.values, dataspace, params)
                ):
                    if tid not in footprint:
                        footprint.add(tid)
                        self._footprint_frozen = None
                        if log is not None:
                            log.append(tid)
                elif tid in footprint:
                    footprint.discard(tid)
                    self._footprint_frozen = None
                    if log is not None:
                        log.append(tid)
            inbox.clear()
        support = self._support
        if support:
            self._reclassify(support)
            support.clear()

    def _reclassify(self, changed: Iterable[TupleInstance]) -> None:
        """Re-decide the instances whose ``where`` support *changed* touched.

        Every changed instance (asserted or retracted) is tested against
        the window's support seeds; one that can be a ``where`` witness
        names, through the variables it shares with the rule head, the head
        instances whose verdict it can flip.  Those get the ordinary
        decision again, into the footprint.  Verdicts come from
        :meth:`View.imports_value` against the *current* dataspace, so
        neither fold order nor re-deciding a superset matters.
        """
        # Keyed by probe list, so several witnesses of one head instance
        # cost one fetch; a dict, so the fetch order is the journal's.
        fetches: dict[tuple, None] = {}
        for inst in changed:
            values = inst.values
            for arity, fixed, repeats, head_arity, head_probes, links, __ in self._seeds:
                if (
                    len(values) == arity
                    and all(values[pos] == value for pos, value in fixed)
                    and all(values[a] == values[b] for a, b in repeats)
                ):
                    probes = head_probes + tuple(
                        (head_pos, values[pos]) for head_pos, pos in links
                    )
                    fetches[head_arity, probes] = None
        footprint = self._footprint
        log = self._log
        dataspace, params = self.dataspace, self.params
        named, decide = self._named, self.view.imports_value
        for head_arity, probes in fetches:
            for inst in dataspace.candidates_probed(head_arity, probes):
                tid = inst.tid
                values = inst.values
                covered = self._decide(values) if named else decide(values, dataspace, params)
                if covered != (tid in footprint):
                    if covered:
                        footprint.add(tid)
                    else:
                        footprint.discard(tid)
                    self._footprint_frozen = None
                    if log is not None:
                        log.append(tid)

    def imports_instance(self, inst: TupleInstance) -> bool:
        if self.view.imports is None:
            return True
        self.refresh()
        if inst.tid in self.dataspace:
            self.stats.hits += 1
            return inst.tid in self._footprint
        # Not live, so in no footprint: decided, not remembered.
        self.stats.misses += 1
        return self.view.imports_value(inst.values, self.dataspace, self.params)

    def __contains__(self, tid: TupleId) -> bool:
        if tid not in self.dataspace:
            return False
        return self.imports_instance(self.dataspace.get(tid))

    def _imported(self, raw: list[TupleInstance]) -> list[TupleInstance]:
        """Filter one enumeration through the import rules of a restricted
        view: one refresh, then a footprint membership test per row (every
        row is live)."""
        if not raw:
            return raw
        self.refresh()
        self.stats.hits += len(raw)
        footprint = self._footprint
        return [inst for inst in raw if inst.tid in footprint]

    def candidates(
        self, pat: Pattern, bound: Mapping[str, Any] | None = None
    ) -> list[TupleInstance]:
        """Candidate instances for *pat* within the window."""
        raw = self.dataspace.candidates(pat, bound)
        if self.view.imports is None:
            return raw
        return self._imported(raw)

    def candidates_probed(
        self, arity: int, probes: list[tuple[int, Any]]
    ) -> list[TupleInstance]:
        """Probe-intersected candidates within the window (planner path).

        An unrestricted window passes the dataspace's rows through, so the
        result may be a store bucket itself: read-only, valid until the
        next mutation (``Dataspace.candidates_probed``).  A restricted window
        answers a probe repeated at one version as :meth:`_imported` did
        (rows, refresh, hits), so its sharers fetch and filter once.
        """
        if self.view.imports is None:
            return self.dataspace.candidates_probed(arity, probes)
        version, last = self.dataspace.version, self._last
        if last[0] == version and last[1] == arity and last[2] == probes:
            if last[3]:
                self.refresh()
                self.stats.hits += last[3]
            return last[4]
        raw = self.dataspace.candidates_probed(arity, probes)
        rows = self._imported(raw)
        self._last = (version, arity, probes, len(raw), rows)
        return rows

    def find_matching(
        self, pat: Pattern, bound: Mapping[str, Any] | None = None
    ) -> list[TupleInstance]:
        bound = dict(bound or {})
        return [
            inst
            for inst in self.candidates(pat, bound)
            if pat.match(inst.values, bound) is not None
        ]

    def count_matching(self, pat: Pattern, bound: Mapping[str, Any] | None = None) -> int:
        return len(self.find_matching(pat, bound))

    def instances(self) -> Iterator[TupleInstance]:
        """Iterate the window contents."""
        if self.view.imports is None:
            return self.dataspace.instances()
        return iter(self._imported(list(self.dataspace.instances())))

    def footprint(self) -> frozenset[TupleId]:
        """The set of dataspace instances this window imports.

        Used by the consensus engine's ``needs`` overlap test.  Materialised
        at the window's first refresh (:meth:`_materialise`) and thereafter
        maintained **incrementally** by the dataspace's :class:`WindowRouter`:
        a mutation costs the windows it can reach O(delta), and the others
        nothing — this is what keeps consensus detection tractable for
        societies of thousands of processes.
        """
        self.refresh()
        if self.view.imports is None:
            if self._footprint_frozen is None:
                self._footprint_frozen = self.dataspace.tids()
            return self._footprint_frozen
        if self._footprint_frozen is None:
            self._footprint_frozen = frozenset(self._footprint)
        return self._footprint_frozen

    def detach(self) -> None:
        """Leave the dataspace's router and drop the footprint (a dropped
        process's window).  A detached window that is used again
        materialises its footprint afresh and rejoins."""
        if self._router is not None:
            self._router.leave(self)
        self._footprint = self._footprint_frozen = None

    def unwatch(self) -> list[TupleId]:
        """Stop logging; the changes logged since the last :meth:`settle`."""
        log, self._log = self._log or [], None
        return log

    def settle(self) -> tuple[set[TupleId], list[TupleId] | None]:
        """Refresh a restricted window, log its footprint changes from now
        on, and return its footprint set itself (read-only) and the tids
        whose membership changed since the last call, oldest first
        (``None`` if it was not logging).  A tid may repeat; its current
        membership is the net change.  After a re-materialisation the
        footprint is a new set (and the log still names what changed in
        the old one)."""
        self.refresh()
        log = self._log
        self._log = []
        return self._footprint, log

    def overlaps(self, other: "Window") -> bool:
        """The paper's ``p needs q``: ``Import(p) ∩ Import(q) ∩ D ≠ ∅``."""
        mine, theirs = self.footprint(), other.footprint()
        if len(mine) > len(theirs):
            mine, theirs = theirs, mine
        return any(tid in theirs for tid in mine)

    def exports_value(self, values: tuple) -> bool:
        return self.view.exports_value(values, self.dataspace, self.params)


#: Key verdicts one keyed rule keeps before its table starts over (the
#: router's bound, like the planner's ``_MAX_CACHE_ENTRIES``).
MAX_ROUTER_KEYS = 4096

#: The route of a rule or seed whose position 0 is no constant: every
#: change of its arity.
_ANY_HEAD = object()

class _Inbox(list):
    """Changed instances filed for one member window, oldest first."""

    __slots__ = ("window",)


def _head(fixed: Iterable[tuple[int, Any]]) -> Any:
    """The value *fixed* (``(position, value)`` pairs) gives position 0,
    else :data:`_ANY_HEAD`: the route a pattern or seed is filed under."""
    for position, value in fixed:
        if position == 0:
            try:
                hash(value)
            except TypeError:
                break
            # NaN equals no field, but a dict finds the same object.
            if value == value:
                return value
    return _ANY_HEAD


def _rule_key(rule: ViewRule, params: Mapping[str, Any]) -> tuple | None:
    """``(names, positions)`` when *rule* is keyable under *params*: its
    guard is pure and reads, beyond the params, only *names*, which the
    pattern binds at *positions*; no pattern literal can raise; and no
    ``where`` atom is asked before the guard.  Then a tuple whose key
    fields the guard rejects is not covered, whatever else holds.
    Memoised on the rule by parameter names."""
    shape = tuple(params)
    try:
        return rule._keyed[shape]
    except KeyError:
        key = rule._keyed[shape] = _keyable(rule, params)
        return key


def _keyable(rule: ViewRule, params: Mapping[str, Any]) -> tuple | None:
    guard = rule.guard
    if guard is None or not is_pure(guard) or (rule.where and not rule._guard_first):
        return None
    first: dict[str, int] = {}
    for position, element in enumerate(rule.pattern.elements):
        if isinstance(element, LitElement) and not isinstance(element.expr, Const):
            return None
        if isinstance(element, VarElement) and element.name not in params:
            first.setdefault(element.name, position)
    names = tuple(sorted(guard.free_variables() - params.keys()))
    if not names or any(name not in first for name in names):
        return None
    return names, tuple(first[name] for name in names)


def _guard_admits(
    rule: ViewRule, names: tuple[str, ...], params: Mapping[str, Any], key: Any
) -> bool:
    """Does *rule*'s guard, under *params* and the key fields *names* =
    *key*, leave the tuple to ``covers``?  A raising guard does: the
    classification that follows raises the same :class:`ViewError`."""
    env = dict(params)
    if len(names) == 1:
        env[names[0]] = key
    else:
        env.update(zip(names, key))
    try:
        return rule._passes_guard(env)
    except SDLError:
        return True


def _typed(key: Any) -> Any:
    """*key* as verdicts and view instances are filed under: by type and
    value (a float with its sign), element-wise through tuples, so ``1``,
    ``1.0``, ``True`` and ``0.0``, ``-0.0`` each get the guard's own
    verdict.  ``int`` and ``str`` keys stand for themselves."""
    kind = type(key)
    if kind is int or kind is str:
        return key
    if kind is tuple:
        return tuple(map(_typed, key))
    return (kind, key, copysign(1.0, key)) if kind is float else (kind, key)


def _key_filter(rule: ViewRule, params: Mapping[str, Any], seen: dict[Any, bool]):
    """``values -> bool``, the guard's verdict on a tuple's key fields
    asked once per key (:func:`_typed`) and kept in *seen*, for a rule
    keyable under *params*; else ``None``."""
    key = _rule_key(rule, params)
    if key is None:
        return None
    names, positions = key
    key_of = itemgetter(*positions)

    def admits(values: tuple) -> bool:
        k = key_of(values)
        typed = _typed(k)
        verdict = seen.get(typed)
        if verdict is None:
            verdict = seen[typed] = _guard_admits(rule, names, params, k)
        return verdict

    return admits


def _named_rules(view: View, params: Mapping[str, Any]) -> dict[ViewRule, tuple]:
    """The import rules of *view* whose guard names its keys under
    *params*: ``rule -> (key position, key set, NamedKeys)``.

    The rule must be keyable on one pattern variable (:func:`_rule_key`),
    its guard a ``|`` of ``key == e`` terms and enumerable calls
    (:func:`~repro.core.expressions.named_keys`), and the key set
    computable under *params*.  For a key inside the calls' domains the
    guard is then true iff the key is in the set, and does not raise.
    """
    out: dict[ViewRule, tuple] = {}
    for rule in view.imports:
        key = _rule_key(rule, params)
        if key is None or len(key[0]) != 1:
            continue
        spec = rule.named(key[0][0])
        keys = None if spec is None else spec.keys(params)
        if keys is not None:
            out[rule] = (key[1][0], keys, spec)
    return out


class _KeyTable:
    """One keyable rule's routes for one key shape.

    A member whose guard names its keys (:func:`_named_rules`) is filed in
    ``named``, an inverted ``key -> inboxes`` index filled when it joins,
    and gets a change with an in-domain key only through it.  Any other
    member, and every member for a key outside the guard's domain, keeps
    its own verdict per key (:func:`_typed`), asked once under its own
    params; ``admitting`` caches the resulting inboxes per key.  A member
    joining or leaving clears only that cache, which the next change of
    each key rebuilds from the verdicts, so churn costs no guard
    evaluation and nothing per stale key.

    When the guard has domains, ``strays`` holds the live instances of the
    route whose key is outside them (found by one scan when the table is
    made, then kept from the changes filed): a named member's
    materialisation probes its keys and visits those.
    """

    __slots__ = (
        "dataspace", "rule", "names", "positions", "key_of", "spec",
        "members", "admitting", "keys", "named", "strays",
    )

    def __init__(
        self,
        dataspace: Dataspace,
        rule: ViewRule,
        names: tuple[str, ...],
        positions: tuple[int, ...],
        at: tuple,
    ) -> None:
        self.dataspace = dataspace
        self.rule = rule
        self.names = names
        self.positions = positions
        self.key_of = itemgetter(*positions)
        #: How the guard names its keys, or ``None``: no member is named.
        self.spec = rule.named(names[0]) if len(names) == 1 else None
        #: member -> its guard verdict per typed key value.
        self.members: dict[Window, dict[Any, bool]] = {}
        #: typed key value -> the inboxes of the members admitting it.
        self.admitting: dict[Any, tuple[_Inbox, ...]] = {}
        #: named member -> its key set.
        self.keys: dict[Window, frozenset] = {}
        #: key value -> the inboxes of the named members whose set holds it.
        self.named: dict[Any, list[_Inbox]] = {}
        self.strays: dict[TupleId, TupleInstance] | None = None
        if self.spec is not None and self.spec.domains:
            arity, head = at
            rows = dataspace.candidates_probed(arity, [] if head is _ANY_HEAD else [(0, head)])
            within, key_of = self.spec.within, self.key_of
            self.strays = {inst.tid: inst for inst in rows if not within(key_of(inst.values))}

    def inboxes(self, inst: TupleInstance) -> Sequence[_Inbox]:
        """The inboxes a change of the route is filed into."""
        key = self.key_of(inst.values)
        inside = False
        if self.spec is not None:
            inside = self.spec.within(key)
            if not inside and self.strays is not None:
                if inst.tid in self.dataspace:
                    self.strays[inst.tid] = inst
                else:
                    self.strays.pop(inst.tid, None)
            if inside and len(self.keys) == len(self.members):
                return self.named.get(key, ())
        typed = _typed(key)
        inboxes = self.admitting.get(typed)
        if inboxes is None:
            inboxes = self._admitted(key, typed, inside)
        return inboxes

    def _admitted(self, key: Any, typed: Any, inside: bool) -> tuple[_Inbox, ...]:
        if len(self.admitting) >= MAX_ROUTER_KEYS:
            self.admitting.clear()
        inboxes = list(self.named.get(key, ())) if inside else []
        for window, seen in self.members.items():
            if inside and window in self.keys:
                continue
            verdict = seen.get(typed)
            if verdict is None:
                if len(seen) >= MAX_ROUTER_KEYS:
                    seen.clear()
                verdict = seen[typed] = _guard_admits(self.rule, self.names, window.params, key)
            if verdict:
                inboxes.append(window._inbox)
        admitting = self.admitting[typed] = tuple(inboxes)
        return admitting

    def join(self, window: Window, seen: dict[Any, bool], keys: frozenset | None) -> None:
        self.members[window] = seen
        if keys is not None:
            self.keys[window] = keys
            for key in keys:
                self.named.setdefault(key, []).append(window._inbox)
        self.admitting.clear()

    def leave(self, window: Window) -> None:
        del self.members[window]
        keys = self.keys.pop(window, None)
        if keys is not None:
            _unfile(self.named, keys, window._inbox)
        self.admitting.clear()


def _unfile(index: dict[Any, list[_Inbox]], keys: Iterable[Any], inbox: _Inbox) -> None:
    """Take *inbox* out of *index* under each of *keys* (by identity: two
    inboxes with equal contents are equal lists)."""
    for key in keys:
        kept = [other for other in index[key] if other is not inbox]
        if kept:
            index[key] = kept
        else:
            del index[key]


class _SupportTable:
    """One support seed's routes for the named members of the rule it
    serves, when the witness field at ``position`` supplies that rule's
    key.  A witness with an in-domain key goes only to the members whose
    key set holds it: the head instances it can flip carry that key, and
    the guard rejects it for every other member.  While the rule's table
    holds a stray (a head instance whose equal key is outside the domain,
    which the key set does not decide), or for an out-of-domain witness
    key, the witness goes to every member."""

    __slots__ = ("table", "position", "members", "named")

    def __init__(self, table: _KeyTable, position: int) -> None:
        self.table = table
        self.position = position
        #: member -> its key set.
        self.members: dict[Window, frozenset] = {}
        #: key value -> the support inboxes of the members whose set holds it.
        self.named: dict[Any, list[_Inbox]] = {}

    def inboxes(self, inst: TupleInstance) -> Sequence[_Inbox]:
        key = inst.values[self.position]
        table = self.table
        if table.strays or not table.spec.within(key):
            return [window._support for window in self.members]
        return self.named.get(key, ())

    def join(self, window: Window, keys: frozenset) -> None:
        self.members[window] = keys
        for key in keys:
            self.named.setdefault(key, []).append(window._support)

    def leave(self, window: Window) -> None:
        _unfile(self.named, self.members.pop(window), window._support)


class _Route:
    """What one ``(arity, head)`` is filed to: inboxes taking every
    change, and key tables (rule or support)."""

    __slots__ = ("plain", "keyed")

    def __init__(self) -> None:
        self.plain: list[_Inbox] = []
        self.keyed: list[_KeyTable | _SupportTable] = []


class WindowRouter:
    """Files each journal change of one dataspace into the inboxes of the
    windows that can import it (SEMANTICS §7, *Routing*).

    Every restricted window is a member from its first refresh on.  The
    router is the only reader of :meth:`Dataspace.changes_since` for
    windows: it pulls the journal once per version — it is no listener —
    and files each changed instance under its ``(arity, position-0
    value)``.  On that route a member's import rule either takes every
    change, or, when its guard is keyable (:func:`_rule_key`), only the
    changes whose key fields its guard admits — by key set when the guard
    names its keys (:func:`_named_rules`); each support seed of a
    ``where``-view takes every change of its route, or, when it supplies
    a named rule's key, the changes with that rule's keys.  A member's
    refresh catches the router up and then drains its own inboxes
    (:meth:`Window._drain`), so a change costs the windows it can reach,
    not the society.  While a consensus index watches the router,
    ``touched`` records the members filed into (or dropped) since it last
    looked.

    A router that falls off the journal, or an inbox that would hold more
    than :data:`JOURNAL_DEPTH` entries, is a journal gap for the windows
    concerned: they leave and materialise afresh at their next refresh.
    """

    __slots__ = ("dataspace", "version", "routes", "tables", "members", "touched")

    def __init__(self, dataspace: Dataspace) -> None:
        self.dataspace = dataspace
        self.version = dataspace.version
        #: ``(arity, head)`` -> :class:`_Route`; ``head`` may be ``_ANY_HEAD``.
        self.routes: dict[tuple, _Route] = {}
        #: ``((arity, head), rule, positions)`` -> :class:`_KeyTable`,
        #: shared by every member with that rule, route and key shape, and
        #: ``((arity, head), key table, witness position)`` ->
        #: :class:`_SupportTable`, by every member named in that table.
        self.tables: dict[tuple, _KeyTable | _SupportTable] = {}
        #: member -> the ``((arity, head), inbox or table)`` it joined.
        self.members: dict[Window, list[tuple]] = {}
        #: Members filed into or dropped since the watcher last looked,
        #: or ``None`` while nothing watches (no cost per filing).
        self.touched: dict[Window, None] | None = None

    @classmethod
    def of(cls, dataspace: Dataspace) -> "WindowRouter":
        """The dataspace's router, created on first use."""
        router = getattr(dataspace, "_window_router", None)
        if router is None:
            router = dataspace._window_router = cls(dataspace)
        return router

    def catch_up(self) -> None:
        """File every change since the last call."""
        version = self.dataspace.version
        if self.version == version:
            return
        changes = self.dataspace.changes_since(self.version)
        self.version = version
        if changes is None:
            for window in list(self.members):
                self.leave(window)
            return
        if not self.members:
            return
        routes = self.routes
        overflowed: list[_Inbox] = []
        touched = self.touched
        for change in changes:
            for inst in change.retracted + change.asserted:
                values = inst.values
                route = routes.get((len(values), values[0]))
                if route is not None:
                    _file(inst, route, overflowed, touched)
                route = routes.get((len(values), _ANY_HEAD))
                if route is not None:
                    _file(inst, route, overflowed, touched)
        for inbox in overflowed:
            if inbox.window in self.members:
                inbox.clear()  # the entries are dropped, so the window
                self.leave(inbox.window)  # must start over

    def named_rows(
        self, rule: ViewRule, params: Mapping[str, Any], named: tuple
    ) -> list[TupleInstance] | None:
        """The candidates of a named rule's materialisation: its head
        probed at each key of its set, plus the strays of its table; or
        ``None`` while the rule has no table (no member yet), when the
        caller scans the head bucket.  The router must be caught up."""
        position, keys, __ = named
        head = _params_fix(rule.pattern, params)
        at = (rule.pattern.arity, _head(head))
        table = self.tables.get((at, rule, (position,)))
        if table is None:
            return None
        fetch = self.dataspace.candidates_probed
        rows: list[TupleInstance] = []
        for key in keys:
            rows += fetch(at[0], [*head, (position, key)])
        if table.strays:
            rows += table.strays.values()
        return rows

    def join(self, window: Window, verdicts: Mapping[ViewRule, dict[Any, bool]]) -> None:
        """Make *window*, whose footprint was just computed from the
        current dataspace (:meth:`Window._materialise`), a member;
        *verdicts* are its guards' key verdicts so far, per keyable rule."""
        self.catch_up()
        window._router = self
        window._inbox = _Inbox()
        window._support = _Inbox()
        window._inbox.window = window._support.window = window
        params = window.params
        entries: list[tuple] = []
        named: dict[ViewRule, tuple] = {}  # rule -> (its table, key set)
        for rule in window.view.imports:
            at = (rule.pattern.arity, _head(_params_fix(rule.pattern, params)))
            key = _rule_key(rule, params)
            if key is None:
                entries.append(self._plain(at, window._inbox))
                continue
            names, positions = key
            table = self.tables.get((at, rule, positions))
            if table is None:
                table = self.tables[at, rule, positions] = _KeyTable(
                    self.dataspace, rule, names, positions, at
                )
                self._route(at).keyed.append(table)
            if window not in table.members:
                entry = window._named.get(rule)  # set by _materialise
                keys = None if entry is None else entry[1]
                if keys is not None:
                    named[rule] = (table, keys)
                table.join(window, verdicts[rule], keys)
                entries.append((at, table))
        if window.view.config_dependent:
            if window._seeds is None:
                window._seeds = _support_seeds(window.view, params)
            for arity, fixed, __, __, __, links, rule in window._seeds:
                at = (arity, _head(fixed))
                table_keys = named.get(rule)
                witness = None
                if table_keys is not None:
                    position = table_keys[0].positions[0]
                    witness = next((w for h, w in links if h == position), None)
                if witness is None:
                    entries.append(self._plain(at, window._support))
                    continue
                table, keys = table_keys
                shape = (at, table, witness)
                support = self.tables.get(shape)
                if support is None:
                    support = self.tables[shape] = _SupportTable(table, witness)
                    self._route(at).keyed.append(support)
                if window not in support.members:
                    support.join(window, keys)
                    entries.append((at, support))
        self.members[window] = entries

    def _route(self, at: tuple) -> _Route:
        route = self.routes.get(at)
        if route is None:
            route = self.routes[at] = _Route()
        return route

    def _plain(self, at: tuple, inbox: _Inbox) -> tuple:
        route = self._route(at)
        if not any(other is inbox for other in route.plain):
            route.plain.append(inbox)
        return at, inbox

    def leave(self, window: Window) -> None:
        """Stop filing for *window*.  Its footprint is left for its caller:
        the window's next refresh materialises a new one."""
        entries = self.members.pop(window, None)
        if entries is None:
            return
        for at, target in entries:
            route = self.routes.get(at)
            if route is None:
                continue  # emptied by an earlier entry (a repeated rule)
            if isinstance(target, _Inbox):
                route.plain[:] = [inbox for inbox in route.plain if inbox is not target]
            else:
                target.leave(window)
                if not target.members:
                    route.keyed.remove(target)
                    if isinstance(target, _KeyTable):
                        del self.tables[at, target.rule, target.positions]
                    else:
                        del self.tables[at, target.table, target.position]
            if not route.plain and not route.keyed:
                del self.routes[at]
        window._router = window._inbox = window._support = None
        window._version = None
        if self.touched is not None:
            self.touched[window] = None


def _file(
    inst: TupleInstance,
    route: _Route,
    overflowed: list[_Inbox],
    touched: dict[Window, None] | None,
) -> None:
    """File *inst* into the inboxes of *route* that take it."""
    for inbox in route.plain:
        inbox.append(inst)
        if len(inbox) == JOURNAL_DEPTH + 1:
            overflowed.append(inbox)
        if touched is not None:
            touched[inbox.window] = None
    for table in route.keyed:
        for inbox in table.inboxes(inst):
            inbox.append(inst)
            if len(inbox) == JOURNAL_DEPTH + 1:
                overflowed.append(inbox)
            if touched is not None:
                touched[inbox.window] = None
