"""Cost-based query planning: selectivity-ordered joins over compiled kernels.

Every SDL transaction is a quantified conjunctive query; the naive engine
(:mod:`repro.core.matching`) walks the atoms in textual order, re-derives
the index probes of every pattern on every call, and pays a
``{**bound, **new}`` dict merge per element per candidate.  This module
removes all three costs while preserving the semantics exactly:

* each :class:`~repro.core.patterns.Pattern` is **compiled once** into a
  :class:`~repro.core.patterns.CompiledPattern` — per-element kind/position
  arrays splitting the fields into *static probes* (pure constants,
  resolved at compile time), *expression slots* (evaluable once the
  referenced variables are bound, through their compiled closures), and
  *variable slots* (bind on first occurrence, probe thereafter);

* a :class:`Plan` **reorders the binding atoms by estimated selectivity**:
  estimates read the dataspace's live index-bucket sizes
  (``field_size`` / ``arity_size`` fan-out, shard-aware: per-shard sizes
  summed, position-0 probes read only their home shard), preferring atoms
  whose constants or already-bound variables probe the narrowest buckets.  Atoms whose literal expressions
  reference variables bound by other atoms are only eligible after their
  producers, so reordering never changes which expressions are evaluable —
  the one hard ordering constraint the naive walk imposes;

* candidate fetches intersect **all** applicable field buckets (narrowest
  bucket enumerated, remaining probes applied as direct value filters)
  instead of picking only the single narrowest — see
  ``Dataspace.candidates_probed``;

* :class:`QueryPlanner` **caches plans** keyed by
  ``(atoms-signature, bound-variable set)``, with hit/miss counters
  surfaced through ``repro.obs`` and :class:`~repro.runtime.engine.RunResult`;

* **a test is a join filter, not a leaf check**: the pure top-level
  ``&``-conjuncts of the query's ``such_that`` test are evaluated at the
  first join depth that binds their variables (:meth:`Plan.early_filters`),
  so a partial binding no completion of which can pass is dropped before
  the deeper atoms are probed for it.  The naive walk asks
  ``neighbor(p1, p2)`` of the worker-model region labeling only after
  probing both thresholds of every label pair; here it is asked as soon
  as ``p2`` is bound, by calling the conjunct's compiled closure
  (:func:`~repro.core.expressions.kernel`) on the search's own
  environment.  The caller still evaluates the whole test on every
  yielded match, and a filter that raises is ignored (an exception is not
  a verdict), so verdicts and match sets are those of the leaf-only
  evaluation; what differs is fewer probes, no RNG draws for the pruned
  subtrees, and strictly fewer test errors (`docs/SEMANTICS.md` §12).

Soundness: a joint match is a set of per-atom instance choices satisfying
a conjunction of equality constraints; conjunction is commutative, so the
*set* of joint matches is independent of atom order.  Which match an ``∃``
commits remains an arbitrary seeded-RNG choice (the paper's "an arbitrary
one of them is selected"), so the planner stays within the semantics while
changing which legal choice a given seed lands on.  A planner-off engine
(``SDL_PLAN=off`` / ``Engine(plan="off")``) keeps the naive path alive for
differential testing — `docs/SEMANTICS.md` §12.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Any, Iterator, Mapping, Sequence

from repro.core.expressions import Expr, conjuncts, is_pure, kernel
from repro.core.matching import rotation_start  # the one arbitration rule
from repro.core.patterns import (
    CompiledPattern,
    Pattern,
    compile_pattern,
    literal_error,
)
from repro.core.tuples import TupleId, TupleInstance
from repro.errors import SDLError

__all__ = [
    "CompiledPattern",
    "PlanStep",
    "Plan",
    "QueryPlanner",
    "compile_pattern",
    "resolve_plan_mode",
    "scan_spec",
]

#: Estimated candidate count for a probe whose value is only known at run
#: time (a variable bound by an *earlier atom*, not by the caller): the
#: bucket cannot be measured at plan time, so assume index probing recovers
#: roughly a square-root fan-out of the arity bucket.
_UNKNOWN_PROBE_EXPONENT = 0.5

#: Plan-cache flush threshold.  Programs build their patterns once, so real
#: workloads hold a handful of plans; the bound only guards pathological
#: pattern-churning callers.
_MAX_CACHE_ENTRIES = 1024


def scan_spec(
    pattern: Pattern, bound: Mapping[str, Any]
) -> "tuple[list[tuple[int, Any]], list[tuple[int, int]]] | None":
    """Reduce matching *pattern* under *bound* to a pure column scan.

    Returns ``(probes, repeats)`` such that ``pattern.match(values,
    dict(bound)) is not None`` iff every ``(position, value)`` probe holds
    and every ``(position, first_position)`` repeated-variable pair is
    equal — the contract of ``ColumnarStore.scan`` / ``scan_count``, which
    lets ``count_matching`` / ``find_matching`` run over contiguous columns
    instead of calling ``Pattern.match`` per candidate.  The reduction is
    complete because an element matches by equality (literal value, bound
    variable, repeated variable) or unconditionally (wildcard, first
    occurrence of an unbound variable — a binder always succeeds, and
    these callers discard the bindings).

    Returns ``None`` — caller falls back to per-candidate matching — when
    any literal expression references a variable this same pattern binds
    (its value is per-candidate) or is not evaluable under *bound* alone:
    the naive walk's behavior there (including *raising only when a
    candidate exists*) is reproduced exactly by not scanning at all.
    """
    compiled = compile_pattern(pattern)
    probes: list[tuple[int, Any]] = list(compiled.static_probes)
    repeats: list[tuple[int, int]] = []
    first_seen: dict[str, int] = {}
    for position, name in compiled.var_slots:
        if name in bound:
            probes.append((position, bound[name]))
        elif name in first_seen:
            repeats.append((position, first_seen[name]))
        else:
            first_seen[name] = position
    for position, __, free in compiled.expr_slots:
        if free & first_seen.keys():
            return None  # reads a same-pattern binder: value is per-candidate
        if not free <= bound.keys():
            return None  # unbound free variable: let the naive walk raise
        try:
            probes.append((position, compiled.evaluators[position](bound)))
        except Exception:
            return None  # evaluation fails: fall back, raise per-candidate
    return probes, repeats


class PlanStep:
    """One atom of a plan, specialised to the bound set at its position.

    Because the plan fixes the join order, the set of variables bound when
    this atom runs is known statically, so each variable slot is resolved
    at plan time into exactly one of:

    * a **probe** — the variable is already bound: its value narrows the
      candidate fetch and needs no per-candidate equality code at all
      (probe filtering subsumes it);
    * a **binder** — first occurrence: write ``env[name] = values[pos]``;
    * a **repeat check** — a later occurrence of a variable this same atom
      binds: ``values[pos] == values[first_pos]``.

    Matching a probe-filtered candidate therefore costs only the repeat
    checks plus the binder writes — no dict merges, no per-element method
    dispatch, no :meth:`Pattern.index_constants` recomputation.
    """

    __slots__ = (
        "index",
        "compiled",
        "static_probes",
        "probe_vars",
        "probe_exprs",
        "binders",
        "repeat_checks",
    )

    def __init__(self, index: int, compiled: CompiledPattern, bound_names: frozenset[str]) -> None:
        self.index = index
        self.compiled = compiled
        self.static_probes = compiled.static_probes
        probe_vars: list[tuple[int, str]] = []
        binders: list[tuple[int, str]] = []
        repeat_checks: list[tuple[int, int]] = []
        first_seen: dict[str, int] = {}
        for position, name in compiled.var_slots:
            if name in bound_names:
                probe_vars.append((position, name))
            elif name in first_seen:
                repeat_checks.append((position, first_seen[name]))
            else:
                first_seen[name] = position
                binders.append((position, name))
        self.probe_vars = tuple(probe_vars)
        # Expressions are probes too once their variables are bound; by
        # eligibility they always are at this step (an expression over a
        # never-bound variable keeps its textual position and raises at
        # evaluation exactly as the naive walk would).
        self.probe_exprs = tuple(
            (pos, compiled.evaluators[pos], expr) for pos, expr, __ in compiled.expr_slots
        )
        self.binders = tuple(binders)
        self.repeat_checks = tuple(repeat_checks)

    def probes_for(self, env: Mapping[str, Any]) -> list[tuple[int, Any]]:
        """The concrete ``(position, value)`` probes under *env*.

        Static probes are precomputed; bound-variable probes are dict
        lookups; expression probes call their compiled closure once per
        environment state (not once per candidate, as the naive walk
        pays), and one that raises is a :class:`~repro.errors.QueryError`.
        """
        probes = list(self.static_probes)
        for position, name in self.probe_vars:
            probes.append((position, env[name]))
        for position, evaluate, expr in self.probe_exprs:
            try:
                probes.append((position, evaluate(env)))
            except SDLError:
                raise
            except Exception as exc:
                raise literal_error(expr, env, exc) from exc
        return probes

    def __repr__(self) -> str:
        return f"PlanStep(atom={self.index}, {self.compiled.pattern!r})"


class Plan:
    """A selectivity-ordered join plan for one atom conjunction."""

    __slots__ = ("steps", "order", "patterns", "_filters")

    def __init__(self, steps: Sequence[PlanStep], patterns: Sequence[Pattern]) -> None:
        self.steps = tuple(steps)
        self.order = tuple(step.index for step in steps)
        self.patterns = tuple(patterns)  # keeps id()-keyed cache entries alive
        # (test, its early filters, their kernels): a query's patterns and
        # test are built together, so one remembered triple is the whole
        # cache; a plan shared by two tests merely re-resolves when they
        # alternate.
        self._filters: tuple = (None, None, None)

    def early_filters(self, test: Expr) -> tuple | None:
        """Per-depth early filters of *test* under this join order.

        Each pure top-level ``&``-conjunct of *test* is placed at the depth
        where the last of its plan-bound variables (names some step binds;
        every other name is the caller's, bound or not before the join
        starts) gets its value.  Conjuncts placed before the last step are
        that step's filters; the rest — last-depth, impure — are left to
        the leaf, which evaluates the whole test anyway.  Returns ``None``
        when nothing can be filtered early, else a tuple indexed by depth
        whose entries are ``None`` or a tuple of conjuncts.
        """
        return self._resolved(test)[1]

    def filter_kernels(self, test: Expr) -> tuple | None:
        """:meth:`early_filters` compiled: the same shape, each conjunct
        replaced by its closure (:func:`~repro.core.expressions.kernel`)."""
        return self._resolved(test)[2]

    def _resolved(self, test: Expr) -> tuple:
        memo = self._filters
        if memo[0] is not test:
            filters = self._place(test)
            kernels = None if filters is None else tuple(
                checks and tuple(map(kernel, checks)) for checks in filters
            )
            memo = self._filters = (test, filters, kernels)
        return memo

    def _place(self, test: Expr) -> tuple | None:
        last = len(self.steps) - 1
        if last < 1:
            return None
        bound_at = {
            name: depth
            for depth, step in enumerate(self.steps)
            for __, name in step.binders
        }
        placed: list[list[Expr]] = [[] for __ in self.steps]
        for conjunct in conjuncts(test):
            if not is_pure(conjunct):
                continue
            depth = max(
                (bound_at[n] for n in conjunct.free_variables() if n in bound_at),
                default=0,
            )
            if depth < last:
                placed[depth].append(conjunct)
        if not any(placed):
            return None
        return tuple(tuple(checks) or None for checks in placed)

    def __repr__(self) -> str:
        return f"Plan(order={list(self.order)})"


def _estimate(
    compiled: CompiledPattern,
    bound_names: set[str],
    bound_values: Mapping[str, Any],
    dataspace: Any,
) -> float:
    """Estimated candidate count for *compiled* under the current bound set.

    Reads the live index-bucket sizes: the narrowest measurable field
    bucket wins; probes whose value is only produced by an earlier atom
    (name bound, value unknown at plan time) are credited a square-root
    fan-out of the arity bucket; a probe-less atom scans its arity bucket.

    Sizes come from ``Dataspace.arity_size`` / ``Dataspace.field_size``
    rather than materialised buckets: under a sharded layout those sum
    per-shard bucket sizes in O(shards) — and read only the home shard for
    a position-0 probe — where ``by_field``/``by_arity`` would build a
    merged dict per estimate.
    """
    arity_size = dataspace.arity_size(compiled.arity)
    if arity_size == 0:
        return 0.0
    best: float | None = None
    unknown_probes = 0
    if getattr(dataspace, "indexed", False):
        for position, value in compiled.static_probes:
            size = dataspace.field_size(compiled.arity, position, value)
            if best is None or size < best:
                best = float(size)
        for position, name in compiled.var_slots:
            if name in bound_values:
                size = dataspace.field_size(compiled.arity, position, bound_values[name])
                if best is None or size < best:
                    best = float(size)
            elif name in bound_names:
                unknown_probes += 1
        for position, __, free in compiled.expr_slots:
            if free <= bound_values.keys():
                try:
                    value = compiled.evaluators[position](bound_values)
                except Exception:
                    unknown_probes += 1
                    continue
                size = dataspace.field_size(compiled.arity, position, value)
                if best is None or size < best:
                    best = float(size)
            elif free <= bound_names:
                unknown_probes += 1
    if best is not None:
        return best
    if unknown_probes:
        return max(1.0, arity_size ** _UNKNOWN_PROBE_EXPONENT)
    return float(arity_size)


def build_plan(
    patterns: Sequence[Pattern],
    bound_names: frozenset[str],
    bound_values: Mapping[str, Any],
    dataspace: Any,
) -> Plan:
    """Order *patterns* greedily by estimated selectivity and compile steps.

    At each position the cheapest *eligible* atom is chosen — an atom is
    eligible when every variable its literal expressions reference is bound
    (by the caller or by an already-placed atom).  The textually-first
    unplaced atom is always eligible in a valid program (the naive walk
    evaluates textually), so the loop always progresses; if nothing is
    eligible the textually-first atom is placed anyway and evaluation
    raises :class:`~repro.errors.UnboundVariableError` exactly where the
    naive walk would.  Ties break toward textual order, keeping plans
    deterministic for a given dataspace shape.
    """
    compiled = [compile_pattern(p) for p in patterns]
    remaining = list(range(len(patterns)))
    placed: set[str] = set(bound_names)
    steps: list[PlanStep] = []
    while remaining:
        eligible = [i for i in remaining if compiled[i].expr_free <= placed]
        if not eligible:
            eligible = [remaining[0]]
        best_index = min(
            eligible,
            key=lambda i: (_estimate(compiled[i], placed, bound_values, dataspace), i),
        )
        steps.append(PlanStep(best_index, compiled[best_index], frozenset(placed)))
        placed |= compiled[best_index].binding_names
        remaining.remove(best_index)
    return Plan(steps, patterns)


def _fetch_candidates(window: Any, step: PlanStep, env: dict[str, Any]) -> list[TupleInstance]:
    """Probe-intersected candidates for *step* from any window-like object
    (read-only, valid until the next dataspace mutation)."""
    probes = step.probes_for(env)
    fetch = getattr(window, "candidates_probed", None)
    if fetch is not None:
        return fetch(step.compiled.arity, probes)
    # Fallback for bare window-likes exposing only ``candidates``: fetch by
    # pattern, then apply the probes as direct value filters.
    raw = window.candidates(step.compiled.pattern, env)
    if not probes:
        return raw
    return [
        inst for inst in raw
        if all(inst.values[position] == value for position, value in probes)
    ]


class QueryPlanner:
    """Per-engine planning service: plan cache plus the planned join.

    The cache is two-level: the atoms signature (identity of the pattern
    tuple — patterns are immutable and built once per program) maps to the
    set of *relevant* variable names plus the per-bound-set plans, so two
    calls whose parameter environments differ only in names the query never
    mentions share one plan.  Cached entries hold strong references to
    their patterns, keeping the identity keys valid for the entry lifetime.
    """

    __slots__ = ("dataspace", "obs", "hits", "misses", "_cache")

    def __init__(self, dataspace: Any, obs: Any = None) -> None:
        self.dataspace = dataspace
        self.obs = obs
        self.hits = 0
        self.misses = 0
        # atoms-key -> (patterns, relevant names, {bound-key -> Plan})
        self._cache: dict[tuple, tuple[tuple, frozenset, dict]] = {}

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    @property
    def cache_size(self) -> int:
        return sum(len(plans) for __, __, plans in self._cache.values())

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def plan_for(self, patterns: Sequence[Pattern], bound: Mapping[str, Any]) -> Plan:
        """The cached (or freshly built) plan for *patterns* under *bound*."""
        atoms_key = tuple(map(id, patterns))
        entry = self._cache.get(atoms_key)
        if entry is None:
            relevant: frozenset[str] = frozenset()
            for pattern in patterns:
                relevant |= compile_pattern(pattern).free_names
            entry = (tuple(patterns), relevant, {})
            if len(self._cache) >= _MAX_CACHE_ENTRIES:
                self._cache.clear()
            self._cache[atoms_key] = entry
        __, relevant, plans = entry
        bound_key = frozenset(name for name in bound if name in relevant)
        plan = plans.get(bound_key)
        obs = self.obs
        if plan is not None:
            self.hits += 1
            if obs is not None:
                obs.count("sdl_plan_cache_total", result="hit")
            return plan
        self.misses += 1
        if obs is not None:
            obs.count("sdl_plan_cache_total", result="miss")
            start = obs.spans.now()
            plan = build_plan(patterns, bound_key, bound, self.dataspace)
            obs.observe_ns(
                "plan", start, obs.spans.now() - start,
                {"atoms": len(patterns), "order": list(plan.order)},
            )
        else:
            plan = build_plan(patterns, bound_key, bound, self.dataspace)
        if len(plans) >= _MAX_CACHE_ENTRIES:
            plans.clear()
        plans[bound_key] = plan
        return plan

    # ------------------------------------------------------------------
    # the planned join
    # ------------------------------------------------------------------
    def iter_matches(
        self,
        window: Any,
        patterns: Sequence[Pattern],
        bound: Mapping[str, Any],
        rng: random.Random | None = None,
        excluded: frozenset[TupleId] | set[TupleId] = frozenset(),
        test: Expr | None = None,
    ) -> Iterator[tuple[dict[str, Any], list[TupleInstance]]]:
        """Planned counterpart of :func:`~repro.core.matching.iter_joint_matches`.

        Same contract: yields ``(bindings, instances)`` with *instances*
        aligned to the **original** atom order, distinct atoms bind
        distinct instances, candidates rotate by seeded RNG, and *excluded*
        is consulted live — matches whose instances were excluded after
        being chosen are pruned at yield time, which is what lets ``∀``
        enumeration resume under a growing exclusion set.

        *test* is the predicate the caller will apply to every yielded
        match.  It is never a substitute for that leaf check — the caller
        still evaluates the whole test — but its pure conjuncts are used
        as **join filters** (:meth:`Plan.early_filters`): a partial binding
        on which one of them is cleanly falsy is dropped before the deeper
        atoms are probed, since no completion of it can pass.  A filter
        that raises has given no verdict: the binding proceeds, and the
        error surfaces (or not) at the caller's leaf exactly as without
        pushdown.  Every match the leaf accepts is still yielded, in the
        same order; only the RNG draws of the pruned subtrees are skipped.
        """
        plan = self.plan_for(patterns, bound)
        # Each filter is a compiled closure over the search's own env dict.
        filters = None if test is None else plan.filter_kernels(test)
        # A snapshot lens reports how many of the live rows it shows
        # (``(rows, n)``) instead of slicing them; any other window shows
        # all of its rows.
        cut = getattr(window, "candidates_cut", None)
        env: dict[str, Any] = dict(bound)
        total = len(plan.steps)
        used: list[TupleInstance | None] = [None] * total
        used_tids: set[TupleId] = set()
        steps = plan.steps

        def search(depth: int) -> Iterator[tuple[dict[str, Any], list[TupleInstance]]]:
            if depth == total:
                if excluded and not used_tids.isdisjoint(excluded):
                    return
                yield dict(env), list(used)  # type: ignore[arg-type]
                return
            step = steps[depth]
            checks = None if filters is None else filters[depth]
            if cut is None:
                rows = _fetch_candidates(window, step, env)
                n = len(rows)
            else:
                rows, n = cut(step.compiled.arity, step.probes_for(env))
            # Visit rows[k:n] then rows[:k] — the naive walk's rotated copy
            # (matching._rotated) — without building it: two list
            # iterators, the first started at the offset, so each row is
            # produced in C and a search that stops early pays O(1).
            k = rotation_start(n, rng)
            if not k and n == len(rows):
                segments = (rows,)
            else:
                tail = iter(rows)
                tail.__setstate__(k)
                if n < len(rows):
                    tail = islice(tail, n - k)
                segments = (tail, islice(rows, k))
            for segment in segments:
                for inst in segment:
                    tid = inst.tid
                    if tid in used_tids or tid in excluded:
                        continue
                    values = inst.values
                    admitted = True
                    for position, first in step.repeat_checks:
                        if values[position] != values[first]:
                            admitted = False
                            break
                    if not admitted:
                        continue
                    for position, name in step.binders:
                        env[name] = values[position]
                    if checks is not None:
                        for check in checks:
                            try:
                                if not check(env):
                                    admitted = False
                                    break
                            except Exception:
                                pass  # not a verdict: the leaf decides, or raises
                    if admitted:
                        used[step.index] = inst
                        used_tids.add(tid)
                        yield from search(depth + 1)
                        used_tids.discard(tid)
                        used[step.index] = None
                    for __, name in step.binders:
                        del env[name]

        return search(0)

    def __repr__(self) -> str:
        return (
            f"QueryPlanner(plans={self.cache_size}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def resolve_plan_mode(plan: str | bool | None, env_value: str | None) -> str:
    """Normalise an ``Engine(plan=...)`` argument (or ``SDL_PLAN``) to
    ``"on"`` / ``"off"``.  ``None`` consults the environment default; the
    planner is on unless explicitly disabled."""
    if plan is None:
        plan = env_value if env_value else "on"
    if isinstance(plan, bool):
        return "on" if plan else "off"
    if isinstance(plan, str):
        normalised = plan.strip().lower()
        if normalised in ("on", "1", "true", "yes", ""):
            return "on"
        if normalised in ("off", "0", "false", "no", "naive"):
            return "off"
    raise ValueError(f"unknown plan mode {plan!r}")
