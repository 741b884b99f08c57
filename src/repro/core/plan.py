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
  referenced variables are bound, through their generated kernels), and
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

* a query is **compiled into an attempt kernel** once per (query,
  bound-variable set) (:func:`compile_kernel`): the plan's join written
  out as nested loops over local variables, with its pure filters, test
  and probe expressions written into the source
  (:func:`~repro.core.expressions.source`) and the ∃/∀/¬ evaluation
  inside, one generated function that :meth:`Query.evaluate` calls per
  attempt — :meth:`QueryPlanner.iter_matches` stays the join of
  ``Membership`` sub-queries and the reference the kernels are tested
  against;

* within one replication batch a kernel does not **search again for an
  outer row it already ruled out** (the replica-batch memo the batch's
  snapshot lens carries), and fetches a step whose probes do not change
  under the outer rows once per call;

* **a test is a join filter, not a leaf check**: the pure top-level
  ``&``-conjuncts of the query's ``such_that`` test are evaluated at the
  first join depth that binds their variables (:meth:`Plan.early_filters`),
  so a partial binding no completion of which can pass is dropped before
  the deeper atoms are probed for it.  The naive walk asks
  ``neighbor(p1, p2)`` of the worker-model region labeling only after
  probing both thresholds of every label pair; here it is asked as soon
  as ``p2`` is bound, and after the cheaper ``l2 > l1`` (conjuncts
  without a lifted call go first).  The caller still evaluates the whole
  test on every yielded match, and a filter that raises is ignored (an
  exception is not a verdict), so verdicts and match sets are those of
  the leaf-only evaluation; what differs is fewer probes, no RNG draws
  for the pruned subtrees, and strictly fewer test errors
  (`docs/SEMANTICS.md` §12).

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
from itertools import chain, islice
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core.expressions import (
    BinOp,
    Bindings,
    Call,
    EvalContext,
    Expr,
    UnOp,
    conjuncts,
    define,
    is_pure,
    kernel,
    source,
)
from repro.core.matching import rotation_start  # the one arbitration rule
from repro.core.patterns import (
    CompiledPattern,
    Pattern,
    compile_pattern,
    literal_error,
)
from repro.core.query import Match, QueryResult, predicate_error
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
        lookups; expression probes call their kernel once per
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
        # (test, its early filters): a query's patterns and test are built
        # together, so one remembered pair is the whole cache; a plan
        # shared by two tests merely re-resolves when they alternate.
        self._filters: tuple = (None, None)

    def early_filters(self, test: Expr) -> tuple | None:
        """Per-depth early filters of *test* under this join order.

        Each pure top-level ``&``-conjunct of *test* is placed at the depth
        where the last of its plan-bound variables (names some step binds;
        every other name is the caller's, bound or not before the join
        starts) gets its value.  Conjuncts placed before the last step are
        that step's filters; the rest — last-depth, impure — are left to
        the leaf, which evaluates the whole test anyway.  Within a depth
        the cheapest come first: conjuncts without a lifted-function
        :class:`~repro.core.expressions.Call`, then those with one, each
        group in textual order.  Returns ``None`` when nothing can be
        filtered early, else a tuple indexed by depth whose entries are
        ``None`` or a tuple of conjuncts.
        """
        memo = self._filters
        if memo[0] is not test:
            memo = self._filters = (test, self._place(test))
        return memo[1]

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
        # A filter that raises gives no verdict, so a binding is pruned iff
        # some filter is cleanly falsy, whatever the order (and pure
        # filters draw nothing from the RNG): cheapest first is exact.
        return tuple(tuple(sorted(checks, key=_calls)) or None for checks in placed)

    def __repr__(self) -> str:
        return f"Plan(order={list(self.order)})"


def _calls(expr: Expr) -> bool:
    """Does the pure *expr* call a lifted function anywhere?"""
    if isinstance(expr, Call):
        return True
    if isinstance(expr, BinOp):
        return _calls(expr.left) or _calls(expr.right)
    if isinstance(expr, UnOp):
        return _calls(expr.operand)
    return False


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


def _rotated_rows(rows: list, n: int, k: int) -> Any:
    """Visit ``rows[k:n]`` then ``rows[:k]`` — the naive walk's rotated
    copy (``matching._rotated``) of the first *n* rows — without building
    it: a list iterator started at the offset, chained with the head, so
    each row is produced in C and a search that stops early pays O(1)."""
    if not k and n == len(rows):
        return rows
    tail = iter(rows)
    tail.__setstate__(k)
    if n < len(rows):
        tail = islice(tail, n - k)
    return chain(tail, islice(rows, k))


# ----------------------------------------------------------------------
# attempt kernels
# ----------------------------------------------------------------------

def _relevant(patterns: Sequence[Pattern]) -> frozenset[str]:
    """The variable names a plan for *patterns* depends on being bound."""
    relevant: frozenset[str] = frozenset()
    for pattern in patterns:
        relevant |= compile_pattern(pattern).free_names
    return relevant


def _tuple(items: Sequence[str]) -> str:
    """The source of a tuple display of the expressions *items*."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _bindings(pad: str, binders: Sequence[tuple[str, str]]) -> list[str]:
    """Source lines assigning ``bindings`` the bindings a kernel has made
    so far: ``params``, then each ``(name, local)`` binder in plan order
    — the key order of the search's environment
    (:meth:`QueryPlanner.iter_matches`)."""
    return [f"{pad}bindings = dict(params)"] + [
        f"{pad}bindings[{name!r}] = {local}" for name, local in binders
    ]


def compile_kernel(
    query: Any, plan: Plan, filters: tuple | None, bound: frozenset[str]
) -> Callable:
    """Compile *query* under *plan*, with the per-depth early *filters*
    (:meth:`QueryPlanner.join_filters`), into its attempt kernel,
    ``kernel(window, params, rng, excluded) -> QueryResult``, for calls
    whose *params* hold every name in *bound* (the plan's bound set).

    The kernel is :meth:`Query.evaluate` over :meth:`QueryPlanner.iter_matches`
    with every per-attempt decision taken here, once: one nested loop per
    plan step with the step's static probes, bound-variable and
    expression probes, repeat checks, binders and early filters written
    out, and the test, the retract mask and the ∃/∀/¬ evaluation at the
    innermost level.  Binders and the names in *bound* are local
    variables, and pure probe expressions, filters and tests are written
    into the source over them (:func:`~repro.core.expressions.source`);
    the bindings dict is built only where it is read — the match, an
    impure test (``Membership``, evaluated generically as
    :meth:`Query._passes_test` does) and an error — with the search's
    key order, so matches and error messages name the same bindings.  It
    visits the rows in the same rotated order, draws the RNG exactly
    where the search does (one ``randrange(n)`` per fetched list of
    ``n >= 2`` rows, :func:`rotation_start`) and raises the same errors.

    A step below the first whose probes are static values and names in
    *bound* only is fetched at its first use, once per call.  An ``∃``
    kernel of two or more steps with no test or a pure one also reads
    the replica-batch memo a snapshot lens may carry (``window.memo``):
    it skips a remembered outer row, making the one depth-1 draw its
    search would make, and remembers an outer row whose search found no
    match, raised nothing and drew nothing below depth 1 — while the
    batch's rows only leave, such a row has no match later either.
    """
    steps = plan.steps
    test = query.test
    depth_of = {step.index: depth for depth, step in enumerate(steps)}
    consts: dict[str, Any] = {
        "QueryResult": QueryResult, "Match": Match, "SDLError": SDLError,
        "rotated": _rotated_rows, "literal_error": literal_error,
        "predicate_error": predicate_error, "Bindings": Bindings,
        "EvalContext": EvalContext, "TEST": test,
    }
    forall = query.quantifier == "forall"
    # The replica-batch memo: an outer row with no completion keeps none
    # for the rest of a batch (SEMANTICS §12).
    memo = (
        not forall and not query.negated and len(steps) >= 2
        and (test is None or is_pure(test))
    )
    lines = ["def generated(window, params, rng, excluded):"]
    scope: dict[str, str] = {}
    for i, name in enumerate(sorted(bound)):
        scope[name] = f"q{i}"
        lines.append(f"    q{i} = params[{name!r}]")
    lines += [
        "    cut = getattr(window, 'candidates_cut', None)",
        "    if cut is None:",
        "        fetch = window.candidates_probed",
    ]
    if memo:
        lines += [
            "    skip = None",
            "    if cut is not None and window.memo is not None and not excluded:",
            "        skip = window.memo.get(generated)",
            "        if skip is None:",
            "            skip = window.memo[generated] = set()",
        ]
    if forall:
        lines += ["    excluded = set(excluded)", "    seen = set()", "    matches = []"]
    # Steps below the first whose probes do not change under the outer
    # rows: fetched at the first use, once per call (a kernel never
    # mutates, so the rows stay valid).
    invariant = {
        depth for depth, step in enumerate(steps)
        if depth and not step.probe_exprs
        and all(name in bound for __, name in step.probe_vars)
    }
    lines += [f"    rows{depth} = None" for depth in sorted(invariant)]

    def emit(depth: int, pad: str, scope: dict[str, str], binders: list) -> None:
        if depth == len(steps):
            leaf(pad, scope, binders)
            return
        step = steps[depth]
        probes = []
        for i, probe in enumerate(step.static_probes):
            consts[f"S{depth}_{i}"] = probe
            probes.append(f"S{depth}_{i}")
        probes += [f"({position}, {scope[name]})" for position, name in step.probe_vars]
        for i, (position, evaluate, expr) in enumerate(step.probe_exprs):
            consts[f"X{depth}_{i}"] = expr
            if is_pure(expr):
                value = source(expr, scope, consts)
            else:
                consts[f"E{depth}_{i}"] = evaluate
                lines.extend(_bindings(pad, binders))
                value = f"E{depth}_{i}(bindings)"
            lines.extend(pad + line for line in (
                "try:",
                f"    e{depth}_{i} = {value}",
                "except SDLError:",
                "    raise",
                "except Exception as exc:",
            ))
            lines.extend(_bindings(pad + "    ", binders))
            lines.append(f"{pad}    raise literal_error(X{depth}_{i}, bindings, exc) from exc")
            probes.append(f"({position}, e{depth}_{i})")
        arity = step.compiled.arity
        rows, n, visit = f"rows{depth}", f"n{depth}", f"visit{depth}"
        fetched = (
            f"probes{depth} = [{', '.join(probes)}]",
            "if cut is None:",
            f"    {rows} = fetch({arity}, probes{depth})",
            f"    {n} = len({rows})",
            "else:",
            f"    {rows}, {n} = cut({arity}, probes{depth})",
        )
        if depth in invariant:
            lines.append(f"{pad}if {rows} is None:")
            lines.extend(pad + "    " + line for line in fetched)
        else:
            lines.extend(pad + line for line in fetched)
        if memo and depth == 1:
            # A remembered outer row is skipped, making the one draw its
            # search would make; ``deep`` records a draw below depth 1.
            lines.extend(pad + line for line in (
                "if skip is not None and tid0 in skip:",
                f"    if {n} > 1 and rng is not None:",
                f"        rng.randrange({n})",
                "    continue",
                "deep = False",
            ))
        # Distinct atoms bind distinct instances; only an earlier step of
        # the same arity can have chosen this row.
        used = "".join(
            f" or tid{depth} == tid{earlier}"
            for earlier in range(depth)
            if steps[earlier].compiled.arity == arity
        )
        lines.extend(pad + line for line in (
            f"if {n} > 1 and rng is not None:",
            *(("    deep = True",) if memo and depth > 1 else ()),
            f"    {visit} = rotated({rows}, {n}, rng.randrange({n}))",
            f"elif {n} < len({rows}):",
            f"    {visit} = {rows}[:{n}]",
            "else:",
            f"    {visit} = {rows}",
            f"for inst{depth} in {visit}:",
            f"    tid{depth} = inst{depth}.tid",
            f"    if tid{depth} in excluded{used}:",
            "        continue",
        ))
        inner = pad + "    "
        if step.repeat_checks or step.binders:
            lines.append(f"{inner}values{depth} = inst{depth}.values")
        for position, first in step.repeat_checks:
            lines.append(f"{inner}if values{depth}[{position}] != values{depth}[{first}]:")
            lines.append(f"{inner}    continue")
        scope, binders = dict(scope), list(binders)
        for position, name in step.binders:
            local = scope[name] = f"b{depth}_{position}"
            binders.append((name, local))
            lines.append(f"{inner}{local} = values{depth}[{position}]")
        # A filter that raises has given no verdict (iter_matches).
        for check in (filters and filters[depth]) or ():
            lines.extend(inner + line for line in (
                "try:",
                f"    if not {source(check, scope, consts)}:",
                "        continue",
                "except Exception:",
                "    pass",
            ))
        emit(depth + 1, inner, scope, binders)
        if memo and depth == 0:
            # The search ran out without a match, an error or a draw
            # below depth 1: no completion, for the rest of the batch.
            lines.extend(inner + line for line in (
                "if skip is not None and not deep:",
                "    skip.add(tid0)",
            ))

    def leaf(pad: str, scope: dict[str, str], binders: list) -> None:
        instances = tuple(f"inst{depth_of[i]}" for i in range(len(steps)))
        retracted = tuple(
            f"inst{depth_of[i]}" for i, kill in enumerate(query._retract_mask) if kill
        )
        match = f"Match(bindings, {_tuple(instances)}, {_tuple(retracted)})"
        if forall and steps:
            # Excluded by a match accepted after this row was chosen.
            lines.append(pad + "if not (" + " or ".join(
                f"tid{depth} in excluded" for depth in range(len(steps))
            ) + "):")
            pad += "    "
        copied = False
        if test is not None:
            if is_pure(test):
                value = source(test, scope, consts)
            else:
                lines.extend(_bindings(pad, binders))
                copied = True
                value = "TEST.evaluate(EvalContext(Bindings(bindings), window=window, rng=rng))"
            lines.extend(pad + line for line in (
                "try:",
                f"    passed = True if {value} else False",
                "except SDLError:",
                "    raise",
                "except Exception as exc:",
            ))
            if not copied:
                lines.extend(_bindings(pad + "    ", binders))
            lines.extend((
                f"{pad}    raise predicate_error(TEST, bindings, exc) from exc",
                f"{pad}if passed:",
            ))
            pad += "    "
        if query.negated:
            lines.append(pad + "return QueryResult(False)")
            return
        if not copied:
            lines.extend(_bindings(pad, binders))
        if not forall:
            lines.append(pad + f"return QueryResult(True, [{match}])")
            return
        names = [f"bindings.get({v!r})" for v in query.variables]
        tids = tuple(r.replace("inst", "tid") for r in retracted)
        ordered = f"tuple(sorted({_tuple(tids)}))" if len(tids) > 1 else _tuple(tids)
        lines.extend(pad + line for line in (
            f"signature = ({_tuple(names)}, {ordered})",
            "if signature not in seen:",
            "    seen.add(signature)",
            *(f"    excluded.add({t})" for t in tids),
            f"    matches.append({match})",
        ))

    emit(0, "    ", scope, [])
    if query.negated:
        lines.append("    return QueryResult(True)")
    elif not forall:
        lines.append("    return QueryResult(False)")
    else:
        if query.require_nonempty:
            lines += ["    if not matches:", "        return QueryResult(False)"]
        lines.append("    return QueryResult(True, matches)")
    return define("\n".join(lines) + "\n", consts)


class QueryPlanner:
    """Per-engine planning service: plan and kernel caches plus the planned join.

    The plan cache is two-level: the atoms signature (identity of the
    pattern tuple — patterns are immutable and built once per program)
    maps to the set of *relevant* variable names plus the per-bound-set
    plans, so two calls whose parameter environments differ only in names
    the query never mentions share one plan.  Cached entries hold strong
    references to their patterns, keeping the identity keys valid for the
    entry lifetime.

    The kernel cache (:meth:`kernel_for`) holds one attempt kernel per
    (query, relevant bound names), built from that plan, and
    :attr:`kernels` remembers each query's latest kernel with the full
    parameter names it was resolved under, which is all
    :meth:`Query.evaluate` looks at on a hit.  Either lookup counts as a
    plan-cache hit, as the :meth:`plan_for` call it replaces would have.
    """

    __slots__ = ("dataspace", "obs", "hits", "misses", "kernels", "_cache", "_shapes")

    def __init__(self, dataspace: Any, obs: Any = None) -> None:
        self.dataspace = dataspace
        self.obs = obs
        self.hits = 0
        self.misses = 0
        # atoms-key -> (patterns, relevant names, {bound-key -> Plan})
        self._cache: dict[tuple, tuple[tuple, frozenset, dict]] = {}
        #: query -> (parameter names, kernel) of its latest evaluation.
        self.kernels: dict[Any, tuple[frozenset, Callable]] = {}
        # (query, relevant bound names) -> kernel
        self._shapes: dict[tuple, Callable] = {}

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    @property
    def cache_size(self) -> int:
        return sum(len(plans) for __, __, plans in self._cache.values())

    @property
    def kernel_count(self) -> int:
        """Compiled attempt kernels: one per (query, bound-name shape)."""
        return len(self._shapes)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def kernel_for(self, query: Any, params: Mapping[str, Any]) -> Callable:
        """The attempt kernel of *query* under the names bound in *params*
        (:func:`compile_kernel` over :meth:`plan_for`'s plan), remembered
        in :attr:`kernels` for the next evaluation."""
        shape = frozenset(name for name in params if name in _relevant(query._patterns))
        compiled = self._shapes.get((query, shape))
        if compiled is None:
            plan = self.plan_for(query._patterns, params)
            filters = self.join_filters(plan, query.test)
            compiled = compile_kernel(query, plan, filters, shape)
            if len(self._shapes) >= _MAX_CACHE_ENTRIES:
                self._flush_kernels()
            self._shapes[query, shape] = compiled
        else:
            self.hits += 1
            if self.obs is not None:
                self.obs.count("sdl_plan_cache_total", result="hit")
        if len(self.kernels) >= _MAX_CACHE_ENTRIES:
            self.kernels.clear()
        self.kernels[query] = (frozenset(params), compiled)
        return compiled

    def join_filters(self, plan: Plan, test: Expr | None) -> tuple | None:
        """The join filters of *test* under *plan* that the planned join
        applies (:meth:`Plan.early_filters`): run as their kernels in
        :meth:`iter_matches` and written into every kernel's source.
        Overriding this to return ``None`` gives the leaf-only planner
        that test pushdown is checked against (SEMANTICS §12)."""
        return None if test is None else plan.early_filters(test)

    def _flush_kernels(self) -> None:
        """Forget every kernel (their plans were flushed, or too many)."""
        self.kernels.clear()
        self._shapes.clear()

    def plan_for(self, patterns: Sequence[Pattern], bound: Mapping[str, Any]) -> Plan:
        """The cached (or freshly built) plan for *patterns* under *bound*."""
        atoms_key = tuple(map(id, patterns))
        entry = self._cache.get(atoms_key)
        if entry is None:
            entry = (tuple(patterns), _relevant(patterns), {})
            if len(self._cache) >= _MAX_CACHE_ENTRIES:
                self._cache.clear()
                self._flush_kernels()
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
            self._flush_kernels()
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
        filters = self.join_filters(plan, test)
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
            if checks is not None:
                # Each filter runs as its kernel over the search's env.
                checks = tuple(map(kernel, checks))
            probes = step.probes_for(env)
            if cut is None:
                rows = window.candidates_probed(step.compiled.arity, probes)
                n = len(rows)
            else:
                rows, n = cut(step.compiled.arity, probes)
            for inst in _rotated_rows(rows, n, rotation_start(n, rng)):
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
