"""The SDL query language.

A query is the first half of a transaction (Section 2.2)::

    query ::= quantifier variable_list binding_query test_query

* the **binding query** is a conjunction of tuple atoms, each optionally
  tagged for retraction (the paper's ``↑``; here ``Pattern.retract()``);
* the **test query** is a boolean expression over the bound variables which
  may itself contain dataspace-membership sub-queries
  (:class:`Membership`), composable with ``~``, ``&``, ``|``;
* the quantifier is ``∃`` (commit one arbitrary match) or ``∀`` (commit
  every match);
* a whole query may be negated (``no(...)`` builds the paper's
  ``¬∃ <index,*>`` guard), in which case it succeeds exactly when no match
  exists and may not retract anything.

Example — the paper's ``∃α: <year,α>↑, α > 87``::

    a, = variables("alpha")
    q = exists(a).match(P["year", a].retract()).such_that(a > 87)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.expressions import Bindings, EvalContext, Expr, Var, is_pure, kernel
from repro.core.matching import iter_joint_matches
from repro.core.patterns import Pattern
from repro.core.tuples import TupleId, TupleInstance
from repro.errors import QueryError, SDLError

__all__ = [
    "QueryAtom",
    "Membership",
    "Match",
    "QueryResult",
    "Query",
    "QueryBuilder",
    "exists",
    "forall",
    "no",
    "TRUE_QUERY",
]

EXISTS = "exists"
FORALL = "forall"


class QueryAtom:
    """A binding atom: a pattern, optionally tagged for retraction."""

    __slots__ = ("pattern", "retract")

    def __init__(self, pat: Pattern, retract: bool = False) -> None:
        if not isinstance(pat, Pattern):
            raise QueryError(f"query atom needs a Pattern, got {pat!r}")
        self.pattern = pat
        self.retract = retract

    def __repr__(self) -> str:
        return f"{self.pattern!r}{'^' if self.retract else ''}"


def _as_atom(obj: Pattern | QueryAtom) -> QueryAtom:
    if isinstance(obj, QueryAtom):
        return obj
    if isinstance(obj, Pattern):
        return QueryAtom(obj, retract=False)
    raise QueryError(f"expected Pattern or QueryAtom, got {obj!r}")


class Membership(Expr):
    """A dataspace-membership sub-query usable inside test predicates.

    ``Membership(P["index", ANY])`` evaluates to True iff the window holds a
    joint match of all its atoms under the current bindings.  Negate with
    ``~``.  Local variables of the sub-query are existential and do not
    leak.  An optional *test* expression is evaluated per joint match, so
    ``Membership(P["label", pi, lam], test=(lam > lr))`` expresses "some
    tuple has a larger label than λr".
    """

    __slots__ = ("patterns", "test")

    def __init__(self, *patterns: Pattern, test: Expr | None = None) -> None:
        if not patterns:
            raise QueryError("Membership needs at least one pattern")
        self.patterns = tuple(patterns)
        self.test = test

    def evaluate(self, ctx: EvalContext) -> bool:
        if ctx.window is None:
            raise QueryError("Membership evaluated without a window")
        bound = ctx.bindings.as_dict()
        planner = getattr(ctx.window, "planner", None)
        if planner is not None:
            joint = planner.iter_matches(
                ctx.window, self.patterns, bound, ctx.rng, test=self.test
            )
        else:
            joint = iter_joint_matches(ctx.window, self.patterns, bound, ctx.rng)
        for bindings, __ in joint:
            if self.test is None:
                return True
            inner = EvalContext(Bindings(bindings), window=ctx.window, rng=ctx.rng)
            if bool(self.test.evaluate(inner)):
                return True
        return False

    def free_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for pat in self.patterns:
            out |= pat.free_variables()
        if self.test is not None:
            out |= self.test.free_variables()
        return out

    def __repr__(self) -> str:
        body = ", ".join(repr(p) for p in self.patterns)
        if self.test is not None:
            body += f" : {self.test!r}"
        return f"EXISTS({body})"


@dataclass(frozen=True, slots=True)
class Match:
    """One committed query match: full bindings plus the instances involved."""

    bindings: dict[str, Any]
    instances: tuple[TupleInstance, ...]
    retracted: tuple[TupleInstance, ...]


@dataclass(slots=True)
class QueryResult:
    """The outcome of evaluating a query against a window."""

    success: bool
    matches: list[Match] = field(default_factory=list)

    @property
    def bindings(self) -> dict[str, Any]:
        """Bindings of the first match (the ∃ case)."""
        if not self.matches:
            return {}
        return self.matches[0].bindings

    def all_retracted(self) -> list[TupleInstance]:
        out: list[TupleInstance] = []
        for m in self.matches:
            out.extend(m.retracted)
        return out


def predicate_error(test: Expr, bindings: Mapping[str, Any], exc: Exception) -> QueryError:
    """The typed error for a test that raised *exc* under *bindings*."""
    return QueryError(
        f"test {test!r} cannot be evaluated under "
        f"{Bindings(bindings)!r}: {type(exc).__name__}: {exc}"
    )


class Query:
    """An immutable, evaluable SDL query."""

    __slots__ = (
        "quantifier", "variables", "atoms", "test", "negated", "require_nonempty",
        "_patterns", "_retract_mask", "_check", "_trivial",
    )

    def __init__(
        self,
        quantifier: str = EXISTS,
        variables: Sequence[Var | str] = (),
        atoms: Sequence[QueryAtom | Pattern] = (),
        test: Expr | None = None,
        negated: bool = False,
        require_nonempty: bool = False,
    ) -> None:
        if quantifier not in (EXISTS, FORALL):
            raise QueryError(f"unknown quantifier {quantifier!r}")
        self.quantifier = quantifier
        self.variables = tuple(v.name if isinstance(v, Var) else str(v) for v in variables)
        self.atoms = tuple(_as_atom(a) for a in atoms)
        self._patterns = tuple(a.pattern for a in self.atoms)
        self._retract_mask = tuple(a.retract for a in self.atoms)
        self.test = test
        self.negated = negated
        self.require_nonempty = require_nonempty
        #: The test compiled on first use (see :meth:`_passes_test`).
        self._check: Any = None
        self._trivial = self.is_trivial()
        if negated:
            if any(a.retract for a in self.atoms):
                raise QueryError("a negated query may not retract tuples")
            if quantifier == FORALL:
                raise QueryError("negation applies to existential queries only")

    def __reduce__(self):
        # Rebuild from the fields alone: the compiled test is generated code.
        return (
            Query,
            (self.quantifier, self.variables, self.atoms, self.test,
             self.negated, self.require_nonempty),
        )

    # ------------------------------------------------------------------
    def is_trivial(self) -> bool:
        return not self.atoms and self.test is None and not self.negated

    def retracts(self) -> bool:
        return any(a.retract for a in self.atoms)

    def _passes_test(
        self,
        bindings: dict[str, Any],
        window: Any,
        rng: random.Random | None,
    ) -> bool:
        test = self.test
        if test is None:
            return True
        check = self._check
        if check is None:
            # A pure test runs as its kernel over the bindings dict;
            # ``False`` marks an impure one, which needs the window.
            check = self._check = kernel(test) if is_pure(test) else False
        try:
            if check is False:
                ctx = EvalContext(Bindings(bindings), window=window, rng=rng)
                return bool(test.evaluate(ctx))
            return bool(check(bindings))
        except SDLError:
            raise
        except Exception as exc:
            raise predicate_error(test, bindings, exc) from exc

    def evaluate(
        self,
        window: Any,
        params: Mapping[str, Any] | None = None,
        rng: random.Random | None = None,
        excluded: frozenset[TupleId] | set[TupleId] = frozenset(),
    ) -> QueryResult:
        """Evaluate against *window* under process parameters *params*.

        ``∃``: the first (arbitrary, RNG-rotated) match is committed.
        ``∀``: every match is committed; matches are enumerated greedily so
        that an instance retracted by one accepted match cannot participate
        in a later one, while purely-read instances may be shared.  ``∀``
        with zero matches succeeds vacuously unless ``require_nonempty``.
        Negated queries succeed exactly when no match passes the test.

        *excluded* instances may not participate in binding atoms; the
        consensus engine uses this to evaluate participants against the
        dataspace net of earlier participants' retractions.

        When *window* carries a query planner (``window.planner``, attached
        by the engine unless ``plan="off"``), the query runs as its attempt
        kernel: the planned join, the test and the quantifier compiled once
        per (query, bound-name shape) into one function
        (:meth:`QueryPlanner.kernel_for`, `docs/SEMANTICS.md` §12).  The
        kernel of the last shape is found with one lookup and one
        comparison of the parameter names.  Without a planner the query
        runs the naive textual-order walk (:meth:`_walk`).  Both enumerate
        the same match set — only which arbitrary match a given seed lands
        on differs.
        """
        if params is None:
            params = {}
        planner = getattr(window, "planner", None)
        if planner is None:
            return self._walk(window, params, rng, excluded)
        if self._trivial:
            return QueryResult(True, [Match(dict(params), (), ())])
        latest = planner.kernels.get(self)
        if latest is None or params.keys() != latest[0]:
            return planner.kernel_for(self, params)(window, params, rng, excluded)
        planner.hits += 1
        if planner.obs is not None:
            planner.obs.count("sdl_plan_cache_total", result="hit")
        return latest[1](window, params, rng, excluded)

    def _walk(
        self,
        window: Any,
        params: Mapping[str, Any],
        rng: random.Random | None,
        excluded: frozenset[TupleId] | set[TupleId],
    ) -> QueryResult:
        """:meth:`evaluate` over the naive textual-order walk
        (:func:`~repro.core.matching.iter_joint_matches`): the
        ``plan="off"`` path and the differential oracle of the kernels."""
        bound = dict(params)
        patterns = self._patterns
        retract_mask = self._retract_mask

        if self.negated:
            for bindings, __ in iter_joint_matches(window, patterns, bound, rng, excluded):
                if self._passes_test(bindings, window, rng):
                    return QueryResult(False)
            return QueryResult(True)

        if self._trivial:
            return QueryResult(True, [Match(bound, (), ())])

        if self.quantifier == EXISTS:
            for bindings, instances in iter_joint_matches(
                window, patterns, bound, rng, excluded
            ):
                if not self._passes_test(bindings, window, rng):
                    continue
                retracted = tuple(
                    inst for inst, kill in zip(instances, retract_mask) if kill
                )
                return QueryResult(True, [Match(bindings, tuple(instances), retracted)])
            return QueryResult(False)

        # FORALL: greedy maximal enumeration, resumed in place.  *consumed*
        # is handed to the generator and mutated while it is suspended; the
        # matcher consults it live (per-depth at selection time plus a
        # re-check at the leaf), so accepting a retracting match simply
        # continues the same enumeration under the updated exclusion set —
        # one O(n) pass instead of a full restart after every retracting
        # match.  Query evaluation never mutates the window, so the
        # candidate space is stable across the whole enumeration.
        consumed: set[TupleId] = set(excluded)
        seen_signatures: set[tuple] = set()
        matches: list[Match] = []
        for bindings, instances in iter_joint_matches(window, patterns, bound, rng, consumed):
            if not self._passes_test(bindings, window, rng):
                continue
            retracted = tuple(
                inst for inst, kill in zip(instances, retract_mask) if kill
            )
            signature = (
                tuple(bindings.get(v) for v in self.variables),
                tuple(sorted(i.tid for i in retracted)),
            )
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            consumed.update(i.tid for i in retracted)
            matches.append(Match(bindings, tuple(instances), retracted))
        if self.require_nonempty and not matches:
            return QueryResult(False)
        return QueryResult(True, matches)

    def __repr__(self) -> str:
        quant = "∃" if self.quantifier == EXISTS else "∀"
        head = f"{'¬' if self.negated else ''}{quant}"
        if self.variables:
            head += " " + ",".join(self.variables) + ":"
        body = ", ".join(repr(a) for a in self.atoms)
        if self.test is not None:
            body += f" : {self.test!r}"
        return f"{head} {body}".strip()


#: Shared trivially-true query for pure-assertion transactions.
TRUE_QUERY = Query()


class QueryBuilder:
    """Fluent builder: ``exists(a).match(...).such_that(...)``."""

    __slots__ = ("_quantifier", "_variables", "_atoms", "_test", "_negated", "_nonempty")

    def __init__(self, quantifier: str, variables: Iterable[Var | str]) -> None:
        self._quantifier = quantifier
        self._variables = tuple(variables)
        self._atoms: list[QueryAtom] = []
        self._test: Expr | None = None
        self._negated = False
        self._nonempty = False

    def match(self, *atoms: Pattern | QueryAtom) -> "QueryBuilder":
        self._atoms.extend(_as_atom(a) for a in atoms)
        return self

    def such_that(self, test: Expr) -> "QueryBuilder":
        if self._test is None:
            self._test = test
        else:
            self._test = self._test & test
        return self

    def negate(self) -> "QueryBuilder":
        self._negated = True
        return self

    def nonempty(self) -> "QueryBuilder":
        self._nonempty = True
        return self

    def build(self) -> Query:
        return Query(
            self._quantifier,
            self._variables,
            self._atoms,
            self._test,
            self._negated,
            self._nonempty,
        )


def exists(*variables: Var | str) -> QueryBuilder:
    """Start an existential query over *variables* (may be empty)."""
    return QueryBuilder(EXISTS, variables)


def forall(*variables: Var | str) -> QueryBuilder:
    """Start a universal query over *variables*."""
    return QueryBuilder(FORALL, variables)


def no(*patterns: Pattern, such_that: Expr | None = None) -> Query:
    """The paper's ``¬∃ <...>`` guard: succeeds iff no joint match exists."""
    return Query(EXISTS, (), [QueryAtom(p) for p in patterns], such_that, negated=True)
