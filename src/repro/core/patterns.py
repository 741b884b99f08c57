"""The SDL pattern language.

A pattern describes a family of tuples using, per field:

* a **constant** — or, more generally, an expression over already-bound
  variables and process parameters (``k - 2**(j-1)``);
* the **wildcard** marker ``*`` (the :data:`ANY` sentinel);
* a **variable** — binds on first occurrence, tests equality thereafter.

Patterns are used in three roles: query atoms (binding/retracting tuples),
assertion templates (every field must evaluate to a value), and view rules
(import/export families, see :mod:`repro.core.views`).

The :func:`pattern` helper (and its indexing alias ``P``) builds patterns
from a natural mixed notation::

    a, b = variables("alpha beta")
    pattern("year", a)           # <year, alpha>
    pattern(7, a + b)            # <7, alpha+beta>
    P["year", ANY]               # <year, *>

A pattern compiles once, on first use, into a :class:`CompiledPattern`: its
fields split by role, each literal expression carrying its evaluator (its
generated :func:`~repro.core.expressions.kernel` when pure).  That
one compilation serves :meth:`Pattern.match`, :meth:`Pattern.index_constants`,
:meth:`Pattern.instantiate` and the query planner; the per-element
:meth:`PatternElement.match` walk stays as the reference.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.core.expressions import (
    Bindings,
    Const,
    EvalContext,
    Expr,
    Kernel,
    Var,
    evaluate_under,
    evaluator,
    is_pure,
)
from repro.core.values import is_value
from repro.errors import ArityError, PatternError, QueryError, SDLError

__all__ = [
    "ANY",
    "Wildcard",
    "PatternElement",
    "LitElement",
    "VarElement",
    "WildElement",
    "CompiledPattern",
    "Pattern",
    "compile_pattern",
    "literal_error",
    "pattern",
    "P",
]


class Wildcard:
    """Singleton sentinel for the paper's ``*`` marker."""

    _instance: "Wildcard | None" = None

    def __new__(cls) -> "Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


#: The wildcard marker: matches any value, binds nothing.
ANY = Wildcard()


class PatternElement:
    """Base class for the three field kinds."""

    __slots__ = ()

    def match(self, value: Any, bound: Mapping[str, Any]) -> dict[str, Any] | None:
        """Match *value* under the bindings *bound*.

        Returns a (possibly empty) dict of **new** bindings on success, or
        ``None`` on failure.  Raises :class:`UnboundVariableError` if the
        element is an expression whose variables are not yet all bound.
        """
        raise NotImplementedError

    def free_variables(self) -> frozenset[str]:
        raise NotImplementedError


class LitElement(PatternElement):
    """A field that must equal the value of an expression."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr

    def match(self, value: Any, bound: Mapping[str, Any]) -> dict[str, Any] | None:
        expected = evaluate_under(self.expr, bound)
        return {} if expected == value else None

    def free_variables(self) -> frozenset[str]:
        return self.expr.free_variables()

    def __repr__(self) -> str:
        return repr(self.expr)


class VarElement(PatternElement):
    """A field holding a quantified variable."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def match(self, value: Any, bound: Mapping[str, Any]) -> dict[str, Any] | None:
        if self.name in bound:
            return {} if bound[self.name] == value else None
        return {self.name: value}

    def free_variables(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __repr__(self) -> str:
        return self.name


class WildElement(PatternElement):
    """The ``*`` field: matches anything."""

    __slots__ = ()

    def match(self, value: Any, bound: Mapping[str, Any]) -> dict[str, Any] | None:
        return {}

    def free_variables(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return "*"


_WILD = WildElement()


def literal_error(expr: Expr, env: Mapping[str, Any], exc: Exception) -> QueryError:
    """The typed error for a pattern field whose expression raised *exc*
    under *env*: the expression, the bindings and ``Type: msg``, as for a
    raising test (``Query._passes_test``)."""
    return QueryError(
        f"pattern field {expr!r} cannot be evaluated under "
        f"{Bindings(env)!r}: {type(exc).__name__}: {exc}"
    )


def _as_element(field: Any) -> PatternElement:
    if isinstance(field, PatternElement):
        return field
    if field is ANY or isinstance(field, Wildcard):
        return _WILD
    if isinstance(field, Var):
        return VarElement(field.name)
    if isinstance(field, Expr):
        return LitElement(field)
    if is_value(field):
        return LitElement(Const(field))
    raise PatternError(f"cannot use {field!r} as a pattern field")


# Field roles of a compiled pattern (``CompiledPattern.roles``).
_VAR, _CONST, _PURE, _IMPURE = range(4)


class CompiledPattern:
    """The once-per-pattern compilation: element kinds split by role.

    Independent of any binding environment.  :attr:`roles` lists the
    non-wildcard fields in position order as ``(position, kind, payload,
    free, expr)`` — a variable's name, a constant's value, or a literal
    expression's evaluator — and is what :meth:`Pattern.match`,
    :meth:`Pattern.index_constants` and :meth:`Pattern.instantiate` walk.
    The query planner (:mod:`repro.core.plan`) reads the role-split arrays
    — *static probes* (pure constants), *expression slots* (evaluable once
    their variables are bound, through :attr:`evaluators`) and *variable
    slots* — and specialises the variable slots per join step.
    """

    __slots__ = (
        "pattern",
        "arity",
        "static_probes",
        "expr_slots",
        "var_slots",
        "binding_names",
        "expr_free",
        "free_names",
        "evaluators",
        "roles",
        "first_wild",
    )

    def __init__(self, pat: "Pattern") -> None:
        self.pattern = pat
        self.arity = pat.arity
        static_probes: list[tuple[int, Any]] = []
        expr_slots: list[tuple[int, Expr, frozenset[str]]] = []
        var_slots: list[tuple[int, str]] = []
        roles: list[tuple] = []
        evaluators: dict[int, Kernel] = {}
        wildcards: list[int] = []
        for position, element in enumerate(pat.elements):
            if isinstance(element, WildElement):
                wildcards.append(position)
            elif isinstance(element, VarElement):
                var_slots.append((position, element.name))
                roles.append((position, _VAR, element.name, None, None))
            else:
                assert isinstance(element, LitElement)
                expr = element.expr
                if isinstance(expr, Const):
                    static_probes.append((position, expr.value))
                    roles.append((position, _CONST, expr.value, None, None))
                else:
                    free = expr.free_variables()
                    evaluators[position] = evaluate = evaluator(expr)
                    kind = _PURE if is_pure(expr) else _IMPURE
                    expr_slots.append((position, expr, free))
                    roles.append((position, kind, evaluate, free, expr))
        self.static_probes = tuple(static_probes)
        self.expr_slots = tuple(expr_slots)
        self.var_slots = tuple(var_slots)
        #: ``position -> fn(env)`` for every expression slot.
        self.evaluators = evaluators
        self.roles = tuple(roles)
        #: Position of the first wildcard; the arity when there is none.
        self.first_wild = wildcards[0] if wildcards else self.arity
        self.binding_names = frozenset(name for __, name in var_slots)
        free_names: frozenset[str] = frozenset()
        for __, __, names in expr_slots:
            free_names |= names
        self.expr_free = free_names
        self.free_names = free_names | self.binding_names

    def __repr__(self) -> str:
        return (
            f"CompiledPattern({self.pattern!r}, "
            f"static={len(self.static_probes)}, exprs={len(self.expr_slots)}, "
            f"vars={len(self.var_slots)})"
        )


class Pattern:
    """An immutable sequence of pattern elements with a fixed arity."""

    __slots__ = ("elements", "_free", "_compiled")

    def __init__(self, elements: Iterable[PatternElement]) -> None:
        self.elements: tuple[PatternElement, ...] = tuple(elements)
        if not self.elements:
            raise ArityError("patterns must have at least one field")
        free: frozenset[str] = frozenset()
        for el in self.elements:
            free |= el.free_variables()
        self._free = free
        #: Memoised :class:`CompiledPattern` (filled by :func:`compile_pattern`
        #: on first use; patterns are immutable, so it never goes stale).
        self._compiled: CompiledPattern | None = None

    def __reduce__(self):
        # Rebuild from the elements alone: the compiled roles hold
        # generated kernels, which must not cross process boundaries
        # (parallel apply ships patterns to worker processes).
        return (Pattern, (self.elements,))

    @property
    def arity(self) -> int:
        return len(self.elements)

    def free_variables(self) -> frozenset[str]:
        return self._free

    def binding_variables(self) -> frozenset[str]:
        """Names that occur as bare variable fields (candidates for binding)."""
        return frozenset(
            el.name for el in self.elements if isinstance(el, VarElement)
        )

    def match(self, values: tuple, bound: Mapping[str, Any]) -> dict[str, Any] | None:
        """Match a value tuple, returning new bindings or ``None``.

        Fields are checked left to right and the first mismatch ends the
        walk.  A variable occurring twice in the same pattern must match
        equal values, and a literal expression sees the variables bound by
        the fields before it — the per-element :meth:`PatternElement.match`
        walk, which stays the reference, run over the compiled roles.  A
        literal whose expression raises is a
        :class:`~repro.errors.QueryError` (:func:`literal_error`).
        """
        compiled = self._compiled or compile_pattern(self)
        if len(values) != compiled.arity:
            return None
        new: dict[str, Any] = {}
        for position, kind, payload, __, expr in compiled.roles:
            value = values[position]
            if kind == _VAR:
                if payload in bound:
                    if not bound[payload] == value:
                        return None
                elif payload in new:
                    if not new[payload] == value:
                        return None
                else:
                    new[payload] = value
            elif kind == _CONST:
                if not payload == value:
                    return None
            else:
                env = {**bound, **new} if new else bound
                try:
                    expected = payload(env)
                except SDLError:
                    raise
                except Exception as exc:
                    raise literal_error(expr, env, exc) from exc
                if not expected == value:
                    return None
        return new

    def matches(self, values: tuple, bound: Mapping[str, Any] | None = None) -> bool:
        """Convenience boolean form of :meth:`match`."""
        return self.match(values, bound or {}) is not None

    def instantiate(self, ctx: EvalContext) -> tuple:
        """Evaluate the pattern into a concrete value tuple (for assertions).

        Wildcards are not permitted, and every variable must be bound.
        Fields are evaluated left to right, up to the first wildcard.
        """
        compiled = self._compiled or compile_pattern(self)
        bindings = ctx.bindings
        env = bindings.mapping
        first_wild = compiled.first_wild
        out = []
        for position, kind, payload, __, expr in compiled.roles:
            if position > first_wild:
                break
            if kind == _VAR:
                out.append(bindings.get(payload))
            elif kind == _CONST:
                out.append(payload)
            elif kind == _PURE:
                out.append(payload(env))
            else:
                out.append(expr.evaluate(ctx))
        if first_wild < compiled.arity:
            raise PatternError("cannot assert a tuple containing a wildcard")
        return tuple(out)

    def index_constants(self, bound: Mapping[str, Any]) -> list[tuple[int, Any]]:
        """Per-position constant values currently determinable, for index probes.

        A literal contributes if every variable of its expression is bound
        in *bound* (one that then raises is a
        :class:`~repro.errors.QueryError`); a variable contributes if it is
        already bound.  Wildcards never contribute.
        """
        compiled = self._compiled or compile_pattern(self)
        probes: list[tuple[int, Any]] = []
        for position, kind, payload, free, expr in compiled.roles:
            if kind == _VAR:
                if payload in bound:
                    probes.append((position, bound[payload]))
            elif kind == _CONST:
                probes.append((position, payload))
            elif free <= bound.keys():
                try:
                    probes.append((position, payload(bound)))
                except SDLError:
                    raise
                except Exception as exc:
                    raise literal_error(expr, bound, exc) from exc
        return probes

    def retract(self) -> "Any":
        """Tag this pattern for retraction inside a query (the paper's ``↑``)."""
        from repro.core.query import QueryAtom

        return QueryAtom(self, retract=True)

    def __iter__(self) -> Iterator[PatternElement]:
        return iter(self.elements)

    def __repr__(self) -> str:
        body = ",".join(repr(el) for el in self.elements)
        return f"<{body}>"


def compile_pattern(pat: Pattern) -> CompiledPattern:
    """Compile *pat* once; the result is memoised on the pattern."""
    compiled = pat._compiled
    if compiled is None:
        compiled = pat._compiled = CompiledPattern(pat)
    return compiled


def pattern(*fields: Any) -> Pattern:
    """Build a :class:`Pattern` from mixed fields.

    Accepted field kinds: SDL values (including :class:`~repro.core.values.Atom`),
    :class:`~repro.core.expressions.Var`, arbitrary expressions, the
    :data:`ANY` wildcard, and prebuilt :class:`PatternElement` objects.
    """
    return Pattern(_as_element(f) for f in fields)


class _PatternIndexer:
    """Sugar so ``P[a, b, ANY]`` reads like the paper's ``<a,b,*>``."""

    def __getitem__(self, fields: Any) -> Pattern:
        if not isinstance(fields, tuple):
            fields = (fields,)
        return pattern(*fields)

    def __call__(self, *fields: Any) -> Pattern:
        return pattern(*fields)


#: Indexable pattern builder: ``P["year", alpha]`` == ``pattern("year", alpha)``.
P = _PatternIndexer()
