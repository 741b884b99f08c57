"""Expression mini-language used in queries, guards, actions, and views.

SDL transactions mix *query variables* (the paper's Greek letters), process
parameters, and computed values such as ``k - 2**(j-1)`` or ``alpha + beta``.
We realise this with a small expression AST built through Python operator
overloading::

    a, b = variables("alpha beta")
    test = (a > 87) & (b != a)
    summed = a + b

Expressions evaluate against an :class:`EvalContext`, which carries the
current variable bindings and (for dataspace-membership tests, defined in
:mod:`repro.core.query`) the window under examination.

A *pure* expression (:func:`is_pure`) also has one compiled form: the
text of a Python expression over the locals of generated code
(:func:`source`).  Attempt kernels and action stagers write that text into
their own generated code; every other hot path calls the expression's
:func:`kernel`, one generated function over a plain mapping of bindings
built from the same text.  :meth:`Expr.evaluate` stays the reference both
are tested against, and the one a kernel falls back on for a missing name.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Iterable, Mapping

from repro.core.values import value_repr
from repro.errors import RebindError, UnboundVariableError

__all__ = [
    "Bindings",
    "EvalContext",
    "Expr",
    "Var",
    "Const",
    "BinOp",
    "UnOp",
    "Call",
    "Kernel",
    "as_expr",
    "conjuncts",
    "define",
    "evaluate_under",
    "evaluator",
    "fn",
    "is_pure",
    "kernel",
    "lift",
    "named_keys",
    "NamedKeys",
    "source",
    "variables",
]

#: A compiled expression: ``fn(env) -> value`` over a plain mapping of
#: bindings (see :func:`kernel`).
Kernel = Callable[[Mapping[str, Any]], Any]


class Bindings:
    """An immutable mapping from variable names to SDL values.

    Binding is persistent-by-copy: :meth:`bind` returns a new object and
    refuses to rebind an existing name, which models SDL's single-assignment
    quantified variables and ``let`` constants.
    """

    __slots__ = ("_map",)

    EMPTY: "Bindings"

    def __init__(self, mapping: Mapping[str, Any] | None = None) -> None:
        self._map: dict[str, Any] = dict(mapping) if mapping else {}

    def bind(self, name: str, value: Any) -> "Bindings":
        if name in self._map:
            raise RebindError(name)
        child = Bindings(self._map)
        child._map[name] = value
        return child

    def bind_all(self, mapping: Mapping[str, Any]) -> "Bindings":
        out = self
        for name, value in mapping.items():
            out = out.bind(name, value)
        return out

    def get(self, name: str) -> Any:
        try:
            return self._map[name]
        except KeyError:
            raise UnboundVariableError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self):
        return iter(self._map)

    def as_dict(self) -> dict[str, Any]:
        return dict(self._map)

    @property
    def mapping(self) -> Mapping[str, Any]:
        """The bindings as a plain mapping, not copied: what a compiled
        :func:`kernel` reads.  Read-only by contract."""
        return self._map

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bindings):
            return NotImplemented
        return self._map == other._map

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={value_repr(v)}" for k, v in sorted(self._map.items()))
        return f"{{{inner}}}"


Bindings.EMPTY = Bindings()


class EvalContext:
    """Evaluation context: variable bindings plus an optional window.

    The window is only consulted by :class:`repro.core.query.Membership`
    expressions; plain arithmetic/boolean expressions ignore it.
    """

    __slots__ = ("bindings", "window", "rng")

    def __init__(self, bindings: Bindings, window: Any = None, rng: Any = None) -> None:
        self.bindings = bindings
        self.window = window
        self.rng = rng


class Expr:
    """Base class for expression AST nodes.

    Subclasses implement :meth:`evaluate` and :meth:`free_variables`; the
    pure kinds also compile (:func:`source`, :func:`kernel`).
    Operator overloads build composite nodes so that test predicates read
    like the paper's notation (``~`` negation, ``&`` conjunction, ``|``
    disjunction).
    """

    # ``_kernel``: a pure node's memoised kernel (see :func:`kernel`).
    __slots__ = ("_kernel",)

    def evaluate(self, ctx: EvalContext) -> Any:
        raise NotImplementedError

    def free_variables(self) -> frozenset[str]:
        raise NotImplementedError

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: Any) -> "Expr":
        return BinOp("+", operator.add, self, as_expr(other))

    def __radd__(self, other: Any) -> "Expr":
        return BinOp("+", operator.add, as_expr(other), self)

    def __sub__(self, other: Any) -> "Expr":
        return BinOp("-", operator.sub, self, as_expr(other))

    def __rsub__(self, other: Any) -> "Expr":
        return BinOp("-", operator.sub, as_expr(other), self)

    def __mul__(self, other: Any) -> "Expr":
        return BinOp("*", operator.mul, self, as_expr(other))

    def __rmul__(self, other: Any) -> "Expr":
        return BinOp("*", operator.mul, as_expr(other), self)

    def __floordiv__(self, other: Any) -> "Expr":
        return BinOp("//", operator.floordiv, self, as_expr(other))

    def __rfloordiv__(self, other: Any) -> "Expr":
        return BinOp("//", operator.floordiv, as_expr(other), self)

    def __truediv__(self, other: Any) -> "Expr":
        return BinOp("/", operator.truediv, self, as_expr(other))

    def __rtruediv__(self, other: Any) -> "Expr":
        return BinOp("/", operator.truediv, as_expr(other), self)

    def __mod__(self, other: Any) -> "Expr":
        return BinOp("%", operator.mod, self, as_expr(other))

    def __rmod__(self, other: Any) -> "Expr":
        return BinOp("%", operator.mod, as_expr(other), self)

    def __pow__(self, other: Any) -> "Expr":
        return BinOp("**", operator.pow, self, as_expr(other))

    def __rpow__(self, other: Any) -> "Expr":
        return BinOp("**", operator.pow, as_expr(other), self)

    def __neg__(self) -> "Expr":
        return UnOp("-", operator.neg, self)

    # -- comparisons ---------------------------------------------------
    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return BinOp("=", operator.eq, self, as_expr(other))

    def __ne__(self, other: Any) -> "Expr":  # type: ignore[override]
        return BinOp("!=", operator.ne, self, as_expr(other))

    def __lt__(self, other: Any) -> "Expr":
        return BinOp("<", operator.lt, self, as_expr(other))

    def __le__(self, other: Any) -> "Expr":
        return BinOp("<=", operator.le, self, as_expr(other))

    def __gt__(self, other: Any) -> "Expr":
        return BinOp(">", operator.gt, self, as_expr(other))

    def __ge__(self, other: Any) -> "Expr":
        return BinOp(">=", operator.ge, self, as_expr(other))

    # -- logical (paper's &, |, ~) --------------------------------------
    def __and__(self, other: Any) -> "Expr":
        return BinOp("&", _logical_and, self, as_expr(other))

    def __rand__(self, other: Any) -> "Expr":
        return BinOp("&", _logical_and, as_expr(other), self)

    def __or__(self, other: Any) -> "Expr":
        return BinOp("|", _logical_or, self, as_expr(other))

    def __ror__(self, other: Any) -> "Expr":
        return BinOp("|", _logical_or, as_expr(other), self)

    def __invert__(self) -> "Expr":
        return UnOp("~", operator.not_, self)

    # Expressions are identified by object identity; the __eq__ overload
    # above builds AST nodes, so hashing must not route through it.
    __hash__ = object.__hash__

    def __bool__(self) -> bool:
        raise TypeError(
            "SDL expressions are symbolic; use & | ~ instead of and/or/not, "
            "and evaluate() to obtain a value"
        )


def _logical_and(left: Any, right: Any) -> bool:
    return bool(left) and bool(right)


def _logical_or(left: Any, right: Any) -> bool:
    return bool(left) or bool(right)


class Var(Expr):
    """A named variable (quantified variable, ``let`` constant, or parameter)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"variable name must be a non-empty string: {name!r}")
        self.name = name

    def evaluate(self, ctx: EvalContext) -> Any:
        return ctx.bindings.get(self.name)

    def free_variables(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __reduce__(self):
        return (type(self), (self.name,))

    def __repr__(self) -> str:
        return self.name


class Const(Expr):
    """A literal value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, ctx: EvalContext) -> Any:
        return self.value

    def free_variables(self) -> frozenset[str]:
        return frozenset()

    def __reduce__(self):
        return (type(self), (self.value,))

    def __repr__(self) -> str:
        return value_repr(self.value)


class BinOp(Expr):
    """A binary operation node."""

    __slots__ = ("symbol", "op", "left", "right")

    def __init__(self, symbol: str, op: Callable[[Any, Any], Any], left: Expr, right: Expr) -> None:
        self.symbol = symbol
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, ctx: EvalContext) -> Any:
        return self.op(self.left.evaluate(ctx), self.right.evaluate(ctx))

    def free_variables(self) -> frozenset[str]:
        return self.left.free_variables() | self.right.free_variables()

    def __reduce__(self):
        return (type(self), (self.symbol, self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class UnOp(Expr):
    """A unary operation node."""

    __slots__ = ("symbol", "op", "operand")

    def __init__(self, symbol: str, op: Callable[[Any], Any], operand: Expr) -> None:
        self.symbol = symbol
        self.op = op
        self.operand = operand

    def evaluate(self, ctx: EvalContext) -> Any:
        return self.op(self.operand.evaluate(ctx))

    def free_variables(self) -> frozenset[str]:
        return self.operand.free_variables()

    def __reduce__(self):
        return (type(self), (self.symbol, self.op, self.operand))

    def __repr__(self) -> str:
        return f"{self.symbol}{self.operand!r}"


class Call(Expr):
    """Application of a lifted Python function to expression arguments.

    This is how application predicates such as the region-labeling
    ``neighbor(p1, p2)`` or the threshold function ``T(v)`` enter SDL
    programs.  A predicate may **name its keys** (:func:`lift`): an
    *enumerator* gives, for the other arguments, the first arguments it
    is true on, and a *domain* says where that holds.
    """

    __slots__ = ("func", "args", "name", "enumerator", "domain")

    def __init__(
        self,
        func: Callable[..., Any],
        args: tuple[Expr, ...],
        name: str | None = None,
        enumerator: Callable[..., Iterable[Any]] | None = None,
        domain: Callable[[Any], bool] | None = None,
    ) -> None:
        self.func = func
        self.args = args
        self.name = name or getattr(func, "__name__", "<fn>")
        self.enumerator = enumerator
        self.domain = domain

    def evaluate(self, ctx: EvalContext) -> Any:
        return self.func(*(arg.evaluate(ctx) for arg in self.args))

    def free_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for arg in self.args:
            out |= arg.free_variables()
        return out

    def __reduce__(self):
        return (type(self), (self.func, self.args, self.name, self.enumerator, self.domain))

    def __repr__(self) -> str:
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"


def as_expr(obj: Any) -> Expr:
    """Coerce *obj* into an expression (values become :class:`Const`)."""
    if isinstance(obj, Expr):
        return obj
    return Const(obj)


def is_pure(expr: Any) -> bool:
    """Is *expr* evaluable without a window, an RNG, or host effects?

    Pure means built only from :class:`Var`, :class:`Const`,
    :class:`BinOp`, :class:`UnOp` and :class:`Call` nodes (a lifted
    function is pure by contract).  ``Membership`` reads the process
    window (and may consume the RNG for arbitration), so it — like any
    expression kind this module does not define — is conservatively
    impure.  The one definition: worker eligibility
    (:mod:`repro.runtime.parallel`), test pushdown
    (:mod:`repro.core.plan`) and compilation (:func:`kernel`) all rest
    on it.
    """
    if isinstance(expr, (Var, Const)):
        return True
    if isinstance(expr, BinOp):
        return is_pure(expr.left) and is_pure(expr.right)
    if isinstance(expr, UnOp):
        return is_pure(expr.operand)
    if isinstance(expr, Call):
        return all(is_pure(arg) for arg in expr.args)
    return False


def conjuncts(expr: Expr) -> list[Expr]:
    """The top-level ``&``-conjuncts of *expr*, left to right.

    ``&`` evaluates both operands before combining them, so the order of
    conjuncts carries no guarding semantics and each one is a necessary
    condition of the whole: if any is falsy, *expr* is falsy or raises.
    """
    if isinstance(expr, BinOp) and expr.op is _logical_and:
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


#: The operators :func:`source` writes inline, with their Python spelling.
_INFIX = {
    operator.add: "+", operator.sub: "-", operator.mul: "*",
    operator.truediv: "/", operator.floordiv: "//", operator.mod: "%",
    operator.pow: "**", operator.eq: "==", operator.ne: "!=",
    operator.lt: "<", operator.le: "<=", operator.gt: ">", operator.ge: ">=",
}
_PREFIX = {operator.neg: "-", operator.not_: "not "}


def _param(params: Mapping[str, Any], name: str) -> Any:
    """A name :func:`source` finds in no local: read from *params*."""
    try:
        return params[name]
    except KeyError:
        raise UnboundVariableError(name) from None


#: How deep :func:`source` writes an expression inline.  A composite node
#: deeper than this is written as a call of its own :func:`kernel`, so no
#: generated function comes near the parser's limit of 200 nested
#: brackets, whatever the nesting of the expression.
MAX_INLINE_DEPTH = 48


def source(
    expr: Expr, locals_: Mapping[str, str], consts: dict[str, Any], depth: int = 0
) -> str:
    """The pure expression *expr* as the text of one Python expression,
    for generated code (:func:`kernel`,
    :func:`repro.core.plan.compile_kernel`,
    :func:`repro.core.transactions.compile_actions`).

    A name in *locals_* reads the local variable it maps to; any other
    name reads ``params`` (a mapping the generated code holds) when the
    expression runs, and raises :class:`UnboundVariableError` if it is
    missing.  The ``operator`` functions become infix, every other
    operator and every lifted function a direct call, and constants,
    operators and functions are added to *consts* (the generated code's
    globals) under fresh names.  ``&`` and ``|`` call :func:`_logical_and`
    / :func:`_logical_or`, so both sides are evaluated.  A subtree nested
    deeper than :data:`MAX_INLINE_DEPTH` (*depth* is that of *expr*)
    becomes a call of its own kernel over the names it reads.  Evaluating
    the text is :meth:`Expr.evaluate` over the same bindings: the same
    value, or the same exception.  An impure node has no source:
    ``TypeError``.
    """
    if isinstance(expr, Var):
        local = locals_.get(expr.name)
        if local is not None:
            return local
        consts["_param"] = _param
        return f"_param(params, {expr.name!r})"
    if isinstance(expr, Const):
        return _named(expr.value, consts)
    if depth > MAX_INLINE_DEPTH:
        names = sorted(expr.free_variables())
        reads = [f"{name!r}: {locals_[name]}" for name in names if name in locals_]
        if len(reads) < len(names):
            reads.insert(0, "**params")
        return f"{_named(kernel(expr), consts)}({{{', '.join(reads)}}})"
    depth += 1
    if isinstance(expr, BinOp):
        left = source(expr.left, locals_, consts, depth)
        right = source(expr.right, locals_, consts, depth)
        infix = _INFIX.get(expr.op)
        if infix is not None:
            return f"({left} {infix} {right})"
        return f"{_named(expr.op, consts)}({left}, {right})"
    if isinstance(expr, UnOp):
        operand = source(expr.operand, locals_, consts, depth)
        prefix = _PREFIX.get(expr.op)
        if prefix is not None:
            return f"({prefix}{operand})"
        return f"{_named(expr.op, consts)}({operand})"
    if isinstance(expr, Call):
        args = ", ".join(source(arg, locals_, consts, depth) for arg in expr.args)
        return f"{_named(expr.func, consts)}({args})"
    raise TypeError(f"{type(expr).__name__} is not a pure expression: it has no source")


def _named(value: Any, consts: dict[str, Any]) -> str:
    """A fresh global name for *value* in *consts*."""
    name = f"K{len(consts)}"
    while name in consts:
        name += "_"
    consts[name] = value
    return name


#: Compiled code, by generated source (:func:`define`).
_CODE: dict[str, Any] = {}

#: :data:`_CODE` flush threshold: programs generate a handful of shapes;
#: the bound only guards callers that churn expressions or queries.
_MAX_CODE_ENTRIES = 1024


def define(text: str, namespace: dict[str, Any]) -> Callable:
    """Run the generated source *text* — ``def generated(...)`` — in
    *namespace* and return that function.

    Generated source names its constants and reads them as globals from
    *namespace*, so it depends on a shape only (an expression's, a
    plan's, an action list's): each shape is compiled once per
    interpreter, however many engines build it.
    """
    code = _CODE.get(text)
    if code is None:
        if len(_CODE) >= _MAX_CODE_ENTRIES:
            _CODE.clear()
        code = _CODE[text] = compile(text, "<generated>", "exec")
    exec(code, namespace)
    return namespace["generated"]


def kernel(expr: Expr) -> Kernel:
    """The compiled form of the pure expression *expr*: ``fn(env)``.

    One generated function reads the names *expr* uses from *env* into
    locals and returns its :func:`source` over them; if a name is
    missing it returns :func:`evaluate_under` instead.  So
    ``kernel(expr)(env)`` is ``expr.evaluate(EvalContext(Bindings(env)))``
    — the same value, or the same exception, raised in the same order.
    Built on first use and memoised on the node; a hot caller keeps the
    function itself.  Pure nodes pickle from their fields alone, so a
    kernel never crosses a process boundary.  An impure node
    (:func:`is_pure`) has no kernel: ``TypeError``.
    """
    try:
        return expr._kernel
    except AttributeError:
        pass
    reads = {name: f"v{i}" for i, name in enumerate(sorted(expr.free_variables()))}
    consts: dict[str, Any] = {"evaluate_under": evaluate_under, "EXPR": expr}
    text = source(expr, reads, consts)
    lines = ["def generated(env):"]
    if reads:
        lines += [
            "    try:",
            *(f"        {local} = env[{name!r}]" for name, local in reads.items()),
            "    except KeyError:",
            "        return evaluate_under(EXPR, env)",
        ]
    lines.append(f"    return {text}")
    compiled = expr._kernel = define("\n".join(lines) + "\n", consts)
    return compiled


def evaluate_under(expr: Expr, env: Mapping[str, Any]) -> Any:
    """The reference evaluation of *expr* under plain-mapping bindings,
    without a window."""
    return expr.evaluate(EvalContext(Bindings(env)))


def evaluator(expr: Expr) -> Kernel:
    """``fn(env)`` evaluating any *expr* under plain-mapping bindings,
    without a window: its :func:`kernel` when pure, else
    :func:`evaluate_under` (where a ``Membership`` raises for want of a
    window).  Not memoised: callers keep the result."""
    if is_pure(expr):
        return kernel(expr)
    return functools.partial(evaluate_under, expr)


def lift(
    func: Callable[..., Any],
    name: str | None = None,
    *,
    enumerator: Callable[..., Iterable[Any]] | None = None,
    domain: Callable[[Any], bool] | None = None,
) -> Callable[..., Call]:
    """Lift a Python function into the expression language.

    >>> def double(x):
    ...     return 2 * x
    >>> d = lift(double)
    >>> d(Var("a"))
    double(a)

    A predicate may declare the values it is true on.  With *enumerator*
    given, ``func(k, *rest)`` must be ``True`` when ``k`` is among
    ``enumerator(*rest)`` and ``False`` otherwise, without raising, for
    every ``k`` and ``rest`` inside *domain* (a test on one value; no
    *domain* means every value).  Equal values inside the domain must be
    interchangeable: the key set is looked up by ``==`` and ``hash``.
    Outside the domain nothing is promised, and the function is asked
    (:func:`named_keys`).
    """

    def builder(*args: Any) -> Call:
        return Call(func, tuple(as_expr(a) for a in args), name, enumerator, domain)

    builder.__name__ = name or getattr(func, "__name__", "lifted")
    return builder


class NamedKeys:
    """The values of one variable an expression is true on, by name.

    Built by :func:`named_keys` from a ``|`` of ``key == e`` terms and
    calls of predicates that declare an enumerator with the key as their
    first argument, every other operand reading only process parameters.
    :meth:`keys` gives, under the parameters, the finite set of values
    that make the expression true; :meth:`within` says whether a value is
    inside every call's domain, where that set is the exact answer.
    """

    __slots__ = ("name", "equals", "calls", "domains")

    def __init__(self, name: str, equals: list[Expr], calls: list[Call]) -> None:
        self.name = name
        self.equals = tuple(equals)
        self.calls = tuple(calls)
        self.domains = tuple({id(c.domain): c.domain for c in calls if c.domain is not None}.values())

    def within(self, value: Any) -> bool:
        """Is *value* inside every call's domain?  A raising test says no."""
        try:
            for domain in self.domains:
                if not domain(value):
                    return False
        except Exception:
            return False
        return True

    def keys(self, params: Mapping[str, Any]) -> frozenset | None:
        """The values of the variable that make the expression true under
        *params*, or ``None`` when they cannot be named: an operand raises
        or falls outside its call's domain, or a value cannot be a dict
        key (unhashable, or a float NaN, which ``==`` never equals)."""
        out: set[Any] = set()
        try:
            for expr in self.equals:
                value = evaluator(expr)(params)
                if value != value:
                    return None
                out.add(value)
            for call in self.calls:
                rest = [evaluator(arg)(params) for arg in call.args[1:]]
                if call.domain is not None and not all(call.domain(v) for v in rest):
                    return None
                out.update(call.enumerator(*rest))
        except Exception:
            return None
        return frozenset(out)


def named_keys(expr: Expr | None, name: str) -> NamedKeys | None:
    """How *expr* names the values of variable *name*, or ``None``.

    Every ``|``-disjunct must be ``name == e`` (either side) or a call of
    a predicate with an enumerator whose first argument is ``name``, with
    every other operand pure and free of *name* (a view rule's other
    guard variables are process parameters).  Then, for a value inside
    the calls' domains, *expr* is true iff the value is in
    :meth:`NamedKeys.keys`, and it does not raise.  ``|`` evaluates both
    sides, so a disjunct that can raise anywhere would spoil that; these
    cannot inside the domain.
    """
    if expr is None:
        return None
    params = expr.free_variables() - {name}
    equals: list[Expr] = []
    calls: list[Call] = []
    pending = [expr]
    while pending:
        term = pending.pop()
        if isinstance(term, BinOp) and term.op is _logical_or:
            pending += [term.right, term.left]
        elif isinstance(term, BinOp) and term.op is operator.eq:
            for key, other in ((term.left, term.right), (term.right, term.left)):
                if isinstance(key, Var) and key.name == name and other.free_variables() <= params:
                    if not is_pure(other):
                        return None
                    equals.append(other)
                    break
            else:
                return None
        elif (
            isinstance(term, Call)
            and term.enumerator is not None
            and term.args
            and isinstance(term.args[0], Var)
            and term.args[0].name == name
            and all(is_pure(arg) and arg.free_variables() <= params for arg in term.args[1:])
        ):
            calls.append(term)
        else:
            return None
    return NamedKeys(name, equals, calls)


#: Alias matching the library's public-API naming (``fn(lambda ...)``).
fn = lift


def variables(names: str | Iterable[str]) -> tuple[Var, ...]:
    """Create several variables at once.

    >>> a, b = variables("alpha beta")
    >>> a.name, b.name
    ('alpha', 'beta')
    """
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    return tuple(Var(n) for n in names)
