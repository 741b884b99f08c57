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
"""

from __future__ import annotations

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
    "as_expr",
    "conjuncts",
    "fn",
    "is_pure",
    "lift",
    "variables",
]


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

    @classmethod
    def over(cls, mapping: dict[str, Any]) -> "Bindings":
        """Bindings that read *mapping* live instead of copying it.

        For a caller that owns *mapping* and mutates it between
        evaluations (the planned join's search environment): build the
        view once, evaluate many times.  Never hand one out — it is only
        as immutable as its owner keeps the dict.
        """
        view = cls()
        view._map = mapping
        return view

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

    def with_bindings(self, bindings: Bindings) -> "EvalContext":
        return EvalContext(bindings, self.window, self.rng)


class Expr:
    """Base class for expression AST nodes.

    Subclasses implement :meth:`evaluate` and :meth:`free_variables`.
    Operator overloads build composite nodes so that test predicates read
    like the paper's notation (``~`` negation, ``&`` conjunction, ``|``
    disjunction).
    """

    __slots__ = ()

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

    def __repr__(self) -> str:
        return f"{self.symbol}{self.operand!r}"


class Call(Expr):
    """Application of a lifted Python function to expression arguments.

    This is how application predicates such as the region-labeling
    ``neighbor(p1, p2)`` or the threshold function ``T(v)`` enter SDL
    programs.
    """

    __slots__ = ("func", "args", "name")

    def __init__(self, func: Callable[..., Any], args: tuple[Expr, ...], name: str | None = None) -> None:
        self.func = func
        self.args = args
        self.name = name or getattr(func, "__name__", "<fn>")

    def evaluate(self, ctx: EvalContext) -> Any:
        return self.func(*(arg.evaluate(ctx) for arg in self.args))

    def free_variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for arg in self.args:
            out |= arg.free_variables()
        return out

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
    (:mod:`repro.runtime.parallel`) and test pushdown
    (:mod:`repro.core.plan`) both rest on it.
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


def lift(func: Callable[..., Any], name: str | None = None) -> Callable[..., Call]:
    """Lift a Python function into the expression language.

    >>> def double(x):
    ...     return 2 * x
    >>> d = lift(double)
    >>> d(Var("a"))
    double(a)
    """

    def builder(*args: Any) -> Call:
        return Call(func, tuple(as_expr(a) for a in args), name)

    builder.__name__ = name or getattr(func, "__name__", "lifted")
    return builder


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
