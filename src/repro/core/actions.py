"""Action lists — the second half of a transaction.

After a successful query, a transaction performs its *action list*:

* :class:`Let` — define a named constant in the process's environment
  (the paper's ``let N = α``); once per transaction, ∃ queries only;
* :class:`AssertTuple` — add a tuple to the dataspace (subject to the
  process's export set); executed **once per match** under ∀;
* :class:`Spawn` — create a new process instance (``Statistics(α)``);
  once per match under ∀;
* :class:`Exit` — terminate the enclosing guarded sequence *and* the
  enclosing repetition/replication;
* :class:`Abort` — terminate the issuing process;
* :class:`Skip` — do nothing (the paper uses it for empty action lists);
* :class:`CallPython` — escape hatch invoking a host callback with the
  match bindings; used by the test suite and the visualization layer, not
  part of the paper's language.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.core.expressions import Var, as_expr, is_pure
from repro.core.patterns import Pattern, pattern as make_pattern
from repro.errors import ActionError

__all__ = [
    "Action",
    "Let",
    "AssertTuple",
    "Spawn",
    "Exit",
    "Abort",
    "Skip",
    "CallPython",
    "pure_actions",
    "let",
    "assert_tuple",
    "spawn",
    "EXIT",
    "ABORT",
    "SKIP",
]


class Action:
    """Base class for transaction actions."""

    __slots__ = ()

    #: True if the action is applied once per ∀ match; False if once per
    #: transaction.
    per_match: bool = False


class Let(Action):
    """Bind a process-environment constant to an expression value."""

    __slots__ = ("name", "expr")
    per_match = False

    def __init__(self, target: Var | str, expr: Any) -> None:
        self.name = target.name if isinstance(target, Var) else str(target)
        self.expr = as_expr(expr)

    def __repr__(self) -> str:
        return f"let {self.name} = {self.expr!r}"


class AssertTuple(Action):
    """Assert a tuple built from an assertion pattern (no wildcards)."""

    __slots__ = ("pattern",)
    per_match = True

    def __init__(self, pat: Pattern) -> None:
        self.pattern = pat

    def __repr__(self) -> str:
        return f"assert {self.pattern!r}"


class Spawn(Action):
    """Create a process instance: ``Spawn("Statistics", alpha)``."""

    __slots__ = ("process_name", "args")
    per_match = True

    def __init__(self, process_name: str, *args: Any) -> None:
        self.process_name = process_name
        self.args = tuple(as_expr(a) for a in args)

    def __repr__(self) -> str:
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.process_name}({inner})"


class Exit(Action):
    """Terminate the enclosing guarded sequence and its repetition."""

    __slots__ = ()
    per_match = False

    def __repr__(self) -> str:
        return "exit"


class Abort(Action):
    """Terminate the issuing process."""

    __slots__ = ()
    per_match = False

    def __repr__(self) -> str:
        return "abort"


class Skip(Action):
    """The no-op action."""

    __slots__ = ()
    per_match = False

    def __repr__(self) -> str:
        return "skip"


class CallPython(Action):
    """Host-language escape hatch: ``callback(bindings)`` per match."""

    __slots__ = ("callback",)
    per_match = True

    def __init__(self, callback: Callable[[Mapping[str, Any]], None]) -> None:
        self.callback = callback

    def __repr__(self) -> str:
        name = getattr(self.callback, "__name__", "<callback>")
        return f"py:{name}"


# ----------------------------------------------------------------------
# sugar
# ----------------------------------------------------------------------

def let(target: Var | str, expr: Any) -> Let:
    """``let(N, alpha)`` — the paper's ``let N = α``."""
    return Let(target, expr)


def assert_tuple(*fields: Any) -> AssertTuple:
    """``assert_tuple("found", alpha)`` — the paper's ``(found, α)``."""
    if len(fields) == 1 and isinstance(fields[0], Pattern):
        return AssertTuple(fields[0])
    return AssertTuple(make_pattern(*fields))


def spawn(process_name: str, *args: Any) -> Spawn:
    """``spawn("Search", i, prop)`` — dynamic process creation."""
    return Spawn(process_name, *args)


#: Singleton convenience instances.
EXIT = Exit()
ABORT = Abort()
SKIP = Skip()


def validate_actions(actions: tuple[Action, ...], quantifier: str) -> None:
    """Reject action lists that are ill-formed for the query's quantifier."""
    if quantifier == "forall":
        for action in actions:
            if isinstance(action, Let):
                raise ActionError("let is ambiguous under a ∀ query; use ∃")


def pure_actions(actions: tuple[Action, ...]) -> bool:
    """Is every action in the pure fragment?

    ``let`` bodies, assertion templates and spawn arguments built from
    window-free, RNG-free expressions (:func:`~repro.core.expressions.is_pure`),
    plus the control actions.  ``CallPython`` is a host effect and never
    pure.  Pure actions read no window, and may be staged off the main
    process.
    """
    for action in actions:
        if isinstance(action, (Exit, Abort, Skip)):
            continue
        if isinstance(action, Let):
            if not is_pure(action.expr):
                return False
        elif isinstance(action, AssertTuple):
            for element in action.pattern.elements:
                expr = getattr(element, "expr", None)
                if expr is not None and not is_pure(expr):
                    return False
        elif isinstance(action, Spawn):
            if not all(is_pure(arg) for arg in action.args):
                return False
        else:  # CallPython, or a future action kind
            return False
    return True
