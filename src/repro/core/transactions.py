"""Transactions: atomic query-plus-actions units in three operational modes.

The paper (Section 2.2)::

    transaction ::= query transaction_type_tag action_list

* ``→`` **immediate** — evaluated once; succeeds or fails, failure leaves
  the dataspace untouched;
* ``⇒`` **delayed** — blocks the issuing process until the query can
  succeed (weak fairness);
* ``⇑`` **consensus** — blocks until the process's whole consensus set is
  ready, then commits as part of a composite transaction
  (:mod:`repro.core.consensus`).

This module is scheduler-agnostic.  A transaction is *staged*, then
*applied*: :func:`stage` evaluates the query and the action list against a
window into a :class:`TransactionOutcome` without touching anything, and
:func:`apply` is the only code that then mutates the dataspace, so an
action that raises leaves ``(D, S)`` as it was.  The runtime engine
decides *when* to call them (and, for delayed/consensus, when to retry).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.actions import (
    Abort,
    Action,
    AssertTuple,
    CallPython,
    Exit,
    Let,
    Skip,
    Spawn,
    pure_actions,
    validate_actions,
)
from repro.core.expressions import Bindings, Const, EvalContext, define, is_pure, kernel, source
from repro.core.patterns import LitElement, Pattern, VarElement
from repro.core.query import Query, QueryBuilder, QueryResult, TRUE_QUERY
from repro.core.tuples import TupleInstance
from repro.core.views import Window
from repro.errors import (
    ExportViolation, PatternError, SDLError, TransactionError, UnboundVariableError,
)

__all__ = [
    "Mode",
    "Control",
    "Transaction",
    "TransactionOutcome",
    "action_error",
    "stage",
    "stage_actions",
    "compile_actions",
    "settle",
    "apply",
    "execute",
    "immediate",
    "delayed",
    "consensus",
    "TransactionBuilder",
]


class Mode(enum.Enum):
    """The paper's transaction type tags."""

    IMMEDIATE = "->"
    DELAYED = "=>"
    CONSENSUS = "^^"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.name


class Control(enum.Enum):
    """Control effect carried out of a committed transaction."""

    NONE = "none"
    EXIT = "exit"
    ABORT = "abort"


class Transaction:
    """An immutable transaction: query, mode, action list, optional label.

    ``pure`` says whether every action is in the pure fragment
    (:func:`~repro.core.actions.pure_actions`): such a list reads no
    window while it is staged, and may be staged on a pool worker.
    """

    __slots__ = ("query", "mode", "actions", "label", "pure", "stager")

    def __init__(
        self,
        query: Query | QueryBuilder | None,
        mode: Mode,
        actions: Sequence[Action] = (),
        label: str | None = None,
    ) -> None:
        if isinstance(query, QueryBuilder):
            query = query.build()
        self.query = query if query is not None else TRUE_QUERY
        self.mode = mode
        self.actions = tuple(actions)
        self.label = label
        validate_actions(self.actions, self.query.quantifier)
        self.pure = pure_actions(self.actions)
        #: The action list resolved once, on first staging
        #: (:func:`compile_actions`).
        self.stager: Callable | None = None

    def __reduce__(self):
        # Rebuild from the fields alone: the stager is generated code.
        return (Transaction, (self.query, self.mode, self.actions, self.label))

    def with_actions(self, *actions: Action) -> "Transaction":
        return Transaction(self.query, self.mode, self.actions + tuple(actions), self.label)

    def relabel(self, label: str) -> "Transaction":
        return Transaction(self.query, self.mode, self.actions, label)

    def is_blocking(self) -> bool:
        return self.mode is not Mode.IMMEDIATE

    def __repr__(self) -> str:
        tag = {Mode.IMMEDIATE: "->", Mode.DELAYED: "=>", Mode.CONSENSUS: "^^"}[self.mode]
        name = f"[{self.label}] " if self.label else ""
        acts = "; ".join(repr(a) for a in self.actions) or "skip"
        return f"{name}{self.query!r} {tag} {acts}"


@dataclass(slots=True)
class TransactionOutcome:
    """A transaction's effect: staged by :func:`stage`, carried out by
    :func:`apply`.

    Staging fills everything but ``asserted``: the instances the query
    retracts, the export-checked values to assert (``assertions``, for
    ``owner``), spawns, ``let`` values, control and the ``CallPython``
    callbacks with their bindings.  ``asserted`` holds the instances
    :func:`apply` inserted for it (left empty on the members of a
    consensus composite, whose assertions are reported on the composite).
    ``error`` is what an action raised while staging; :func:`settle`
    raises it.
    """

    success: bool
    control: Control = Control.NONE
    lets: dict[str, Any] = field(default_factory=dict)
    asserted: list[TupleInstance] = field(default_factory=list)
    retracted: list[TupleInstance] = field(default_factory=list)
    spawned: list[tuple[str, tuple]] = field(default_factory=list)
    match_count: int = 0
    reads: int = 0
    owner: int = 0
    assertions: list[tuple] = field(default_factory=list)
    callbacks: list[tuple[Callable, dict[str, Any]]] = field(default_factory=list)
    error: Exception | None = None

    @classmethod
    def failure(cls) -> "TransactionOutcome":
        return cls(success=False)


def stage(
    txn: Transaction,
    window: Window,
    params: Mapping[str, Any],
    owner: int,
    rng: random.Random | None = None,
    result: QueryResult | None = None,
    export_policy: str = "error",
    before: Sequence[QueryResult] = (),
) -> TransactionOutcome:
    """Evaluate *txn* for the process owning *window* into its effect.

    Nothing is mutated: the dataspace changes only when :func:`apply`
    carries the effect out.  The query is evaluated against the window
    (unless a pre-computed *result* is supplied), then the action list:
    per-match actions (assertions, spawns, callbacks) once per ∀ match,
    once in total under ∃; ``let`` and control actions once.  Actions read
    the window minus the retractions staged so far: *result*'s, and those
    of *before*, the results staged ahead of this one in a composite.

    Raises what an action raised, or :class:`ExportViolation`; either way
    nothing has been applied.
    """
    if result is None:
        result = txn.query.evaluate(window.refresh(), params, rng)
    if not result.success:
        return TransactionOutcome.failure()
    matches = result.matches
    stager = txn.stager
    if stager is None:
        stager = txn.stager = compile_actions(txn.actions)
    effect = stager(
        TransactionOutcome(success=True),
        dict(matches[0].bindings) if matches else dict(params),
        [match.bindings for match in matches],
        window if txn.pure else _Unretracted(window, (*before, result)),
        rng,
    )
    return settle(effect, result, window, owner, export_policy, before)


def stage_actions(
    effect: TransactionOutcome,
    actions: Sequence[Action],
    once_env: dict[str, Any],
    match_bindings: Sequence[Mapping[str, Any]],
    window: Any = None,
    rng: random.Random | None = None,
) -> TransactionOutcome:
    """Evaluate *actions* into *effect*, touching nothing.

    ``let`` bodies extend *once_env* (in place); per-match actions run
    under each of *match_bindings* plus the ``let`` values, or under
    *once_env* when there are none.  *window* serves ``Membership``
    sub-queries; the worker pool stages the pure fragment with none.  An
    action that raises stops the staging: its error (typed by
    :func:`action_error`) is kept in ``effect.error``, after what was
    staged before it.  A :class:`Transaction` keeps this function for its
    own actions, compiled (``Transaction.stager``).
    """
    return compile_actions(tuple(actions))(effect, once_env, match_bindings, window, rng)


def compile_actions(actions: tuple[Action, ...]) -> Callable:
    """*actions* resolved once into ``stager(effect, once_env,
    match_bindings, window, rng)``, which is :func:`stage_actions` for
    them.

    Every action is written out in order: a template's fields (and a
    spawn's arguments, a ``let`` body) are written into the source when
    pure (:func:`~repro.core.expressions.source`, over locals read from
    the environment; with a name missing, the expression's
    :func:`~repro.core.expressions.kernel` raises what the expression
    raises first) and the generic evaluation under an
    :class:`EvalContext` otherwise; a variable field
    reads the environment and raises :class:`UnboundVariableError` as
    ``Bindings.get`` does.  Fields are evaluated left to right, up to the
    first wildcard, as :meth:`Pattern.instantiate` does.  Without a
    ``let`` in the list a match's bindings are its environment as they
    are (the merge with no ``let`` values is a copy nobody writes).
    """
    consts: dict[str, Any] = {
        "SDLError": SDLError, "UnboundVariableError": UnboundVariableError,
        "PatternError": PatternError, "TransactionError": TransactionError,
        "action_error": action_error, "EvalContext": EvalContext,
        "Bindings": Bindings, "EXIT": Control.EXIT, "ABORT": Control.ABORT,
    }
    merged = any(isinstance(action, Let) for action in actions)
    body: list[str] = []

    def value(name: str, expr: Any) -> None:
        """Emit ``name = <expr under env>``."""
        consts[name.upper()] = expr
        if is_pure(expr):
            reads = {var: f"{name}_{k}" for k, var in enumerate(sorted(expr.free_variables()))}
            text = f"{name} = {source(expr, reads, consts)}"
            if not reads:
                body.append(text)
                return
            consts[f"K{name}"] = kernel(expr)
            body.extend((
                "try:",
                *(f"    {local} = env[{var!r}]" for var, local in reads.items()),
                "except KeyError:",
                f"    {name} = K{name}(env)",
                "else:",
                f"    {text}",
            ))
        else:
            body.append(
                f"{name} = {name.upper()}.evaluate("
                "EvalContext(Bindings(env), window=window, rng=rng))"
            )

    def template(i: int, pattern: Pattern) -> str:
        fields = []
        for position, element in enumerate(pattern.elements):
            name = f"v{i}_{position}"
            if isinstance(element, VarElement):
                body.extend((
                    "try:",
                    f"    {name} = env[{element.name!r}]",
                    "except KeyError:",
                    f"    raise UnboundVariableError({element.name!r}) from None",
                ))
            elif isinstance(element, LitElement) and isinstance(element.expr, Const):
                consts[name] = element.expr.value
            elif isinstance(element, LitElement):
                value(name, element.expr)
            else:  # a wildcard
                body.append("raise PatternError('cannot assert a tuple containing a wildcard')")
                break
            fields.append(name)
        return "(" + "".join(f"{name}, " for name in fields) + ")"

    for i, action in enumerate(actions):
        consts[f"A{i}"] = action
        if isinstance(action, (Exit, Abort, Skip)):
            if not isinstance(action, Skip):
                body.append(f"effect.control = {'EXIT' if isinstance(action, Exit) else 'ABORT'}")
            continue
        body.append(f"action = A{i}")
        if isinstance(action, Let):
            body.append("env = once_env")
            value(f"l{i}", action.expr)
            body.append(f"lets[{action.name!r}] = once_env[{action.name!r}] = l{i}")
            continue
        start = len(body)
        if isinstance(action, AssertTuple):
            built = template(i, action.pattern)
            body.append(f"effect.assertions.append({built})")
        elif isinstance(action, Spawn):
            for j, arg in enumerate(action.args):
                value(f"s{i}_{j}", arg)
            args = "".join(f"s{i}_{j}, " for j in range(len(action.args)))
            body.append(f"effect.spawned.append(({action.process_name!r}, ({args})))")
        elif isinstance(action, CallPython):
            body.append(f"effect.callbacks.append((A{i}.callback, dict(env)))")
        else:  # pragma: no cover - future action kinds
            body.append(f"raise TransactionError('unknown action ' + repr(A{i}))")
        # Per match: the loop over this action's environments.
        envs = "[{**b, **lets} for b in match_bindings]" if merged else "match_bindings"
        body[start:] = [
            f"for env in ({envs} if match_bindings else (once_env,)):",
            *("    " + line for line in body[start:]),
        ]
    lines = [
        "def generated(effect, once_env, match_bindings, window, rng):",
        "    lets = effect.lets",
        "    action = env = None",
        "    try:",
        *("        " + line for line in body or ["pass"]),
        "    except SDLError as exc:",
        "        effect.error = exc",
        "    except Exception as exc:",
        "        effect.error = action_error(action, env, exc)",
        "        effect.error.__cause__ = exc",
        "    return effect",
    ]
    return define("\n".join(lines) + "\n", consts)


def settle(
    effect: TransactionOutcome,
    result: QueryResult,
    window: Window,
    owner: int,
    export_policy: str = "error",
    before: Sequence[QueryResult] = (),
) -> TransactionOutcome:
    """Complete a staged action half — :func:`stage`'s own or a pool
    worker's — on the main process.

    Records the query half from *result* (its retractions and reads),
    export-checks the staged assertions in order, then raises the error
    an action raised: the order a serial evaluation meets them in.  The
    ``where`` atoms of an export rule read the dataspace minus the
    retractions of *result* and of *before*.  Under
    ``export_policy="drop"`` a value outside the export set is dropped.
    """
    effect.owner = owner
    matches = result.matches
    effect.match_count = len(matches)
    reads = 0
    for match in matches:
        effect.retracted.extend(match.retracted)
        reads += len(match.instances)
    effect.reads = reads
    assertions = effect.assertions
    view = window.view
    if assertions and view.exports is not None:
        space = _Unretracted(window.dataspace, (*before, result))
        kept = []
        for values in assertions:
            if view.exports_value(values, space, window.params):
                kept.append(values)
            elif export_policy != "drop":
                raise ExportViolation(str(owner), values)
        effect.assertions = kept
    if effect.error is not None:
        raise effect.error
    return effect


def apply(effects: Sequence[TransactionOutcome], dataspace: Any) -> list[TupleInstance]:
    """Carry out staged *effects* as one transaction and return the
    asserted instances: every retraction, then every assertion, each in
    effect order, as one dataspace change
    (:meth:`~repro.core.dataspace.Dataspace.apply_change`).  The only code
    that mutates the dataspace for a transaction; the callers run the
    staged callbacks afterwards."""
    if len(effects) == 1:
        (effect,) = effects
        return dataspace.apply_change(effect.retracted, ((effect.owner, effect.assertions),))
    return dataspace.apply_change(
        [inst for effect in effects for inst in effect.retracted],
        [(effect.owner, effect.assertions) for effect in effects],
    )


def execute(
    txn: Transaction,
    window: Window,
    params: Mapping[str, Any],
    owner: int,
    rng: random.Random | None = None,
    result: QueryResult | None = None,
    export_policy: str = "error",
) -> TransactionOutcome:
    """:func:`stage`, :func:`apply`, then the staged callbacks, in action
    order — for callers that do not split the transaction."""
    effect = stage(txn, window, params, owner, rng, result, export_policy)
    if effect.success:
        effect.asserted = apply((effect,), window.dataspace)
        for callback, env in effect.callbacks:
            callback(env)
    return effect


class _Unretracted:
    """A window, or a dataspace, minus the instances staged query
    *results* retract.

    ``Membership`` sub-queries of a transaction's actions, and the
    ``where`` atoms of its export rules, read through it, so they see what
    they would after the retractions, before anything is applied.  Rows
    keep their order, so a search draws from the RNG as it would over the
    retracted window; only the planner's join-order estimates still read
    the dataspace as the transaction found it.  A retraction can only
    shrink a ``where``-view's imports, so over such a window the rows
    left are decided again against the dataspace minus the retractions.
    """

    __slots__ = ("source", "results", "_hidden")

    def __init__(self, source: Any, results: Sequence[QueryResult]) -> None:
        self.source = source
        self.results = results
        self._hidden: set | None = None

    @property
    def planner(self):
        return getattr(self.source, "planner", None)

    def _visible(self, rows: list[TupleInstance]) -> list[TupleInstance]:
        hidden = self._hidden
        if hidden is None:
            hidden = self._hidden = {
                inst.tid
                for result in self.results
                for match in result.matches
                for inst in match.retracted
            }
        if not hidden:
            return rows
        rows = [inst for inst in rows if inst.tid not in hidden]
        view = getattr(self.source, "view", None)
        if view is not None and view.config_dependent:
            space = _Unretracted(self.source.dataspace, self.results)
            space._hidden = hidden
            params = self.source.params
            rows = [inst for inst in rows if view.imports_value(inst.values, space, params)]
        return rows

    def candidates(self, pat: Any, bound: Mapping[str, Any] | None = None) -> list[TupleInstance]:
        return self._visible(self.source.candidates(pat, bound))

    def candidates_probed(self, arity: int, probes: list) -> list[TupleInstance]:
        return self._visible(self.source.candidates_probed(arity, probes))


def action_error(
    action: Action, env: Mapping[str, Any], exc: Exception
) -> TransactionError:
    """The typed error for an assertion template, spawn argument or ``let``
    body that raised *exc* under *env*: the action, the bindings and ``Type: msg``,
    as for a raising test (``Query._passes_test``)."""
    what = f"spawn {action!r}" if isinstance(action, Spawn) else repr(action)
    return TransactionError(
        f"{what} cannot be evaluated under {Bindings(env)!r}: "
        f"{type(exc).__name__}: {exc}"
    )


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

class TransactionBuilder:
    """Fluent transaction construction::

        immediate(exists(a).match(P["year", a].retract()).such_that(a > 87))
            .then(let(N, a), assert_tuple("found", a))
    """

    __slots__ = ("_query", "_mode", "_actions", "_label")

    def __init__(self, mode: Mode, query: Query | QueryBuilder | None) -> None:
        self._mode = mode
        self._query = query
        self._actions: list[Action] = []
        self._label: str | None = None

    def then(self, *actions: Action) -> "TransactionBuilder":
        self._actions.extend(actions)
        return self

    def labeled(self, label: str) -> "TransactionBuilder":
        self._label = label
        return self

    def build(self) -> Transaction:
        return Transaction(self._query, self._mode, self._actions, self._label)


def immediate(query: Query | QueryBuilder | None = None) -> TransactionBuilder:
    """Start an immediate (``→``) transaction."""
    return TransactionBuilder(Mode.IMMEDIATE, query)


def delayed(query: Query | QueryBuilder | None = None) -> TransactionBuilder:
    """Start a delayed (``⇒``) transaction."""
    return TransactionBuilder(Mode.DELAYED, query)


def consensus(query: Query | QueryBuilder | None = None) -> TransactionBuilder:
    """Start a consensus (``⇑``) transaction."""
    return TransactionBuilder(Mode.CONSENSUS, query)
