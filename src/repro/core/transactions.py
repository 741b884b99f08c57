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

This module is scheduler-agnostic: :func:`execute` performs the atomic
data transformation of a single transaction against a window and reports a
:class:`TransactionOutcome`; the runtime engine decides *when* to call it
(and, for delayed/consensus, when to retry).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.actions import (
    Abort,
    Action,
    AssertTuple,
    CallPython,
    Exit,
    Let,
    Skip,
    Spawn,
    validate_actions,
)
from repro.core.expressions import Bindings, EvalContext
from repro.core.query import Query, QueryBuilder, QueryResult, TRUE_QUERY
from repro.core.tuples import TupleInstance
from repro.core.views import Window
from repro.errors import ExportViolation, SDLError, TransactionError

__all__ = [
    "Mode",
    "Control",
    "Transaction",
    "TransactionOutcome",
    "action_error",
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
    """An immutable transaction: query, mode, action list, optional label."""

    __slots__ = ("query", "mode", "actions", "label")

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
        if mode is Mode.IMMEDIATE and self.query.is_trivial() and not self.actions:
            # Legal but useless; allowed for tests.
            pass

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
    """Everything a committed (or failed) transaction did."""

    success: bool
    control: Control = Control.NONE
    lets: dict[str, Any] = field(default_factory=dict)
    asserted: list[TupleInstance] = field(default_factory=list)
    retracted: list[TupleInstance] = field(default_factory=list)
    spawned: list[tuple[str, tuple]] = field(default_factory=list)
    match_count: int = 0
    reads: int = 0

    @classmethod
    def failure(cls) -> "TransactionOutcome":
        return cls(success=False)


def check_ready(
    txn: Transaction,
    window: Window,
    params: Mapping[str, Any],
    rng: random.Random | None = None,
) -> QueryResult:
    """Evaluate the query side only (no effects) — used for readiness probes."""
    return txn.query.evaluate(window.refresh(), params, rng)


def execute(
    txn: Transaction,
    window: Window,
    params: Mapping[str, Any],
    owner: int,
    rng: random.Random | None = None,
    result: QueryResult | None = None,
    assert_sink: list[tuple[tuple, int]] | None = None,
    export_policy: str = "error",
    suppress_callbacks: bool = False,
) -> TransactionOutcome:
    """Atomically apply *txn* for the process owning *window*.

    The query is evaluated against the window (unless a pre-computed
    *result* is supplied — the consensus engine evaluates members itself),
    matched retract-tagged instances are retracted from the underlying
    dataspace, and the action list is carried out: per-match actions
    (assertions, spawns, callbacks) run once per ∀ match, once total under
    ∃; ``let``/control actions run once.

    If *assert_sink* is given, assertions are appended to it as
    ``(values, owner)`` pairs instead of being inserted — the consensus
    engine uses this to realise "retractions first, then the corresponding
    additions" across all participants.

    *suppress_callbacks* skips ``CallPython`` actions: the serial-replay
    validator re-executes committed transactions against a scratch
    dataspace and must not fire user effects twice.
    """
    dataspace = window.dataspace
    if result is None:
        result = txn.query.evaluate(window.refresh(), params, rng)
    if not result.success:
        return TransactionOutcome.failure()

    outcome = TransactionOutcome(success=True, match_count=len(result.matches))
    outcome.reads = sum(len(m.instances) for m in result.matches)

    # 1. retraction of selected tuples
    for match in result.matches:
        for inst in match.retracted:
            dataspace.retract(inst.tid)
            outcome.retracted.append(inst)

    # 2. action list
    once_bindings = result.bindings if result.matches else dict(params)
    env_for_once = dict(once_bindings)

    for action in txn.actions:
        if isinstance(action, Let):
            ctx = EvalContext(Bindings(env_for_once), window=window, rng=rng)
            try:
                value = action.expr.evaluate(ctx)
            except SDLError:
                raise
            except Exception as exc:
                raise action_error(action, env_for_once, exc) from exc
            outcome.lets[action.name] = value
            env_for_once[action.name] = value
        elif isinstance(action, (Exit, Abort, Skip)):
            if isinstance(action, Exit):
                outcome.control = Control.EXIT
            elif isinstance(action, Abort):
                outcome.control = Control.ABORT
        elif isinstance(action, (AssertTuple, Spawn, CallPython)):
            match_envs = (
                [{**m.bindings, **outcome.lets} for m in result.matches]
                if result.matches
                else [env_for_once]
            )
            if suppress_callbacks and isinstance(action, CallPython):
                continue
            for env in match_envs:
                _apply_per_match(
                    action, env, window, dataspace, owner, rng, outcome,
                    assert_sink, export_policy,
                )
        else:  # pragma: no cover - future action kinds
            raise TransactionError(f"unknown action {action!r}")
    return outcome


def _apply_per_match(
    action: Action,
    env: dict[str, Any],
    window: Window,
    dataspace: Any,
    owner: int,
    rng: random.Random | None,
    outcome: TransactionOutcome,
    assert_sink: list[tuple[tuple, int]] | None,
    export_policy: str = "error",
) -> None:
    ctx = EvalContext(Bindings(env), window=window, rng=rng)
    if isinstance(action, AssertTuple):
        try:
            values = action.pattern.instantiate(ctx)
        except SDLError:
            raise
        except Exception as exc:
            raise action_error(action, env, exc) from exc
        if not window.exports_value(values):
            if export_policy == "drop":
                return
            raise ExportViolation(str(owner), values)
        if assert_sink is not None:
            assert_sink.append((values, owner))
        else:
            outcome.asserted.append(dataspace.insert(values, owner))
    elif isinstance(action, Spawn):
        try:
            args = tuple(a.evaluate(ctx) for a in action.args)
        except SDLError:
            raise
        except Exception as exc:
            raise action_error(action, env, exc) from exc
        outcome.spawned.append((action.process_name, args))
    elif isinstance(action, CallPython):
        action.callback(dict(env))


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
