"""Round-based scheduling state for the SDL virtual-time engine.

This module owns the *who-runs-when* half of the runtime: task and pump
records, their lifecycle states, the ready/round queues, round counting,
and the seeded arbitration that makes every run exactly reproducible for a
given ``(program, dataspace, seed)``.

Virtual time advances in **rounds**: a round ends when every item that was
ready at its start has been stepped once, so round counts approximate the
parallel makespan while step counts give total work.  *What* a step does —
transaction attempts, replication batches, consensus — lives in
:mod:`repro.runtime.executor`; *which* parked item a dataspace change
reawakens lives in :mod:`repro.runtime.wakeup`.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.constructs import GuardedSequence, Replication
from repro.core.process import ProcessInstance, ProcessStatus
from repro.core.transactions import Transaction

__all__ = [
    "TaskKind",
    "TaskState",
    "ParkedTxn",
    "ParkedSelection",
    "Task",
    "Pump",
    "Scheduler",
]


class TaskKind(enum.Enum):
    MAIN = "main"
    REPLICA = "replica"


class TaskState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    CONSENSUS = "consensus"
    WAITING = "waiting"  # main task parked on a replication pump
    DONE = "done"


@dataclass(slots=True)
class ParkedTxn:
    transaction: Transaction


@dataclass(slots=True)
class ParkedSelection:
    branches: tuple[GuardedSequence, ...]
    consensus_guards: tuple[tuple[int, Transaction], ...]


class Task:
    """One interleaved thread of control: a process main body or a replica."""

    __slots__ = (
        "tid", "process", "gen", "kind", "state", "send_value",
        "park", "pump", "awaiting", "queued", "woken", "pending",
    )

    def __init__(self, tid: int, process: ProcessInstance, gen, kind: TaskKind) -> None:
        self.tid = tid
        self.process = process
        self.gen = gen
        self.kind = kind
        self.state = TaskState.READY
        self.send_value: Any = None
        self.park: ParkedTxn | ParkedSelection | None = None
        self.pump: "Pump | None" = None       # pump this REPLICA belongs to
        self.awaiting: "Pump | None" = None   # pump this task is waiting on
        self.queued = False
        self.woken = False  # set by the wakeup index; cleared (and classified) on step
        # Group-commit bookkeeping: a transaction surfaced from the
        # generator but deferred by conflict admission — retried as a
        # candidate next round without resuming the generator again.
        self.pending: Transaction | None = None

    def __repr__(self) -> str:
        return f"task#{self.tid}({self.process.name}#{self.process.pid},{self.kind.value},{self.state.value})"


class Pump:
    """Driver for one replication construct."""

    __slots__ = (
        "tid", "process", "parent", "replication", "active",
        "exit_requested", "state", "queued", "woken",
    )

    def __init__(self, tid: int, process: ProcessInstance, parent: Task, replication: Replication) -> None:
        self.tid = tid
        self.process = process
        self.parent = parent
        self.replication = replication
        self.active = 0
        self.exit_requested = False
        self.state = TaskState.READY
        self.queued = False
        self.woken = False

    def __repr__(self) -> str:
        return f"pump#{self.tid}({self.process.name}#{self.process.pid},active={self.active})"


class Scheduler:
    """Ready/round queues, round counting, tid issue, seeded arbitration.

    All nondeterminism flows through :attr:`rng` (one seeded
    :class:`random.Random` shared with the executor), so scheduling is a
    pure function of the seed and the program.
    """

    __slots__ = (
        "rng", "policy", "round_count", "round_size",
        "_ready", "_round_queue", "_next_tid",
    )

    def __init__(self, rng: random.Random, policy: str) -> None:
        self.rng = rng
        self.policy = policy
        self.round_count = 0
        # Cap on items promoted per round; ``1`` gives the strictly serial
        # reference execution of ``commit="serial"`` (rounds ≈ steps).
        self.round_size: int | None = None
        self._ready: deque[Any] = deque()        # Task | Pump, next round
        self._round_queue: deque[Any] = deque()  # current round
        self._next_tid = 1

    def issue_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # ------------------------------------------------------------------
    # queue management
    # ------------------------------------------------------------------
    def enqueue(self, item: Any) -> None:
        """Queue *item* for the next round (idempotent while queued)."""
        if not item.queued:
            item.queued = True
            self._ready.append(item)

    def make_ready(self, item: Any) -> None:
        """Transition *item* to READY and queue it."""
        item.state = TaskState.READY
        if isinstance(item, Task):
            if item.process.status in (ProcessStatus.BLOCKED, ProcessStatus.CONSENSUS_WAIT):
                item.process.status = ProcessStatus.RUNNING
        self.enqueue(item)

    def start_round(self) -> bool:
        """Promote the ready set into a new round; False when globally idle."""
        if not self._ready:
            return False
        self.round_count += 1
        items = list(self._ready)
        self._ready.clear()
        if self.policy == "random":
            self.rng.shuffle(items)
        if self.round_size is not None and len(items) > self.round_size:
            # Overflow stays ready (still flagged queued) for later rounds.
            self._ready.extend(items[self.round_size:])
            items = items[: self.round_size]
        self._round_queue.extend(items)
        return True

    def take_round(self, prepend: Sequence[Any] = ()) -> list[Any] | None:
        """Promote and *return* a whole round at once (group-commit mode).

        Deferred conflict losers are passed via *prepend* and lead the
        round unshuffled — the weak-fairness guarantee: the first loser is
        first in the next arbitration order, hence unconditionally admitted.
        Returns ``None`` when there is no work at all.

        :attr:`round_size` is honored exactly as in :meth:`start_round`:
        losers count against the cap but are never dropped (weak fairness
        trumps the cap), and the overflow of the ready set stays queued
        (``queued`` still set) for later rounds.
        """
        if not self._ready and not prepend:
            return None
        self.round_count += 1
        items = list(self._ready)
        self._ready.clear()
        if self.policy == "random":
            self.rng.shuffle(items)
        if self.round_size is not None:
            room = max(self.round_size - len(prepend), 0)
            if len(items) > room:
                # Overflow stays ready (still flagged queued) for later rounds.
                self._ready.extend(items[room:])
                items = items[:room]
        out = list(prepend) + items
        for item in out:
            item.queued = False
        return out

    def pop(self) -> Any | None:
        """The next item of the current round, or ``None`` if the round ended."""
        if not self._round_queue:
            return None
        item = self._round_queue.popleft()
        item.queued = False
        return item

    def unpop(self, item: Any) -> None:
        """Hand back an item :meth:`pop` returned but that was not stepped."""
        item.queued = True
        self._round_queue.appendleft(item)

    @property
    def round_active(self) -> bool:
        return bool(self._round_queue)

    # ------------------------------------------------------------------
    # arbitration
    # ------------------------------------------------------------------
    def arbitrate(self, indices: Sequence[int]) -> list[int]:
        """Order a set of alternatives per policy ("an arbitrary one")."""
        order = list(indices)
        if self.policy == "random":
            self.rng.shuffle(order)
        return order
