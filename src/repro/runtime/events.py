"""Run traces: the raw material for visualization and the benchmark suite.

The paper argues (Sections 1 and 4) that large-scale concurrency demands
"powerful visualization capabilities" and that the shared dataspace
"elegantly accommodates programmer-defined visualization" because the data
state is globally observable.  The trace layer realises the engine side of
that: every semantically meaningful runtime occurrence is emitted as an
:class:`Event` carrying both *step* (sequential work) and *round*
(virtual parallel time) stamps.

``Trace`` keeps cheap aggregate counters unconditionally and the full event
list only when ``detail=True``, so benchmarks can run with counters alone.
An event object is built only when something records it: every hot
emitter — commits, failures, blocks, wakes, wake resolutions, replicas,
process creation and completion, group-commit conflicts — checks
``Trace.recording`` and, when nothing reads the event (no detail, no
observer), bumps the counter :meth:`Trace.emit` would have bumped instead
(``_COUNTED`` says which).  Rarer events (rounds, consensus, crashes,
restarts, checkpoints) always go through :meth:`Trace.emit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "Event",
    "ProcessCreated",
    "ProcessFinished",
    "TxnCommitted",
    "TxnFailed",
    "TaskBlocked",
    "TaskWoken",
    "WakeResolved",
    "ConsensusFired",
    "ReplicaSpawned",
    "RoundCommitted",
    "ConflictDetected",
    "ProcessCrashed",
    "ProcessRestarted",
    "SupervisorEscalated",
    "CheckpointTaken",
    "Trace",
]


@dataclass(frozen=True, slots=True)
class Event:
    """Base event: virtual-time stamps common to all event kinds."""

    step: int
    round: int


@dataclass(frozen=True, slots=True)
class ProcessCreated(Event):
    pid: int
    name: str
    args: tuple
    spawner: int | None


@dataclass(frozen=True, slots=True)
class ProcessFinished(Event):
    pid: int
    name: str
    aborted: bool


@dataclass(frozen=True, slots=True)
class TxnCommitted(Event):
    pid: int
    mode: str
    label: str | None
    retracted: int
    asserted: int
    matches: int
    reads: int


@dataclass(frozen=True, slots=True)
class TxnFailed(Event):
    pid: int
    mode: str
    label: str | None


@dataclass(frozen=True, slots=True)
class TaskBlocked(Event):
    pid: int
    kind: str  # "delayed" | "selection" | "consensus" | "replication"


@dataclass(frozen=True, slots=True)
class TaskWoken(Event):
    pid: int


@dataclass(frozen=True, slots=True)
class WakeResolved(Event):
    """A delivered wake was acted on: productive (a retry committed or a
    pump fired) or *spurious* (the woken item immediately re-parked)."""

    pid: int
    spurious: bool


@dataclass(frozen=True, slots=True)
class ConsensusFired(Event):
    pids: tuple[int, ...]
    retracted: int
    asserted: int


@dataclass(frozen=True, slots=True)
class ReplicaSpawned(Event):
    pid: int
    branch: int


@dataclass(frozen=True, slots=True)
class RoundCommitted(Event):
    """One group-commit round: how the candidate set was disposed of."""

    candidates: int  # transactions surfaced as candidates
    admitted: int    # committed as one batch (serial-equivalent prefix)
    conflicts: int   # losers re-queued to the head of the next round
    tail: int        # items serialized after the batch (selections, pumps, ...)


@dataclass(frozen=True, slots=True)
class ConflictDetected(Event):
    """A candidate lost its round to an earlier-admitted transaction."""

    pid: int     # the re-queued loser
    winner: int  # pid of the admitted transaction it collided with


@dataclass(frozen=True, slots=True)
class ProcessCrashed(Event):
    """A process suffered a crash-stop failure (fault injection).

    The crash is atomic with respect to the dataspace: whatever transaction
    was in flight was either fully committed before the crash or not
    started — never half-applied.
    """

    pid: int
    name: str
    site: str  # the fault site that fired ("pre-commit", "batch-admit", ...)


@dataclass(frozen=True, slots=True)
class ProcessRestarted(Event):
    """The supervisor respawned a crashed process after its backoff."""

    pid: int         # the *new* instance's pid
    name: str
    generation: int  # 1 for the first restart of a lineage, 2 for the next, ...


@dataclass(frozen=True, slots=True)
class SupervisorEscalated(Event):
    """A lineage exhausted ``max_restarts``; the run fails with ``"escalated"``."""

    pid: int       # the final crashed instance
    name: str
    restarts: int  # restarts already consumed by the lineage


@dataclass(frozen=True, slots=True)
class CheckpointTaken(Event):
    """The recovery log captured a dataspace checkpoint."""

    version: int  # dataspace version the checkpoint is consistent with
    size: int     # live instances captured


@dataclass(slots=True)
class TraceCounters:
    """Aggregate counters kept for every run."""

    commits: int = 0
    failures: int = 0
    asserts: int = 0
    retracts: int = 0
    reads: int = 0
    blocks: int = 0
    wakeups: int = 0
    precise_wakeups: int = 0
    spurious_wakeups: int = 0
    consensus_rounds: int = 0
    consensus_participants: int = 0
    processes_created: int = 0
    processes_finished: int = 0
    replicas: int = 0
    # group-commit counters
    group_rounds: int = 0
    batch_commits: int = 0
    conflicts: int = 0
    max_batch: int = 0
    # crash-stop failure counters
    crashes: int = 0
    restarts: int = 0
    escalations: int = 0
    checkpoints: int = 0


def _count_commit(counters: TraceCounters, event: TxnCommitted) -> None:
    counters.commits += 1
    counters.asserts += event.asserted
    counters.retracts += event.retracted
    counters.reads += event.reads


def _count_wake_resolved(counters: TraceCounters, event: WakeResolved) -> None:
    if event.spurious:
        counters.spurious_wakeups += 1
    else:
        counters.precise_wakeups += 1


def _count_consensus(counters: TraceCounters, event: ConsensusFired) -> None:
    counters.consensus_rounds += 1
    counters.consensus_participants += len(event.pids)


def _count_round(counters: TraceCounters, event: RoundCommitted) -> None:
    counters.group_rounds += 1
    counters.batch_commits += event.admitted
    if event.admitted > counters.max_batch:
        counters.max_batch = event.admitted


def _bump(name: str) -> Callable[[TraceCounters, Event], None]:
    """Counting that adds one to the counter *name*."""

    def count(counters: TraceCounters, event: Event) -> None:
        setattr(counters, name, getattr(counters, name) + 1)

    return count


#: The counted event kinds, in precedence order: an event counts under the
#: first kind it is an instance of.
_COUNTED: tuple[tuple[type, Callable[[TraceCounters, Event], None]], ...] = (
    (TxnCommitted, _count_commit),
    (TxnFailed, _bump("failures")),
    (TaskBlocked, _bump("blocks")),
    (TaskWoken, _bump("wakeups")),
    (WakeResolved, _count_wake_resolved),
    (ConsensusFired, _count_consensus),
    (ProcessCreated, _bump("processes_created")),
    (ProcessFinished, _bump("processes_finished")),
    (ReplicaSpawned, _bump("replicas")),
    (RoundCommitted, _count_round),
    (ConflictDetected, _bump("conflicts")),
    (ProcessCrashed, _bump("crashes")),
    (ProcessRestarted, _bump("restarts")),
    (SupervisorEscalated, _bump("escalations")),
    (CheckpointTaken, _bump("checkpoints")),
)


def _counting_for(kind: type) -> Callable[[TraceCounters, Event], None] | None:
    """How an event of exactly *kind* is counted (``None``: not at all)."""
    for counted, count in _COUNTED:
        if issubclass(kind, counted):
            return count
    return None


#: ``type(event)`` -> its counting function; other kinds (subclasses, the
#: uncounted ones) are resolved by :func:`_counting_for` on first sight.
_COUNTING: dict[type, Callable[[TraceCounters, Event], None] | None] = dict(_COUNTED)


class Trace:
    """Event sink with aggregate counters and optional full event history."""

    def __init__(self, detail: bool = False) -> None:
        self.events: list[Event] = []
        self.counters = TraceCounters()
        self._observers: dict[int, Callable[[Event], None]] = {}
        self._observer_token = 0
        #: Does anything read events: the detailed history or an observer?
        #: When not, a hot emitter bumps the event's counter itself
        #: instead of building the event.  Kept current by the ``detail``
        #: setter and by :meth:`observe`, so an emitter reads a plain
        #: attribute per event — and an observer attached mid-run sees
        #: every later event.
        self.recording = False
        self.detail = detail

    @property
    def detail(self) -> bool:
        """Keep the full event list (``events``)?"""
        return self._detail

    @detail.setter
    def detail(self, value: bool) -> None:
        self._detail = value
        self.recording = bool(value) or bool(self._observers)

    def observe(self, callback: Callable[[Event], None]) -> Callable[[], None]:
        """Attach a live observer (used by visualization processes).

        Registrations are token-keyed: attaching the same callable twice
        yields two registrations, and each detach removes exactly its own
        (idempotently).
        """
        self._observer_token += 1
        token = self._observer_token
        self._observers[token] = callback
        self.recording = True

        def detach() -> None:
            self._observers.pop(token, None)
            self.recording = bool(self._detail) or bool(self._observers)

        return detach

    def emit(self, event: Event) -> None:
        kind = type(event)
        try:
            count = _COUNTING[kind]
        except KeyError:
            count = _COUNTING[kind] = _counting_for(kind)
        if count is not None:
            count(self.counters, event)
        if self._detail:
            self.events.append(event)
        for observer in list(self._observers.values()):
            observer(event)

    # ------------------------------------------------------------------
    # queries over the detailed history
    # ------------------------------------------------------------------
    def of_kind(self, kind: type) -> Iterator[Event]:
        return (e for e in self.events if isinstance(e, kind))

    def commits_by_round(self) -> dict[int, int]:
        """Round -> number of committed transactions; the concurrency profile."""
        out: dict[int, int] = {}
        for event in self.of_kind(TxnCommitted):
            out[event.round] = out.get(event.round, 0) + 1
        return out

    def commits_by_pid(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for event in self.of_kind(TxnCommitted):
            out[event.pid] = out.get(event.pid, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        c = self.counters
        return (
            f"Trace(commits={c.commits}, failures={c.failures}, "
            f"consensus={c.consensus_rounds}, events={len(self.events)})"
        )
