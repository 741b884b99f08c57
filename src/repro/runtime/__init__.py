"""The SDL runtime: a deterministic virtual-time engine.

The engine interleaves the logical processes of an SDL program on a single
OS thread (see DESIGN.md's substitution table: the paper's "highly parallel
multiprocessor" is replaced by a reproducible virtual-time scheduler).
Virtual time advances in **rounds**: a round ends once every task that was
ready at its start has been stepped once, so round counts approximate the
parallel makespan while step counts give total work.

The runtime also implements a **crash-stop failure model**: deterministic
fault injection (:mod:`repro.runtime.faults`), per-definition restart
supervision with capped exponential backoff (:mod:`repro.runtime.supervision`),
and a durable log of the dataspace — checkpoints and a WAL in checksummed
segment files (:class:`~repro.runtime.recovery.DurableLog`) — that
survives real crashes, plus supervised worker pools with deadlines,
capped-backoff retry, and quarantine-to-serial degradation
(:mod:`repro.runtime.parallel`).
"""

from repro.runtime.events import (
    CheckpointTaken,
    ConsensusFired,
    Event,
    ProcessCrashed,
    ProcessCreated,
    ProcessFinished,
    ProcessRestarted,
    SupervisorEscalated,
    TaskBlocked,
    Trace,
    TxnCommitted,
    TxnFailed,
)
from repro.runtime.engine import Engine, RunResult
from repro.runtime.faults import FaultInjector, FaultPlan, FaultSpec
from repro.runtime.recovery import (
    Checkpoint,
    DurableLoadReport,
    DurableLog,
    RepairEvent,
)
from repro.runtime.supervision import RestartPolicy, Supervisor

__all__ = [
    "Engine",
    "RunResult",
    "Trace",
    "Event",
    "ProcessCreated",
    "ProcessFinished",
    "TxnCommitted",
    "TxnFailed",
    "TaskBlocked",
    "ConsensusFired",
    "ProcessCrashed",
    "ProcessRestarted",
    "SupervisorEscalated",
    "CheckpointTaken",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "RestartPolicy",
    "Supervisor",
    "Checkpoint",
    "DurableLog",
    "DurableLoadReport",
    "RepairEvent",
]
