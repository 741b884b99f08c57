"""Transaction, replication, and consensus execution for the SDL engine.

The :class:`Executor` performs one *step* of a task or pump: it attempts
transactions against the issuing process's window, arbitrates selections,
drives replication pumps, detects and fires consensus sets, and parks and
reawakens blocked items through the delta-driven
:class:`~repro.runtime.wakeup.WakeupIndex`.

It deliberately holds no queues and no public API of its own: scheduling
state lives in :mod:`repro.runtime.scheduler`, and the
:class:`~repro.runtime.engine.Engine` facade wires the pieces together and
owns the program-visible objects (dataspace, society, trace, windows).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.consensus import (
    ConsensusIndex,
    ConsensusParticipant,
    evaluate_composite,
    partition,
)
from repro.core.constructs import GuardedSequence, Replication
from repro.core.process import ProcessInstance, ProcessStatus
from repro.core.transactions import (
    Control,
    Mode,
    Transaction,
    TransactionOutcome,
    apply,
    stage,
)
from repro.core.tuples import TupleInstance
from repro.errors import EngineError
from repro.runtime.events import (
    ConsensusFired,
    ProcessCrashed,
    ProcessFinished,
    ReplicaSpawned,
    SupervisorEscalated,
    TaskBlocked,
    TaskWoken,
    TxnCommitted,
    TxnFailed,
    WakeResolved,
)
from repro.runtime.interpreter import (
    ReplicationRequest,
    SelectRequest,
    TxnRequest,
    interpret_body,
)
from repro.runtime import rounds
from repro.runtime.rounds import _Crashed, _SnapshotLens
from repro.runtime.scheduler import (
    ParkedSelection,
    ParkedTxn,
    Pump,
    Task,
    TaskKind,
    TaskState,
)
from repro.runtime.wakeup import Subscription, derive_subscription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import Engine

__all__ = ["Executor"]


class Executor:
    """Steps tasks and pumps on behalf of one :class:`Engine`."""

    __slots__ = (
        "engine", "consensus_waiters", "consensus_dirty", "consensus_index",
        "_consensus_memo", "_memo_moved", "_memo_left", "loser_reads",
    )

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.consensus_waiters: dict[int, Task] = {}  # pid -> main task
        self.consensus_dirty = False
        #: Detection state kept across attempts (SEMANTICS §5), started at
        #: the first park at a consensus point.
        self.consensus_index = ConsensusIndex()
        # Group mode: the last round's losers -> (txn, scope, read side,
        # probe), replaced every round (see ``rounds._reads_for``).
        self.loser_reads: dict[Task, tuple] = {}
        # Memo of the last failed consensus check, ``(dataspace version,
        # society spawn count)``.  It must cover everything readiness
        # depends on: the version, who is waiting, and who is live (a
        # terminating process can unblock a set).  Since it was taken,
        # ``_memo_moved`` holds the pids that joined or left the waiters an
        # odd number of times, and ``_memo_left`` whether a process live
        # then has left; with the processes spawned since all gone again,
        # both sets are as they were (a change undone within one version).
        self._consensus_memo: tuple | None = None
        self._memo_moved: set[int] = set()
        self._memo_left = False

    # ------------------------------------------------------------------
    # task stepping
    # ------------------------------------------------------------------
    def step(self, item: Any) -> None:
        try:
            if isinstance(item, Pump):
                self._step_pump(item)
            else:
                self._step_task(item)
        except _Crashed:
            pass  # the process died mid-step; its slots are already released

    def _step_task(self, task: Task) -> None:
        if task.park is not None:
            self._retry_park(task)
            return
        self._resume(task, task.send_value)

    def _resume(self, task: Task, value: Any) -> None:
        task.send_value = None
        try:
            request = task.gen.send(value)
        except StopIteration as stop:
            control = stop.value if isinstance(stop.value, Control) else Control.NONE
            self._task_finished(task, control)
            return
        self._handle_request(task, request)

    def _handle_request(self, task: Task, request: Any) -> None:
        if isinstance(request, TxnRequest):
            self._handle_txn(task, request.transaction)
        elif isinstance(request, SelectRequest):
            self._handle_select(task, request.branches)
        elif isinstance(request, ReplicationRequest):
            self._handle_replication(task, request.replication)
        else:  # pragma: no cover - interpreter yields only the above
            raise EngineError(f"unknown request {request!r}")

    def _handle_txn(self, task: Task, txn: Transaction) -> None:
        engine = self.engine
        if txn.mode is Mode.IMMEDIATE:
            outcome = self._attempt(task, txn)
            self._deliver(task, outcome, outcome)
            return
        if txn.mode is Mode.DELAYED:
            outcome = self._attempt(task, txn)
            if outcome.success:
                self._deliver(task, outcome, outcome)
            else:
                task.park = ParkedTxn(txn)
                self._block(task, self._subscription_for([txn], task), "delayed")
            return
        # consensus
        if task.kind is not TaskKind.MAIN:
            raise EngineError(
                f"consensus transaction issued from a replica of {task.process!r}; "
                "consensus readiness is defined per process"
            )
        task.park = ParkedTxn(txn)
        task.state = TaskState.CONSENSUS
        task.process.status = ProcessStatus.CONSENSUS_WAIT
        self._add_waiter(task)
        self._blocked(task, "consensus")

    def _handle_select(self, task: Task, branches: tuple[GuardedSequence, ...]) -> None:
        engine = self.engine
        for index in engine.scheduler.arbitrate(range(len(branches))):
            guard = branches[index].guard
            if guard.mode is Mode.CONSENSUS:
                continue  # resolved only by the consensus engine
            outcome = self._attempt(task, guard)
            if outcome.success:
                self._unpark(task)
                self._classify_wake(task, spurious=False)
                self._deliver(task, (index, outcome), outcome)
                return
        consensus_guards = tuple(
            (i, b.guard) for i, b in enumerate(branches) if b.guard.mode is Mode.CONSENSUS
        )
        blocking = consensus_guards or any(
            b.guard.mode is Mode.DELAYED for b in branches
        )
        if not blocking:
            self._unpark(task)
            task.send_value = None  # the selection fails (skip)
            engine.scheduler.make_ready(task)
            return
        # Park: retry delayed/immediate guards on wake; consensus guards via
        # the consensus engine.
        self._classify_wake(task, spurious=True)
        task.park = ParkedSelection(branches, consensus_guards)
        sub = self._subscription_for([b.guard for b in branches], task)
        if consensus_guards:
            if task.kind is not TaskKind.MAIN:
                raise EngineError(f"consensus guard in a replica of {task.process!r}")
            task.state = TaskState.CONSENSUS
            task.process.status = ProcessStatus.CONSENSUS_WAIT
            engine.wakeups.add(task, sub)
            self._add_waiter(task)
            self._blocked(task, "selection+consensus")
        else:
            self._block(task, sub, "selection")

    def _retry_park(self, task: Task) -> None:
        park = task.park
        if isinstance(park, ParkedTxn):
            if park.transaction.mode is Mode.CONSENSUS:
                # Consensus waiters are never stepped; arriving here means a
                # stale queue entry.
                return
            outcome = self._attempt(task, park.transaction)
            if outcome.success:
                self._unpark(task)
                self._classify_wake(task, spurious=False)
                self._deliver(task, outcome, outcome)
            else:
                self._classify_wake(task, spurious=True)
                self._block(
                    task,
                    self._subscription_for([park.transaction], task),
                    "delayed",
                    requeue=True,
                )
        elif isinstance(park, ParkedSelection):
            self._handle_select(task, park.branches)
        else:  # pragma: no cover
            raise EngineError(f"cannot retry park {park!r}")

    def _classify_wake(self, item: Any, spurious: bool) -> None:
        """Resolve a delivered wake as productive or spurious (observability)."""
        if item.woken:
            item.woken = False
            engine = self.engine
            trace = engine.trace
            if trace.recording:
                trace.emit(
                    WakeResolved(engine.step_count, engine.round_count, item.process.pid, spurious)
                )
            elif spurious:  # what emit would count
                trace.counters.spurious_wakeups += 1
            else:
                trace.counters.precise_wakeups += 1

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------
    def _handle_replication(self, task: Task, replication: Replication) -> None:
        engine = self.engine
        if engine.faults is not None:
            if engine.faults.fire("pump-spawn", task.process.pid, task.process.name) == "crash":
                self.crash_process(task.process, "pump-spawn")
                raise _Crashed
        pump = Pump(engine.scheduler.issue_tid(), task.process, task, replication)
        task.awaiting = pump
        task.state = TaskState.WAITING
        engine.scheduler.enqueue(pump)

    def _step_pump(self, pump: Pump) -> None:
        engine = self.engine
        if pump.state is not TaskState.READY:
            return
        if pump.process.status in (ProcessStatus.ABORTED, ProcessStatus.CRASHED):
            # The process was aborted (e.g. by one of this pump's own
            # replicas) or crashed while the pump was still queued; pumps
            # are not in the task table, so _abort_process cannot mark
            # them DONE.  Without this guard a stale pump fires further
            # guards on behalf of a dead process.
            pump.state = TaskState.DONE
            engine.wakeups.discard(pump.tid)
            return
        fired_any = False
        if not pump.exit_requested:
            fired_any = self._pump_fire_batch(pump)
            if pump.process.status in (ProcessStatus.ABORTED, ProcessStatus.CRASHED):
                return
        self._classify_wake(pump, spurious=not fired_any)
        if fired_any:
            engine.scheduler.enqueue(pump)
            return
        # no guard fired (or draining after exit)
        if pump.active == 0:
            all_immediate = all(
                b.guard.mode is Mode.IMMEDIATE for b in pump.replication.branches
            )
            if pump.exit_requested or all_immediate:
                self._complete_pump(pump, Control.NONE)
                return
        # wait for a dataspace change or for replicas to finish
        pump.state = TaskState.BLOCKED
        engine.wakeups.add(
            pump,
            self._subscription_for([b.guard for b in pump.replication.branches], pump),
        )
        self._blocked(pump, "replication")

    def _pump_fire_batch(self, pump: Pump) -> bool:
        """Fire a maximal parallel batch of replica transactions.

        Replication provides "unbounded concurrent execution": within one
        virtual round, every guard instance that can commit using tuples
        that existed *before* the round does so (a snapshot lens hides
        tuples asserted during the batch).  This models a synchronous
        parallel step — commits in the same batch are pairwise
        conflict-free because retracted instances leave the dataspace as
        the batch proceeds.  A guard firing that retracts nothing fires at
        most once per round (otherwise a pure producer would spin forever
        inside a single round).

        Within the batch a row can only leave the lens, so an outer row
        that has no match now has none later: the lens carries a memo of
        those rows for the attempt kernels (SEMANTICS §12) — except over
        a ``where``-view, where a new support row can import an old one.
        """
        engine = self.engine
        window = engine.window(pump.process)
        memo = None if window.view.config_dependent else {}
        frozen = _SnapshotLens(window, engine.dataspace.serial, memo)
        scope = pump.process.scope()
        branches = pump.replication.branches
        live = [i for i in range(len(branches)) if branches[i].guard.mode is not Mode.CONSENSUS]
        fired_any = False
        progress = True
        while progress and not pump.exit_requested and live:
            progress = False
            for index in engine.scheduler.arbitrate(live):
                if pump.exit_requested:
                    break
                branch = branches[index]
                guard = branch.guard
                result = guard.query.evaluate(frozen.refresh(), scope, engine.rng)
                if not result.success:
                    continue
                if engine.faults is not None:
                    action = engine.faults.fire(
                        "pre-commit", pump.process.pid, pump.process.name
                    )
                    if action == "crash":
                        pump.state = TaskState.DONE
                        self.crash_process(pump.process, "pre-commit")
                        raise _Crashed
                    if action == "abort-txn":
                        continue
                outcome = stage(
                    guard, window, scope, pump.process.pid, engine.rng, result,
                    engine.export_policy,
                )
                engine.step_count += 1
                self._commit(pump.process, guard, outcome)
                trace = engine.trace
                if trace.recording:
                    trace.emit(
                        ReplicaSpawned(
                            engine.step_count, engine.round_count, pump.process.pid, index
                        )
                    )
                else:
                    trace.counters.replicas += 1  # what emit would count
                fired_any = True
                progress = True
                if outcome.control is Control.ABORT:
                    self._abort_process(pump.process)
                    return True
                if outcome.control is Control.EXIT:
                    pump.exit_requested = True
                elif branch.body:
                    replica = engine.make_task(
                        pump.process, interpret_body(branch), TaskKind.REPLICA
                    )
                    pump.active += 1
                    replica.pump = pump
                if not outcome.retracted:
                    live.remove(index)
                break  # restart the pass with fresh arbitration order
        return fired_any

    def _complete_pump(self, pump: Pump, control: Control) -> None:
        pump.state = TaskState.DONE
        self.engine.wakeups.discard(pump.tid)
        parent = pump.parent
        parent.awaiting = None
        parent.send_value = control
        if parent.state is TaskState.WAITING:
            self.engine.scheduler.make_ready(parent)

    def _replica_finished(self, task: Task) -> None:
        pump = task.pump
        if pump is None or pump.state is TaskState.DONE:
            return
        pump.active -= 1
        if pump.state is TaskState.BLOCKED and pump.active == 0:
            self.engine.wakeups.discard(pump.tid)
            pump.state = TaskState.READY
            self.engine.scheduler.enqueue(pump)

    # ------------------------------------------------------------------
    # task/process termination
    # ------------------------------------------------------------------
    def _task_finished(self, task: Task, control: Control) -> None:
        task.state = TaskState.DONE
        self.engine.tasks.pop(task.tid, None)
        if task.kind is TaskKind.REPLICA:
            if control is Control.ABORT:
                self._abort_process(task.process)
            elif control is Control.EXIT and task.pump is not None:
                task.pump.exit_requested = True
                self._replica_finished(task)
            else:
                self._replica_finished(task)
            return
        aborted = control is Control.ABORT
        self._process_finished(task.process, aborted)

    def _deliver(self, task: Task, value: Any, outcome: TransactionOutcome) -> None:
        """Hand *value*, which carries *outcome*, back to *task*.

        The task resumes at its next step, unless *outcome* commits
        ``abort``.  ABORT always unwinds to the top of the behaviour
        (``interpreter._exec``), so that task ends here, before a sibling
        of the same process (a queued replication pump, another replica)
        can act on behalf of the aborted process in between.
        """
        if outcome.control is Control.ABORT:
            self._task_finished(task, Control.ABORT)
            return
        task.send_value = value
        self.engine.scheduler.make_ready(task)

    def _process_finished(self, process: ProcessInstance, aborted: bool) -> None:
        engine = self.engine
        engine.society.mark_terminated(process.pid, aborted)
        engine.drop_window(process.pid)
        self._drop_waiter(process.pid)
        self._forget(process.pid)
        self.consensus_dirty = True  # a terminated process may unblock a set
        engine.supervisor.notify_finished(process.pid, aborted)
        trace = engine.trace
        if trace.recording:
            trace.emit(
                ProcessFinished(
                    engine.step_count, engine.round_count, process.pid, process.name, aborted
                )
            )
        else:
            trace.counters.processes_finished += 1  # what emit would count

    def _abort_process(self, process: ProcessInstance) -> None:
        self._detach_process(process.pid)
        self._process_finished(process, aborted=True)

    def _detach_process(self, pid: int) -> None:
        """Release every scheduling slot held by *pid* (abort or crash).

        Tasks are swept via the task table; **pumps are not in that table**,
        so their wakeup registrations are swept directly — without this, a
        dead process's blocked pump would linger in the wakeup index and
        surface as a phantom deadlock participant.
        """
        engine = self.engine
        for task in [task for task in engine.tasks.values() if task.process.pid == pid]:
            task.state = TaskState.DONE
            del engine.tasks[task.tid]
            engine.wakeups.discard(task.tid)
        for item in list(engine.wakeups.items()):
            if item.process.pid == pid:
                item.state = TaskState.DONE
                engine.wakeups.discard(item.tid)
        self._drop_waiter(pid)
        self.consensus_dirty = True  # the departure may unblock a set

    # ------------------------------------------------------------------
    # crash-stop failures (fault injection)
    # ------------------------------------------------------------------
    def crash_process(self, process: ProcessInstance, site: str) -> None:
        """Kill *process* crash-stop: no effects, no farewell, slots released.

        The caller must not act for the process afterwards (raise
        :class:`_Crashed` when unwinding out of an in-flight step).  The
        dataspace is untouched by construction — every fault site sits
        *before* effects apply — and peers see the death: blocked and
        consensus slots are released so they observe ``deadlock`` rather
        than hanging, and the supervisor is notified for restart/escalation.
        """
        engine = self.engine
        self._detach_process(process.pid)
        engine.society.mark_crashed(process.pid)
        engine.drop_window(process.pid)
        self._forget(process.pid)
        engine.trace.emit(
            ProcessCrashed(
                engine.step_count, engine.round_count, process.pid, process.name, site
            )
        )
        if engine.supervisor.notify_crash(process, engine.round_count) == "escalate":
            engine.trace.emit(
                SupervisorEscalated(
                    engine.step_count,
                    engine.round_count,
                    process.pid,
                    process.name,
                    engine.supervisor.restarts_for(process.pid),
                )
            )

    def flush_delayed(self) -> bool:
        """Deliver wakes the injector held back (round-boundary flush)."""
        engine = self.engine
        injector = engine.faults
        if injector is None:
            return False
        delivered = False
        for item in injector.take_delayed():
            if item.state is not TaskState.BLOCKED:
                continue  # woken by a later change, finished, or crashed
            engine.wakeups.discard(item.tid)
            item.state = TaskState.READY
            item.woken = True
            engine.scheduler.enqueue(item)
            self._woken(item)
            delivered = True
        return delivered

    # ------------------------------------------------------------------
    # transaction attempts and commits
    # ------------------------------------------------------------------
    def _attempt(self, task: Task, txn: Transaction) -> TransactionOutcome:
        engine = self.engine
        process = task.process
        window = engine.window(process)
        scope = process.scope()
        result = txn.query.evaluate(window.refresh(), scope, engine.rng)
        if engine.faults is not None and self._faulted(process, result.success):
            outcome = TransactionOutcome.failure()
        else:
            outcome = stage(
                txn, window, scope, process.pid, engine.rng, result, engine.export_policy
            )
        if outcome.success:
            self._commit(process, txn, outcome)
        else:
            self._failed(process, txn)
        return outcome

    def _failed(self, process: ProcessInstance, txn: Transaction) -> None:
        """Record that *txn*, attempted by *process*, did not commit."""
        engine = self.engine
        trace = engine.trace
        if trace.recording:
            trace.emit(
                TxnFailed(
                    engine.step_count, engine.round_count, process.pid,
                    txn.mode.name, txn.label,
                )
            )
        else:
            trace.counters.failures += 1  # what emit would count

    def _faulted(self, process: ProcessInstance, matched: bool) -> bool:
        """Fire the ``post-match`` site, and for a match about to commit
        the ``pre-commit`` site, between the query and staging.  A crash
        unwinds with :class:`_Crashed`; ``abort-txn`` answers True.

        ``pre-commit`` fires only on about-to-commit attempts, so its
        per-process occurrence count equals the process's commit index —
        the property that keeps ``at=``-keyed plans aligned across commit
        modes.
        """
        for site in ("post-match", "pre-commit") if matched else ("post-match",):
            action = self.engine.faults.fire(site, process.pid, process.name)
            if action == "crash":
                self.crash_process(process, site)
                raise _Crashed
            if action == "abort-txn":
                return True
        return False

    def _commit(
        self, process: ProcessInstance, txn: Transaction, outcome: TransactionOutcome
    ) -> None:
        """Apply a staged *outcome*, then do what follows a commit."""
        outcome.asserted = apply((outcome,), self.engine.dataspace)
        self._after_commit(process, txn, outcome)

    def _after_commit(
        self, process: ProcessInstance, txn: Transaction, outcome: TransactionOutcome
    ) -> None:
        engine = self.engine
        if outcome.lets:
            process.env.update(outcome.lets)
        for name, args in outcome.spawned:
            engine.spawn(name, args, spawner=process.pid)
        trace = engine.trace
        if trace.recording:
            trace.emit(
                TxnCommitted(
                    engine.step_count,
                    engine.round_count,
                    process.pid,
                    txn.mode.name,
                    txn.label,
                    len(outcome.retracted),
                    len(outcome.asserted),
                    outcome.match_count,
                    outcome.reads,
                )
            )
        else:  # what emit would count (events._count_commit)
            counters = trace.counters
            counters.commits += 1
            counters.asserts += len(outcome.asserted)
            counters.retracts += len(outcome.retracted)
            counters.reads += outcome.reads
        if outcome.asserted or outcome.retracted:
            self._wake_on_change(outcome.asserted + outcome.retracted)
        # Last, so a raising callback finds the commit fully accounted for.
        for callback, env in outcome.callbacks:
            callback(env)

    # ------------------------------------------------------------------
    # blocking and wakeups
    # ------------------------------------------------------------------
    def _subscription_for(self, txns: list[Transaction], item: Any) -> Subscription:
        return derive_subscription(
            txns, item.process.view, item.process.scope(), self.engine.wake_filter
        )

    def _block(self, task: Task, sub: Subscription, kind: str, requeue: bool = False) -> None:
        engine = self.engine
        task.state = TaskState.BLOCKED
        task.process.status = ProcessStatus.BLOCKED
        engine.wakeups.add(task, sub)
        if not requeue:
            self._blocked(task, kind)

    def _blocked(self, item: Any, kind: str) -> None:
        """Record that *item* parked (``TaskBlocked``)."""
        engine = self.engine
        trace = engine.trace
        if trace.recording:
            trace.emit(
                TaskBlocked(engine.step_count, engine.round_count, item.process.pid, kind)
            )
        else:
            trace.counters.blocks += 1  # what emit would count

    def _woken(self, item: Any) -> None:
        """Record that *item* was woken (``TaskWoken``)."""
        engine = self.engine
        trace = engine.trace
        if trace.recording:
            trace.emit(TaskWoken(engine.step_count, engine.round_count, item.process.pid))
        else:
            trace.counters.wakeups += 1  # what emit would count

    def _unpark(self, task: Task) -> None:
        task.park = None
        self.engine.wakeups.discard(task.tid)
        self._drop_waiter(task.process.pid)
        if task.process.status in (ProcessStatus.BLOCKED, ProcessStatus.CONSENSUS_WAIT):
            task.process.status = ProcessStatus.RUNNING

    def _wake_on_change(self, instances: list[TupleInstance]) -> None:
        engine = self.engine
        if self.consensus_waiters:
            self.consensus_dirty = True
        for item in engine.wakeups.affected(instances):
            if isinstance(item, Task) and item.state is TaskState.CONSENSUS:
                if isinstance(item.park, ParkedSelection):
                    # Retry the selection's non-consensus guards; the task
                    # stays registered as a consensus waiter meanwhile.
                    item.state = TaskState.READY
                    item.woken = True
                    engine.scheduler.enqueue(item)
                    self._woken(item)
                # Pure consensus transactions are re-examined by the
                # consensus engine, not rescheduled.
                continue
            if engine.faults is not None and engine.faults.wants("wakeup-deliver"):
                action = engine.faults.fire(
                    "wakeup-deliver", item.process.pid, item.process.name
                )
                if action == "drop-wake":
                    # Lost message: the item stays parked and registered, so
                    # a later change can still wake it (at-least-once overall)
                    # — but if none comes, the run reports deadlock.
                    continue
                if action == "delay-wake":
                    engine.faults.delay(item)  # delivered at the next round boundary
                    continue
            engine.wakeups.discard(item.tid)
            item.state = TaskState.READY
            item.woken = True
            engine.scheduler.enqueue(item)
            self._woken(item)

    # ------------------------------------------------------------------
    # group-commit rounds (engine option ``commit="group"``)
    # ------------------------------------------------------------------
    def run_group_round(self, items: list) -> list:
        """Run one group-commit round; see :mod:`repro.runtime.rounds`."""
        return rounds.run_group_round(self, items)

    # ------------------------------------------------------------------
    # consensus
    # ------------------------------------------------------------------
    def try_consensus(self) -> bool:
        obs = self.engine.obs
        if obs is None or not self.consensus_waiters:
            # No-waiter probes are O(1) bail-outs; recording them would
            # flood the trace with empty consensus spans.
            return self._try_consensus()
        start = obs.spans.now()
        waiters = len(self.consensus_waiters)
        fired = self._try_consensus()
        obs.observe_ns(
            "consensus",
            start,
            obs.spans.now() - start,
            {"waiters": waiters, "fired": fired},
        )
        return fired

    def _add_waiter(self, task: Task) -> None:
        pid = task.process.pid
        if pid not in self.consensus_waiters:
            index = self.consensus_index
            if not index.started:
                engine = self.engine
                index.start(engine.society, engine.window, engine.dataspace)
            index.park(pid)
            self._moved(pid)
        self.consensus_waiters[pid] = task
        self.consensus_dirty = True

    def _drop_waiter(self, pid: int) -> None:
        if self.consensus_waiters.pop(pid, None) is not None:
            self.consensus_index.unpark(pid)
            self._moved(pid)

    def _moved(self, pid: int) -> None:
        if self._consensus_memo is not None:
            self._memo_moved ^= {pid}

    def _forget(self, pid: int) -> None:
        """*pid* left the live set."""
        self.consensus_index.forget(pid)
        memo = self._consensus_memo
        if memo is not None and pid <= memo[1]:
            self._memo_left = True

    def _memo_holds(self) -> bool:
        """Is nothing readiness depends on changed since the last failed
        attempt?"""
        memo = self._consensus_memo
        engine = self.engine
        if (
            memo is None
            or memo[0] != engine.dataspace.version
            or self._memo_moved
            or self._memo_left
        ):
            return False
        society = engine.society
        return all(
            society.find_live(pid) is None
            for pid in range(memo[1] + 1, society.total_spawned + 1)
        )

    def _remember_failure(self) -> None:
        engine = self.engine
        self._consensus_memo = (engine.dataspace.version, engine.society.total_spawned)
        self._memo_moved = set()
        self._memo_left = False

    def _synced(self) -> bool:
        """Clear :attr:`consensus_dirty` and fold what changed into the
        counted closure; ``False`` when nothing can fire: no process
        waits, or nothing changed since the last failed attempt."""
        self.consensus_dirty = False
        if not self.consensus_waiters or self._memo_holds():
            return False
        self.consensus_index.sync()
        return True

    def consensus_due(self) -> bool:
        """Would an attempt now evaluate a consensus set?  Only if some
        component of the counted closure has no runner and something
        changed since the last failed attempt.  Otherwise the attempt is a
        no-op, remembered as one."""
        if not self._synced():
            return False
        if self.consensus_index.has_free():
            return True
        self._remember_failure()
        return False

    def _try_consensus(self) -> bool:
        """Fire the first ready consensus set, in :func:`partition` order.

        The closure is kept in :attr:`consensus_index`, folded from what
        changed since the last attempt: the components no runner belongs
        to are evaluated exactly as a from-scratch partition would order
        them.  Blocked components never reach evaluation, so they draw
        nothing from the RNG either way.
        """
        if not self._synced():
            return False
        engine = self.engine
        waiters = self.consensus_waiters
        for component in self.consensus_index.free_components():
            participants = self._gather_participants(component)
            if participants is None:
                continue
            effect = evaluate_composite(participants, engine.rng)
            if effect is None:
                continue
            # Firing is the irreversible step: confirm the set against the
            # from-scratch closure first.
            windows = {pid: engine.window(task.process) for pid, task in waiters.items()}
            if component not in partition(windows):
                raise EngineError(
                    f"maintained consensus set {sorted(component)} is not a "
                    "component of the waiters' import overlap"
                )
            self._fire_consensus(participants, effect)
            return True
        self._remember_failure()
        return False

    def _gather_participants(self, component: frozenset[int]) -> list[ConsensusParticipant] | None:
        participants: list[ConsensusParticipant] = []
        for pid in sorted(component):
            task = self.consensus_waiters[pid]
            txn = self._choose_consensus_txn(task)
            if txn is None:
                return None
            participants.append(
                ConsensusParticipant(
                    pid=pid,
                    transaction=txn,
                    window=self.engine.window(task.process),
                    scope=task.process.scope(),
                )
            )
        return participants

    def _choose_consensus_txn(self, task: Task) -> Transaction | None:
        """Pick the consensus transaction this waiter is individually ready on."""
        engine = self.engine
        window = engine.window(task.process)
        scope = task.process.scope()
        park = task.park
        if isinstance(park, ParkedTxn):
            candidates = [park.transaction]
        elif isinstance(park, ParkedSelection):
            candidates = [txn for __, txn in park.consensus_guards]
        else:  # pragma: no cover - waiters are always parked
            return None
        for txn in candidates:
            if txn.query.evaluate(window.refresh(), scope, engine.rng).success:
                return txn
        return None

    def _fire_consensus(self, participants: list[ConsensusParticipant], effect) -> None:
        """Commit the composite: stage every participant in pid order,
        each against its window minus the retractions staged before it,
        then apply all retractions and all assertions once."""
        engine = self.engine
        staged: list = []
        outcomes: dict[int, TransactionOutcome] = {}
        for participant in sorted(participants, key=lambda p: p.pid):
            result = effect.results[participant.pid]
            outcomes[participant.pid] = stage(
                participant.transaction,
                participant.window,
                participant.scope,
                participant.pid,
                engine.rng,
                result,
                engine.export_policy,
                staged,
            )
            staged.append(result)
        asserted = apply(list(outcomes.values()), engine.dataspace)
        engine.trace.emit(
            ConsensusFired(
                engine.step_count,
                engine.round_count,
                tuple(sorted(p.pid for p in participants)),
                sum(len(o.retracted) for o in outcomes.values()),
                len(asserted),
            )
        )
        changed = asserted
        for outcome in outcomes.values():
            changed.extend(outcome.retracted)
        # resume every participant
        for participant in participants:
            pid = participant.pid
            task = self.consensus_waiters[pid]
            self._drop_waiter(pid)
            engine.wakeups.discard(task.tid)
            outcome = outcomes[pid]
            self._after_commit(task.process, participant.transaction, outcome)
            park = task.park
            task.park = None
            if isinstance(park, ParkedSelection):
                index = next(
                    i for i, txn in park.consensus_guards if txn is participant.transaction
                )
                self._deliver(task, (index, outcome), outcome)
            else:
                self._deliver(task, outcome, outcome)
        if changed:
            self._wake_on_change(changed)
        self._consensus_memo = None
