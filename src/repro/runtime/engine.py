"""The SDL virtual-time execution engine (public facade).

The engine wires together the three runtime components and owns the
program-visible objects:

* :class:`~repro.runtime.scheduler.Scheduler` — rounds, ready queues, task
  records, and the seeded arbitration that makes every run exactly
  reproducible for a given ``(program, dataspace, seed)``;
* :class:`~repro.runtime.wakeup.WakeupIndex` — the content-addressed
  subscription index deciding which parked item a dataspace change
  reawakens (``wake_filter``: precise ``"keys"``, the seed's coarse
  ``"arity"``, or the ``"all"`` ablation);
* :class:`~repro.runtime.executor.Executor` — transaction attempts per
  mode, selection arbitration, replication pumps, and consensus detection.

:meth:`Engine.run` drives rounds until completion, deadlock, or a limit; a
round ends when every item ready at its start has been stepped once, so
round counts approximate the parallel makespan while step counts give total
work.  :class:`RunResult` summarises a run, including the reactivity
counters (precise/spurious wakeups, window cache hits, delta vs full
refreshes) that make the incremental pipeline observable.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence as Seq

from repro.core.dataspace import Dataspace
from repro.core.plan import QueryPlanner, resolve_plan_mode
from repro.core.process import ProcessDefinition, ProcessInstance
from repro.core.society import ProcessSociety
from repro.core.views import FULL_VIEW, Window, WindowStats
from repro.errors import DeadlockError, EngineError, StepLimitExceeded
from repro.obs import Observability, resolve_obs
from repro.runtime.events import CheckpointTaken, ProcessCreated, ProcessRestarted, Trace
from repro.runtime.executor import Executor
from repro.runtime.faults import FaultInjector, FaultPlan, resolve_plan
from repro.runtime.interpreter import interpret
from repro.runtime.parallel import SnapshotShipper, WorkerPool, resolve_workers
from repro.runtime.recovery import Checkpoint, DurableLog
from repro.runtime.scheduler import Scheduler, Task, TaskKind, TaskState
from repro.runtime.supervision import RestartPolicy, Supervisor
from repro.runtime.wakeup import WakeupIndex

__all__ = ["Engine", "RunResult"]


@dataclass(slots=True)
class RunResult:
    """Summary of one engine run.

    ``reason`` values: ``"completed"`` (every process terminated, all crash
    lineages recovered), ``"deadlock"``, ``"step-limit"``, ``"round-limit"``,
    ``"crashed"`` (the program drained but at least one crash-stop failure
    was never restarted), and ``"escalated"`` (a supervised lineage
    exhausted its restart budget, failing the run).
    """

    reason: str
    steps: int
    rounds: int
    commits: int
    consensus_rounds: int
    live_processes: int
    dataspace_size: int
    deadlocked: list[str] = field(default_factory=list)
    # Reactivity counters (defaults keep hand-built RunResults valid).
    wakeups: int = 0
    precise_wakeups: int = 0
    spurious_wakeups: int = 0
    wake_checks: int = 0
    window_hits: int = 0
    window_misses: int = 0
    window_delta_refreshes: int = 0
    window_full_invalidations: int = 0
    footprint_recomputes: int = 0
    # Group-commit counters (populated under ``commit="group"``).
    group_rounds: int = 0
    batch_commits: int = 0
    conflicts: int = 0
    max_batch: int = 0
    # Parallel-apply counters (populated under ``workers=N`` with a
    # sharded layout): rounds that dispatched at least one group to the
    # worker pool, groups and candidates evaluated on workers, and
    # groups that fell back to serial apply.
    parallel_rounds: int = 0
    parallel_groups: int = 0
    parallel_candidates: int = 0
    parallel_fallbacks: int = 0
    # Parallel-admission counters (populated under ``admit="parallel"``
    # with a pool and a sharded layout): rounds that shipped at least one
    # admission task, tasks and candidates whose match verdicts came from
    # workers, and candidates that fell back to serial evaluation.
    admit_rounds: int = 0
    admit_tasks: int = 0
    admit_candidates: int = 0
    admit_fallbacks: int = 0
    # Snapshot-shipping counters (the admission workers' cache): total
    # blob+delta bytes handed to the pool, and worker-reported refreshes
    # by kind (journal delta suffix vs full blob re-ship).
    snapshot_ship_bytes: int = 0
    snapshot_refreshes_delta: int = 0
    snapshot_refreshes_full: int = 0
    # Worker-supervision counters (populated under ``workers=N``):
    # deadline misses, capped-backoff retries, pool respawns after a
    # break, groups quarantined to serial, and worker plans rejected by
    # footprint validation before replay.
    worker_timeouts: int = 0
    worker_retries: int = 0
    worker_respawns: int = 0
    worker_quarantined: int = 0
    worker_plan_rejects: int = 0
    # Crash-stop failure counters (populated under fault injection).
    crashes: int = 0
    restarts: int = 0
    recoveries: int = 0
    checkpoints: int = 0
    # Per-definition restart pressure from the supervisor:
    # ``{name: {crashes, restarts, backoff_rounds, escalations}}`` — a
    # crash-looping definition shows up here without reading the trace.
    restart_pressure: dict[str, dict[str, int]] = field(default_factory=dict)
    # Durable-log counters (populated under ``wal_dir=``): WAL frames and
    # bytes appended, and checkpoint segments committed to disk.
    wal_frames: int = 0
    wal_bytes: int = 0
    wal_segments: int = 0
    # Query-planner counters (zero under ``plan="off"``): plan-cache
    # lookups that reused a compiled plan vs. built one.
    plan_hits: int = 0
    plan_misses: int = 0
    # Storage backend the run used (``"object"`` or ``"columnar"``).
    store: str = "object"
    # Observability snapshot: the metrics registry dump of the run
    # (``repro.obs``) when the engine ran with observability enabled,
    # ``{}`` otherwise.  Keys are metric names; per-site latency
    # histograms live under ``sdl_<site>_seconds``.
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.reason == "completed"

    @property
    def avg_batch(self) -> float:
        """Average admitted batch size per group-commit round."""
        return self.batch_commits / self.group_rounds if self.group_rounds else 0.0

    @property
    def conflict_rate(self) -> float:
        """Fraction of evaluated candidates that lost their round."""
        attempts = self.batch_commits + self.conflicts
        return self.conflicts / attempts if attempts else 0.0

    @property
    def parallelism(self) -> float:
        """Average available parallelism: committed work per virtual round."""
        return self.commits / self.rounds if self.rounds else 0.0

    @property
    def spurious_wake_rate(self) -> float:
        """Fraction of resolved wakes that re-parked without progress."""
        resolved = self.precise_wakeups + self.spurious_wakeups
        return self.spurious_wakeups / resolved if resolved else 0.0

    @property
    def window_hit_rate(self) -> float:
        """Fraction of import decisions served without asking a rule, by
        membership in a window's footprint (``WindowStats``)."""
        probes = self.window_hits + self.window_misses
        return self.window_hits / probes if probes else 0.0

    @property
    def plan_hit_rate(self) -> float:
        """Fraction of plan-cache lookups served without rebuilding."""
        lookups = self.plan_hits + self.plan_misses
        return self.plan_hits / lookups if lookups else 0.0


class Engine:
    """Executes an SDL program over a dataspace and a process society."""

    def __init__(
        self,
        dataspace: Dataspace | None = None,
        definitions: Iterable[ProcessDefinition] = (),
        seed: int = 0,
        policy: str = "random",
        trace: Trace | None = None,
        export_policy: str = "error",
        on_deadlock: str = "raise",
        wake_filter: str = "keys",
        commit: str | None = None,
        validate: str | None = None,
        faults: "FaultPlan | str | None" = None,
        supervision: "dict[str, RestartPolicy] | RestartPolicy | None" = None,
        checkpoint_interval: int | None = None,
        obs: "Observability | bool | str | None" = None,
        plan: "str | bool | None" = None,
        shards: "str | int | None" = None,
        store: "str | None" = None,
        workers: "str | int | None" = None,
        wal_dir: "str | None" = None,
        worker_timeout: "float | None" = None,
        admit: "str | None" = None,
    ) -> None:
        if policy not in ("random", "fifo"):
            raise EngineError(f"unknown scheduling policy {policy!r}")
        if wake_filter not in ("keys", "arity", "all"):
            raise EngineError(f"unknown wake_filter {wake_filter!r}")
        if on_deadlock not in ("raise", "return"):
            raise EngineError(f"unknown on_deadlock {on_deadlock!r}")
        if export_policy not in ("error", "drop"):
            raise EngineError(f"unknown export_policy {export_policy!r}")
        # Round commit discipline: "live" (the seed's semantics — each step
        # sees mid-round mutations), "serial" (one item per round, the
        # serial reference for rounds-as-makespan comparisons), or "group"
        # (footprint-guarded batch commit, serial-equivalent to the seeded
        # arbitration order).  ``validate="serial"`` re-runs every group
        # round serially and asserts identical dataspace state.  The
        # SDL_COMMIT / SDL_VALIDATE environment variables supply defaults
        # so whole test suites can be swept across commit modes.
        if commit is None:
            commit = os.environ.get("SDL_COMMIT") or "live"
        if validate is None:
            validate = os.environ.get("SDL_VALIDATE") or None
        if commit not in ("live", "serial", "group"):
            raise EngineError(f"unknown commit mode {commit!r}")
        if validate not in (None, "serial"):
            raise EngineError(f"unknown validate mode {validate!r}")
        # Recovery: a WAL directory (``wal_dir=`` / SDL_WAL_DIR /
        # ``--wal-dir``) attaches a DurableLog — checksummed segment files
        # that DurableLog.load rebuilds state from after a real crash (see
        # ``repro.runtime.recovery``).  ``checkpoint_interval=`` tunes it
        # and means nothing without one.
        if wal_dir is None:
            wal_dir = os.environ.get("SDL_WAL_DIR") or None
        if wal_dir is None and checkpoint_interval is not None:
            raise EngineError(
                "checkpoint_interval= needs a WAL directory (wal_dir= or SDL_WAL_DIR)"
            )
        # Storage sharding (``repro.core.storage``): partition the dataspace
        # into N head-routed stores (``shards="head:4"`` / ``shards=4``) or
        # keep the single-store layout (``"single"``, the default; env
        # SDL_SHARDS supplies a suite-wide default).  Orthogonally,
        # ``store="columnar"`` (env SDL_STORE) swaps each shard's backend
        # for the struct-of-arrays layout; ``"object"`` — the default —
        # keeps the per-tuple-object baseline.  An explicitly supplied
        # dataspace already fixed its own layout and backend, so combining
        # it with either knob is an error rather than a silent override.
        if dataspace is not None:
            if shards is not None:
                raise EngineError(
                    "cannot pass both dataspace= and shards=; construct the "
                    "dataspace with Dataspace(shards=...) instead"
                )
            if store is not None:
                raise EngineError(
                    "cannot pass both dataspace= and store=; construct the "
                    "dataspace with Dataspace(store=...) instead"
                )
            self.dataspace = dataspace
        else:
            if shards is None:
                shards = os.environ.get("SDL_SHARDS") or "single"
            if store is None:
                store = os.environ.get("SDL_STORE") or None
            try:
                self.dataspace = Dataspace(shards=shards, store=store)
            except ValueError as exc:
                raise EngineError(str(exc)) from None
        # Parallel group-round apply (``repro.runtime.parallel``): a pool
        # of workers evaluating shard-disjoint admitted groups off the
        # main process.  ``workers=N`` / ``"process:N"`` / ``"thread:N"``
        # (env SDL_WORKERS supplies a suite-wide default); ``None``/1 is
        # serial apply.  Dispatch additionally requires a sharded layout
        # and ``commit="group"`` — without them the pool simply never
        # fires, keeping the knobs orthogonal.
        if workers is None:
            workers = os.environ.get("SDL_WORKERS") or None
        try:
            worker_spec = resolve_workers(workers)
        except ValueError as exc:
            raise EngineError(str(exc)) from None
        # Per-batch join deadline for the worker pool, in (real) seconds:
        # a group that misses it is quarantined straight to serial.  Env
        # SDL_WORKER_TIMEOUT supplies a suite-wide default; None waits
        # forever (the pre-supervision behavior).
        if worker_timeout is None:
            raw = os.environ.get("SDL_WORKER_TIMEOUT")
            if raw:
                try:
                    worker_timeout = float(raw)
                except ValueError:
                    raise EngineError(
                        f"bad SDL_WORKER_TIMEOUT {raw!r} (expected seconds)"
                    ) from None
        if worker_timeout is not None and worker_timeout <= 0:
            raise EngineError(f"worker_timeout must be > 0, got {worker_timeout}")
        self.worker_timeout = worker_timeout
        self.pool: WorkerPool | None = (
            WorkerPool(worker_spec.mode, worker_spec.count, timeout=worker_timeout)
            if worker_spec is not None
            else None
        )
        # Parallel admission (the Phase B analogue of parallel apply):
        # ``admit="parallel"`` ships match evaluation for group-round
        # candidates to the pool over cached per-shard snapshots, while the
        # main process keeps the sequential arbitration-order walk — runs
        # stay bit-identical to serial per seed.  Requires the pool, a
        # sharded layout, and the planner; without them the knob is inert.
        # Env SDL_ADMIT supplies a suite-wide default.
        if admit is None:
            admit = os.environ.get("SDL_ADMIT") or "serial"
        if admit not in ("serial", "parallel"):
            raise EngineError(f"unknown admit mode {admit!r}")
        self.admit = admit
        self.society = ProcessSociety(definitions)
        self.rng = random.Random(seed)
        self.trace = trace if trace is not None else Trace()
        self.export_policy = export_policy
        self.on_deadlock = on_deadlock
        self.wake_filter = wake_filter
        self.commit = commit
        self.validate = validate

        # Observability (metrics + span tracing, ``repro.obs``): same
        # disabled-path discipline as fault injection — ``self.obs`` is
        # ``None`` unless enabled (argument, or env ``SDL_OBS``), every
        # instrumented site guards with a single ``is None`` check, and
        # the hook never consumes :attr:`rng`, so an instrumented run is
        # bit-identical to a bare one.
        self.obs: Observability | None = resolve_obs(obs)

        # Cost-based query planning (``repro.core.plan``): on by default;
        # ``plan="off"`` (or env ``SDL_PLAN=off``) keeps the naive
        # textual-order matcher alive for differential testing.  The
        # planner rides on windows (``window.planner``), so the serial
        # replay of ``validate="serial"`` — which builds bare windows —
        # always re-checks group rounds against the naive walk.
        try:
            self.plan = resolve_plan_mode(plan, os.environ.get("SDL_PLAN"))
        except ValueError as exc:
            raise EngineError(str(exc)) from None
        self.planner: QueryPlanner | None = (
            QueryPlanner(self.dataspace, obs=self.obs) if self.plan == "on" else None
        )

        # Crash-stop failure model: a fault plan (env SDL_FAULTS supplies a
        # default so whole suites can be swept), a supervisor (always
        # constructed — the default "never" policy makes crashes final),
        # and optional periodic checkpointing of the dataspace.
        if faults is None:
            faults = os.environ.get("SDL_FAULTS") or None
        plan = resolve_plan(faults)
        self.faults = FaultInjector(plan) if plan is not None and plan.specs else None
        self.supervisor = Supervisor(supervision)

        self.step_count = 0
        self._running = False  # inside run(): assert_tuples joins the open round
        #: Group mode: the round (deferred losers first) that was already
        #: taken from the scheduler when a run limit stopped the run.  It
        #: belongs to no queue, so it is kept here and leads the resumed run.
        self._held_round: list | None = None
        self.scheduler = Scheduler(self.rng, policy)
        if commit == "serial":
            self.scheduler.round_size = 1
        self.wakeups = WakeupIndex(obs=self.obs)
        self.executor = Executor(self)
        #: The unfinished tasks (a task leaves when it is done).
        self.tasks: dict[int, Task] = {}
        self._windows: dict[int, Window] = {}
        self._window_stats = WindowStats()  # absorbed from dropped windows
        #: The one window of every process with an unrestricted view: it
        #: holds no per-process state (its footprint is D; it reads no params).
        self._full_window = FULL_VIEW.window(self.dataspace)
        self._full_window.planner = self.planner
        self.wal_dir = wal_dir
        self.recovery: DurableLog | None = None
        if wal_dir is not None:
            self.recovery = DurableLog(
                self.dataspace,
                wal_dir,
                interval=checkpoint_interval if checkpoint_interval is not None else 64,
                on_checkpoint=self._emit_checkpoint,
                obs=self.obs,
                faults=self.faults,
            )
        if self.pool is not None:
            # The pool needs the injector (worker-exec faults) and the
            # metrics hook, both resolved just above.
            self.pool.faults = self.faults
            self.pool.obs = self.obs
        # The snapshot shipper (parallel admission's worker-cache feeder)
        # exists only when the knob and the pool are both on.
        self.snapshots: SnapshotShipper | None = (
            SnapshotShipper(self.dataspace, obs=self.obs)
            if self.pool is not None and self.admit == "parallel"
            else None
        )
        if self.obs is not None:
            self.dataspace.attach_obs(self.obs)
            if self.faults is not None:
                self.faults.obs = self.obs

    @property
    def policy(self) -> str:
        return self.scheduler.policy

    @property
    def round_count(self) -> int:
        return self.scheduler.round_count

    # ------------------------------------------------------------------
    # program setup
    # ------------------------------------------------------------------
    def define(self, definition: ProcessDefinition) -> ProcessDefinition:
        """Register a process definition."""
        return self.society.define(definition)

    def assert_tuples(self, rows: Iterable[Iterable[Any]]) -> None:
        """Populate the initial dataspace (owner 0 = the environment).

        Called outside ``run()`` this is a consistent point of its own: the
        rows are durable when it returns.  Called from a callback inside a
        run, they belong to the round in progress.  Either way they wake
        the tasks parked on them, as a commit's changes do.
        """
        inserted = self.dataspace.insert_many(rows)
        if inserted:
            self.executor._wake_on_change(inserted)
        if not self._running:
            self._mark_consistent()

    def start(self, name: str, args: Seq[Any] = ()) -> ProcessInstance:
        """Create an initial process instance."""
        return self.spawn(name, tuple(args), spawner=None)

    def start_many(self, launches: Iterable[tuple[str, Seq[Any]]]) -> None:
        for name, args in launches:
            self.start(name, args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_steps: int = 1_000_000, max_rounds: int | None = None) -> RunResult:
        """Drive the program until completion, deadlock, or a limit.

        Every way out — a result or a policy raise (``StepLimitExceeded``,
        ``DeadlockError``) — is between transactions, and marks a
        consistent point in the recovery log first.  So is the way in: a
        log that an earlier run's end closed takes up again here.
        """
        self._mark_consistent()
        self._running = True
        try:
            if self.commit == "group":
                return self._run_group(max_steps, max_rounds)
            return self._run_live(max_steps, max_rounds)
        finally:
            self._running = False

    def _run_live(self, max_steps: int, max_rounds: int | None) -> RunResult:
        scheduler = self.scheduler
        executor = self.executor
        while True:
            if self.supervisor.escalated is not None:
                return self._summary("escalated")
            if executor.consensus_dirty and executor.consensus_due():
                executor.try_consensus()
            if not scheduler.round_active:
                # Round boundary: no transaction is in flight, so what the
                # round committed becomes durable; injector-delayed wakes
                # deliver now, and restarts whose backoff elapsed rejoin
                # the society.
                self._mark_consistent()
                executor.flush_delayed()
                self._spawn_restarts()
                if not scheduler.start_round():
                    # global idle: last-chance consensus, then backoff
                    # fast-forward, then termination
                    if executor.try_consensus():
                        continue
                    if self._spawn_restarts(idle=True):
                        continue
                    return self._finish()
                if max_rounds is not None and scheduler.round_count > max_rounds:
                    return self._summary("round-limit")
            item = scheduler.pop()
            if item.state is not TaskState.READY:
                continue  # lazily discarded (aborted process, stale entry)
            if self.step_count >= max_steps:
                scheduler.unpop(item)  # not stepped: still first in its round
                if self.on_deadlock == "raise":
                    self._mark_consistent()
                    raise StepLimitExceeded(max_steps)
                return self._summary("step-limit")
            self.step_count += 1
            executor.step(item)

    def _run_group(self, max_steps: int, max_rounds: int | None) -> RunResult:
        """Group-commit driver: whole rounds at a time, losers lead the next.

        Deferred conflict losers live outside the scheduler queues (they
        are neither blocked nor re-enqueued) and are prepended, in order,
        to the next round's arbitration sequence — the first loser is then
        unconditionally admitted, which is the weak-fairness argument of
        `docs/SEMANTICS.md`.  A round that a limit stops before it runs is
        held (losers included) and is the first round of the next ``run()``,
        so limit-then-resume follows the uninterrupted schedule.
        """
        scheduler = self.scheduler
        executor = self.executor
        deferred: list = []
        while True:
            if self.supervisor.escalated is not None:
                return self._summary("escalated")
            if executor.consensus_dirty and executor.consensus_due():
                executor.try_consensus()
            # Round boundary (idle-time consensus commits loop back here
            # too): what was committed so far becomes durable.
            self._mark_consistent()
            executor.flush_delayed()
            self._spawn_restarts()
            items = self._held_round or scheduler.take_round(prepend=deferred)
            self._held_round = None
            if items is None:
                if executor.try_consensus():
                    continue
                if self._spawn_restarts(idle=True):
                    continue
                return self._finish()
            if max_rounds is not None and scheduler.round_count > max_rounds:
                self._held_round = items
                return self._summary("round-limit")
            if self.step_count >= max_steps:
                self._held_round = items
                if self.on_deadlock == "raise":
                    self._mark_consistent()
                    raise StepLimitExceeded(max_steps)
                return self._summary("step-limit")
            deferred = executor.run_group_round(items)

    def _finish(self) -> RunResult:
        if len(self.wakeups) or self.executor.consensus_waiters:
            blocked_desc = sorted(
                {repr(item.process) for item in self.wakeups.items()}
                | {repr(t.process) for t in self.executor.consensus_waiters.values()}
            )
            if self.on_deadlock == "raise":
                self._mark_consistent()
                raise DeadlockError(blocked_desc)
            return self._summary("deadlock", blocked_desc)
        counters = self.trace.counters
        if counters.crashes > counters.restarts:
            # The program drained, but some crash-stop failure was never
            # replaced — the run did not fully complete.
            return self._summary("crashed")
        return self._summary("completed")

    def _mark_consistent(self) -> None:
        """No transaction is in flight: make what was committed durable.

        A log closed by a terminal result resumes first: its new baseline
        checkpoint holds whatever changed since (``assert_tuples`` after a
        deadlock, say), and it logs the changes after that.
        """
        recovery = self.recovery
        if recovery is not None:
            recovery.resume()
            recovery.flush()

    def _summary(self, reason: str, deadlocked: list[str] | None = None) -> RunResult:
        counters = self.trace.counters
        windows = self.window_stats()
        if self.recovery is not None:
            if reason in ("round-limit", "step-limit"):
                # A limit is not the end: ``run()`` may be called again, and
                # what it commits must reach the log too.  Make the prefix
                # durable and stay subscribed.
                self.recovery.flush()
            else:
                # Teardown: detach the recovery log's dataspace listener so
                # a finished engine leaves no subscription behind (the
                # segments stay loadable).  The next consistent point the
                # engine marks resumes it.
                self.recovery.close()
        planner = self.planner
        metrics: dict[str, Any] = {}
        if self.obs is not None:
            o = self.obs
            o.gauge("sdl_dataspace_size", len(self.dataspace))
            if self.dataspace.shard_count > 1:
                o.gauge("sdl_shard_count", self.dataspace.shard_count)
                for store in self.dataspace.stores:
                    o.gauge(f"sdl_shard_occupancy_{store.shard}", len(store))
            o.gauge("sdl_rounds_total", self.scheduler.round_count)
            o.gauge("sdl_steps_total", self.step_count)
            o.gauge("sdl_commits_total", counters.commits)
            if self.pool is not None:
                o.gauge("sdl_worker_pool_size", self.pool.size)
                o.gauge("sdl_worker_pool_peak_inflight", self.pool.peak_inflight)
            if self.snapshots is not None:
                o.gauge("sdl_snapshot_ship_bytes", self.snapshots.ship_bytes)
                # Per-worker snapshot freshness: sorted idents get compact
                # slot-numbered gauges (obs gauges are unlabeled).
                for slot, ident in enumerate(sorted(self.snapshots.worker_versions)):
                    o.gauge(
                        f"sdl_snapshot_worker_version_{slot}",
                        self.snapshots.worker_versions[ident],
                    )
            if planner is not None:
                o.gauge("sdl_plan_cache_size", planner.cache_size)
                o.gauge("sdl_plan_hit_rate", planner.hit_rate)
            # The heaviest per-definition restart count: a crash storm is
            # one glance at the gauge, not a trace read.
            o.gauge("sdl_restart_storm", self.supervisor.storm)
            if self.recovery is not None:
                o.gauge("sdl_wal_frames", self.recovery.wal_frames)
                o.gauge("sdl_wal_bytes", self.recovery.wal_bytes)
            if self.dataspace.store_kind == "columnar":
                # Columnar layout health: total rows vs tombstones, how
                # many columns earned array('q') promotion, field indexes
                # built, and compaction churn — summed across shards.
                totals: dict[str, int] = {}
                for store in self.dataspace.stores:
                    for key, value in store.stats().items():
                        if key == "indexed_positions":
                            value = len(value)
                        totals[key] = totals.get(key, 0) + value
                for key, value in totals.items():
                    o.gauge(f"sdl_columnar_{key}", value)
            metrics = o.snapshot()
        pool = self.pool
        recovery = self.recovery
        return RunResult(
            reason=reason,
            steps=self.step_count,
            rounds=self.scheduler.round_count,
            commits=counters.commits,
            consensus_rounds=counters.consensus_rounds,
            live_processes=len(self.society),
            dataspace_size=len(self.dataspace),
            deadlocked=deadlocked or [],
            wakeups=counters.wakeups,
            precise_wakeups=counters.precise_wakeups,
            spurious_wakeups=counters.spurious_wakeups,
            wake_checks=self.wakeups.stats.wake_checks,
            window_hits=windows.hits,
            window_misses=windows.misses,
            window_delta_refreshes=windows.delta_refreshes,
            window_full_invalidations=windows.full_invalidations,
            footprint_recomputes=windows.footprint_recomputes,
            group_rounds=counters.group_rounds,
            batch_commits=counters.batch_commits,
            conflicts=counters.conflicts,
            max_batch=counters.max_batch,
            parallel_rounds=pool.rounds if pool is not None else 0,
            parallel_groups=pool.groups if pool is not None else 0,
            parallel_candidates=pool.candidates if pool is not None else 0,
            parallel_fallbacks=pool.fallbacks if pool is not None else 0,
            admit_rounds=pool.admit_rounds if pool is not None else 0,
            admit_tasks=pool.admit_tasks if pool is not None else 0,
            admit_candidates=pool.admit_candidates if pool is not None else 0,
            admit_fallbacks=pool.admit_fallbacks if pool is not None else 0,
            snapshot_ship_bytes=(
                self.snapshots.ship_bytes if self.snapshots is not None else 0
            ),
            snapshot_refreshes_delta=(
                self.snapshots.refreshes["delta"] if self.snapshots is not None else 0
            ),
            snapshot_refreshes_full=(
                self.snapshots.refreshes["full"] if self.snapshots is not None else 0
            ),
            worker_timeouts=pool.timeouts if pool is not None else 0,
            worker_retries=pool.retried if pool is not None else 0,
            worker_respawns=pool.respawns if pool is not None else 0,
            worker_quarantined=pool.quarantined if pool is not None else 0,
            worker_plan_rejects=pool.plan_rejects if pool is not None else 0,
            crashes=counters.crashes,
            restarts=counters.restarts,
            recoveries=self.supervisor.recoveries,
            checkpoints=counters.checkpoints,
            restart_pressure={
                name: dict(entry)
                for name, entry in self.supervisor.pressure.items()
            },
            wal_frames=recovery.wal_frames if recovery is not None else 0,
            wal_bytes=recovery.wal_bytes if recovery is not None else 0,
            wal_segments=recovery.segments_written if recovery is not None else 0,
            plan_hits=planner.hits if planner is not None else 0,
            plan_misses=planner.misses if planner is not None else 0,
            store=self.dataspace.store_kind,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    # crash-stop support (restarts, delayed wakes, checkpoints)
    # ------------------------------------------------------------------
    def _spawn_restarts(self, idle: bool = False) -> bool:
        """Spawn supervised replacements whose backoff has elapsed.

        At global idle (*idle*), virtual time fast-forwards to the earliest
        pending due-round — nothing else can happen in between, so skipping
        the empty rounds preserves the semantics while keeping backoff
        measured in rounds meaningful.
        """
        supervisor = self.supervisor
        if not supervisor.pending:
            return False
        if idle:
            due = supervisor.earliest_due()
            if due is not None and due > self.scheduler.round_count:
                self.scheduler.round_count = due
        spawned = False
        for entry in supervisor.take_due(self.scheduler.round_count):
            instance = self.spawn(entry.name, entry.args, spawner=None)
            supervisor.adopt(entry, instance.pid)
            self.trace.emit(
                ProcessRestarted(
                    self.step_count, self.round_count, instance.pid,
                    entry.name, entry.generation,
                )
            )
            spawned = True
        return spawned

    def _emit_checkpoint(self, checkpoint: Checkpoint) -> None:
        self.trace.emit(
            CheckpointTaken(
                self.step_count, self.round_count, checkpoint.version, checkpoint.size
            )
        )

    # ------------------------------------------------------------------
    # process/task plumbing (used by the executor)
    # ------------------------------------------------------------------
    def spawn(self, name: str, args: Seq[Any], spawner: int | None) -> ProcessInstance:
        instance = self.society.spawn(name, args, spawner, created_at=self.step_count)
        trace = self.trace
        if trace.recording:
            trace.emit(
                ProcessCreated(
                    self.step_count, self.round_count, instance.pid, name, tuple(args), spawner
                )
            )
        else:
            trace.counters.processes_created += 1  # what emit would count
        self.make_task(instance, interpret(instance.definition.body.body), TaskKind.MAIN)
        return instance

    def make_task(self, process: ProcessInstance, gen, kind: TaskKind) -> Task:
        task = Task(self.scheduler.issue_tid(), process, gen, kind)
        self.tasks[task.tid] = task
        self.scheduler.enqueue(task)
        return task

    def window(self, process: ProcessInstance) -> Window:
        window = self._windows.get(process.pid)
        if window is None:
            view = process.view
            if view.unrestricted:
                return self._full_window
            window = view.window(self.dataspace, process.params)
            window.planner = self.planner
            self._windows[process.pid] = window
        return window

    def drop_window(self, pid: int) -> None:
        """Forget a finished process's window, keeping its counters."""
        window = self._windows.pop(pid, None)
        if window is not None:
            window.detach()
            self._window_stats.absorb(window.stats)

    def window_stats(self) -> WindowStats:
        """Aggregate window counters: dropped windows plus live ones."""
        total = WindowStats()
        total.absorb(self._window_stats)
        total.absorb(self._full_window.stats)
        for window in self._windows.values():
            total.absorb(window.stats)
        return total
