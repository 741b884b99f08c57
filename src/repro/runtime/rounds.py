"""Group-commit round phases (engine option ``commit="group"``).

Extracted from :mod:`repro.runtime.executor` so the batch admission and
apply paths — the code that has to understand storage shards — live in one
small module.  The :class:`~repro.runtime.executor.Executor` keeps its
public surface and delegates here; these functions receive the executor
and drive its task/process plumbing.

One round runs four phases over the items ready at its start:

* **Phase A — classify**: transactions surface as *candidates* (in
  arbitration order — deferred losers lead, this round's shuffle follows);
  selections, replication pumps, and other control flow go to the *tail*;
* **Phase B — admit**: the largest prefix-compatible subsequence of the
  candidates is admitted (:mod:`repro.runtime.commit`).  Each candidate's
  read side first probes the key index of the batch admitted so far
  (:class:`~repro.runtime.commit.AdmittedBatch`).  A hit makes it a loser
  *unevaluated*: a w-w conflict implies an r-w conflict at the same or an
  earlier admitted index, so the reads alone find the winner.  Only a
  survivor is evaluated against the common round-start snapshot, and only
  the candidate being admitted has its write half derived.  A deferred
  loser carries its read side and its probe into the next round while its
  transaction and scope are unchanged (:func:`_reads_for`), the batch
  answers content-equal probes once, and a ``ConflictDetected`` event is
  built only when the trace records it.  Under
  ``admit="parallel"`` the *match evaluation* half of this phase runs on
  the worker pool over cached shard snapshots
  (:func:`_dispatch_admission`) while the walk itself — validation,
  plan-cache touch, the arbitration rotation draw, footprint admission —
  stays sequential on the main process (:func:`_resolve_admit`), keeping
  runs bit-identical to serial;
* **Phase C — apply**: the admitted batch commits in arbitration order
  (optionally re-validated by serial replay);
* **Phase D — tail**: the non-transaction items step against the live
  post-batch state.

Losers are returned to lead the next round — the weak-fairness argument of
`docs/SEMANTICS.md`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.actions import Let
from repro.core.query import Match, QueryResult
from repro.core.matching import rotation_start
from repro.core.storage import cut_at_serial, cut_len
from repro.core.transactions import (
    Control, Mode, Transaction, TransactionOutcome, settle, stage,
)
from repro.runtime.commit import (
    AdmittedBatch,
    Footprint,
    complete_footprint,
    first_conflict,
    footprint_for,
    read_side,
    validate_serial_equivalence,
)
from repro.runtime.events import ConflictDetected, RoundCommitted
from repro.runtime.interpreter import TxnRequest
from repro.runtime.parallel import (
    _TASK_ENTRIES,
    partition_disjoint,
    prepare_match,
    validate_plan,
)
from repro.runtime.scheduler import ParkedTxn, Pump, Task, TaskState
from repro.runtime.wakeup import WAKE_ANY, Subscription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.executor import Executor

__all__ = ["run_group_round"]


class _Crashed(Exception):
    """Unwinds the current step after a crash-stop fault killed its process.

    The crash itself (:meth:`Executor.crash_process`) already released every
    slot the process held; this exception only prevents the remainder of the
    in-flight step from acting on behalf of the dead process.  It is caught
    at the step boundaries (:meth:`Executor.step`, the group-round tail) and
    never escapes to user code.
    """


def run_group_round(executor: "Executor", items: list) -> list:
    """Run one footprint-guarded group-commit round over *items*.

    Returns the round's conflict losers, to be prepended to the next
    round's arbitration sequence.  The round is serial-equivalent to:
    admitted order, then tail order, with losers first next round.
    """
    engine = executor.engine
    candidates: list[tuple[Task, Transaction, str]] = []
    tail: list[tuple] = []

    # Phase A — classify, surfacing each task's next transaction.
    for item in items:
        if isinstance(item, Pump):
            if item.state is TaskState.READY:
                engine.step_count += 1
                tail.append(("pump", item))
            continue
        task = item
        if task.state is not TaskState.READY:
            continue  # lazily discarded (aborted process, stale entry)
        engine.step_count += 1
        if task.pending is not None:
            candidates.append((task, task.pending, "request"))
            continue
        if task.park is not None:
            park = task.park
            if isinstance(park, ParkedTxn):
                if park.transaction.mode is Mode.CONSENSUS:
                    continue  # consensus engine owns it; stale entry
                candidates.append((task, park.transaction, "park"))
            else:  # parked selection: live arbitration, tail
                tail.append(("task", task))
            continue
        value, task.send_value = task.send_value, None
        try:
            request = task.gen.send(value)
        except StopIteration as stop:
            control = stop.value if isinstance(stop.value, Control) else Control.NONE
            executor._task_finished(task, control)
            continue
        if (
            isinstance(request, TxnRequest)
            and request.transaction.mode is not Mode.CONSENSUS
        ):
            candidates.append((task, request.transaction, "request"))
        else:
            tail.append(("request", task, request))

    # Phase B — evaluate against the round-start snapshot and admit.
    obs = engine.obs
    admit_start = obs.spans.now() if obs is not None else 0
    faults = engine.faults
    watermark = engine.dataspace.serial
    partitioner = engine.dataspace.partitioner
    sharded = partitioner.shard_count > 1
    # Parallel admission (``admit="parallel"``): ship each dispatchable
    # candidate's match evaluation to a worker holding its home shard's
    # cached snapshot, *before* the sequential walk below.  The walk then
    # consumes the returned verdicts in arbitration order — validating
    # each against the live candidate list and drawing the rotation from
    # the engine RNG itself — so admission decisions, counters, and RNG
    # stream stay bit-identical to serial evaluation (see
    # :func:`_resolve_admit`).  ``{}`` when the knob is off or inert.
    admit_verdicts = (
        _dispatch_admission(engine, candidates, watermark)
        if engine.admit == "parallel"
        else {}
    )
    admitted: list[tuple[Task, Transaction, Any, str]] = []
    admitted_fps = AdmittedBatch()
    losers: list[Task] = []
    conflict_count = evaluated = 0
    carried = executor.loser_reads
    executor.loser_reads = carry = {}
    for position, (task, txn, origin) in enumerate(candidates):
        if task.state is not TaskState.READY:
            continue  # its process died during classification
        process = task.process
        if faults is not None:
            action = faults.fire("batch-admit", process.pid, process.name)
            if action == "crash":
                executor.crash_process(process, "batch-admit")
                continue  # candidate evicted before evaluation
            if action == "abort-txn":
                _group_failure(executor, task, txn, origin)
                continue
            if action == "kill-round":
                # The whole remaining candidate set (this one included)
                # defers to the next round, reusing the loser path.
                for later_task, later_txn, later_origin in candidates[position:]:
                    if later_task.state is not TaskState.READY:
                        continue
                    if later_origin == "request":
                        later_task.pending = later_txn
                    later_task.queued = True
                    losers.append(later_task)
                break
        scope = process.scope()
        reads, probe = _reads_for(carried.get(task), txn, process, scope)
        # The read side alone decides a loser: a w-w conflict implies an
        # r-w conflict at the same or an earlier admitted index, so this
        # probe finds the winner the full footprint would.
        winner = first_conflict(admitted_fps, probe)
        if winner is not None:
            # Loser: whatever its query would return is unreliable after
            # the winner's writes — re-queue unevaluated, never abort or
            # park.
            conflict_count += 1
            if origin == "request":
                task.pending = txn
            task.queued = True  # deferred outside the scheduler queues
            losers.append(task)
            carry[task] = (txn, scope, reads, probe)
            trace = engine.trace
            if trace.recording:
                trace.emit(
                    ConflictDetected(
                        engine.step_count, engine.round_count,
                        process.pid, winner.pid,
                    )
                )
            else:
                trace.counters.conflicts += 1  # what emit would count
            continue
        evaluated += 1
        lens = _SnapshotLens(engine.window(process), watermark)
        verdict = admit_verdicts.get(position)
        if verdict is not None:
            result = _resolve_admit(engine, verdict, txn, lens, scope)
        else:
            result = txn.query.evaluate(lens.refresh(), scope, engine.rng)
        if faults is not None:
            action = faults.fire("post-match", process.pid, process.name)
            if action == "crash":
                executor.crash_process(process, "post-match")
                continue
            if action == "abort-txn":
                _group_failure(executor, task, txn, origin, reads)
                continue
        if not result.success:
            # Conflict-free failure is decided *now*, before the batch
            # commits, so a parked task's subscription is registered in
            # time to see the batch's own writes.
            _group_failure(executor, task, txn, origin, reads)
            continue
        if faults is not None:
            # About to commit: admission is decided, effects are not yet
            # applied.  Firing here (and only here) keeps the site's
            # per-process occurrence count equal to the commit index, as
            # in the serial modes.
            action = faults.fire("pre-commit", process.pid, process.name)
            if action == "crash":
                executor.crash_process(process, "pre-commit")
                continue  # evicted from the batch; peers are unaffected
            if action == "abort-txn":
                _group_failure(executor, task, txn, origin, reads)
                continue
        admitted.append((task, txn, result, origin))
        admitted_fps.append(complete_footprint(
            footprint_for(txn, result, process, scope, reads),
            txn, result, scope, partitioner if sharded else None,
        ))
    if obs is not None:
        obs.observe_ns(
            "group-admit",
            admit_start,
            obs.spans.now() - admit_start,
            {
                "candidates": len(candidates),
                "evaluated": evaluated,
                "admitted": len(admitted),
                "conflicts": conflict_count,
            },
        )

    validating = engine.validate == "serial" and admitted
    if validating:
        pre_rows = [
            values
            for values, count in engine.dataspace.multiset().items()
            for __ in range(count)
        ]

    # Phase C — apply the admitted batch in arbitration order.  When the
    # batch splits into shard-disjoint groups of worker-eligible
    # candidates, their pure action lists are staged on the worker pool
    # and the returned effects settled and applied here, in admitted
    # order — every dataspace mutation, serial, journal entry, and wakeup
    # still happens on this process, in this loop, so results are
    # bit-identical to serial apply (see `repro.runtime.parallel`).
    # Everything else is staged inline.
    apply_start = obs.spans.now() if obs is not None else 0
    plans = _parallel_plans(engine, admitted, admitted_fps, sharded, apply_start)
    applied: list[tuple[Task, Transaction, Any]] = []
    for position, (task, txn, result, origin) in enumerate(admitted):
        if task.state is not TaskState.READY:
            continue  # its process crashed after admission (fault injection)
        window = engine.window(task.process)
        plan = plans.get(position)
        if plan is not None:
            # The worker is untrusted: before its effect is settled,
            # prove it stays inside what admission proved — field shapes,
            # the admitted match multiplicity, and the footprint's write
            # shards.  A reject is staged again here.
            reason = validate_plan(
                plan,
                txn,
                result,
                admitted_fps[position],
                partitioner if sharded else None,
            )
            if reason is not None:
                engine.pool.note_reject(reason)
                plan = None
        if plan is not None:
            outcome = settle(
                plan, result, window, task.process.pid, engine.export_policy
            )
        else:
            outcome = stage(
                txn, window, task.process.scope(), task.process.pid, engine.rng,
                result, engine.export_policy,
            )
        _deliver_commit(executor, task, txn, outcome, origin)
        applied.append((task, txn, result))
    if obs is not None:
        obs.observe_ns(
            "group-apply",
            apply_start,
            obs.spans.now() - apply_start,
            {"applied": len(applied), "parallel": len(plans)},
        )
    engine.trace.emit(
        RoundCommitted(
            engine.step_count, engine.round_count,
            len(candidates), len(applied), conflict_count, len(tail),
        )
    )
    if validating:
        validate_serial_equivalence(
            pre_rows,
            [(task.process, txn, result) for task, txn, result in applied],
            engine.dataspace.multiset(),
            engine.round_count,
            engine.export_policy,
            obs=obs,
        )

    # Phase D — the tail steps serially against the live batch state.
    for entry in tail:
        try:
            if entry[0] == "pump":
                if entry[1].state is TaskState.READY:
                    executor._step_pump(entry[1])
            elif entry[0] == "task":
                if entry[1].state is TaskState.READY:
                    executor._step_task(entry[1])
            else:
                __, task, request = entry
                if task.state is TaskState.READY:
                    executor._handle_request(task, request)
        except _Crashed:
            continue  # the tail item's process died mid-step
    return losers


def _parallel_plans(
    engine,
    admitted: list,
    admitted_fps: AdmittedBatch,
    sharded: bool,
    apply_start: int,
) -> dict[int, TransactionOutcome]:
    """Phase C plan/dispatch/join: worker-staged effects keyed by batch
    position.

    The dispatch rule: a candidate ships to a worker iff its read side is
    shard-bounded and its action list is pure (``Transaction.pure``), and
    the eligible candidates split into at least two groups disjoint on
    ``read_shards | retract_shards`` — the shards a candidate's verdict
    depends on and contends in.  The write side is deliberately *not* a
    grouping key: assert/assert commutes (the same asymmetry the
    conflict rules rest on), so a shared assert sink — every
    community logging to one ``done`` shard — must not collapse the
    batch into a single group.  One group means no parallelism to
    exploit, so serial apply keeps its zero-overhead path.  Candidates
    without a plan (ineligible, cross-shard, or fallen back) are staged
    inline in the merge loop.
    """
    pool = engine.pool
    if pool is None or not sharded or len(admitted) < 2:
        return {}
    labelled: list[tuple[int, frozenset[int]]] = []
    for position, (task, txn, result, __) in enumerate(admitted):
        if task.state is not TaskState.READY:
            continue
        fp = admitted_fps[position]
        if fp.read_shards is None:
            continue
        if not txn.pure:
            continue
        labelled.append((position, fp.read_shards | fp.retract_shards))
    if len(labelled) < 2:
        return {}
    groups = partition_disjoint(labelled)
    if len(groups) < 2:
        return {}
    payloads = []
    for group in groups:
        payload = []
        for position in group:
            task, txn, result, __ = admitted[position]
            once_env = (
                dict(result.bindings) if result.matches else dict(task.process.scope())
            )
            match_bindings = [dict(m.bindings) for m in result.matches]
            payload.append((txn.actions, once_env, match_bindings))
        payloads.append(payload)
    results = pool.dispatch(payloads)
    plans: dict[int, TransactionOutcome] = {}
    obs = engine.obs
    dispatched = fallbacks = 0
    for group, outcome in zip(groups, results):
        if outcome is None:
            fallbacks += 1
            continue
        group_plans, elapsed_ns = outcome
        dispatched += 1
        for position, plan in zip(group, group_plans):
            plans[position] = plan
        if obs is not None:
            obs.observe_ns(
                "parallel-apply", apply_start, elapsed_ns, {"group": len(group)}
            )
    if obs is not None:
        if dispatched:
            obs.count("sdl_parallel_batches_total", amount=dispatched)
        if fallbacks:
            obs.count("sdl_parallel_fallbacks_total", amount=fallbacks)
    return plans


def _dispatch_admission(engine, candidates: list, watermark: int) -> dict[int, tuple]:
    """Phase B prepass: ship dispatchable candidates' match evaluation.

    Groups worker-eligible candidates (:func:`prepare_match`) by the home
    shard their position-0 probe routes to, bundles one snapshot task per
    shard through the engine's :class:`SnapshotShipper`, and joins the
    replies.  Returns ``{position: (meta, n, passes, errors)}`` verdicts
    for the walk to validate and consume at each candidate's arbitration
    position; everything not in the dict evaluates serially.

    The prepass is **counter- and RNG-free**: eligibility probing uses the
    memoised pattern compiler (never the planner's cache), and injected
    ``admit-dispatch`` faults draw from the injector's RNG only.  It ships
    candidates that the walk may then decide as losers on their read side
    alone; their verdicts are simply never consumed.
    Requires ≥2 home-shard groups — one group means the walk would wait on
    a single worker with no overlap to exploit, so serial evaluation keeps
    its zero-overhead path.  A task that cannot be bundled or answered
    (unpicklable entries, pool failure, a stale reply version) degrades
    its whole group to serial, counted never raised.
    """
    pool = engine.pool
    shipper = engine.snapshots
    if (
        pool is None
        or pool.disabled
        or shipper is None
        or engine.planner is None
        or len(candidates) < 2
    ):
        return {}
    partitioner = engine.dataspace.partitioner
    if partitioner.shard_count <= 1:
        return {}
    groups: dict[int, list[tuple[int, Any, dict]]] = {}
    ineligible = 0
    for position, (task, txn, __) in enumerate(candidates):
        if task.state is not TaskState.READY:
            continue
        process = task.process
        meta = prepare_match(txn.query, process, partitioner)
        if meta is None:
            ineligible += 1
            continue
        groups.setdefault(meta.shard, []).append((position, meta, process.scope()))
    if len(groups) < 2:
        return {}
    obs = engine.obs
    start = obs.spans.now() if obs is not None else 0
    target = engine.dataspace.version
    tasks: list[tuple] = []
    task_shards: list[int] = []
    for shard in sorted(groups):
        entries = tuple(meta.entry(scope) for __, meta, scope in groups[shard])
        try:
            tasks.append(shipper.bundle(shard, target, watermark, entries))
        except Exception:
            pool.note_admit_fallback("unshippable", len(groups[shard]))
            continue
        task_shards.append(shard)
    if not tasks:
        return {}
    if ineligible:
        pool.note_admit_fallback("ineligible", ineligible)

    def rebuild(task: tuple) -> tuple:
        # Re-bundle the same shard and candidates with the blob attached
        # (the ``need-full`` retry path): task indices per parallel.py.
        return shipper.bundle(
            task[1], task[2], task[4], task[_TASK_ENTRIES], with_blob=True
        )

    replies = pool.dispatch_matches(tasks, rebuild=rebuild)
    verdicts: dict[int, tuple] = {}
    for shard, reply in zip(task_shards, replies):
        group = groups[shard]
        if reply is None:
            pool.note_admit_fallback("task-failed", len(group))
            continue
        __, ident, kind, version, results, elapsed_ns = reply
        shipper.note_reply(kind, ident, version)
        if version != target:
            # The worker evaluated against some other version of the
            # shard: no per-candidate verdict can be trusted.
            pool.note_admit_fallback("stale-snapshot", len(group))
            continue
        if obs is not None:
            obs.observe_ns(
                "parallel-admit", start, elapsed_ns,
                {"shard": shard, "candidates": len(group)},
            )
        for (position, meta, __scope), row_verdict in zip(group, results):
            verdicts[position] = (meta, *row_verdict)
    return verdicts


def _resolve_admit(engine, verdict: tuple, txn: Transaction, lens, scope) -> QueryResult:
    """Consume one worker verdict at its walk position, bit-identically.

    The serial path for a dispatchable candidate — single-atom planned
    query, unrestricted window — does exactly this, in this order: refresh
    the window (counter-free when unrestricted), consult the plan cache
    once, fetch the watermark-filtered candidate list once (the ``match``
    obs site), draw **one** rotation index from the engine RNG iff the
    list has ≥2 rows, and walk the rotated rows applying repeat checks and
    the test.  The reconstruction replays that recipe with the worker's
    pass set substituted for test evaluation:

    1. *validate first* — the live candidate list must have exactly ``n``
       rows and every passing row's tuple serial must match.  Validation
       precedes the plan-cache touch and the RNG draw, so a rejected
       verdict falls back to plain serial evaluation with every counter
       and the RNG stream untouched (the only trace is one extra sample
       in the ``sdl_match_seconds`` histogram, from the validation fetch);
    2. a worker-side test **error** also falls back — the serial path
       must raise (or skip) that row itself so exceptions and partial
       FORALL enumerations are reproduced bit-exactly;
    3. on the happy path, reconstruct the exact
       :class:`~repro.core.query.QueryResult`: first passing row in
       rotated order for ``∃``, all passing rows with signature dedup for
       ``∀``, emptiness of the pass set for a negated query (whose draw
       is still consumed iff ``n ≥ 2``, as serial does).
    """
    meta, n, passes, errors = verdict
    pool = engine.pool
    query = txn.query
    lens.refresh()
    if errors:
        pool.note_admit_fallback("test-error")
        return query.evaluate(lens, scope, engine.rng)
    rows = lens.candidates_probed(meta.arity, list(meta.probes))
    if len(rows) != n or any(
        not (0 <= row < n and rows[row].tid.serial == serial)
        for row, serial in passes
    ):
        pool.note_admit_fallback("verdict-mismatch")
        return query.evaluate(lens, scope, engine.rng)
    engine.planner.plan_for([meta.pattern], scope)
    k = rotation_start(n, engine.rng)
    if query.negated:
        return QueryResult(not passes)
    pass_rows = {row for row, __ in passes}
    order = list(range(k, n)) + list(range(k))
    retract = query.atoms[0].retract

    def match_for(row: int) -> Match:
        inst = rows[row]
        values = inst.values
        env = dict(scope)
        for position, name in meta.binders:
            env[name] = values[position]
        return Match(env, (inst,), (inst,) if retract else ())

    if query.quantifier == "exists":
        for row in order:
            if row in pass_rows:
                return QueryResult(True, [match_for(row)])
        return QueryResult(False)
    # FORALL: all passing rows in rotated order, deduplicated by the same
    # (variable values, retracted tids) signature serial evaluation uses.
    # The serial path's live-exclusion set is provably vacuous for a
    # single atom — each tuple appears once in the candidate list and is
    # excluded only after its own match is accepted.
    matches: list[Match] = []
    seen: set[tuple] = set()
    for row in order:
        if row not in pass_rows:
            continue
        m = match_for(row)
        signature = (
            tuple(m.bindings.get(v) for v in query.variables),
            tuple(sorted(i.tid for i in m.retracted)),
        )
        if signature in seen:
            continue
        seen.add(signature)
        matches.append(m)
    if query.require_nonempty and not matches:
        return QueryResult(False)
    return QueryResult(True, matches)


def _reads_for(carried: tuple | None, txn: Transaction, process, scope: dict) -> tuple:
    """``(reads, probe)``: *txn*'s read side and its reads-only admission
    probe, reusing the pair a deferred loser carried over.

    :func:`read_side` is pure in (transaction, view, scope) and a process's
    view never changes, so *carried* — last round's ``(txn, scope, reads,
    probe)`` for this task — is reused iff the transaction is the same
    object and *scope* maps the same names to the same objects.  Identity,
    never equality: scope values are user data, and a sibling replica's
    ``let`` replaces the object (``process.env.update``).  The probe keeps
    its cached content key (:meth:`Footprint.content_key`) with it.
    """
    if carried is not None:
        carried_txn, carried_scope, reads, probe = carried
        if carried_txn is txn and carried_scope.keys() == scope.keys() and all(
            scope[name] is value for name, value in carried_scope.items()
        ):
            return reads, probe
    reads = read_side(txn, process, scope)
    return reads, Footprint(process.pid, *reads, frozenset(), ())


def _group_failure(
    executor: "Executor", task: Task, txn: Transaction, origin: str,
    reads: tuple | None = None,
) -> None:
    """Dispose of a conflict-free candidate whose snapshot query failed.

    A delayed candidate parks on the subscription its read side (*reads*,
    from :func:`_reads_for`, under the same scope) already derived.  It is
    derived again only where the two differ or there is none: under a
    ``wake_filter`` other than ``"keys"``, or when ``let`` bodies added
    watchers of their own (:func:`~repro.runtime.commit.read_side`).
    """
    engine = executor.engine
    executor._failed(task.process, txn)
    task.pending = None
    if txn.mode is Mode.IMMEDIATE:
        task.send_value = TransactionOutcome.failure()
        engine.scheduler.make_ready(task)
        return
    executor._classify_wake(task, spurious=True)
    if origin == "request":
        task.park = ParkedTxn(txn)
    if (
        reads is not None
        and engine.wake_filter == "keys"
        and not any(isinstance(action, Let) for action in txn.actions)
    ):
        reads_all, watchers = reads
        sub = WAKE_ANY if reads_all else Subscription(watchers)
    else:
        sub = executor._subscription_for([txn], task)
    executor._block(task, sub, "delayed", requeue=(origin == "park"))


def _deliver_commit(
    executor: "Executor",
    task: Task,
    txn: Transaction,
    outcome: TransactionOutcome,
    origin: str,
) -> None:
    """Apply a batch-admitted, staged outcome and hand it back to its
    suspended task."""
    executor._commit(task.process, txn, outcome)
    task.pending = None
    if origin == "park":
        executor._unpark(task)
    executor._classify_wake(task, spurious=False)
    executor._deliver(task, outcome, outcome)


class _SnapshotLens:
    """A window lens hiding tuples asserted after a serial watermark.

    Used by the group-admission phase above and by the replication pump
    (:meth:`Executor._pump_fire_batch`) to give every evaluation in one
    batch a view of the dataspace *as of the start of the round*, which is
    what a synchronous parallel step of unboundedly many replicas would
    see.  Every candidate list is serial-ascending (serials are issued by
    one monotone counter and every store and window preserves admission
    order), so hiding the later tuples is cutting a prefix, not filtering
    each row.  The planner is handed the live rows plus the prefix length
    (:meth:`candidates_cut`, :func:`~repro.core.storage.cut_len`) and
    visits only that prefix; the list-returning fetches below slice it
    (:func:`~repro.core.storage.cut_at_serial`, the same bisection).

    A replication batch's lens carries the batch's *memo*: each attempt
    kernel's set of outer rows ruled out for the rest of the batch
    (``{kernel: tids}``, SEMANTICS §12).  It is dropped with the lens.
    Group rounds' lenses carry none.
    """

    __slots__ = ("window", "max_serial", "memo")

    def __init__(self, window, max_serial: int, memo: dict | None = None) -> None:
        self.window = window
        self.max_serial = max_serial
        self.memo = memo

    def refresh(self) -> "_SnapshotLens":
        self.window.refresh()
        return self

    @property
    def planner(self):
        """The underlying window's planner, so planned evaluation sees the
        same snapshot discipline as the naive path."""
        return getattr(self.window, "planner", None)

    def candidates(self, pat, bound=None) -> list:
        return cut_at_serial(self.window.candidates(pat, bound), self.max_serial)

    def candidates_probed(self, arity, probes) -> list:
        return cut_at_serial(
            self.window.candidates_probed(arity, probes), self.max_serial
        )

    def candidates_cut(self, arity, probes) -> tuple[list, int]:
        """``(rows, n)``: the window's live rows, of which the first *n*
        are visible — :meth:`candidates_probed` without the slice."""
        rows = self.window.candidates_probed(arity, probes)
        return rows, cut_len(rows, self.max_serial)

    def find_matching(self, pat, bound=None) -> list:
        # Each candidate matches against its own copy of the bindings
        # (mirroring core/matching.py): the environment handed to one
        # candidate's ``pat.match`` must never be visible to the next, so
        # a partially-matching decoy cannot poison later candidates even
        # for pattern implementations that treat the mapping as scratch
        # space.
        bound = dict(bound or {})
        return [
            inst
            for inst in self.candidates(pat, bound)
            if pat.match(inst.values, dict(bound)) is not None
        ]

    def count_matching(self, pat, bound=None) -> int:
        return len(self.find_matching(pat, bound))
