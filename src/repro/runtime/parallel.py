"""Parallel apply for group-commit rounds (engine option ``workers=``).

The paper's §3 community model promises that processes in disjoint
communities "proceed with full parallelism".  Group commit (PR 2) proves
an admitted batch conflict-free, and sharded storage (PR 6) labels every
footprint with the shards it touches — this module cashes both in: when
an admitted batch partitions into **shard-disjoint groups**, each
group's action lists are *staged* on a worker, and only the *apply* half
runs on the main process, in admitted order.

The split is what makes determinism cheap instead of heroic:

* a worker receives only picklable, dataspace-free inputs — the action
  list, the once-environment, and the per-match binding dicts — and
  stages them with the main process's own
  :func:`~repro.core.transactions.stage_actions` into a
  :class:`~repro.core.transactions.TransactionOutcome`: the assertion
  values, spawns, ``let`` values, control, and any error an action
  raised;
* the main process then validates each effect (:func:`validate_plan`),
  settles it — the query's retractions, the export check, the raise of
  a staged error — and applies it in admitted order
  (:func:`~repro.core.transactions.apply`), so an action that raised on
  a worker applies nothing.  Serials, versions, journal entries,
  wakeups, spawn pids, and checkpoint contents are assigned by the same
  code on the same process as ``workers=1``, so they are bit-identical
  by construction rather than by reconciliation;
* the engine RNG is never shipped to a worker.  Eligibility
  (``Transaction.pure``) admits only *pure* action lists — no
  ``CallPython``, no window-reading ``Membership`` sub-queries — which
  by definition never consume the RNG, so the main-process RNG stream is
  untouched by where evaluation ran.

Anything outside the eligible fragment — impure actions, unpicklable
values, a broken pool, cross-shard footprints that collapse the batch
into one group — falls back to the serial apply path, the correctness
anchor.  Fallbacks are counted, never errors.

Workers are shared process- (or thread-) pool executors kept in a
module-level registry: engines borrow them per round and the pool
outlives any single engine, so the fork cost is paid once per process,
not once per run.  A cached executor is health-checked before reuse —
one that broke or shut down mid-run is evicted and respawned, never
handed out dead.  ``shutdown_workers`` tears everything down (also
registered via ``atexit``).

**Supervision** (PR 8): the pool is untrusted.  Every dispatched group
joins under a per-batch deadline (``Engine(worker_timeout=)``); a miss
quarantines the group straight to serial — one deadline is the most a
wedged worker may cost a round.  A broken pool (a worker died
mid-evaluation) is discarded, respawned, and the group retried with
capped backoff up to ``retries`` times before quarantining.  Returned
effects are **validated** against the candidate's admitted footprint
(:func:`validate_plan`) before they are applied — field shapes, the
assertion and spawn counts implied by the admitted match multiplicity,
and shard containment of every assertion — so a garbage effect is
rejected and staged again on the main process rather than mutating state
the admission proof never covered.  Repeated failure
(``_QUARANTINE_LIMIT`` quarantines or rejects) disables the pool for the
rest of the run: full degradation to serial apply.  Seeded worker faults
(``worker-exec`` site: ``worker-crash``/``worker-hang``/``garbage-plan``)
are decided on the main process, one draw per dispatched group, so chaos
schedules are deterministic and the engine RNG is untouched.

**Parallel admission** (engine option ``admit="parallel"``): the same
pool can also run Phase B — candidate match/query evaluation — ahead of
the sequential admission walk.  Workers keep **cached per-shard
snapshots**: the main-side :class:`SnapshotShipper` sends each shard
once as ``ship_shard`` bytes and thereafter only the dataspace journal
suffix projected onto that shard (``DataspaceChange`` deltas), falling
back to a full re-ship when the journal window has passed the cached
blob.  A worker that lacks the snapshot replies ``need-full`` and the
task is re-sent with the blob.  Each worker evaluates its batch of
candidates against its snapshot — candidate row count ``n``, the rows
whose (pure) test passed, and their tuple serials — and the main process
keeps the admission walk in arbitration order: at each dispatched
candidate's position it re-fetches the same watermark-filtered candidate
list through the snapshot lens, **validates** the worker's verdict
(version, row count, row serials), consults the planner for cache
parity, draws the single arbitration rotation from the engine RNG, and
reconstructs the exact :class:`~repro.core.query.QueryResult` serial
evaluation would have produced — so runs stay bit-identical to serial
per seed.  Ineligible candidates (multi-atom or trivial queries, impure
tests — ``Membership``, impure ``Call`` — restricted views, naive-path
engines, probeless/cross-shard patterns, unpicklable payloads) and any
validation failure fall back to main-process evaluation, counted never
raised.  Injected admission faults (site ``admit-dispatch``:
``worker-crash``/``stale-snapshot``/``garbage-footprint``) exercise the
validation and quarantine paths the same way ``worker-exec`` does for
apply.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from repro.core.actions import AssertTuple, Spawn
from repro.core.dataspace import DataspaceChange
from repro.core.expressions import Bindings, EvalContext, is_pure
from repro.core.plan import PlanStep, compile_pattern
from repro.core.storage import cut_at_serial
from repro.core.transactions import (
    Control, Transaction, TransactionOutcome, stage_actions,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.query import Query, QueryResult

__all__ = [
    "WorkerSpec",
    "resolve_workers",
    "partition_disjoint",
    "evaluate_candidates",
    "validate_plan",
    "ship_shard",
    "load_shard",
    "MatchProbe",
    "prepare_match",
    "evaluate_matches",
    "SnapshotShipper",
    "WorkerPool",
    "shutdown_workers",
]


class WorkerSpec(NamedTuple):
    """A normalised worker-pool request: execution mode and pool size."""

    mode: str  # "process" | "thread"
    count: int


def resolve_workers(spec: "str | int | None") -> WorkerSpec | None:
    """Normalise an ``Engine(workers=)`` / ``SDL_WORKERS`` / ``--workers`` value.

    ``None``/``""``/``"off"``/``1`` mean serial apply (no pool).  An
    integer or digit string ``N >= 2`` requests N process workers; the
    explicit forms ``"process:N"`` and ``"thread:N"`` select the mode
    (threads evaluate the same plans without pickling — no speedup under
    the GIL, but a fallback for unpicklable workloads and the cheap way
    to exercise the parallel path in tests).
    """
    if spec is None:
        return None
    mode = "process"
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in ("", "off", "none", "serial"):
            return None
        if ":" in text:
            mode, __, text = text.partition(":")
            if mode in ("threads", "thread"):
                mode = "thread"
            elif mode == "process":
                pass
            else:
                raise ValueError(
                    f"unknown worker mode {mode!r} in workers spec {spec!r} "
                    "(modes: process, thread)"
                )
            if ":" in text:
                raise ValueError(
                    f"too many ':' in workers spec {spec!r} "
                    "(expected mode:count)"
                )
        if not text.lstrip("-").isdigit():
            raise ValueError(
                f"bad worker count {text!r} in workers spec {spec!r} "
                "(expected an integer, 'off', or mode:count)"
            )
        spec = int(text)
    if not isinstance(spec, int) or isinstance(spec, bool):
        raise ValueError(f"unknown workers spec {spec!r}")
    if spec < 1:
        raise ValueError(f"worker count must be >= 1, got {spec}")
    if spec == 1:
        return None
    return WorkerSpec(mode, spec)


# ----------------------------------------------------------------------
# group partitioning
# ----------------------------------------------------------------------

def partition_disjoint(
    labelled: Sequence[tuple[int, frozenset[int]]]
) -> list[list[int]]:
    """Partition candidates into shard-disjoint groups (union-find).

    *labelled* pairs each candidate's batch position with the union of
    its footprint shard-sets; two candidates sharing any shard land in
    the same group.  Groups (and members within a group) come back in
    ascending batch position, so dispatch order is deterministic.
    """
    parent: dict[int, int] = {}

    def find(pos: int) -> int:
        root = pos
        while parent[root] != root:
            root = parent[root]
        while parent[pos] != root:
            parent[pos], pos = root, parent[pos]
        return root

    shard_owner: dict[int, int] = {}
    for pos, shards in labelled:
        parent[pos] = pos
        for shard in shards:
            owner = shard_owner.get(shard)
            if owner is None:
                shard_owner[shard] = pos
            else:
                parent[find(pos)] = find(owner)
    groups: dict[int, list[int]] = {}
    for pos, __ in labelled:
        groups.setdefault(find(pos), []).append(pos)
    return [groups[root] for root in sorted(groups, key=lambda r: groups[r][0])]


# ----------------------------------------------------------------------
# the worker side: pure action staging
# ----------------------------------------------------------------------

def evaluate_candidates(
    candidates: list[tuple[tuple, dict[str, Any], list[dict[str, Any]]]]
) -> tuple[list[TransactionOutcome], int]:
    """Worker entry point: stage one shard-disjoint group of candidates.

    Each candidate's pure action list is staged by the same
    :func:`~repro.core.transactions.stage_actions` the main process
    uses, without a window.  Returns the effects (one per candidate, in
    group order) and the wall-clock nanoseconds the staging took — the
    per-worker apply histogram's sample.  Must stay a module-level
    function: process pools pickle it by reference.
    """
    start = time.perf_counter_ns()
    effects = [
        stage_actions(TransactionOutcome(success=True), actions, once_env, match_bindings)
        for actions, once_env, match_bindings in candidates
    ]
    return effects, time.perf_counter_ns() - start


def ship_shard(dataspace, shard: int) -> bytes:
    """Serialise one storage shard for transport to a worker process.

    The wire shape is the store class, the shard id, the index flag and
    the shard's instances in serial order — read off the facade's identity
    table, never off the live store object: the bytes cannot capture
    derived structure (lazy position indexes, column groups, tombstones),
    so a shipped shard is backend- and layout-portable.  This is the
    snapshot primitive behind parallel admission (``admit="parallel"``):
    the :class:`SnapshotShipper` sends these bytes once per shard and
    journal deltas thereafter.
    """
    store = dataspace.stores[shard]
    shard_of = dataspace.partitioner.shard_of_values
    instances = [
        inst for inst in dataspace.instances() if shard_of(inst.values) == shard
    ]
    return pickle.dumps(
        (type(store), shard, store.indexed, instances),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_shard(data: bytes):
    """Rebuild a shipped shard (inverse of :func:`ship_shard`).

    The returned store answers every probe like the original — same
    instances in the same serial order, same backend kind — with derived
    structure rebuilt by one ``admit_many`` on this side of the wire.
    """
    cls, shard, indexed, instances = pickle.loads(data)
    store = cls(shard, indexed)
    store.admit_many(instances)
    return store


# ----------------------------------------------------------------------
# parallel admission: snapshot shipping (main side)
# ----------------------------------------------------------------------

#: Engine-unique snapshot epochs.  Pools are shared across engines, so a
#: worker's cached snapshot must never leak between runs: every shipper
#: namespaces its cache keys by (pid, counter).
_EPOCHS = itertools.count()

#: Index of the candidate-entry list inside an admission task tuple
#: ``(epoch, shard, target, floor, watermark, deltas, blob, entries)``.
_TASK_ENTRIES = 7


class SnapshotShipper:
    """Per-engine distributor of shard snapshots to admission workers.

    The shipper keeps, per shard, the last full blob it built
    (:func:`ship_shard` bytes) and the version (*floor*) that blob
    captured.  A dispatched task carries the dataspace journal suffix
    ``(floor, target]`` projected onto the shard — pre-pickled, so the
    shipped byte count is exact — and includes the blob itself only when
    this shard has never been sent (or the blob was just rebuilt).  When
    the journal window passes the floor it can no longer bridge the gap
    for any worker, so the blob is rebuilt at the current version: the
    full re-ship path.  A worker that turns out not to hold
    the snapshot answers ``need-full`` and the pool re-sends the same
    task with the blob attached (one retry).
    """

    __slots__ = (
        "dataspace", "obs", "epoch", "ship_bytes", "refreshes",
        "worker_versions", "_floors", "_blobs", "_sent",
    )

    def __init__(self, dataspace, obs=None) -> None:
        self.dataspace = dataspace
        self.obs = obs
        self.epoch = f"{os.getpid()}-{next(_EPOCHS)}"
        #: Total snapshot bytes (blobs + deltas) handed to the pool.
        self.ship_bytes = 0
        #: Worker-reported refresh outcomes by kind ("delta" | "full").
        self.refreshes = {"delta": 0, "full": 0}
        #: Last snapshot version each worker reported (gauge source).
        self.worker_versions: dict[str, int] = {}
        self._floors: dict[int, int] = {}
        self._blobs: dict[int, bytes] = {}
        self._sent: set[int] = set()

    def bundle(
        self, shard: int, target: int, watermark: int, entries: tuple,
        with_blob: bool = False,
    ) -> tuple:
        """Build one shard's admission task for dispatch at *target* version."""
        floor = self._floors.get(shard, -1)
        blob = self._blobs.get(shard)
        deltas = self._deltas_since(shard, floor) if blob is not None else None
        if deltas is None:
            # First ship, or the journal has evicted entries the cached
            # blob would need: rebuild at the current version (full
            # re-ship) and force the blob onto the wire again.
            blob = ship_shard(self.dataspace, shard)
            floor = target
            deltas = []
            self._blobs[shard] = blob
            self._floors[shard] = floor
            self._sent.discard(shard)
        deltas_bytes = pickle.dumps(deltas, protocol=pickle.HIGHEST_PROTOCOL)
        include = with_blob or shard not in self._sent
        wire_blob = blob if include else None
        sent = len(deltas_bytes) + (len(wire_blob) if wire_blob is not None else 0)
        self.ship_bytes += sent
        if self.obs is not None:
            self.obs.count("sdl_snapshot_ship_bytes_total", amount=sent)
        if include:
            self._sent.add(shard)
        return (self.epoch, shard, target, floor, watermark, deltas_bytes,
                wire_blob, entries)

    def _deltas_since(self, shard: int, floor: int) -> list | None:
        """The journal suffix after *floor*, restricted to *shard*'s tuples.

        ``None`` when the journal no longer reaches back to *floor* (the
        caller re-ships the shard in full).  A change that touches no
        tuple of this shard is dropped; the rest keep their version and
        carry only this shard's instances.
        """
        changes = self.dataspace.changes_since(floor)
        if changes is None:
            return None
        shard_of = self.dataspace.partitioner.shard_of_values
        deltas = []
        for change in changes:
            asserted = tuple(
                inst for inst in change.asserted if shard_of(inst.values) == shard
            )
            retracted = tuple(
                inst for inst in change.retracted if shard_of(inst.values) == shard
            )
            if asserted or retracted:
                deltas.append(DataspaceChange(asserted, retracted, change.version))
        return deltas

    def note_reply(self, kind: str, ident: str, version: int) -> None:
        """Record one worker's refresh outcome from an ``ok`` reply."""
        if kind in self.refreshes:
            self.refreshes[kind] += 1
        self.worker_versions[ident] = version
        if self.obs is not None:
            self.obs.count("sdl_snapshot_refresh_total", kind=kind)


# ----------------------------------------------------------------------
# parallel admission: the worker side
# ----------------------------------------------------------------------

#: Worker-resident snapshot cache: (epoch, shard) -> [version, store].
#: Module-level so it survives across tasks in the same worker process
#: (threads share one cache — entries are rebuilt copies, never aliases
#: of the live stores).  Bounded LRU: oldest entry evicted past the cap.
_SNAPSHOTS: dict[tuple[str, int], list] = {}
_SNAPSHOT_CAP = 32


def _worker_ident() -> str:
    return f"{os.getpid()}:{threading.get_ident()}"


def _eval_match_entry(store, watermark: int, entry: tuple) -> tuple:
    """Evaluate one candidate's single-atom query against a shard snapshot.

    Returns ``(n, passes, errors)``: *n* is the watermark-filtered
    candidate row count — exactly the list the main-process snapshot
    lens would fetch, so the arbitration rotation draw is reconstructible
    — *passes* lists ``(row_index, tuple_serial)`` for rows that cleared
    the repeat checks and the (pure) test, and *errors* counts rows whose
    test raised (any error forces the candidate back to serial
    evaluation so the exception is reproduced bit-exactly on main).
    """
    arity, probes, scope, binders, repeat_checks, test = entry
    rows = cut_at_serial(store.candidates_probed(arity, list(probes)), watermark)
    passes: list[tuple[int, int]] = []
    errors = 0
    for index, inst in enumerate(rows):
        values = inst.values
        ok = True
        for position, first in repeat_checks:
            if values[position] != values[first]:
                ok = False
                break
        if not ok:
            continue
        if test is not None:
            env = dict(scope)
            for position, name in binders:
                env[name] = values[position]
            try:
                if not test.evaluate(EvalContext(Bindings(env))):
                    continue
            except Exception:
                errors += 1
                continue
        passes.append((index, inst.tid.serial))
    return (len(rows), passes, errors)


def evaluate_matches(task: tuple):
    """Worker entry point: evaluate one shard's admission candidates.

    Refreshes (or installs) the cached shard snapshot first: a cached
    store at or above the task's *floor* catches up by applying the
    journal delta suffix (kind ``"delta"``); a cold cache loads the
    attached blob and then the deltas (kind ``"full"``); a cold cache
    with no blob attached answers ``("need-full", shard)`` so the main
    process re-sends the task with the blob.  Must stay a module-level
    function: process pools pickle it by reference.
    """
    epoch, shard, target, floor, watermark, deltas_bytes, blob, entries = task
    start = time.perf_counter_ns()
    key = (epoch, shard)
    cached = _SNAPSHOTS.get(key)
    if cached is not None and floor <= cached[0] <= target:
        version, store = cached
        kind = "delta"
    elif blob is not None:
        store = load_shard(blob)
        version = floor
        kind = "full"
    else:
        return ("need-full", shard)
    if version < target:
        for change in pickle.loads(deltas_bytes):
            if change.version <= version:
                continue
            for inst in change.retracted:
                store.remove(inst)
            if change.asserted:
                store.admit_many(change.asserted)
            version = change.version
        # Versions between the last shard-local change and the global
        # target touched other shards only — this snapshot is current.
        version = target
    _SNAPSHOTS.pop(key, None)
    _SNAPSHOTS[key] = [version, store]
    while len(_SNAPSHOTS) > _SNAPSHOT_CAP:
        _SNAPSHOTS.pop(next(iter(_SNAPSHOTS)))
    results = [_eval_match_entry(store, watermark, entry) for entry in entries]
    return ("ok", _worker_ident(), kind, version, results,
            time.perf_counter_ns() - start)


# ----------------------------------------------------------------------
# parallel admission: eligibility and the dispatch prepass (main side)
# ----------------------------------------------------------------------

#: Sentinel for "pattern has no position-0 probe" (None is a legal probe).
_NO_HEAD = object()


class MatchProbe:
    """Everything the prepass learned about one dispatchable candidate.

    Built before the admission walk without touching the engine RNG or
    any planner/obs counter: the compiled pattern's probes come from
    :func:`compile_pattern` (memoised, counter-free) and a directly
    constructed :class:`~repro.core.plan.PlanStep` — the identical step
    ``plan_for`` would build for a single-atom query — so the walk can
    later consult the real planner exactly once, as serial evaluation
    does.
    """

    __slots__ = (
        "pattern", "arity", "probes", "binders", "repeat_checks",
        "test", "shard",
    )

    def __init__(self, pattern, arity, probes, binders, repeat_checks,
                 test, shard) -> None:
        self.pattern = pattern
        self.arity = arity
        self.probes = probes
        self.binders = binders
        self.repeat_checks = repeat_checks
        self.test = test
        self.shard = shard

    def entry(self, scope: dict) -> tuple:
        """The picklable worker-side evaluation entry for this candidate."""
        return (self.arity, self.probes, scope, self.binders,
                self.repeat_checks, self.test)


def prepare_match(query: "Query", process, partitioner) -> MatchProbe | None:
    """Is this candidate's query evaluable on a worker?  If so, how?

    Returns ``None`` for the ineligible (serial fallback) cases:

    * multi-atom or trivial queries — the arbitration rotation for a
      join consumes one RNG draw *per depth*, and a trivial query none;
      only the single-atom shape has the one-draw protocol the walk can
      replay from a row count;
    * an impure test (``Membership`` reads the window, an impure ``Call``
      may touch host state) — workers evaluate tests without a window;
    * impure pattern element expressions — probes must be recomputable;
    * a restricted view — import filtering is main-process state, and an
      unrestricted window refresh is counter-free, which keeps window
      stats bit-identical;
    * no position-0 probe — the live path would merge candidates across
      every shard, which a single resident snapshot cannot reproduce.

    Probe evaluation failures (the serial path would raise inside
    ``iter_matches``) also return ``None`` so the exception surfaces from
    the serial evaluation at the candidate's walk position.
    """
    atoms = query.atoms
    if len(atoms) != 1 or query.is_trivial():
        return None
    test = query.test
    if test is not None and not is_pure(test):
        return None
    if not process.view.unrestricted:
        return None
    pattern = atoms[0].pattern
    compiled = compile_pattern(pattern)
    for slot in compiled.expr_slots:
        if not is_pure(slot[1]):
            return None
    scope = process.scope()
    bound_key = frozenset(
        name for name in scope if name in compiled.free_names
    )
    step = PlanStep(0, compiled, bound_key)
    try:
        probes = step.probes_for(scope)
    except Exception:
        return None
    head = next((value for pos, value in probes if pos == 0), _NO_HEAD)
    if head is _NO_HEAD:
        return None
    try:
        shard = partitioner.shard_of(compiled.arity, head)
    except Exception:
        return None
    return MatchProbe(
        pattern, compiled.arity, tuple(probes), step.binders,
        step.repeat_checks, test, shard,
    )


def validate_plan(
    plan: TransactionOutcome,
    txn: Transaction,
    result: "QueryResult",
    footprint=None,
    partitioner=None,
) -> str | None:
    """Check a worker-staged effect against what admission promised.

    Returns ``None`` when the effect may be settled and applied, otherwise
    a short rejection reason.  The checks are exactly the obligations the
    worker was trusted with and nothing more:

    * **shape** — a committing :class:`TransactionOutcome` whose
      ``assertions``/``spawned``/``lets``/``control``/``error`` carry the
      types settling consumes, every assertion a values tuple and every
      spawn a ``(name, args)`` pair, and nothing only the main process
      stages (retractions, asserted instances, callbacks);
    * **multiplicity** — assertions plus spawns number (emitting actions
      × admitted match count), what staging this action list over this
      query result yields (an effect whose staging raised may stop short,
      never run long);
    * **footprint containment** — every assertion routes to a shard
      inside the candidate's admitted ``write_shards``.  Admission proved
      the batch conflict-free *under those footprints*; an assertion
      outside them would mutate state the proof never covered.

    A rejected effect is not an error: the candidate is staged again on
    the main process (pure actions, so staging is effect-free), and the
    reject is counted — garbage must never reach the dataspace silently.
    """
    if type(plan) is not TransactionOutcome or plan.success is not True:
        return "not-a-plan"
    assertions, spawned = plan.assertions, plan.spawned
    if not isinstance(assertions, list) or not isinstance(spawned, list):
        return "malformed-ops"
    if not isinstance(plan.lets, dict):
        return "malformed-lets"
    if not isinstance(plan.control, Control):
        return "malformed-control"
    if plan.error is not None and not isinstance(plan.error, Exception):
        return "malformed-error"
    if plan.retracted or plan.asserted or plan.callbacks:
        return "unknown-op"
    emitting = sum(
        1 for action in txn.actions if isinstance(action, (AssertTuple, Spawn))
    )
    expected = emitting * (len(result.matches) or 1)
    staged = len(assertions) + len(spawned)
    if staged > expected or (plan.error is None and staged != expected):
        return "op-count"
    write_shards = None if footprint is None else footprint.write_shards
    for values in assertions:
        if not isinstance(values, tuple):
            return "malformed-op"
        if (
            partitioner is not None
            and write_shards is not None
            and partitioner.shard_of_values(values) not in write_shards
        ):
            return "footprint-escape"
    for entry in spawned:
        if (
            not isinstance(entry, tuple)
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or not isinstance(entry[1], tuple)
        ):
            return "malformed-op"
    return None


# ----------------------------------------------------------------------
# the shared worker pools
# ----------------------------------------------------------------------

#: Live executors keyed by (mode, count) — shared across engines so the
#: process-fork cost is paid once per interpreter, not once per run.
_EXECUTORS: dict[tuple[str, int], Any] = {}


def _executor_alive(executor: Any) -> bool:
    """Is a cached executor still usable?

    A ``ProcessPoolExecutor`` whose worker died marks itself ``_broken``;
    a shut-down pool sets ``_shutdown_thread`` (process) / ``_shutdown``
    (thread).  Either way submitting would raise forever — the registry
    must evict it, not hand it out dead.
    """
    return not (
        getattr(executor, "_broken", False)
        or getattr(executor, "_shutdown", False)
        or getattr(executor, "_shutdown_thread", False)
    )


def _executor_for(mode: str, count: int):
    key = (mode, count)
    executor = _EXECUTORS.get(key)
    if executor is not None and not _executor_alive(executor):
        # A pool that broke (or was shut down) during a previous run must
        # be respawned for the next borrower, not reused dead.
        _discard_executor(mode, count)
        executor = None
    if executor is None:
        if mode == "thread":
            executor = ThreadPoolExecutor(
                max_workers=count, thread_name_prefix="sdl-worker"
            )
        else:
            executor = ProcessPoolExecutor(max_workers=count)
        _EXECUTORS[key] = executor
    return executor


def _discard_executor(mode: str, count: int) -> None:
    executor = _EXECUTORS.pop((mode, count), None)
    if executor is not None:
        executor.shutdown(wait=False, cancel_futures=True)


def shutdown_workers() -> None:
    """Tear down every shared worker pool (idempotent; atexit-registered)."""
    while _EXECUTORS:
        __, executor = _EXECUTORS.popitem()
        executor.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_workers)


# ----------------------------------------------------------------------
# injected worker faults (site "worker-exec")
# ----------------------------------------------------------------------

#: How long an injected hang sleeps when the pool has no deadline — long
#: enough to be a visible stall, short enough for the test suite.
_HANG_SECONDS = 0.25

#: Capped-backoff retry schedule after a pool break (seconds).
_BACKOFF_BASE = 0.005
_BACKOFF_CAP = 0.05

#: Quarantined groups (or rejected plans) before the pool disables itself
#: for the rest of the run — full degradation to serial apply.
_QUARANTINE_LIMIT = 3


class _WorkerCrash(RuntimeError):
    """Injected ``worker-crash`` in thread mode (threads can't os._exit)."""


def _crash_worker(payload: Any) -> None:
    """Injected ``worker-crash`` (process mode): die with no cleanup,
    exactly like an OOM kill — the pool discovers the corpse and breaks."""
    os._exit(13)


def _crash_worker_thread(payload: Any) -> None:
    raise _WorkerCrash("injected worker-crash")


def _hang_worker(payload: Any, seconds: float):
    """Injected ``worker-hang``: wedge past the deadline, then answer
    correctly — proving the timeout, not the worker, decided the round."""
    time.sleep(seconds)
    return evaluate_candidates(payload)


def _garbage_worker(payload: Any):
    """Injected ``garbage-plan``: stage honestly, then corrupt every effect
    with an assertion that main-side validation must reject before it is
    applied."""
    effects, elapsed = evaluate_candidates(payload)
    for effect in effects:
        effect.assertions.append("__garbage__")  # not a values tuple
    return effects, elapsed


def _stale_snapshot_worker(task: Any):
    """Injected ``stale-snapshot`` (site ``admit-dispatch``): evaluate
    honestly, then claim the snapshot stopped one version short — the
    walk's version check must reject the whole task to serial."""
    reply = evaluate_matches(task)
    if reply[0] != "ok":
        return reply
    status, ident, kind, version, results, elapsed = reply
    return (status, ident, kind, version - 1, results, elapsed)


def _garbage_match_worker(task: Any):
    """Injected ``garbage-footprint`` (site ``admit-dispatch``): evaluate
    honestly, then corrupt every passing row's tuple serial — per-row
    validation against the live candidate list must reject each
    candidate to serial before any RNG draw."""
    reply = evaluate_matches(task)
    if reply[0] != "ok":
        return reply
    status, ident, kind, version, results, elapsed = reply
    corrupted = [
        (n, [(row, -1) for row, __ in passes], errors)
        for n, passes, errors in results
    ]
    return (status, ident, kind, version, corrupted, elapsed)


def _check_plan_reply(payload: Any, reply: Any) -> bool:
    """Shape check for an apply-phase reply: one plan per candidate."""
    try:
        plans, __ = reply
    except Exception:
        return False
    return isinstance(plans, list) and len(plans) == len(payload)


def _check_match_reply(task: Any, reply: Any) -> bool:
    """Shape check for an admission-phase reply (``ok`` or ``need-full``)."""
    if not isinstance(reply, tuple) or not reply:
        return False
    if reply[0] == "need-full":
        return True
    if reply[0] != "ok" or len(reply) != 6:
        return False
    results = reply[4]
    return isinstance(results, list) and len(results) == len(task[_TASK_ENTRIES])


class WorkerPool:
    """An engine's supervised handle on the shared worker pool.

    The handle owns no executor — it borrows the shared one lazily at
    first dispatch — so constructing an engine with ``workers=`` is free
    until a round actually has disjoint groups to ship.

    Supervision policy (see the module docstring): *timeout* is the
    per-group join deadline in seconds (``None`` = wait forever); a miss
    quarantines the group straight to serial — retrying a wedged worker
    would cost a second full deadline.  A broken pool is discarded,
    respawned, and the group retried with capped backoff up to *retries*
    times.  ``_QUARANTINE_LIMIT`` quarantines or plan rejects disable the
    pool for the rest of the run.
    """

    __slots__ = (
        "mode", "size", "timeout", "retries", "faults", "obs",
        "rounds", "groups", "candidates", "fallbacks", "peak_inflight",
        "timeouts", "retried", "respawns", "quarantined", "plan_rejects",
        "admit_rounds", "admit_tasks", "admit_candidates", "admit_fallbacks",
        "disabled",
    )

    def __init__(
        self,
        mode: str,
        size: int,
        timeout: float | None = None,
        retries: int = 2,
        faults=None,
        obs=None,
    ) -> None:
        self.mode = mode
        self.size = size
        self.timeout = timeout
        self.retries = retries
        #: The engine's seeded FaultInjector (site ``worker-exec``), or None.
        self.faults = faults
        self.obs = obs
        #: Rounds in which at least one group was dispatched to a worker.
        self.rounds = 0
        #: Shard-disjoint groups evaluated on workers.
        self.groups = 0
        #: Candidates whose plans came back from a worker.
        self.candidates = 0
        #: Groups that fell back to serial apply (unpicklable payloads or
        #: results, broken pool) — counted, never errors.
        self.fallbacks = 0
        #: Most groups simultaneously in flight (pool occupancy gauge).
        self.peak_inflight = 0
        #: Groups whose join missed the deadline.
        self.timeouts = 0
        #: Re-dispatches after a pool break (capped-backoff retries).
        self.retried = 0
        #: Fresh executors spawned to replace a broken one mid-run.
        self.respawns = 0
        #: Groups degraded to serial after exhausting their budget.
        self.quarantined = 0
        #: Worker effects rejected by main-side validation before apply.
        self.plan_rejects = 0
        #: Rounds in which at least one admission task ran on a worker.
        self.admit_rounds = 0
        #: Admission tasks (one per home shard) answered by workers.
        self.admit_tasks = 0
        #: Candidates whose match verdicts came back from a worker.
        self.admit_candidates = 0
        #: Candidates that fell back to serial admission evaluation
        #: (ineligible, task failure, stale snapshot, validation reject).
        self.admit_fallbacks = 0
        #: Set once the failure budget is spent: every later dispatch goes
        #: serial without touching the pool.
        self.disabled = False

    # -- supervision bookkeeping ---------------------------------------
    def _quarantine(self) -> None:
        self.quarantined += 1
        self.fallbacks += 1
        if self.obs is not None:
            self.obs.count("sdl_worker_quarantines_total")
        if self.quarantined + self.plan_rejects >= _QUARANTINE_LIMIT:
            self.disabled = True

    def note_reject(self, reason: str) -> None:
        """Record a validation reject (called from the Phase C apply loop)."""
        self.plan_rejects += 1
        if self.obs is not None:
            self.obs.count("sdl_worker_plan_rejects_total", reason=reason)
        if self.quarantined + self.plan_rejects >= _QUARANTINE_LIMIT:
            self.disabled = True

    def note_admit_fallback(self, reason: str, count: int = 1) -> None:
        """Record *count* candidates degraded to serial admission evaluation."""
        self.admit_fallbacks += count
        if self.obs is not None:
            self.obs.count(
                "sdl_parallel_admit_fallbacks_total", amount=count, reason=reason
            )

    # -- dispatch ------------------------------------------------------
    def _submit(self, executor, payload, sabotage: str | None):
        """Submit one group, routing injected faults to saboteur workers."""
        if sabotage == "worker-crash":
            fn = _crash_worker if self.mode == "process" else _crash_worker_thread
            return executor.submit(fn, payload)
        if sabotage == "worker-hang":
            seconds = self.timeout * 4 if self.timeout else _HANG_SECONDS
            return executor.submit(_hang_worker, payload, seconds)
        if sabotage == "garbage-plan":
            return executor.submit(_garbage_worker, payload)
        return executor.submit(evaluate_candidates, payload)

    def _join(self, payload, future, fn=evaluate_candidates,
              check=_check_plan_reply):
        """Join one dispatched future under the deadline/retry policy.

        Returns the worker reply — ``(plans, elapsed_ns)`` for apply
        groups, the admission reply tuple for match tasks — or ``None``
        (serial fallback).  Retries always resubmit the *clean* *fn* —
        an injected fault fires once per dispatch draw, and pure
        evaluation makes re-running effect-free and deterministic.
        A reply failing *check* falls back rather than being trusted.
        """
        attempt = 0
        while True:
            try:
                reply = future.result(timeout=self.timeout)
            except FuturesTimeoutError:
                # Deadline miss: the worker may be wedged, and waiting
                # again costs another full deadline — degrade to serial
                # now.  The abandoned future is cancelled if still queued;
                # a running one finishes into the void, harmlessly.
                future.cancel()
                self.timeouts += 1
                if self.obs is not None:
                    self.obs.count("sdl_worker_timeouts_total")
                self._quarantine()
                return None
            except (BrokenExecutor, _WorkerCrash):
                if attempt >= self.retries:
                    self._quarantine()
                    return None
                time.sleep(min(_BACKOFF_BASE * (2 ** attempt), _BACKOFF_CAP))
                attempt += 1
                self.retried += 1
                if self.obs is not None:
                    self.obs.count("sdl_worker_retries_total")
                try:
                    # One break fails every sibling group's future; count
                    # the respawn once — for whichever retrier finds the
                    # registered pool dead or already discarded (an
                    # executor existed when this future was created, so a
                    # missing entry here means the break was noticed at
                    # dispatch time) — and let _executor_for's health
                    # check evict and replace it.
                    cached = _EXECUTORS.get((self.mode, self.size))
                    if cached is None or not _executor_alive(cached):
                        self.respawns += 1
                    executor = _executor_for(self.mode, self.size)
                    future = executor.submit(fn, payload)
                except Exception:
                    self._quarantine()
                    return None
                continue
            except Exception:
                # Unpicklable payload/result or another evaluation-side
                # failure: not retryable, plain serial fallback.
                self.fallbacks += 1
                return None
            if not check(payload, reply):  # pragma: no cover - defensive
                self.fallbacks += 1
                return None
            return reply

    def dispatch(
        self,
        payloads: list[list[tuple[tuple, dict[str, Any], list[dict[str, Any]]]]],
    ) -> list[tuple[list[TransactionOutcome], int] | None]:
        """Evaluate one round's groups on the shared pool, supervised.

        Returns one ``(plans, elapsed_ns)`` entry per payload, or ``None``
        for a group that must fall back to serial apply.  Submission and
        joining both degrade per-group: a failure in one group never
        poisons its siblings (a pool *break* fails every sibling's future,
        but each retries independently on the respawned pool).
        """
        if self.disabled:
            self.fallbacks += len(payloads)
            return [None] * len(payloads)
        try:
            executor = _executor_for(self.mode, self.size)
        except Exception:
            self.fallbacks += len(payloads)
            return [None] * len(payloads)
        # Injected worker faults: one seeded draw per dispatched group,
        # decided here on the main process, so schedules are
        # deterministic per plan seed (and the engine RNG is untouched).
        faults = self.faults
        sabotage = [
            faults.fire("worker-exec") if faults is not None else None
            for __ in payloads
        ]
        futures: list[Any] = []
        for payload, action in zip(payloads, sabotage):
            try:
                futures.append(self._submit(executor, payload, action))
            except Exception:
                futures.append(None)
        if not _executor_alive(executor):
            _discard_executor(self.mode, self.size)
        inflight = sum(1 for f in futures if f is not None)
        if inflight > self.peak_inflight:
            self.peak_inflight = inflight
        results: list[tuple[list[TransactionOutcome], int] | None] = []
        for payload, future in zip(payloads, futures):
            if future is None:
                self.fallbacks += 1
                results.append(None)
                continue
            outcome = self._join(payload, future)
            if outcome is None:
                results.append(None)
                continue
            self.groups += 1
            self.candidates += len(outcome[0])
            results.append(outcome)
        if any(r is not None for r in results):
            self.rounds += 1
        return results

    # -- parallel admission dispatch -----------------------------------
    def _submit_match(self, executor, task, sabotage: str | None):
        """Submit one admission task, routing injected faults to saboteurs."""
        if sabotage == "worker-crash":
            fn = _crash_worker if self.mode == "process" else _crash_worker_thread
            return executor.submit(fn, task)
        if sabotage == "stale-snapshot":
            return executor.submit(_stale_snapshot_worker, task)
        if sabotage == "garbage-footprint":
            return executor.submit(_garbage_match_worker, task)
        return executor.submit(evaluate_matches, task)

    def dispatch_matches(self, tasks: list[tuple], rebuild=None):
        """Evaluate one round's admission tasks (one per home shard).

        Returns one ``("ok", ident, kind, version, results, elapsed_ns)``
        reply per task, or ``None`` for a task whose candidates must fall
        back to serial admission evaluation.  Supervision is the apply
        path's: per-task deadline, capped-backoff retry on a pool break,
        shared quarantine budget.  A ``need-full`` reply — the executing
        worker had no cached snapshot and the task carried no blob — is
        re-sent once through *rebuild(task)*, which re-bundles the same
        shard and candidates with the blob attached.
        """
        if self.disabled:
            return [None] * len(tasks)
        try:
            executor = _executor_for(self.mode, self.size)
        except Exception:
            return [None] * len(tasks)
        # One seeded draw per dispatched task, decided on the main
        # process — same discipline as apply-phase worker-exec faults.
        faults = self.faults
        sabotage = [
            faults.fire("admit-dispatch") if faults is not None else None
            for __ in tasks
        ]
        futures: list[Any] = []
        for task, action in zip(tasks, sabotage):
            try:
                futures.append(self._submit_match(executor, task, action))
            except Exception:
                futures.append(None)
        if not _executor_alive(executor):
            _discard_executor(self.mode, self.size)
        inflight = sum(1 for f in futures if f is not None)
        if inflight > self.peak_inflight:
            self.peak_inflight = inflight
        replies: list[tuple | None] = []
        for task, future in zip(tasks, futures):
            if future is None:
                replies.append(None)
                continue
            reply = self._join(
                task, future, fn=evaluate_matches, check=_check_match_reply
            )
            if reply is not None and reply[0] == "need-full":
                if rebuild is None:
                    reply = None
                else:
                    try:
                        full = rebuild(task)
                        future = executor.submit(evaluate_matches, full)
                    except Exception:
                        reply = None
                    else:
                        reply = self._join(
                            full, future,
                            fn=evaluate_matches, check=_check_match_reply,
                        )
                        if reply is not None and reply[0] == "need-full":
                            reply = None  # pragma: no cover - defensive
            if reply is not None:
                self.admit_tasks += 1
                self.admit_candidates += len(task[_TASK_ENTRIES])
            replies.append(reply)
        if any(r is not None for r in replies):
            self.admit_rounds += 1
        return replies

    def __repr__(self) -> str:
        flags = ", disabled" if self.disabled else ""
        return (
            f"WorkerPool({self.mode}:{self.size}, rounds={self.rounds}, "
            f"groups={self.groups}, fallbacks={self.fallbacks}, "
            f"timeouts={self.timeouts}, retried={self.retried}, "
            f"quarantined={self.quarantined}{flags})"
        )
