"""Parallel group-round apply: eligibility, grouping, and replay ≡ serial.

The parallel tier (``repro.runtime.parallel``) claims that shipping the
pure evaluation half of a shard-disjoint admitted group to a worker is
*unobservable*: every serial, version, journal entry, wakeup, fault
firing, and ``RunResult`` counter must be bit-identical to ``workers=1``.
These tests pin the units (spec parsing, the pure-action fragment,
union-find grouping) and then the end-to-end claim — thread and process
pools against the serial baseline, with fallbacks and fault injection in
the loop.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.actions import (
    Abort,
    CallPython,
    Exit,
    Skip,
    assert_tuple,
    let,
    spawn,
)
from repro.core.dataspace import Dataspace
from repro.core.expressions import Call, Var, lift
from repro.core.patterns import P, Pattern
from repro.core.process import ProcessDefinition
from repro.core.query import Membership, exists
from repro.core.transactions import delayed
from repro.errors import EngineError
from repro.runtime.engine import Engine
from repro.runtime.parallel import (
    WorkerSpec,
    load_shard,
    partition_disjoint,
    resolve_workers,
    ship_shard,
)

a = Var("a")
b = Var("b")


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

class TestResolveWorkers:
    def test_serial_forms(self):
        for spec in (None, "", "off", "none", "serial", 1, "1"):
            assert resolve_workers(spec) is None

    def test_integer_defaults_to_processes(self):
        for spec in (4, "4", "process:4", " PROCESS:4 "):
            assert resolve_workers(spec) == WorkerSpec("process", 4)

    def test_thread_mode(self):
        for spec in ("thread:2", "threads:2", " Thread:2 "):
            assert resolve_workers(spec) == WorkerSpec("thread", 2)

    def test_rejects_garbage(self):
        for bad in ("frob", "thread:x", "gpu:4", "process:", 0, -3, True, 2.5):
            with pytest.raises(ValueError):
                resolve_workers(bad)


# ---------------------------------------------------------------------------
# eligibility: the pure-action fragment
# ---------------------------------------------------------------------------

def _txn(*actions):
    return delayed(exists(a).match(P["c", a].retract())).then(*actions).build()


class TestWorkerEligibility:
    def test_pure_actions_are_eligible(self):
        txn = _txn(
            let(Var("n"), a + 1),
            assert_tuple("done", Var("n")),
            spawn("Child", a),
            Skip(),
            Exit(),
            Abort(),
        )
        assert txn.pure

    def test_pure_call_is_eligible(self):
        double = lift(lambda x: x * 2, name="double")
        assert _txn(let(Var("n"), double(a))).pure

    def test_call_python_is_ineligible(self):
        assert not _txn(CallPython(lambda bindings: None)).pure

    def test_membership_pins_to_main(self):
        # A window-reading sub-query anywhere in the action list — let
        # body, assert template, or spawn argument — disqualifies it.
        probe = Membership(P["flag", b])
        assert not _txn(let(Var("n"), probe)).pure
        assert not _txn(assert_tuple("saw", probe)).pure
        assert not _txn(spawn("Child", probe)).pure


# ---------------------------------------------------------------------------
# shard-disjoint grouping
# ---------------------------------------------------------------------------

class TestPartitionDisjoint:
    def test_disjoint_candidates_stay_apart(self):
        groups = partition_disjoint(
            [(0, frozenset({0})), (1, frozenset({1})), (2, frozenset({2}))]
        )
        assert groups == [[0], [1], [2]]

    def test_shared_shards_merge_transitively(self):
        groups = partition_disjoint(
            [
                (0, frozenset({1})),
                (1, frozenset({2})),
                (2, frozenset({1, 2})),  # bridges 0 and 1
                (3, frozenset({3})),
            ]
        )
        assert groups == [[0, 1, 2], [3]]

    def test_empty_footprints_are_their_own_groups(self):
        groups = partition_disjoint([(0, frozenset()), (1, frozenset())])
        assert groups == [[0], [1]]

    def test_groups_ordered_by_batch_position(self):
        groups = partition_disjoint(
            [(2, frozenset({5})), (4, frozenset({6})), (7, frozenset({5}))]
        )
        assert groups == [[2, 7], [4]]


# ---------------------------------------------------------------------------
# engine-level differential: workers=N must be unobservable
# ---------------------------------------------------------------------------

def community_worker() -> ProcessDefinition:
    return ProcessDefinition(
        "Worker",
        params=("c",),
        body=[
            delayed(exists(a).match(P[Var("c"), a].retract())).then(
                let(Var("n"), a + 1),
                assert_tuple("done", Var("c"), Var("n")),
            )
        ],
    )


def spawning_worker() -> ProcessDefinition:
    return ProcessDefinition(
        "Spawner",
        params=("c",),
        body=[
            delayed(exists(a).match(P[Var("c"), a].retract())).then(
                spawn("Sink", Var("c"), a)
            )
        ],
    )


def sink() -> ProcessDefinition:
    return ProcessDefinition(
        "Sink",
        params=("c", "v"),
        body=[delayed().then(assert_tuple("sunk", Var("c"), Var("v")))],
    )


def _counters(result):
    """RunResult counters that must not depend on where apply ran."""
    return {
        "reason": result.reason,
        "steps": result.steps,
        "rounds": result.rounds,
        "commits": result.commits,
        "wakeups": result.wakeups,
        "precise": result.precise_wakeups,
        "spurious": result.spurious_wakeups,
        "wake_checks": result.wake_checks,
        "group_rounds": result.group_rounds,
        "batch_commits": result.batch_commits,
        "conflicts": result.conflicts,
        "max_batch": result.max_batch,
        "crashes": result.crashes,
        "dataspace_size": result.dataspace_size,
    }


def _signature(engine):
    """Instance-level identity: serials and owners, not just the multiset."""
    return sorted(
        (inst.tid.serial, inst.tid.owner, inst.values)
        for inst in engine.dataspace.instances()
    )


def _run(
    workers,
    definitions=None,
    shards=8,
    n_comm=6,
    depth=3,
    seed=7,
    commit="group",
    faults=None,
    obs=None,
    worker_timeout=None,
):
    engine = Engine(
        definitions=definitions or [community_worker()],
        seed=seed,
        commit=commit,
        shards=shards,
        workers=workers,
        faults=faults,
        obs=obs,
        worker_timeout=worker_timeout,
    )
    engine.assert_tuples(
        [(f"c{c}", i) for c in range(n_comm) for i in range(depth)]
    )
    start = (definitions or [community_worker()])[0].name
    for c in range(n_comm):
        for __ in range(depth):
            engine.start(start, (f"c{c}",))
    result = engine.run()
    return engine, result


class TestEngineDifferential:
    def test_thread_pool_is_bit_identical_and_dispatches(self):
        base_engine, base = _run(None)
        par_engine, par = _run("thread:3")
        assert _signature(par_engine) == _signature(base_engine)
        assert _counters(par) == _counters(base)
        assert par.parallel_rounds > 0
        assert par.parallel_candidates >= par.parallel_groups >= 2
        assert par.parallel_fallbacks == 0

    def test_process_pool_is_bit_identical(self):
        base_engine, base = _run(None)
        par_engine, par = _run("process:2", n_comm=4, depth=2)
        base_engine2, base2 = _run(None, n_comm=4, depth=2)
        assert _signature(par_engine) == _signature(base_engine2)
        assert _counters(par) == _counters(base2)
        assert par.parallel_rounds > 0
        assert par.parallel_fallbacks == 0

    def test_workers_one_means_no_pool(self):
        engine, result = _run(1)
        assert engine.pool is None
        assert result.parallel_rounds == 0
        base_engine, base = _run(None)
        assert _signature(engine) == _signature(base_engine)
        assert _counters(result) == _counters(base)

    def test_live_commit_never_dispatches(self):
        engine, result = _run("thread:2", commit="live")
        base_engine, base = _run(None, commit="live")
        assert engine.pool is not None
        assert result.parallel_rounds == 0
        assert _signature(engine) == _signature(base_engine)
        assert _counters(result) == _counters(base)

    def test_single_store_never_dispatches(self):
        engine, result = _run("thread:2", shards="single")
        base_engine, base = _run(None, shards="single")
        assert result.parallel_rounds == 0
        assert _signature(engine) == _signature(base_engine)
        assert _counters(result) == _counters(base)

    def test_spawns_replay_with_identical_pids(self):
        defs = [spawning_worker(), sink()]
        base_engine, base = _run(None, definitions=defs)
        par_engine, par = _run("thread:3", definitions=defs)
        assert par.parallel_rounds > 0
        assert _signature(par_engine) == _signature(base_engine)
        assert _counters(par) == _counters(base)

    def test_call_python_runs_on_main(self):
        seen: list[tuple] = []

        def observer(c):
            return ProcessDefinition(
                "Observer",
                params=("c",),
                body=[
                    delayed(exists(a).match(P[Var("c"), a].retract())).then(
                        CallPython(lambda env: seen.append(env["a"])),
                        assert_tuple("done", Var("c"), a),
                    )
                ],
            )

        engine, result = _run("thread:3", definitions=[observer("c")])
        # CallPython pins every candidate to the main process: the pool
        # exists but no batch ever qualifies, and the callbacks all ran.
        assert result.parallel_rounds == 0
        assert result.commits == len(seen) > 0


# ---------------------------------------------------------------------------
# fallback discipline
# ---------------------------------------------------------------------------

def lambda_worker() -> ProcessDefinition:
    # Call with a lambda is pure by the eligibility gate but unpicklable,
    # so a process pool must fall back (per group) to serial apply.
    bump = Call(lambda x: x + 10, (a,), name="bump")
    return ProcessDefinition(
        "Lambda",
        params=("c",),
        body=[
            delayed(exists(a).match(P[Var("c"), a].retract())).then(
                let(Var("n"), bump), assert_tuple("done", Var("c"), Var("n"))
            )
        ],
    )


class TestFallbacks:
    def test_unpicklable_payload_falls_back_to_serial(self):
        base_engine, base = _run(None, definitions=[lambda_worker()])
        par_engine, par = _run("process:2", definitions=[lambda_worker()])
        assert par.parallel_fallbacks > 0
        assert par.parallel_groups == 0  # nothing ever came back from a worker
        assert _signature(par_engine) == _signature(base_engine)
        assert _counters(par) == _counters(base)

    def test_thread_pool_handles_the_same_payload_without_fallback(self):
        base_engine, base = _run(None, definitions=[lambda_worker()])
        par_engine, par = _run("thread:2", definitions=[lambda_worker()])
        assert par.parallel_fallbacks == 0
        assert par.parallel_rounds > 0
        assert _signature(par_engine) == _signature(base_engine)
        assert _counters(par) == _counters(base)


# ---------------------------------------------------------------------------
# fault injection under parallel apply (sites fire on the main process)
# ---------------------------------------------------------------------------

def _fired(engine):
    return [
        (e.site, e.action, e.pid, e.name, e.occurrence)
        for e in (engine.faults.fired if engine.faults is not None else [])
    ]


class TestFaultsUnderParallelApply:
    PLAN = "seed=5; pre-commit:crash:pid=5:at=1"

    def test_pre_commit_crash_charges_the_same_pid(self):
        base_engine, base = _run(None, faults=self.PLAN)
        par_engine, par = _run("thread:3", faults=self.PLAN)
        assert base.crashes == par.crashes == 1
        assert _fired(par_engine) == _fired(base_engine)
        # The fired event is pid-targeted: the same process is charged
        # whether or not its siblings' applies ran on workers.
        (event,) = _fired(par_engine)
        assert event[0] == "pre-commit" and event[2] == 5
        assert _signature(par_engine) == _signature(base_engine)
        assert _counters(par) == _counters(base)

    def test_batch_kill_round_is_layout_independent(self):
        plan = "seed=9; batch-admit:kill-round:at=1"
        base_engine, base = _run(None, faults=plan)
        par_engine, par = _run("thread:3", faults=plan)
        assert _fired(par_engine) == _fired(base_engine)
        assert _signature(par_engine) == _signature(base_engine)
        assert _counters(par) == _counters(base)


# ---------------------------------------------------------------------------
# engine/CLI wiring and observability
# ---------------------------------------------------------------------------

class TestEngineWiring:
    def test_engine_rejects_bad_spec(self):
        with pytest.raises(EngineError):
            Engine(workers="frob")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("SDL_WORKERS", "thread:3")
        engine = Engine()
        assert engine.pool is not None
        assert (engine.pool.mode, engine.pool.size) == ("thread", 3)
        monkeypatch.delenv("SDL_WORKERS")
        assert Engine().pool is None

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("SDL_WORKERS", "thread:3")
        assert Engine(workers="off").pool is None

    def test_cli_flag_parses(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["run", "prog.sdl", "--start", "Main", "--workers", "thread:2"]
        )
        assert args.workers == "thread:2"

    def test_parallel_metrics_populated(self):
        engine, result = _run("thread:2", obs=True)
        m = result.metrics
        assert result.parallel_rounds > 0
        assert m["sdl_parallel_batches_total"]["data"] == result.parallel_groups
        assert m["sdl_parallel_apply_seconds"]["data"]["count"] > 0
        assert m["sdl_worker_pool_size"]["data"] == 2
        assert m["sdl_worker_pool_peak_inflight"]["data"] >= 1
        assert "sdl_parallel_fallbacks_total" not in m  # nothing fell back


# ---------------------------------------------------------------------------
# pickling: what crosses the process boundary
# ---------------------------------------------------------------------------

class TestPickling:
    def test_tuple_store_round_trips(self):
        ds = Dataspace(shards=2)
        for i in range(8):
            ds.insert((f"c{i % 3}", i))
        ds.retract(next(iter(ds.tids())))
        for shard, store in enumerate(ds.stores):
            clone = load_shard(ship_shard(ds, shard))
            assert len(clone) == len(store)
            assert clone.arity_candidates(2) == store.arity_candidates(2)
            # Derived indexes are rebuilt, not shipped: probes agree.
            for inst in store.arity_candidates(2):
                probe = [(0, inst.values[0])]
                assert [
                    i.tid for i in clone.candidates_probed(inst.arity, probe)
                ] == [i.tid for i in store.candidates_probed(inst.arity, probe)]

    def test_pattern_pickles_without_compiled_kernel(self):
        original = P["c", a]
        clone = pickle.loads(pickle.dumps(original))
        assert isinstance(clone, Pattern)
        assert repr(clone.elements) == repr(original.elements)
