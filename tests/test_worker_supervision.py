"""Worker-pool supervision: deadlines, retry, quarantine, validation.

Four claims under test.  (1) Every seeded worker fault — crash, hang,
garbage plan — is absorbed by the supervision policy and leaves the run
bit-identical to serial apply.  (2) Every absorption is counted: timeouts,
retries, respawns, quarantines, and plan rejects all surface on
``RunResult``.  (3) ``validate_plan`` rejects exactly the plans whose
replay could break the admission proof, with a stable reason string.
(4) A broken shared executor is evicted from the registry, so the next
run (or the retry) gets a live pool instead of a poisoned cached one.
"""

from __future__ import annotations

import types

import pytest

from repro.core.actions import assert_tuple, spawn
from repro.core.storage import resolve_shards
from repro.core.transactions import Control, TransactionOutcome
from repro.errors import EngineError, FaultPlanError
from repro.runtime.engine import Engine
from repro.runtime.faults import FaultPlan
from repro.runtime.parallel import (
    _EXECUTORS,
    WorkerSpec,
    _crash_worker,
    _executor_alive,
    _executor_for,
    resolve_workers,
    validate_plan,
)
from tests.test_parallel import _counters, _run, _signature, community_worker

NAME = community_worker().name


# ---------------------------------------------------------------------------
# validate_plan: one test per rejection reason
# ---------------------------------------------------------------------------

def _txn(n_emitting=1):
    actions = [assert_tuple("out", i) for i in range(n_emitting)]
    return types.SimpleNamespace(actions=actions)


def _result(n_matches=0):
    return types.SimpleNamespace(matches=[{}] * n_matches)


def _plan(assertions=(), spawned=()):
    """A worker-staged effect: what ``evaluate_candidates`` returns."""
    return TransactionOutcome(
        success=True, assertions=list(assertions), spawned=list(spawned)
    )


class TestValidatePlan:
    def test_valid_plan_passes(self):
        assert validate_plan(_plan([("out", 0)]), _txn(), _result()) is None

    def test_valid_spawn_passes(self):
        txn = types.SimpleNamespace(actions=[spawn("W", 1)])
        assert validate_plan(_plan(spawned=[("W", (1,))]), txn, _result()) is None

    def test_error_plan_may_stop_short_never_run_long(self):
        plan = _plan()
        plan.error = RuntimeError("worker-side failure")
        assert validate_plan(plan, _txn(2), _result()) is None
        plan.assertions = [("a",)] * 3
        assert validate_plan(plan, _txn(2), _result()) == "op-count"

    def test_not_a_plan(self):
        assert validate_plan("garbage", _txn(), _result()) == "not-a-plan"
        assert validate_plan(TransactionOutcome.failure(), _txn(0), _result()) == "not-a-plan"

    def test_subclass_is_not_a_plan(self):
        # type-exact on purpose: a worker returning a lookalike class is
        # exactly the forgery this check exists to stop.
        class Fake(TransactionOutcome):
            pass

        assert validate_plan(Fake(success=True), _txn(0), _result()) == "not-a-plan"

    def test_malformed_ops(self):
        plan = _plan()
        plan.assertions = (("out", 0),)  # tuple, not list
        assert validate_plan(plan, _txn(), _result()) == "malformed-ops"
        plan = _plan()
        plan.spawned = None
        assert validate_plan(plan, _txn(), _result()) == "malformed-ops"

    def test_malformed_lets(self):
        plan = _plan([("out", 0)])
        plan.lets = []
        assert validate_plan(plan, _txn(), _result()) == "malformed-lets"

    def test_malformed_control(self):
        plan = _plan([("out", 0)])
        plan.control = "NONE"
        assert validate_plan(plan, _txn(), _result()) == "malformed-control"
        plan.control = Control.NONE
        assert validate_plan(plan, _txn(), _result()) is None

    def test_malformed_error(self):
        plan = _plan([("out", 0)])
        plan.error = "boom"  # not an exception instance
        assert validate_plan(plan, _txn(), _result()) == "malformed-error"

    def test_op_count_per_match(self):
        plan = _plan([("out", 0)])
        assert validate_plan(plan, _txn(1), _result(3)) == "op-count"
        plan.assertions = [("out", i) for i in range(3)]
        assert validate_plan(plan, _txn(1), _result(3)) is None

    @pytest.mark.parametrize(
        "op",
        [
            ("assertions", "__garbage__"),  # the _garbage_worker signature
            ("assertions", ["out", 0]),
            ("spawned", ["W", ()]),
            ("spawned", ()),
            pytest.param(("assertions", "assert"), id="assert"),
            ("spawned", (7, ())),
            ("spawned", ("W", [1])),
            ("spawned", ("W",)),
        ],
    )
    def test_malformed_op(self, op):
        field, value = op
        txn = _txn() if field == "assertions" else types.SimpleNamespace(
            actions=[spawn("W", 1)]
        )
        plan = _plan(**{field: [value]})
        assert validate_plan(plan, txn, _result()) == "malformed-op"

    def test_unknown_op(self):
        # Retractions, asserted instances and callbacks are staged on the
        # main process only; a worker effect carrying one is forged.
        for field in ("retracted", "asserted", "callbacks"):
            plan = _plan([("out", 0)])
            setattr(plan, field, [object()])
            assert validate_plan(plan, _txn(), _result()) == "unknown-op"

    def test_footprint_escape(self):
        partitioner = resolve_shards(4)
        values = ("out", 0)
        home = partitioner.shard_of_values(values)
        stranger = next(s for s in range(4) if s != home)
        ok = types.SimpleNamespace(write_shards=frozenset({home}))
        escape = types.SimpleNamespace(write_shards=frozenset({stranger}))
        plan = _plan([values])
        assert validate_plan(plan, _txn(), _result(), ok, partitioner) is None
        assert (
            validate_plan(plan, _txn(), _result(), escape, partitioner)
            == "footprint-escape"
        )

    def test_no_partitioner_skips_containment(self):
        escape = types.SimpleNamespace(write_shards=frozenset())
        plan = _plan([("out", 0)])
        assert validate_plan(plan, _txn(), _result(), escape, None) is None


# ---------------------------------------------------------------------------
# spec-parsing rejection paths (workers, shards, fault clauses)
# ---------------------------------------------------------------------------

class TestSpecRejections:
    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("fiber:4", "unknown worker mode 'fiber'"),
            ("thread:4:2", "too many ':'"),
            ("process:many", "bad worker count 'many'"),
            ("process:", "bad worker count ''"),
            (2.5, "unknown workers spec"),
            (True, "unknown workers spec"),
            (0, "must be >= 1"),
            ("-3", "must be >= 1"),
        ],
    )
    def test_resolve_workers_rejects(self, spec, fragment):
        with pytest.raises(ValueError, match="workers spec|must be >= 1"):
            resolve_workers(spec)
        try:
            resolve_workers(spec)
        except ValueError as err:
            assert fragment in str(err)

    def test_resolve_workers_accepts_canonical_forms(self):
        assert resolve_workers(" Thread:3 ") == WorkerSpec("thread", 3)
        assert resolve_workers("off") is None

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("hash:4", "unknown shard routing 'hash'"),
            ("head:4:2", "too many ':'"),
            ("head:lots", "bad shard count 'lots'"),
            ("head:", "bad shard count ''"),
            ("4.5", "bad shard count '4.5'"),
        ],
    )
    def test_resolve_shards_rejects(self, spec, fragment):
        try:
            resolve_shards(spec)
        except ValueError as err:
            assert fragment in str(err)
        else:
            pytest.fail(f"resolve_shards({spec!r}) did not raise")

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("head:1", "head routing needs >= 2 shards, got 1"),
            ("head:0", "head routing needs >= 2 shards, got 0"),
            ("head:-2", "head routing needs >= 2 shards, got -2"),
            (" HEAD:1 ", "head routing needs >= 2 shards, got 1"),
        ],
    )
    def test_resolve_shards_rejects_explicit_small_head(self, spec, fragment):
        # An explicit head:N below 2 used to fall through to the single
        # store silently; it is a spec error now, with a pointer at the fix.
        with pytest.raises(ValueError) as err:
            resolve_shards(spec)
        assert fragment in str(err.value)
        assert "use 'single'" in str(err.value)

    @pytest.mark.parametrize(
        "plan, fragment",
        [
            ("seed=x", "bad seed clause"),
            ("pre-commit", "needs at least site:action"),
            ("warp-core:crash", "unknown fault site"),
            ("pre-commit:melt", "unknown fault action"),
            ("wal-append:crash", "cannot fire at site"),
            ("worker-exec:torn-write", "cannot fire at site"),
            ("pre-commit:crash:when=3", "unknown option 'when'"),
            ("pre-commit:crash:at=1:at=2", "duplicate option at="),
            ("pre-commit:crash:prob=often", "bad value 'often'"),
            ("pre-commit:crash:at=0", "at= must be >= 1"),
            ("pre-commit:crash:prob=1.5", "prob= must be in [0, 1]"),
            ("pre-commit:crash:at=1:prob=0.5", "not both"),
            ("pre-commit:crash:badoption", "bad option 'badoption'"),
        ],
    )
    def test_fault_plan_rejects(self, plan, fragment):
        with pytest.raises(FaultPlanError) as err:
            FaultPlan.parse(plan)
        assert fragment in str(err.value)

    def test_engine_rejects_bad_worker_timeout(self):
        with pytest.raises(EngineError, match="worker_timeout must be > 0"):
            Engine(definitions=[], worker_timeout=0)

    def test_engine_rejects_bad_env_timeout(self, monkeypatch):
        monkeypatch.setenv("SDL_WORKER_TIMEOUT", "soon")
        with pytest.raises(EngineError, match="bad SDL_WORKER_TIMEOUT"):
            Engine(definitions=[])


# ---------------------------------------------------------------------------
# supervision paths through a real engine (thread pools: fast, same code)
# ---------------------------------------------------------------------------

class TestSupervisedDispatch:
    def test_hang_times_out_quarantines_and_matches_serial(self):
        serial_engine, serial = _run(None)
        engine, result = _run(
            "thread:3",
            faults="seed=5; worker-exec:worker-hang:at=1",
            worker_timeout=0.05,
        )
        assert _signature(engine) == _signature(serial_engine)
        assert _counters(result) == _counters(serial)
        assert result.worker_timeouts == 1
        assert result.worker_quarantined == 1
        assert result.parallel_fallbacks >= 1

    def test_thread_crash_retries_and_matches_serial(self):
        serial_engine, serial = _run(None)
        engine, result = _run(
            "thread:3", faults="seed=5; worker-exec:worker-crash:at=1"
        )
        assert _signature(engine) == _signature(serial_engine)
        assert _counters(result) == _counters(serial)
        assert result.worker_retries == 1
        assert result.worker_quarantined == 0

    def test_garbage_plan_is_rejected_and_matches_serial(self):
        serial_engine, serial = _run(None)
        engine, result = _run(
            "thread:3", faults="seed=5; worker-exec:garbage-plan:at=1"
        )
        assert _signature(engine) == _signature(serial_engine)
        assert _counters(result) == _counters(serial)
        assert result.worker_plan_rejects >= 1

    def test_garbage_storm_disables_pool_and_matches_serial(self):
        serial_engine, serial = _run(None)
        engine, result = _run(
            "thread:3", faults="seed=5; worker-exec:garbage-plan:prob=1.0"
        )
        assert _signature(engine) == _signature(serial_engine)
        assert _counters(result) == _counters(serial)
        assert engine.pool.disabled
        assert result.worker_plan_rejects + result.worker_quarantined >= 3

    def test_obs_counts_supervision_events(self):
        __, result = _run(
            "thread:3",
            faults="seed=5; worker-exec:garbage-plan:at=1",
            obs=True,
        )
        data = result.metrics["sdl_worker_plan_rejects_total"]["data"]
        # Labelled counter: one series per rejection reason.
        assert sum(data.values()) >= 1

    @pytest.mark.slow
    def test_process_crash_respawns_pool_once(self):
        serial_engine, serial = _run(None)
        engine, result = _run(
            "process:2", faults="seed=5; worker-exec:worker-crash:at=1"
        )
        assert _signature(engine) == _signature(serial_engine)
        assert _counters(result) == _counters(serial)
        assert result.worker_respawns == 1
        assert result.worker_retries >= 1


# ---------------------------------------------------------------------------
# executor registry hygiene (the eviction regression)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestExecutorEviction:
    def test_broken_executor_is_evicted_not_reused(self):
        first = _executor_for("process", 2)
        with pytest.raises(Exception):
            first.submit(_crash_worker, []).result(timeout=30)
        assert not _executor_alive(first)
        # The registry still holds the corpse until someone asks again —
        # _executor_for's health check must evict and replace it.
        second = _executor_for("process", 2)
        assert second is not first
        assert _executor_alive(second)
        assert _EXECUTORS[("process", 2)] is second
        assert second.submit(len, ()).result(timeout=30) == 0

    def test_back_to_back_runs_survive_a_pool_break(self):
        """A run that breaks the shared pool must not poison the next run."""
        _, broken = _run("process:2", faults="seed=5; worker-exec:worker-crash:prob=1.0")
        engine, clean = _run("process:2")
        serial_engine, serial = _run(None)
        assert _signature(engine) == _signature(serial_engine)
        assert _counters(clean) == _counters(serial)
        assert clean.worker_quarantined == 0


# ---------------------------------------------------------------------------
# restart-pressure accounting (per-definition counters + the storm gauge)
# ---------------------------------------------------------------------------

class TestRestartPressure:
    def _engine(self, faults, supervision, **kw):
        from repro.core.expressions import Var
        from repro.core.patterns import P
        from repro.core.process import ProcessDefinition
        from repro.core.query import exists
        from repro.core.transactions import delayed
        from repro.runtime import RestartPolicy

        a = Var("a")
        taker = ProcessDefinition(
            "Taker",
            body=[
                delayed(exists(a).match(P["src", a].retract())).then(
                    assert_tuple("dst", a)
                )
                for __ in range(2)
            ],
        )
        policy = RestartPolicy(**supervision) if supervision else None
        engine = Engine(
            definitions=[taker], seed=1, on_deadlock="return",
            faults=faults, supervision=policy, **kw,
        )
        engine.assert_tuples([("src", i) for i in range(4)])
        engine.start("Taker")
        return engine

    def test_restart_pressure_counts_per_definition(self):
        engine = self._engine(
            "pre-commit:crash:name=Taker:at=2:max=1", {"policy": "restart"}
        )
        result = engine.run()
        assert result.reason == "completed"
        pressure = result.restart_pressure["Taker"]
        assert pressure["crashes"] == 1
        assert pressure["restarts"] == 1
        assert pressure["backoff_rounds"] >= 1
        assert pressure["escalations"] == 0

    def test_escalation_is_counted(self):
        engine = self._engine(
            "pre-commit:crash:name=Taker:at=1",
            {"policy": "restart", "max_restarts": 1},
        )
        result = engine.run()
        assert result.reason == "escalated"
        pressure = result.restart_pressure["Taker"]
        assert pressure["crashes"] == 2
        assert pressure["restarts"] == 1
        assert pressure["escalations"] == 1

    def test_unsupervised_crash_still_counts_pressure(self):
        engine = self._engine("pre-commit:crash:name=Taker:at=2:max=1", None)
        result = engine.run()
        assert result.reason == "crashed"
        pressure = result.restart_pressure["Taker"]
        assert pressure["crashes"] == 1
        assert pressure["restarts"] == 0

    def test_storm_gauge_tracks_max_restarts(self):
        engine = self._engine(
            "pre-commit:crash:name=Taker:at=2:max=2", {"policy": "restart"},
            obs=True,
        )
        result = engine.run()
        storm = result.restart_pressure["Taker"]["restarts"]
        assert storm >= 1
        assert result.metrics["sdl_restart_storm"]["data"] == storm

    def test_clean_run_has_no_pressure(self):
        engine = self._engine(None, {"policy": "restart"})
        result = engine.run()
        assert result.reason == "completed"
        assert result.restart_pressure == {}
