"""E14 — crash-stop failure model: injection overhead and convergence.

* **zero-overhead when disabled** — an engine with no fault plan takes the
  exact original execute path (``engine.faults is None``); even an *inert*
  plan (clauses that can never fire) only adds a per-attempt filter check.
  Both must produce the bit-identical final state of a fault-free run,
  and the inert plan must stay within a loose constant factor.

(Recovery cost against the checkpoint interval is E19's claim, measured
on the durable log: ``bench_e19_durability.py``.)

Plus a shape check that a supervised crash-restart run still converges to
the fault-free final state (state lives in the dataspace, so replacements
resume where the lineage left off).
"""

import pytest

from _helpers import attach, once
from repro.core.actions import assert_tuple
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed
from repro.runtime import Engine, RestartPolicy

WORKERS = 24
DEPTH = 3

# A syntactically valid plan whose clauses can never fire: no process is
# named "NoSuchProcess", so the injector stays armed but silent.
INERT_PLAN = "pre-commit:crash:name=NoSuchProcess:at=1"


def _community_engine(faults=None, supervision=None, **kw) -> Engine:
    a = Var("a")
    worker = ProcessDefinition(
        "W",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                assert_tuple("done", Var("k"), a)
            )
            for __ in range(DEPTH)
        ],
    )
    engine = Engine(
        definitions=[worker], seed=7, on_deadlock="return",
        faults=faults, supervision=supervision, **kw,
    )
    engine.assert_tuples([(k, d) for k in range(WORKERS) for d in range(DEPTH)])
    for k in range(WORKERS):
        engine.start("W", (k,))
    return engine


@pytest.mark.parametrize("plan", [None, INERT_PLAN], ids=["disabled", "inert"])
def test_e14_injector_overhead(benchmark, plan):
    def run():
        engine = _community_engine(faults=plan)
        result = engine.run()
        assert result.completed
        assert result.crashes == 0
        assert engine.dataspace.count_matching(P["done", ANY, ANY]) == WORKERS * DEPTH
        return engine, result

    engine, result = once(benchmark, run)
    attach(
        benchmark,
        plan=plan or "-",
        injector="armed" if engine.faults is not None else "off",
        rounds=result.rounds,
        commits=result.commits,
    )


def test_e14_shape_inert_plan_is_transparent(benchmark):
    import time

    def check():
        baseline = _community_engine()
        assert baseline.faults is None  # no plan -> original execute path
        start = time.perf_counter()
        baseline_result = baseline.run()
        t_off = time.perf_counter() - start

        armed = _community_engine(faults=INERT_PLAN)
        assert armed.faults is not None
        start = time.perf_counter()
        armed_result = armed.run()
        t_inert = time.perf_counter() - start

        # bit-identical outcome, loose constant-factor overhead bound
        assert baseline.dataspace.multiset() == armed.dataspace.multiset()
        assert armed_result.rounds == baseline_result.rounds
        assert armed_result.commits == baseline_result.commits
        assert not armed.faults.fired
        assert t_inert < max(t_off * 3.0, t_off + 0.05)
        return t_off, t_inert

    t_off, t_inert = once(benchmark, check)
    attach(
        benchmark,
        off_ms=round(t_off * 1000, 1),
        inert_ms=round(t_inert * 1000, 1),
        ratio=round(t_inert / t_off, 2) if t_off else 0.0,
    )


def test_e14_shape_supervised_restart_converges(benchmark):
    def check():
        # Crashes land on a pid's *first* commit attempt (at=1), so a dead
        # lineage has consumed nothing and its replacement re-runs the full
        # body against an intact community.
        faulty = _community_engine(
            faults="pre-commit:crash:name=W:at=1:max=3",
            supervision=RestartPolicy(policy="restart", max_restarts=4),
        )
        faulty_result = faulty.run()
        clean = _community_engine()
        assert clean.run().completed
        # every crash was restarted and the lineage finished the work
        assert faulty_result.reason == "completed"
        assert faulty_result.crashes == faulty_result.restarts
        assert faulty.dataspace.multiset() == clean.dataspace.multiset()
        return faulty_result

    result = once(benchmark, check)
    attach(
        benchmark,
        crashes=result.crashes,
        restarts=result.restarts,
        recoveries=result.recoveries,
        rounds=result.rounds,
    )
