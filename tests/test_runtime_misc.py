"""Runtime odds and ends: trace observers, engine conveniences, run results."""

import pytest

from repro.core.actions import CallPython, assert_tuple
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed, immediate
from repro.runtime.engine import Engine, RunResult
from repro.runtime.events import (
    ProcessCreated,
    Trace,
    TxnCommitted,
)


class TestTraceObservers:
    def test_live_observer_sees_events(self):
        trace = Trace(detail=False)
        seen = []
        detach = trace.observe(seen.append)
        nop = ProcessDefinition("Nop", body=[immediate().then(assert_tuple("x", 1))])
        engine = Engine(definitions=[nop], seed=1, trace=trace)
        engine.start("Nop")
        engine.run()
        assert any(isinstance(e, TxnCommitted) for e in seen)
        assert any(isinstance(e, ProcessCreated) for e in seen)
        detach()
        before = len(seen)
        engine2 = Engine(definitions=[nop], seed=1, trace=trace)
        engine2.start("Nop")
        engine2.run()
        assert len(seen) == before  # detached observers stay silent

    def test_counters_without_detail(self):
        trace = Trace(detail=False)
        nop = ProcessDefinition("Nop", body=[immediate().then(assert_tuple("x", 1))])
        engine = Engine(definitions=[nop], seed=1, trace=trace)
        engine.start("Nop")
        engine.run()
        assert trace.counters.commits == 1
        assert trace.events == []  # no history kept

    def test_commits_by_pid(self):
        trace = Trace(detail=True)
        nop = ProcessDefinition("Nop", body=[immediate().then(assert_tuple("x", 1))])
        engine = Engine(definitions=[nop], seed=1, trace=trace)
        engine.start("Nop")
        engine.start("Nop")
        engine.run()
        by_pid = trace.commits_by_pid()
        assert by_pid == {1: 1, 2: 1}


class TestEngineConveniences:
    def test_start_many(self):
        k = Var("k")
        echo = ProcessDefinition(
            "Echo", params=("k",), body=[immediate().then(assert_tuple("echo", k))]
        )
        engine = Engine(definitions=[echo], seed=1)
        engine.start_many([("Echo", (1,)), ("Echo", (2,)), ("Echo", (3,))])
        engine.run()
        assert engine.dataspace.count_matching(P["echo", ANY]) == 3

    def test_define_after_construction(self):
        engine = Engine(seed=1)
        engine.define(ProcessDefinition("Late", body=[immediate().then(assert_tuple("ok", 1))]))
        engine.start("Late")
        assert engine.run().completed

    def test_engine_reusable_dataspace_inspection(self):
        nop = ProcessDefinition("Nop", body=[immediate().then(assert_tuple("x", 1))])
        engine = Engine(definitions=[nop], seed=1)
        engine.start("Nop")
        result = engine.run()
        # run again after adding more work: the engine keeps going
        engine.start("Nop")
        result2 = engine.run()
        assert result2.completed
        assert engine.dataspace.count_matching(P["x", 1]) == 2


def _parked_on_other() -> ProcessDefinition:
    a = Var("a")
    return ProcessDefinition(
        "Waiter",
        body=[delayed(exists(a).match(P["other", a].retract())).then(assert_tuple("got", a))],
    )


@pytest.mark.parametrize("commit", ["live", "group"])
class TestEnvironmentAssertsWake:
    """Rows the environment asserts wake the tasks parked on them, as a
    commit's changes do."""

    def test_assert_between_runs(self, commit):
        engine = Engine(definitions=[_parked_on_other()], seed=1, commit=commit, on_deadlock="return")
        engine.start("Waiter")
        assert engine.run().reason == "deadlock"
        engine.assert_tuples([("other", 5)])
        assert engine.run().completed
        assert ("got", 5) in engine.dataspace.multiset()

    def test_assert_from_a_callback(self, commit):
        engines = []
        poke = CallPython(lambda env: engines[0].assert_tuples([("other", 5)]))
        poker = ProcessDefinition("Poker", body=[immediate().then(poke)])
        engine = Engine(
            definitions=[_parked_on_other(), poker], seed=1, commit=commit, policy="fifo",
            on_deadlock="return",
        )
        engines.append(engine)
        engine.start("Waiter")  # fifo: parks before the callback asserts
        engine.start("Poker")
        assert engine.run().completed
        assert ("got", 5) in engine.dataspace.multiset()


class TestRunResult:
    def test_parallelism_zero_for_empty_run(self):
        result = RunResult(
            reason="completed", steps=0, rounds=0, commits=0,
            consensus_rounds=0, live_processes=0, dataspace_size=0,
        )
        assert result.parallelism == 0.0
        assert result.completed

    def test_non_completed_flags(self):
        result = RunResult(
            reason="deadlock", steps=5, rounds=2, commits=1,
            consensus_rounds=0, live_processes=1, dataspace_size=3,
            deadlocked=["X#1"],
        )
        assert not result.completed
        assert result.deadlocked == ["X#1"]


class TestWindowRefreshEdgeCases:
    def test_stale_memo_dropped_after_mutation(self):
        from repro.core.dataspace import Dataspace
        from repro.core.views import View

        ds = Dataspace()
        view = View(imports=[P["x", ANY]])
        window = view.window(ds)
        assert window.count_matching(P["x", ANY]) == 0
        ds.insert(("x", 1))
        # candidates() refreshes the window implicitly
        assert window.refresh().count_matching(P["x", ANY]) == 1

    def test_footprint_tracks_retractions(self):
        from repro.core.dataspace import Dataspace
        from repro.core.views import View

        ds = Dataspace()
        inst = ds.insert(("x", 1))
        window = View(imports=[P["x", ANY]]).window(ds)
        assert window.footprint() == {inst.tid}
        ds.retract(inst.tid)
        assert window.footprint() == frozenset()
