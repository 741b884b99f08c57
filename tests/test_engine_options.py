"""Engine and dataspace configuration options (ablation switches included)."""

import pytest

from repro.core.actions import assert_tuple
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed, immediate
from repro.errors import EngineError, ExportViolation
from repro.runtime.engine import Engine
from repro.runtime.events import Trace


class TestUnindexedDataspace:
    def test_same_results_without_index(self):
        a = Var("a")
        for indexed in (True, False):
            ds = Dataspace(indexed=indexed)
            ds.insert_many([("year", y) for y in (85, 88, 90)])
            found = sorted(i.values[1] for i in ds.find_matching(P["year", a]))
            assert found == [85, 88, 90]
            assert ds.candidates(P["nothing", ANY]) is not None

    def test_engine_runs_on_unindexed_space(self):
        a = Var("a")
        harvest = ProcessDefinition(
            "Harvest",
            body=[
                immediate(exists(a).match(P["year", a].retract())).then(
                    assert_tuple("found", a)
                )
            ],
        )
        ds = Dataspace(indexed=False)
        engine = Engine(dataspace=ds, definitions=[harvest], seed=1)
        engine.assert_tuples([("year", 90)])
        engine.start("Harvest")
        assert engine.run().completed
        assert ("found", 90) in ds.multiset()

    def test_retract_on_unindexed_space(self):
        ds = Dataspace(indexed=False)
        inst = ds.insert(("x", 1))
        ds.retract(inst.tid)
        assert len(ds) == 0


class TestWakeFilterModes:
    def _run(self, wake_filter):
        a = Var("a")
        waiter = ProcessDefinition(
            "Waiter",
            body=[delayed(exists(a).match(P["sig", a])).then(assert_tuple("woke", a))],
        )
        noise = ProcessDefinition(
            "Noise",
            body=[
                immediate().then(assert_tuple("n", 1, 2, 3)),
                immediate().then(assert_tuple("sig", 9)),
            ],
        )
        engine = Engine(
            definitions=[waiter, noise], seed=1, policy="fifo",
            wake_filter=wake_filter, trace=Trace(True),
        )
        engine.start("Waiter")
        engine.start("Noise")
        assert engine.run().completed
        return engine.trace.counters.wakeups

    def test_all_mode_wakes_more(self):
        assert self._run("all") > self._run("arity")

    def test_both_modes_complete(self):
        for mode in ("arity", "all"):
            assert self._run(mode) >= 1

    def test_bad_mode_rejected(self):
        with pytest.raises(EngineError):
            Engine(wake_filter="psychic")


class TestExportPolicies:
    def _definitions(self):
        return [
            ProcessDefinition(
                "Leaky",
                exports=[P["allowed", ANY]],
                body=[
                    immediate().then(
                        assert_tuple("allowed", 1), assert_tuple("forbidden", 1)
                    )
                ],
            )
        ]

    def test_error_policy_raises(self):
        engine = Engine(definitions=self._definitions(), seed=1)
        engine.start("Leaky")
        with pytest.raises(ExportViolation):
            engine.run()

    def test_drop_policy_filters(self):
        engine = Engine(definitions=self._definitions(), seed=1, export_policy="drop")
        engine.start("Leaky")
        assert engine.run().completed
        assert engine.dataspace.multiset() == {("allowed", 1): 1}


class TestExternalDataspace:
    def test_engine_accepts_prebuilt_dataspace(self):
        ds = Dataspace()
        ds.insert(("pre", 1))
        engine = Engine(dataspace=ds, definitions=[ProcessDefinition("Nop", body=[immediate()])])
        engine.start("Nop")
        engine.run()
        assert ("pre", 1) in ds.multiset()

    def test_two_engines_can_share_definitions(self):
        nop = ProcessDefinition("Nop", body=[immediate().then(assert_tuple("ran", 1))])
        for seed in (1, 2):
            engine = Engine(definitions=[nop], seed=seed)
            engine.start("Nop")
            assert engine.run().completed
