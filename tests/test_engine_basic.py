"""Engine tests: immediate transactions, sequencing, spawning, termination."""

import inspect

import pytest

from repro.core.actions import ABORT, EXIT, assert_tuple, let, spawn
from repro.core.constructs import guarded, repeat, select, seq
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists, no
from repro.core.transactions import immediate
from repro.errors import EngineError, StepLimitExceeded, UnknownProcessError
from repro.runtime.engine import Engine
from repro.runtime.events import Trace


def single(body, rows=(), seed=0, defs=(), detail=False, **engine_kw):
    """Run one anonymous process with *body* over initial tuples *rows*."""
    main = ProcessDefinition("Main", body=body)
    engine = Engine(
        definitions=[main, *defs], seed=seed, trace=Trace(detail), **engine_kw
    )
    engine.assert_tuples(rows)
    engine.start("Main")
    result = engine.run()
    return engine, result


class TestSequencing:
    def test_statements_execute_in_order(self):
        a = Var("a")
        engine, result = single([
            immediate().then(assert_tuple("step", 1)),
            immediate(exists(a).match(P["step", a].retract())).then(
                assert_tuple("step", a + 1)
            ),
        ])
        assert result.completed
        assert engine.dataspace.multiset() == {("step", 2): 1}

    def test_failed_immediate_acts_as_skip(self):
        engine, result = single([
            immediate(exists().match(P["missing", ANY])).then(assert_tuple("no", 1)),
            immediate().then(assert_tuple("yes", 1)),
        ])
        assert engine.dataspace.multiset() == {("yes", 1): 1}

    def test_lets_persist_across_statements(self):
        engine, result = single([
            immediate().then(let("N", 20)),
            immediate().then(assert_tuple("x", Var("N") + 1)),
        ])
        assert ("x", 21) in engine.dataspace.multiset()

    def test_exit_terminates_behavior(self):
        engine, result = single([
            immediate().then(assert_tuple("a", 1), EXIT),
            immediate().then(assert_tuple("b", 1)),
        ])
        assert ("a", 1) in engine.dataspace.multiset()
        assert ("b", 1) not in engine.dataspace.multiset()

    def test_abort_terminates_process(self):
        engine, result = single([
            immediate().then(ABORT),
            immediate().then(assert_tuple("never", 1)),
        ])
        assert result.completed
        assert len(engine.dataspace) == 0
        finished = [e for e in engine.trace.events]  # counters-only trace
        assert engine.society.get(1).status.value == "aborted"

    def test_nested_sequence(self):
        engine, __ = single([
            seq(
                immediate().then(assert_tuple("a", 1)),
                immediate().then(assert_tuple("b", 1)),
            ),
            immediate().then(assert_tuple("c", 1)),
        ])
        assert len(engine.dataspace) == 3


class TestSpawning:
    def _worker(self):
        k = Var("k")
        return ProcessDefinition(
            "Worker", params=("k",), body=[immediate().then(assert_tuple("did", k))]
        )

    def test_spawn_runs_new_process(self):
        engine, result = single(
            [immediate().then(spawn("Worker", 7))], defs=[self._worker()]
        )
        assert ("did", 7) in engine.dataspace.multiset()
        assert engine.society.total_spawned == 2

    def test_spawn_per_match_under_forall(self):
        from repro.core.query import forall

        a = Var("a")
        engine, __ = single(
            [
                immediate(forall(a).match(P["seed", a].retract())).then(
                    spawn("Worker", a)
                )
            ],
            rows=[("seed", i) for i in range(4)],
            defs=[self._worker()],
        )
        assert engine.dataspace.count_matching(P["did", ANY]) == 4

    def test_unknown_process_raises(self):
        with pytest.raises(UnknownProcessError):
            single([immediate().then(spawn("Ghost"))])

    def test_tuples_survive_creator_termination(self):
        # "tuples ... can survive the termination of the creating process"
        engine, __ = single(
            [immediate().then(spawn("Worker", 1))], defs=[self._worker()]
        )
        assert engine.society.get(1).status.value == "terminated"
        assert ("did", 1) in engine.dataspace.multiset()

    def test_owner_recorded_on_spawned_asserts(self):
        engine, __ = single(
            [immediate().then(spawn("Worker", 1))], defs=[self._worker()]
        )
        inst = engine.dataspace.find_matching(P["did", 1])[0]
        assert inst.owner == 2  # the worker's pid, not the spawner's


class TestLimitsAndDeterminism:
    def test_step_limit_raises(self):
        a = Var("a")
        looper = [
            repeat(
                guarded(
                    immediate(exists(a).match(P["x", a].retract())).then(
                        assert_tuple("x", a + 1)
                    )
                )
            )
        ]
        engine = Engine(definitions=[ProcessDefinition("Main", body=looper)], seed=1)
        engine.assert_tuples([("x", 0)])
        engine.start("Main")
        with pytest.raises(StepLimitExceeded):
            engine.run(max_steps=2_000)
        # The 10**6-step run at this default is a CI soak step
        # (benchmarks/soak_step_limit.py), which also asserts flat RSS.
        assert inspect.signature(Engine.run).parameters["max_steps"].default == 1_000_000

    def test_same_seed_same_run(self):
        a = Var("a")
        body = lambda: [
            immediate(exists(a).match(P["pick", a].retract())).then(
                assert_tuple("chose", a)
            )
        ]
        rows = [("pick", i) for i in range(20)]
        e1, __ = single(body(), rows=rows, seed=5)
        e2, __ = single(body(), rows=rows, seed=5)
        assert e1.dataspace.snapshot() == e2.dataspace.snapshot()

    def test_different_seeds_can_differ(self):
        a = Var("a")
        chosen = set()
        for seed in range(30):
            body = [
                immediate(exists(a).match(P["pick", a].retract())).then(
                    assert_tuple("chose", a)
                )
            ]
            engine, __ = single(body, rows=[("pick", i) for i in range(10)], seed=seed)
            chosen.add(engine.dataspace.find_matching(P["chose", ANY])[0].values[1])
        assert len(chosen) > 2

    def test_bad_policy_rejected(self):
        with pytest.raises(EngineError):
            Engine(policy="lifo")

    def test_fifo_policy_runs(self):
        engine, result = single(
            [immediate().then(assert_tuple("x", 1))], policy="fifo"
        )
        assert result.completed

    def test_run_result_fields(self):
        engine, result = single([immediate().then(assert_tuple("x", 1))])
        assert result.completed
        assert result.steps >= 1
        assert result.rounds >= 1
        assert result.commits == 1
        assert result.dataspace_size == 1
        assert result.live_processes == 0


class TestRepetitionAndSelection:
    def test_repetition_drains_tuples(self):
        a = Var("a")
        engine, __ = single(
            [
                repeat(
                    guarded(
                        immediate(exists(a).match(P["n", a].retract())).then(
                            assert_tuple("done", a)
                        )
                    )
                )
            ],
            rows=[("n", i) for i in range(5)],
        )
        assert engine.dataspace.count_matching(P["done", ANY]) == 5
        assert engine.dataspace.count_matching(P["n", ANY]) == 0

    def test_repetition_exit_action(self):
        a = Var("a")
        engine, __ = single(
            [
                repeat(
                    guarded(
                        immediate(exists(a).match(P["n", a].retract()).such_that(a == 3))
                        .then(EXIT)
                    ),
                    guarded(
                        immediate(exists(a).match(P["n", a].retract())).then(
                            assert_tuple("done", a)
                        )
                    ),
                ),
                immediate().then(assert_tuple("after", 1)),
            ],
            rows=[("n", i) for i in range(5)],
            seed=3,
        )
        # the exit fired at n=3; the repetition ended but the process continued
        assert ("after", 1) in engine.dataspace.multiset()

    def test_selection_picks_exactly_one(self):
        engine, __ = single(
            [
                select(
                    guarded(immediate().then(assert_tuple("left", 1))),
                    guarded(immediate().then(assert_tuple("right", 1))),
                )
            ],
            seed=2,
        )
        assert len(engine.dataspace) == 1

    def test_selection_failure_is_skip(self):
        engine, result = single(
            [
                select(
                    guarded(immediate(exists().match(P["no", ANY])).then(assert_tuple("a", 1))),
                ),
                immediate().then(assert_tuple("b", 1)),
            ]
        )
        assert engine.dataspace.multiset() == {("b", 1): 1}

    def test_selection_branch_body_runs(self):
        engine, __ = single(
            [
                select(
                    guarded(
                        immediate().then(assert_tuple("guard", 1)),
                        immediate().then(assert_tuple("body", 1)),
                    ),
                )
            ]
        )
        assert engine.dataspace.count_matching(P["body", 1]) == 1

    def test_arbitrary_branch_choice_across_seeds(self):
        sides = set()
        for seed in range(20):
            engine, __ = single(
                [
                    select(
                        guarded(immediate().then(assert_tuple("left", 1))),
                        guarded(immediate().then(assert_tuple("right", 1))),
                    )
                ],
                seed=seed,
            )
            sides.add(next(iter(engine.dataspace.multiset()))[0])
        assert sides == {"left", "right"}
