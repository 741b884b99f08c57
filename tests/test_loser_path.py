"""Recording-mode differential for the group-commit loser path.

A deferred loser builds its ``ConflictDetected`` event only when something
records it (``Trace.recording``: ``detail=True`` or an attached observer);
otherwise it bumps the counter ``Trace.emit`` would have bumped.  Whether
events are recorded must therefore be invisible to the run: the same
program and seed, run

* with counters only (``Trace(detail=False)``),
* with the full event history (``Trace(detail=True)``), and
* with counters only until round *r*, then with an observer attached,

gives the same ``RunResult`` counters, steps, rounds, final multiset and
next RNG draw, and the late observer receives exactly the events the
detailed run recorded after round *r*.  The programs are the contended
ones the loser path exists for: *k* tokens bumped by *m* takers *b* times
each, Sum2 under group commit, and the deferred replica whose carried
read side a sibling's ``let`` invalidates.
"""

from __future__ import annotations

from dataclasses import astuple

from hypothesis import given, settings, strategies as st

from repro.core.actions import assert_tuple
from repro.core.expressions import Var
from repro.core.patterns import P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed
from repro.programs.summation import sum2_definition
from repro.runtime.engine import Engine
from repro.runtime.events import ConflictDetected, Trace
from repro.workloads.arrays import phase_tagged_tuples
from tests.test_group_commit import make_let_between_rounds_engine

a = Var("a")
seeds = st.integers(min_value=0, max_value=2**32 - 1)
pauses = st.integers(min_value=1, max_value=12)

#: The ``RunResult`` counters the loser path feeds.  ``failures`` is not a
#: ``RunResult`` field: it is compared with every other trace counter.
COUNTERS = ("conflicts", "group_rounds", "batch_commits", "max_batch", "commits")


def token_engine(tokens, takers, bumps, seed, detail):
    taker = ProcessDefinition(
        "Taker",
        body=[
            delayed(exists(a).match(P["tok", a].retract())).then(
                assert_tuple("tok", a + 1)
            )
            for __ in range(bumps)
        ],
    )
    engine = Engine(
        definitions=[taker], seed=seed, commit="group", on_deadlock="return",
        trace=Trace(detail),
    )
    engine.assert_tuples([("tok", 0)] * tokens)
    for __ in range(takers):
        engine.start("Taker")
    return engine


def sum2_engine(log_n, seed, detail):
    engine = Engine(
        definitions=[sum2_definition()], seed=seed, commit="group",
        on_deadlock="return", trace=Trace(detail),
    )
    n = 2 ** log_n
    engine.assert_tuples(phase_tagged_tuples(list(range(1, n + 1))))
    for j in range(1, log_n + 1):
        for k in range(2 ** j, n + 1, 2 ** j):
            engine.start("Sum2", (k, j))
    return engine


def fingerprint(engine, result):
    return (
        result.reason,
        tuple(getattr(result, name) for name in COUNTERS),
        astuple(engine.trace.counters),
        result.steps,
        result.rounds,
        engine.dataspace.multiset(),
        engine.rng.random(),
    )


def three_ways(build, pause):
    """Fingerprints of the counters-only, detailed and late-observer runs,
    the detailed run's events and what the late observer received."""
    quiet = build(False)
    quiet_print = fingerprint(quiet, quiet.run())
    assert not quiet.trace.events

    detailed = build(True)
    detailed_print = fingerprint(detailed, detailed.run())

    observed_engine = build(False)
    first = observed_engine.run(max_rounds=pause)
    observed: list = []
    observed_engine.trace.observe(observed.append)
    result = first if first.reason != "round-limit" else observed_engine.run()
    observed_print = fingerprint(observed_engine, result)
    assert not observed_engine.trace.events
    return quiet_print, detailed_print, observed_print, detailed.trace.events, observed


def check(build, pause):
    quiet, detailed, late, events, observed = three_ways(build, pause)
    assert quiet == detailed == late
    # The late observer sees exactly the detailed run's events from the
    # first round after the pause on, conflict events included.
    assert observed == [event for event in events if event.round > pause]
    return detailed


class TestRecordingIsInvisible:
    @settings(deadline=None)
    @given(
        tokens=st.integers(min_value=1, max_value=3),
        takers=st.integers(min_value=2, max_value=8),
        bumps=st.integers(min_value=1, max_value=3),
        seed=seeds,
        pause=pauses,
    )
    def test_contended_tokens(self, tokens, takers, bumps, seed, pause):
        detailed = check(
            lambda detail: token_engine(tokens, takers, bumps, seed, detail), pause
        )
        assert detailed[1][COUNTERS.index("commits")] == takers * bumps

    @settings(deadline=None)
    @given(log_n=st.integers(min_value=2, max_value=4), seed=seeds, pause=pauses)
    def test_sum2_group(self, log_n, seed, pause):
        check(lambda detail: sum2_engine(log_n, seed, detail), pause)

    @settings(deadline=None)
    @given(pause=st.integers(min_value=1, max_value=8))
    def test_let_between_rounds(self, pause):
        detailed = check(
            lambda detail: make_let_between_rounds_engine(detail=detail), pause
        )
        assert detailed[0] == "completed"

    def test_contended_run_defers_losers_in_every_mode(self):
        # The differential is only worth something if losers are deferred:
        # 4 takers x 4 bumps of one token lose at least once per round.
        quiet, detailed, late, events, observed = three_ways(
            lambda detail: token_engine(1, 4, 4, 3, detail), 2
        )
        conflicts = COUNTERS.index("conflicts")
        assert quiet[1][conflicts] == detailed[1][conflicts] > 0
        assert any(isinstance(e, ConflictDetected) for e in observed)


class TestTraceCounting:
    def test_a_subclass_counts_as_its_base(self):
        class Annotated(ConflictDetected):
            __slots__ = ()

        trace = Trace()
        trace.emit(Annotated(1, 1, 2, 3))
        trace.emit(ConflictDetected(1, 1, 2, 3))
        assert trace.counters.conflicts == 2

    def test_recording_follows_detail_and_observers(self):
        trace = Trace()
        assert not trace.recording
        detach = trace.observe(lambda event: None)
        assert trace.recording
        detach()
        assert not trace.recording
        assert Trace(detail=True).recording
