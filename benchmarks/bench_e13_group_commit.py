"""E13 — footprint-guarded group commit: batch admission vs serial rounds.

The tentpole claim: when candidate transactions have pairwise-disjoint
footprints (communities that never read or write each other's keys), the
group-commit round admits *all* of them against one snapshot, so the round
count collapses toward the per-worker statement depth.  The honest baseline
is ``commit="serial"`` — one transaction per round, the strictly serial
execution the admitted batch must be equivalent to (``commit="live"``
already packs a round with mid-round mutations visible, which is exactly
the semantics group commit removes).

Shape asserts:

* disjoint communities — group needs **≥1.5× fewer rounds** than serial
  (measured: ~N× fewer for N workers), with zero conflicts and a full-width
  ``max_batch``, and every run is checked by the serial-replay validator;
* contended token — conflict admission degrades gracefully: one winner per
  round, losers re-queued (never aborted), final state identical to live
  execution.
"""

import pytest

from _helpers import attach, once
from repro.core.actions import assert_tuple
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import Query, exists
from repro.core.transactions import delayed
from repro.runtime.engine import Engine

WORKERS = 32
DEPTH = 3  # sequential takes per worker


def _community_engine(commit: str, workers: int = WORKERS, depth: int = DEPTH,
                      validate: str | None = None) -> Engine:
    """*workers* disjoint communities, each draining *depth* items of its key."""
    a = Var("a")
    worker = ProcessDefinition(
        "W",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                assert_tuple("done", Var("k"), a)
            )
            for __ in range(depth)
        ],
    )
    engine = Engine(definitions=[worker], seed=7, commit=commit, validate=validate)
    engine.assert_tuples([(k, d) for k in range(workers) for d in range(depth)])
    for k in range(workers):
        engine.start("W", (k,))
    return engine


def _contended_engine(commit: str, workers: int = 12,
                      validate: str | None = None) -> Engine:
    """*workers* takers all bumping one shared ``<tok, n>`` counter."""
    a = Var("a")
    worker = ProcessDefinition(
        "W",
        body=[
            delayed(exists(a).match(P["tok", a].retract())).then(
                assert_tuple("tok", a + 1)
            )
        ],
    )
    engine = Engine(definitions=[worker], seed=7, commit=commit, validate=validate)
    engine.assert_tuples([("tok", 0)])
    for __ in range(workers):
        engine.start("W")
    return engine


@pytest.mark.parametrize("commit", ["serial", "group", "live"])
def test_e13_disjoint_round_counts(benchmark, commit):
    def run():
        engine = _community_engine(commit)
        result = engine.run()
        assert result.completed
        assert engine.dataspace.count_matching(P["done", ANY, ANY]) == WORKERS * DEPTH
        return result

    result = once(benchmark, run)
    attach(
        benchmark,
        commit=commit,
        workers=WORKERS,
        depth=DEPTH,
        rounds=result.rounds,
        steps=result.steps,
        commits=result.commits,
        max_batch=result.max_batch,
        conflicts=result.conflicts,
    )


def test_e13_shape_group_collapses_rounds_1_5x(benchmark):
    def check():
        serial = _community_engine("serial").run()
        group = _community_engine("group", validate="serial").run()
        assert serial.completed and group.completed
        # the headline claim: ≥1.5× fewer rounds than the serial reference
        # (measured: roughly WORKERS× — one batch per statement depth)
        assert group.rounds * 1.5 <= serial.rounds, (group.rounds, serial.rounds)
        assert group.conflicts == 0
        assert group.max_batch == WORKERS
        assert group.commits == serial.commits == WORKERS * DEPTH
        return serial, group

    serial, group = once(benchmark, check)
    attach(
        benchmark,
        serial_rounds=serial.rounds,
        group_rounds=group.rounds,
        ratio=round(serial.rounds / group.rounds, 1),
        avg_batch=round(group.avg_batch, 2),
    )


def test_e13_shape_contention_degrades_gracefully(benchmark, monkeypatch):
    evaluations = [0]
    real_evaluate = Query.evaluate

    def counting(self, *args, **kwargs):
        evaluations[0] += 1
        return real_evaluate(self, *args, **kwargs)

    def check():
        group_engine = _contended_engine("group", validate="serial")
        live_engine = _contended_engine("live")
        group = group_engine.run()
        assert group.completed and live_engine.run().completed
        # losers are re-queued, never aborted: the counter reaches `workers`
        # either way, and conflicts collapse batches to one winner per round
        assert group_engine.dataspace.multiset() == live_engine.dataspace.multiset()
        assert group.conflicts > 0
        assert group.max_batch == 1
        assert 0.0 < group.conflict_rate < 1.0
        # A loser is decided on its read side and never evaluated: only
        # commits and conflict-free failures cost a query evaluation.  The
        # count is taken on a run without the serial replay, which
        # evaluates every commit once more.
        monkeypatch.delenv("SDL_VALIDATE", raising=False)
        unvalidated = _contended_engine("group")
        monkeypatch.setattr(Query, "evaluate", counting)
        counted = unvalidated.run()
        monkeypatch.undo()
        assert counted.commits == group.commits
        failures = unvalidated.trace.counters.failures
        assert evaluations[0] <= counted.commits + failures
        return group

    group = once(benchmark, check)
    attach(
        benchmark,
        conflicts=group.conflicts,
        conflict_rate=round(group.conflict_rate, 3),
        avg_batch=round(group.avg_batch, 2),
        rounds=group.rounds,
    )
