"""Group-commit rounds: conflict admission, counters, fairness, validation."""

import pytest

from repro.core.actions import assert_tuple, let
from repro.core.constructs import guarded, replicate
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var, variables
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import Query, exists
from repro.core.transactions import delayed, immediate
from repro.errors import EngineError, SDLError
from repro.runtime import rounds
from repro.runtime.commit import (
    Footprint,
    WriteRecord,
    conflicts,
    first_conflict,
    validate_serial_equivalence,
)
from repro.runtime.engine import Engine
from repro.runtime.events import (
    ConflictDetected,
    RoundCommitted,
    Trace,
    TxnCommitted,
    TxnFailed,
)
from repro.runtime.wakeup import AtomWatcher


# ---------------------------------------------------------------------------
# the conflict relation (runtime/commit.py) in isolation
# ---------------------------------------------------------------------------


def fp(pid=1, reads_all=False, watchers=(), retracts=(), writes=()):
    return Footprint(pid, reads_all, watchers, frozenset(retracts), writes)


class TestWriteRecord:
    def test_known_positions_discriminate(self):
        write = WriteRecord(2, {0: "job", 1: 7})
        assert write.touches(AtomWatcher(2, ((0, "job"),)))
        assert not write.touches(AtomWatcher(2, ((0, "other"),)))
        assert not write.touches(AtomWatcher(3, ((0, "job"),)))

    def test_unknown_position_matches_anything(self):
        write = WriteRecord(2, {0: "job"})  # position 1 unknown
        assert write.touches(AtomWatcher(2, ((0, "job"), (1, 99))))

    def test_probeless_watcher_is_arity_granular(self):
        assert WriteRecord(3, {}).touches(AtomWatcher(3))
        assert not WriteRecord(3, {}).touches(AtomWatcher(2))


class TestConflictRelation:
    def test_read_write_conflict(self):
        earlier = fp(pid=1, writes=(WriteRecord(2, {0: "x"}),))
        later = fp(pid=2, watchers=(AtomWatcher(2, ((0, "x"),)),))
        assert conflicts(later, earlier)

    def test_disjoint_keys_commute(self):
        earlier = fp(pid=1, writes=(WriteRecord(2, {0: "x"}),))
        later = fp(pid=2, watchers=(AtomWatcher(2, ((0, "y"),)),))
        assert not conflicts(later, earlier)

    def test_write_write_on_shared_tid(self):
        tid = ("fake-tid",)
        earlier = fp(pid=1, retracts=[tid])
        later = fp(pid=2, retracts=[tid])
        assert conflicts(later, earlier)

    def test_assert_assert_is_not_a_conflict(self):
        # Insertions into a multiset commute: two writers asserting under
        # the same key must both be admitted (no read side, no shared tid).
        earlier = fp(pid=1, writes=(WriteRecord(2, {0: "done"}),))
        later = fp(pid=2, writes=(WriteRecord(2, {0: "done"}),))
        assert not conflicts(later, earlier)

    def test_reads_all_conflicts_with_any_write(self):
        earlier = fp(pid=1, writes=(WriteRecord(5, {}),))
        later = fp(pid=2, reads_all=True)
        assert conflicts(later, earlier)
        assert not conflicts(later, fp(pid=3))  # ... but not with a pure read

    def test_first_conflict_reports_the_winner(self):
        a = fp(pid=1, writes=(WriteRecord(2, {0: "x"}),))
        b = fp(pid=2, writes=(WriteRecord(2, {0: "y"}),))
        later = fp(pid=3, watchers=(AtomWatcher(2, ((0, "y"),)),))
        assert first_conflict([a, b], later) is b
        assert first_conflict([a], fp(pid=4)) is None


# ---------------------------------------------------------------------------
# engine behaviour under commit="group"
# ---------------------------------------------------------------------------


def make_disjoint_engine(n=8, **kwargs):
    a = Var("a")
    worker = ProcessDefinition(
        "W",
        params=("k",),
        body=[
            delayed(exists(a).match(P[Var("k"), a].retract())).then(
                assert_tuple("done", Var("k"), a)
            )
        ],
    )
    engine = Engine(definitions=[worker], seed=1, **kwargs)
    engine.assert_tuples([(k, k * 10) for k in range(n)])
    for k in range(n):
        engine.start("W", (k,))
    return engine


def make_contended_engine(workers=6, bumps=1, **kwargs):
    a = Var("a")
    worker = ProcessDefinition(
        "W",
        body=[
            delayed(exists(a).match(P["tok", a].retract())).then(
                assert_tuple("tok", a + 1)
            )
            for __ in range(bumps)
        ],
    )
    engine = Engine(definitions=[worker], seed=3, **kwargs)
    engine.assert_tuples([("tok", 0)])
    for _ in range(workers):
        engine.start("W")
    return engine


class TestDisjointCommunities:
    def test_whole_community_commits_in_one_batch(self):
        engine = make_disjoint_engine(8, commit="group", validate="serial")
        result = engine.run()
        assert result.completed
        assert result.max_batch == 8
        assert result.conflicts == 0
        multiset = engine.dataspace.multiset()
        assert all(("done", k, k * 10) in multiset for k in range(8))

    def test_group_needs_fewer_rounds_than_serial(self):
        serial = make_disjoint_engine(8, commit="serial").run()
        group = make_disjoint_engine(8, commit="group").run()
        assert group.rounds * 2 <= serial.rounds
        assert group.commits == serial.commits

    def test_serial_mode_is_one_item_per_round(self):
        result = make_disjoint_engine(4, commit="serial").run()
        assert result.rounds == result.steps


class TestContention:
    def test_final_state_matches_live_execution(self):
        group = make_contended_engine(6, commit="group", validate="serial")
        live = make_contended_engine(6, commit="live")
        assert group.run().completed and live.run().completed
        assert group.dataspace.multiset() == live.dataspace.multiset()
        assert group.dataspace.multiset() == {("tok", 6): 1}

    def test_conflicts_are_detected_and_batches_collapse(self):
        engine = make_contended_engine(6, commit="group")
        result = engine.run()
        assert result.conflicts > 0
        assert result.max_batch == 1  # every round admits exactly one taker
        assert 0.0 < result.conflict_rate < 1.0
        assert 0.0 < result.avg_batch <= 1.0

    def test_losers_are_requeued_not_aborted(self):
        # Weak fairness: every one of the 6 contending workers eventually
        # takes the token exactly once (no worker starves or aborts).
        engine = make_contended_engine(6, commit="group", trace=Trace(detail=True))
        engine.run()
        by_pid = engine.trace.commits_by_pid()
        worker_pids = [p.pid for p in engine.society.all_instances()]
        assert all(by_pid.get(pid, 0) == 1 for pid in worker_pids)


class TestGroupEvents:
    def test_round_committed_and_conflict_events(self):
        engine = make_contended_engine(3, commit="group", trace=Trace(detail=True))
        engine.run()
        rounds = list(engine.trace.of_kind(RoundCommitted))
        assert rounds, "group rounds must emit RoundCommitted"
        assert sum(r.admitted for r in rounds) == engine.trace.counters.commits
        clashes = list(engine.trace.of_kind(ConflictDetected))
        assert clashes
        # every loser collided with a pid that actually committed
        committed = set(engine.trace.commits_by_pid())
        assert all(c.winner in committed for c in clashes)

    def test_counters_flow_to_run_result(self):
        engine = make_contended_engine(4, commit="group")
        result = engine.run()
        counters = engine.trace.counters
        assert result.group_rounds == counters.group_rounds > 0
        assert result.batch_commits == counters.batch_commits == result.commits
        assert result.conflicts == counters.conflicts


class TestReadSideAdmission:
    """A loser is decided on its read side, before it is evaluated."""

    def test_only_survivors_are_evaluated(self, monkeypatch):
        # SDL_VALIDATE=serial would replay every admitted transaction
        # through Query.evaluate as well; this test counts admission only.
        monkeypatch.delenv("SDL_VALIDATE", raising=False)
        calls = [0]
        real = Query.evaluate

        def counting(self, *args, **kwargs):
            calls[0] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Query, "evaluate", counting)
        engine = make_contended_engine(
            8, bumps=4, commit="group", trace=Trace(detail=True)
        )
        result = engine.run()
        assert result.completed and result.commits == 32
        assert result.conflicts > result.commits  # most candidates lose
        failures = len(list(engine.trace.of_kind(TxnFailed)))
        assert calls[0] == result.commits + failures

    def test_every_loser_names_its_rounds_first_admitted(self):
        engine = make_contended_engine(
            8, bumps=4, commit="group", trace=Trace(detail=True)
        )
        engine.run()
        first_admitted: dict[int, int] = {}
        for event in engine.trace.of_kind(TxnCommitted):
            first_admitted.setdefault(event.round, event.pid)
        clashes = list(engine.trace.of_kind(ConflictDetected))
        assert clashes
        assert all(c.winner == first_admitted[c.round] for c in clashes)


def make_let_between_rounds_engine(detail=True):
    """A deferred replica whose scope a sibling replica's ``let`` changes.

    Round 3 (fifo order): Q asserts ``<cell, 0, 5>`` and ``<ping>``; R's
    bump reads ``<ping>`` and the reader replica reads ``<cell, 0, *>``, so
    both lose to Q; between them the ``let`` replica rebinds ``x`` to 1.
    Round 4: R's bump leads, retracting ``<cell, 1, 7>``.  The reader now
    reads ``<cell, 1, *>`` and must lose to it again: its read side from
    round 3 (``<cell, 0, *>``) no longer describes it.
    """
    a, c, x = Var("a"), Var("c"), Var("x")
    main = ProcessDefinition("M", params=("x",), body=[replicate(
        guarded(
            immediate(exists().match(P["goB"].retract())),
            immediate().then(let("x", 1)),
        ),
        guarded(
            immediate(exists().match(P["goA"].retract())),
            delayed(exists(a).match(P["cell", x, a].retract())).then(
                assert_tuple("seen", a)
            ),
        ),
    )])
    writer = ProcessDefinition("Q", body=[
        immediate(), immediate(),
        immediate().then(assert_tuple("cell", 0, 5), assert_tuple("ping")),
    ])
    bumper = ProcessDefinition("R", body=[
        immediate(), immediate(),
        delayed(exists(c).match(P["ping"].retract(), P["cell", 1, c].retract()))
        .then(assert_tuple("cell", 1, c + 1)),
    ])
    engine = Engine(
        definitions=[main, writer, bumper], policy="fifo", commit="group",
        validate="serial", trace=Trace(detail=detail),
    )
    engine.assert_tuples([("goA",), ("goB",), ("cell", 1, 7)])
    engine.start("M", (0,))
    engine.start("Q")
    engine.start("R")
    return engine


class TestLoserReadSideCarry:
    def test_carry_is_rederived_after_a_sibling_let(self):
        engine = make_let_between_rounds_engine()
        assert engine.run().completed
        assert engine.dataspace.multiset() == {("cell", 0, 5): 1, ("seen", 8): 1}
        clashes = [(c.round, c.pid, c.winner)
                   for c in engine.trace.of_kind(ConflictDetected)]
        assert clashes == [(3, 3, 2), (3, 1, 2), (4, 1, 3)]

    def test_a_carry_keyed_on_the_task_alone_goes_stale(self, monkeypatch):
        # The mutation the identity rule guards against: reuse whatever
        # the task carried, ignoring the scope.  The reader replica then
        # probes with <cell, 0, *>, passes, and double-retracts <cell, 1, 7>.
        real = rounds._reads_for

        def task_keyed(carried, txn, process, scope):
            if carried is not None:
                return carried[2], carried[3]
            return real(None, txn, process, scope)

        monkeypatch.setattr(rounds, "_reads_for", task_keyed)
        with pytest.raises(SDLError):
            make_let_between_rounds_engine().run()


class TestFailedCandidateParking:
    def test_a_failed_candidate_parks_on_its_read_side(self, monkeypatch):
        # One subscription per evaluated candidate: a delayed candidate
        # whose snapshot query fails parks on the watchers its read side
        # already derived instead of deriving them a second time.
        from repro.programs.summation import run_sum2
        from repro.runtime import commit, executor

        calls = {"derive": 0, "read_side": 0}

        def counting(key, real):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            return wrapper

        for module in (commit, executor):
            monkeypatch.setattr(
                module, "derive_subscription",
                counting("derive", module.derive_subscription),
            )
        monkeypatch.setattr(rounds, "read_side", counting("read_side", rounds.read_side))
        run = run_sum2(list(range(16)), seed=3, commit="group", wake_filter="keys")
        assert run.total == sum(range(16))
        assert run.engine.trace.counters.failures > 0
        assert calls["derive"] == calls["read_side"] > 0


class TestValidateSerial:
    def test_clean_batches_pass_validation(self):
        engine = make_disjoint_engine(8, commit="group", validate="serial")
        assert engine.run().completed  # no EngineError raised

    def test_validator_rejects_a_non_serializable_batch(self):
        # Hand the validator a "batch" in which both transactions claim the
        # single <tok> instance — exactly what conflict admission prevents.
        a = Var("a")
        taker = ProcessDefinition(
            "T",
            body=[
                delayed(exists(a).match(P["tok", a].retract())).then(
                    assert_tuple("got", a)
                )
            ],
        )
        engine = Engine(definitions=[taker], commit="group")
        engine.assert_tuples([("tok", 0)])
        p1 = engine.start("T")
        p2 = engine.start("T")
        space = Dataspace()
        space.insert_many([("tok", 0)])
        txn = taker.body.body[0].transaction
        window = p1.view.window(space, p1.params)
        result = txn.query.evaluate(window.refresh(), p1.scope(), None)
        pre_rows = [("tok", 0)]
        # claim both committed against the same snapshot match
        with pytest.raises(EngineError, match="serial equivalence"):
            validate_serial_equivalence(
                pre_rows,
                [(p1, txn, result), (p2, txn, result)],
                {("got", 0): 2},  # what a double-commit would produce
                round_count=1,
            )


class TestEngineOptions:
    def test_unknown_commit_mode_rejected(self):
        with pytest.raises(EngineError, match="commit"):
            Engine(commit="optimistic")

    def test_unknown_validate_mode_rejected(self):
        with pytest.raises(EngineError, match="validate"):
            Engine(validate="always")

    def test_env_var_defaults(self, monkeypatch):
        monkeypatch.setenv("SDL_COMMIT", "group")
        monkeypatch.setenv("SDL_VALIDATE", "serial")
        engine = Engine()
        assert engine.commit == "group"
        assert engine.validate == "serial"
        # explicit arguments beat the environment
        assert Engine(commit="live").commit == "live"

    def test_default_mode_is_live(self, monkeypatch):
        monkeypatch.delenv("SDL_COMMIT", raising=False)
        monkeypatch.delenv("SDL_VALIDATE", raising=False)
        assert Engine().commit == "live"
        assert Engine().validate is None


class TestImmediateAndSelectionsUnderGroup:
    def test_failed_immediate_still_skips(self):
        a = Var("a")
        proc = ProcessDefinition(
            "P",
            body=[
                immediate(exists(a).match(P["missing", a].retract())).then(
                    assert_tuple("found", a)
                ),
                immediate().then(assert_tuple("after",)),
            ],
        )
        engine = Engine(definitions=[proc], commit="group", validate="serial")
        engine.start("P")
        assert engine.run().completed
        multiset = engine.dataspace.multiset()
        assert ("after",) in multiset
        assert not any(v[0] == "found" for v in multiset)

    def test_replication_interoperates_with_group_rounds(self):
        a = Var("a")
        from repro.core.constructs import guarded, replicate

        proc = ProcessDefinition(
            "P",
            body=[
                replicate(
                    guarded(
                        immediate(exists(a).match(P["in", a].retract())).then(
                            assert_tuple("out", a)
                        )
                    )
                )
            ],
        )
        engine = Engine(definitions=[proc], commit="group", validate="serial")
        engine.assert_tuples([("in", i) for i in range(10)])
        engine.start("P")
        assert engine.run().completed
        assert engine.dataspace.count_matching(P["out", ANY]) == 10


# ---------------------------------------------------------------------------
# a limit is a pause: the round already taken, and the losers, are kept
# ---------------------------------------------------------------------------


def make_sum3_engine(**kwargs):
    from repro.programs.summation import array_tuples, sum3_definition

    engine = Engine(definitions=[sum3_definition()], seed=3, **kwargs)
    engine.assert_tuples(array_tuples(list(range(1, 65))))
    engine.start("Sum3")
    return engine


def make_token_ring_engine(**kwargs):
    """Four takers, four bumps each, of the one contended token."""
    return make_contended_engine(4, bumps=4, **kwargs)


class TestLimitThenResume:
    @pytest.mark.parametrize("make", [make_sum3_engine, make_token_ring_engine])
    @pytest.mark.parametrize(
        "limit, reason", [("max_rounds", "round-limit"), ("max_steps", "step-limit")]
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_resumed_group_run_finishes_the_uninterrupted_run(self, make, limit, reason, k):
        # The round is taken from the scheduler before the limit is
        # checked; it (with the deferred conflict losers leading it) used
        # to be dropped on return, so the resumed run found nothing ready
        # and reported ``completed`` with the work undone.
        whole = make(commit="group")
        expected = whole.run()
        assert expected.completed

        engine = make(commit="group", on_deadlock="return")
        first = engine.run(**{limit: k})
        assert first.reason == reason
        assert first.commits < expected.commits
        second = engine.run()
        assert second.completed
        assert engine.dataspace.multiset() == whole.dataspace.multiset()
        # Not merely the same outcome: the same schedule.
        assert (second.commits, second.rounds, second.steps) == (
            expected.commits, expected.rounds, expected.steps,
        )

    @pytest.mark.parametrize("make", [make_sum3_engine, make_token_ring_engine])
    def test_step_limit_keeps_the_popped_item_in_live_mode(self, make):
        whole = make(commit="live")
        expected = whole.run()
        engine = make(commit="live", on_deadlock="return")
        assert engine.run(max_steps=1).reason == "step-limit"
        second = engine.run()
        assert second.completed
        assert engine.dataspace.multiset() == whole.dataspace.multiset()
        assert (second.commits, second.steps) == (expected.commits, expected.steps)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
