"""Unit tests for transactions and atomic execution (repro.core.transactions)."""

import pytest

from repro.core.actions import ABORT, EXIT, CallPython, assert_tuple, let, spawn
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var, variables
from repro.core.patterns import ANY, P
from repro.core.query import Membership, exists, forall
from repro.core.transactions import (
    Control,
    Mode,
    apply,
    consensus,
    delayed,
    execute,
    immediate,
    settle,
    stage,
    TransactionOutcome,
)
from repro.core.views import FULL_VIEW, View, import_rule
from repro.errors import ExportViolation


def run(txn, ds, params=None, view=FULL_VIEW, owner=1, **kw):
    window = view.window(ds, params or {})
    return execute(txn, window, params or {}, owner, **kw)


@pytest.fixture
def years():
    ds = Dataspace()
    ds.insert_many([("year", y) for y in (85, 87, 88, 90)])
    return ds


class TestBuilders:
    def test_modes(self):
        assert immediate().build().mode is Mode.IMMEDIATE
        assert delayed().build().mode is Mode.DELAYED
        assert consensus().build().mode is Mode.CONSENSUS

    def test_blocking_classification(self):
        assert not immediate().build().is_blocking()
        assert delayed().build().is_blocking()
        assert consensus().build().is_blocking()

    def test_label_and_with_actions(self):
        txn = immediate().labeled("t").build()
        assert txn.label == "t"
        more = txn.with_actions(EXIT)
        assert len(more.actions) == 1
        assert more.relabel("u").label == "u"

    def test_builder_accepts_query_builder(self, abc):
        a, _, _ = abc
        txn = immediate(exists(a).match(P["x", a])).build()
        assert txn.query.variables == ("a",)

    def test_repr_tags(self):
        assert "->" in repr(immediate().build())
        assert "=>" in repr(delayed().build())
        assert "^^" in repr(consensus().build())


class TestPaperTransaction:
    def test_section_2_2_immediate(self, years):
        """∃α: <year,α>↑ : α > 87 → let N = α, (found, α)"""
        a = Var("a")
        txn = (
            immediate(exists(a).match(P["year", a].retract()).such_that(a > 87))
            .then(let("N", a), assert_tuple("found", a))
            .build()
        )
        outcome = run(txn, years)
        assert outcome.success
        n = outcome.lets["N"]
        assert n in (88, 90)
        assert years.count_matching(P["found", n]) == 1
        assert years.count_matching(P["year", n]) == 0
        # atomic: exactly one retraction, one assertion
        assert len(outcome.retracted) == 1
        assert len(outcome.asserted) == 1

    def test_failed_query_has_no_effect(self, years):
        a = Var("a")
        txn = (
            immediate(exists(a).match(P["year", a].retract()).such_that(a > 99))
            .then(assert_tuple("found", a))
            .build()
        )
        before = years.snapshot()
        outcome = run(txn, years)
        assert not outcome.success
        assert years.snapshot() == before


class TestExecuteSemantics:
    def test_pure_assertion(self, space):
        txn = immediate().then(assert_tuple("greeting", "hello")).build()
        outcome = run(txn, space)
        assert outcome.success
        assert space.multiset() == {("greeting", "hello"): 1}

    def test_owner_stamped_on_asserts(self, space):
        txn = immediate().then(assert_tuple("x", 1)).build()
        outcome = run(txn, space, owner=7)
        assert outcome.asserted[0].owner == 7

    def test_let_uses_previous_lets(self, space):
        txn = (
            immediate()
            .then(let("N", 5), let("M", Var("N") + 1), assert_tuple("x", Var("M")))
            .build()
        )
        run(txn, space)
        assert ("x", 6) in space.multiset()

    def test_spawn_recorded_not_executed(self, years):
        a = Var("a")
        txn = (
            immediate(exists(a).match(P["year", a]))
            .then(spawn("Statistics", a))
            .build()
        )
        outcome = run(txn, years)
        assert outcome.spawned[0][0] == "Statistics"
        assert outcome.spawned[0][1][0] in (85, 87, 88, 90)

    def test_control_actions(self, space):
        assert run(immediate().then(EXIT).build(), space).control is Control.EXIT
        assert run(immediate().then(ABORT).build(), space).control is Control.ABORT
        assert run(immediate().build(), space).control is Control.NONE

    def test_callback_sees_bindings(self, years):
        seen = []
        a = Var("a")
        txn = (
            immediate(exists(a).match(P["year", 90], P["year", a]).such_that(a < 90))
            .then(CallPython(seen.append))
            .build()
        )
        outcome = run(txn, years)
        assert outcome.success
        assert seen[0]["a"] < 90

    def test_callbacks_run_after_apply_in_action_order(self, years):
        seen = []
        a = Var("a")
        txn = (
            immediate(forall(a).match(P["year", a].retract()).such_that(a > 87))
            .then(
                CallPython(lambda env: seen.append(
                    ("first", years.count_matching(P["got", ANY]), len(years))
                )),
                assert_tuple("got", a),
                CallPython(lambda env: seen.append(("second", env["a"]))),
            )
            .build()
        )
        run(txn, years)
        # Per match, in action order, once the whole effect is applied.
        assert [entry[0] for entry in seen] == ["first", "first", "second", "second"]
        assert seen[:2] == [("first", 2, 4)] * 2
        assert sorted(entry[1] for entry in seen[2:]) == [88, 90]

    def test_forall_actions_run_per_match(self, years):
        a = Var("a")
        txn = (
            immediate(forall(a).match(P["year", a].retract()).such_that(a >= 87))
            .then(assert_tuple("seen", a))
            .build()
        )
        outcome = run(txn, years)
        assert outcome.match_count == 3
        assert years.count_matching(P["seen", ANY]) == 3
        assert years.count_matching(P["year", ANY]) == 1

    def test_reads_counted(self, years):
        a, b = variables("a b")
        txn = immediate(exists(a, b).match(P["year", a], P["year", b])).build()
        outcome = run(txn, years)
        assert outcome.reads == 2

    def test_precomputed_result_skips_reevaluation(self, years):
        a = Var("a")
        txn = immediate(exists(a).match(P["year", a].retract())).build()
        window = FULL_VIEW.window(years, {})
        result = txn.query.evaluate(window, {})
        outcome = execute(txn, window, {}, owner=1, result=result)
        assert outcome.success
        assert outcome.retracted[0].values == result.matches[0].retracted[0].values

    def test_composite_applies_all_retractions_then_all_assertions(self, years):
        # The consensus composite (paper §2.2): participants are staged in
        # pid order, each net of the retractions staged before it, and
        # applied once — every retraction, then every assertion, as one
        # dataspace change.
        a = Var("a")

        def take(test):
            return (
                immediate(exists(a).match(P["year", a].retract()).such_that(test))
                .then(assert_tuple("took", a))
                .build()
            )

        window = FULL_VIEW.window(years, {})
        version = years.version
        first = stage(take(a < 87), window, {}, 1)
        second = stage(take(a > 88), window, {}, 2)
        assert years.version == version  # staging touched nothing
        assert first.assertions == [("took", 85)]
        assert second.assertions == [("took", 90)]
        asserted = apply([first, second], years)
        (change,) = years.changes_since(version)
        assert change.version == version + 1
        assert [inst.values for inst in change.retracted] == [("year", 85), ("year", 90)]
        assert [inst.values for inst in change.asserted] == [("took", 85), ("took", 90)]
        assert list(change.asserted) == asserted
        assert [inst.owner for inst in asserted] == [1, 2]
        assert years.count_matching(P["took", ANY]) == 2

    def test_actions_read_the_window_minus_staged_retractions(self, years):
        a = Var("a")
        left = let("left", Membership(P["year", 90]))
        take = exists(a).match(P["year", a].retract()).such_that(a > 89)
        window = FULL_VIEW.window(years, {})
        assert stage(immediate(take).then(left).build(), window, {}, 1).lets == {
            "left": False
        }
        # A later member of a composite reads net of the earlier ones.
        peek = immediate().then(left).build()
        result = take.build().evaluate(window, {})
        assert stage(peek, window, {}, 2, before=[result]).lets == {"left": False}
        assert stage(peek, window, {}, 2).lets == {"left": True}

    def test_actions_do_not_read_their_own_assertions(self, space):
        txn = (
            immediate()
            .then(assert_tuple("new", 1), let("seen", Membership(P["new", 1])))
            .build()
        )
        outcome = run(txn, space)
        assert outcome.lets == {"seen": False}
        assert space.multiset() == {("new", 1): 1}

    def test_stage_has_no_effects(self, years):
        a = Var("a")
        seen = []
        txn = (
            delayed(exists(a).match(P["year", a].retract()))
            .then(assert_tuple("got", a), CallPython(seen.append))
            .build()
        )
        window = FULL_VIEW.window(years, {})
        version = years.version
        effect = stage(txn, window, {}, 1)
        assert effect.success
        assert len(effect.retracted) == 1 and len(effect.assertions) == 1
        assert len(years) == 4 and years.version == version  # nothing applied
        assert seen == []  # callbacks run only after apply

    def test_settle_takes_the_query_half_from_the_result(self, years):
        # Whatever a (worker) effect claims, the counts come from the result.
        a = Var("a")
        window = FULL_VIEW.window(years, {})
        result = exists(a).match(P["year", a].retract()).such_that(a > 89).build()
        result = result.evaluate(window, {})
        claimed = TransactionOutcome(success=True, reads=99, match_count=7, owner=5)
        effect = settle(claimed, result, window, 1)
        assert (effect.reads, effect.match_count, effect.owner) == (1, 1, 1)
        assert [inst.values for inst in effect.retracted] == [("year", 90)]


class TestViewInteraction:
    def test_window_restricts_query(self, years):
        a = Var("a")
        v = Var("v")
        from repro.core.views import import_rule

        view = View(imports=[import_rule("year", v, guard=(v <= 87))])
        txn = immediate(exists(a).match(P["year", a]).such_that(a > 87)).build()
        outcome = run(txn, years, view=view)
        assert not outcome.success  # 88/90 exist in D but not in W

    def test_export_violation_raises(self, years):
        view = View(exports=[P["found", ANY]])
        txn = immediate().then(assert_tuple("other", 1)).build()
        with pytest.raises(ExportViolation):
            run(txn, years, view=view)

    @pytest.mark.parametrize("retract", [False, True])
    @pytest.mark.parametrize("policy", ["drop", "error"])
    def test_export_where_reads_minus_staged_retractions(self, years, policy, retract):
        # An export rule's ``where`` witness retracted by the transaction
        # itself no longer supports the assertion.
        a, v = variables("a v")
        view = View(exports=[import_rule("found", v, where=[P["year", v]])])
        pattern = P["year", a].retract() if retract else P["year", a]
        txn = immediate(exists(a).match(pattern).such_that(a > 89))
        txn = txn.then(assert_tuple("found", a)).build()
        before = years.multiset()
        if retract and policy == "error":
            with pytest.raises(ExportViolation):
                run(txn, years, view=view, export_policy=policy)
            assert years.multiset() == before
            return
        outcome = run(txn, years, view=view, export_policy=policy)
        assert outcome.success
        assert years.count_matching(P["found", 90]) == (0 if retract else 1)

    def test_where_view_membership_reads_minus_staged_retractions(self, years):
        # An import decision resting on a retracted witness is decided
        # again: the tuple leaves the window the action reads.
        a, v = variables("a v")
        years.insert(("gate", 88))
        view = View(imports=[
            import_rule("year", v, where=[P["gate", v]]),
            import_rule("gate", v),
        ])
        seen = let("seen", Membership(P["year", 88]))
        keep = immediate(exists(a).match(P["gate", a])).then(seen).build()
        take = immediate(exists(a).match(P["gate", a].retract())).then(seen).build()
        assert run(keep, years, view=view).lets == {"seen": True}
        assert run(take, years, view=view).lets == {"seen": False}

    def test_export_violation_dropped_when_configured(self, years):
        view = View(exports=[P["found", ANY]])
        txn = immediate().then(assert_tuple("other", 1), assert_tuple("found", 2)).build()
        outcome = run(txn, years, view=view, export_policy="drop")
        assert outcome.success
        assert years.count_matching(P["other", ANY]) == 0
        assert years.count_matching(P["found", 2]) == 1

    def test_retraction_maps_to_dataspace(self, years):
        # retraction of a window tuple removes the underlying instance
        a = Var("a")
        view = View(imports=[P["year", ANY]])
        txn = immediate(forall(a).match(P["year", a].retract())).build()
        run(txn, years, view=view)
        assert years.count_matching(P["year", ANY]) == 0
