"""Unit tests for the cost-based query planner (repro.core.plan)."""

import random

import pytest

from repro.core.dataspace import Dataspace
from repro.core.expressions import Var, lift
from repro.core.matching import iter_joint_matches
from repro.core.patterns import ANY, P
from repro.core.plan import (
    CompiledPattern,
    QueryPlanner,
    build_plan,
    compile_pattern,
    resolve_plan_mode,
)
from repro.core.query import Membership, exists, forall
from repro.core.views import FULL_VIEW, View, import_rule
from repro.errors import EngineError, QueryError, UnboundVariableError
from repro.programs.summation import run_sum2, sum2_definition
from repro.runtime.engine import Engine


def canonical(matches):
    """Order-insensitive form of an iter_joint_matches result set."""
    return sorted(
        (tuple(sorted(b.items())), tuple(sorted(i.tid for i in insts)))
        for b, insts in matches
    )


def planner_window(ds):
    window = FULL_VIEW.window(ds)
    window.planner = QueryPlanner(ds)
    return window


# ----------------------------------------------------------------------
# pattern compilation
# ----------------------------------------------------------------------
class TestCompiledPattern:
    def test_field_roles_split(self, abc):
        a, b, _ = abc
        pat = P["year", a, ANY, a + b, a]
        compiled = compile_pattern(pat)
        assert compiled.arity == 5
        assert compiled.static_probes == ((0, "year"),)
        assert [pos for pos, __, __ in compiled.expr_slots] == [3]
        assert compiled.var_slots == ((1, "a"), (4, "a"))
        assert compiled.binding_names == frozenset({"a"})
        assert compiled.expr_free == frozenset({"a", "b"})
        assert compiled.free_names == frozenset({"a", "b"})

    def test_memoised_on_pattern(self, abc):
        a, _, _ = abc
        pat = P["year", a]
        first = compile_pattern(pat)
        assert compile_pattern(pat) is first
        assert isinstance(pat._compiled, CompiledPattern)

    def test_atom_constants_are_static(self):
        compiled = compile_pattern(P["k", 7, ANY])
        assert compiled.static_probes == ((0, "k"), (1, 7))
        assert compiled.expr_slots == ()
        assert compiled.var_slots == ()


class TestPlanStep:
    def test_bound_variable_becomes_probe(self, abc):
        a, b, _ = abc
        plan = build_plan([P["e", a, b]], frozenset({"a"}), {"a": 1}, Dataspace())
        (step,) = plan.steps
        assert step.probe_vars == ((1, "a"),)
        assert step.binders == ((2, "b"),)
        assert step.repeat_checks == ()

    def test_repeated_variable_checked_once(self, abc):
        a, _, _ = abc
        plan = build_plan([P["e", a, a]], frozenset(), {}, Dataspace())
        (step,) = plan.steps
        assert step.binders == ((1, "a"),)
        assert step.repeat_checks == ((2, 1),)

    def test_probes_include_evaluated_exprs(self, abc):
        a, _, _ = abc
        plan = build_plan([P["e", a + 1]], frozenset({"a"}), {"a": 1}, Dataspace())
        (step,) = plan.steps
        assert step.probes_for({"a": 4}) == [(0, "e"), (1, 5)]


# ----------------------------------------------------------------------
# selectivity ordering
# ----------------------------------------------------------------------
class TestBuildPlan:
    def test_narrow_bucket_goes_first(self, abc):
        a, _, _ = abc
        ds = Dataspace()
        ds.insert_many([("wide", i) for i in range(50)])
        ds.insert(("narrow", 7))
        plan = build_plan([P["wide", a], P["narrow", a]], frozenset(), {}, ds)
        assert plan.order == (1, 0)

    def test_textual_order_on_ties(self, abc):
        a, b, _ = abc
        ds = Dataspace()
        ds.insert_many([("t", i) for i in range(4)])
        plan = build_plan([P["t", a], P["t", b]], frozenset(), {}, ds)
        assert plan.order == (0, 1)

    def test_expr_dependency_is_a_hard_constraint(self, abc):
        a, _, _ = abc
        ds = Dataspace()
        # The expr atom's bucket is tiny, but it reads ``a`` which only the
        # (much wider) binder atom produces — it must still come second.
        ds.insert(("sq", 4))
        ds.insert_many([("n", i) for i in range(30)])
        plan = build_plan([P["n", a], P["sq", a * a]], frozenset(), {}, ds)
        assert plan.order == (0, 1)

    def test_bound_value_probes_measure_buckets(self, abc):
        a, b, _ = abc
        ds = Dataspace()
        ds.insert_many([("x", 1, i) for i in range(20)])
        ds.insert_many([("y", 1, i) for i in range(2)])
        plan = build_plan(
            [P["x", a, b], P["y", a, ANY]], frozenset({"a"}), {"a": 1}, ds
        )
        assert plan.order == (1, 0)


# ----------------------------------------------------------------------
# probed candidate fetch
# ----------------------------------------------------------------------
class TestCandidatesProbed:
    def test_intersects_all_probes(self):
        ds = Dataspace()
        ds.insert_many([("r", i % 3, i % 5) for i in range(60)])
        got = ds.candidates_probed(3, [(0, "r"), (1, 1), (2, 2)])
        assert got and all(
            inst.values[1] == 1 and inst.values[2] == 2 for inst in got
        )
        want = [
            inst for inst in ds.instances()
            if inst.values[1] == 1 and inst.values[2] == 2
        ]
        assert {i.tid for i in got} == {i.tid for i in want}

    def test_empty_bucket_short_circuits(self):
        ds = Dataspace()
        ds.insert(("r", 1))
        assert ds.candidates_probed(2, [(0, "r"), (1, 99)]) == []

    def test_no_probes_scans_arity(self):
        ds = Dataspace()
        ds.insert(("a", 1))
        ds.insert(("b", 2))
        ds.insert(("c",))
        assert len(ds.candidates_probed(2, [])) == 2

    def test_unindexed_filters_directly(self):
        ds = Dataspace(indexed=False)
        ds.insert_many([("r", i % 3) for i in range(9)])
        got = ds.candidates_probed(2, [(1, 1)])
        assert len(got) == 3 and all(inst.values[1] == 1 for inst in got)

    def test_window_filters_imports(self, abc):
        a, _, _ = abc
        ds = Dataspace()
        ds.insert_many([("year", y) for y in (85, 87, 88, 90)])
        view = View(imports=[import_rule("year", a, guard=(a <= 87))])
        window = view.window(ds)
        got = window.candidates_probed(2, [(0, "year")])
        assert sorted(inst.values[1] for inst in got) == [85, 87]


# ----------------------------------------------------------------------
# the planned join
# ----------------------------------------------------------------------
class TestPlannerJoin:
    def test_same_match_set_as_naive(self, abc):
        a, b, _ = abc
        ds = Dataspace()
        ds.insert_many([("edge", i, i + 1) for i in range(10)])
        ds.insert_many([("mark", i) for i in range(0, 10, 2)])
        patterns = [P["edge", a, b], P["mark", a]]
        naive = canonical(iter_joint_matches(ds, patterns, {}))
        planned = canonical(QueryPlanner(ds).iter_matches(ds, patterns, {}))
        assert planned == naive and naive

    def test_instances_keep_textual_alignment(self, abc):
        a, _, _ = abc
        ds = Dataspace()
        ds.insert_many([("wide", i) for i in range(10)])
        ds.insert(("narrow", 3))
        planner = QueryPlanner(ds)
        patterns = [P["wide", a], P["narrow", a]]
        ((bindings, insts),) = list(planner.iter_matches(ds, patterns, {}))
        # the plan runs narrow first, but the yielded list follows atom order
        assert insts[0].values == ("wide", 3)
        assert insts[1].values == ("narrow", 3)
        assert bindings["a"] == 3

    def test_repeat_variable_equality(self, abc):
        a, _, _ = abc
        ds = Dataspace()
        ds.insert(("p", 1, 1))
        ds.insert(("p", 1, 2))
        got = list(QueryPlanner(ds).iter_matches(ds, [P["p", a, a]], {}))
        assert len(got) == 1 and got[0][0]["a"] == 1

    def test_excluded_is_consulted_live(self, abc):
        a, _, _ = abc
        ds = Dataspace()
        insts = ds.insert_many([("n", i) for i in range(4)])
        excluded: set = set()
        seen = []
        for bindings, (inst,) in QueryPlanner(ds).iter_matches(
            ds, [P["n", a]], {}, None, excluded
        ):
            seen.append(bindings["a"])
            # excluding another instance mid-enumeration suppresses it
            excluded.add(insts[(bindings["a"] + 1) % 4].tid)
        assert len(seen) == 2

    def test_unbound_expr_raises_like_naive(self, abc):
        a, _, _ = abc
        ds = Dataspace()
        ds.insert(("n", 1))
        with pytest.raises(UnboundVariableError):
            list(QueryPlanner(ds).iter_matches(ds, [P["n", a + 1]], {}))

    def test_seeded_determinism(self, abc):
        a, b, _ = abc
        ds = Dataspace()
        ds.insert_many([("e", i, i % 3) for i in range(12)])
        patterns = [P["e", a, b], P["e", ANY, b]]
        planner = QueryPlanner(ds)
        one = next(iter(planner.iter_matches(ds, patterns, {}, random.Random(5))))
        two = next(iter(planner.iter_matches(ds, patterns, {}, random.Random(5))))
        assert one[0] == two[0]
        assert [i.tid for i in one[1]] == [i.tid for i in two[1]]


# ----------------------------------------------------------------------
# test pushdown: pure conjuncts as early join filters
# ----------------------------------------------------------------------
class TestEarlyFilters:
    """Where ``Plan.early_filters`` puts each conjunct, and what the join
    does with it.  Plans here are textual-order (every atom ties on an
    empty dataspace), so depth == atom position."""

    @staticmethod
    def placed(patterns, test, bound=()):
        plan = build_plan(patterns, frozenset(bound), {}, Dataspace())
        assert plan.order == tuple(range(len(patterns)))
        return plan.early_filters(test)

    def test_conjunct_lands_where_its_last_variable_binds(self, abc):
        a, b, c = abc
        first, second = a > 0, b > a
        filters = self.placed(
            [P["r", a], P["s", b], P["t", c]], first & second & (c > b)
        )
        # a > 0 after atom 0, b > a after atom 1, c > b is leaf-only
        assert filters == ((first,), (second,), None)

    def test_caller_and_never_bound_names_do_not_delay(self, abc):
        a, b, _ = abc
        k, ghost = Var("k"), Var("ghost")
        by_caller, by_nobody = a > k, a != ghost
        filters = self.placed(
            [P["r", a], P["s", b]], by_caller & by_nobody, bound=("k",)
        )
        assert filters == ((by_caller, by_nobody), None)

    def test_last_depth_and_impure_conjuncts_are_leaf_only(self, abc):
        a, b, _ = abc
        patterns = [P["r", a], P["s", b]]
        assert self.placed(patterns, b > a) is None
        assert self.placed(patterns, Membership(P["flag", a])) is None
        assert self.placed(patterns, ~Membership(P["flag", a]) & (b > 0)) is None
        # an | is one conjunct, placed by all of its variables
        assert self.placed(patterns, (a > 0) | (b > 0)) is None
        # nothing to push into a single-step plan, whatever the test
        assert self.placed([P["r", a]], a > 0) is None

    def test_resolved_once_per_plan_and_test(self, abc):
        a, b, _ = abc
        plan = build_plan([P["r", a], P["s", b]], frozenset(), {}, Dataspace())
        test = (a > 0) & (b > 0)
        assert plan.early_filters(test) is plan.early_filters(test)

    def test_early_filter_saves_the_deeper_probes(self, abc):
        a, b, _ = abc
        ds = Dataspace()
        ds.insert_many([("r", i) for i in range(10)])
        ds.insert_many([("s", i) for i in range(10)])
        fetches = []
        real = ds.candidates_probed

        class Counting:
            indexed = True
            arity_size, field_size = ds.arity_size, ds.field_size

            @staticmethod
            def candidates_probed(arity, probes):
                fetches.append(probes)
                return real(arity, probes)

        patterns = [P["r", a], P["s", b]]
        test = (a > 7) & (b == a)
        planner = QueryPlanner(ds)
        got = list(planner.iter_matches(Counting, patterns, {}, test=test))
        # the leaf check stays with the caller: every <s, b> row is yielded
        # for a in {8, 9}, and only those two a's were probed below
        assert sorted({b["a"] for b, __ in got}) == [8, 9]
        assert len(got) == 20 and len(fetches) == 1 + 2
        del fetches[:]
        assert len(list(planner.iter_matches(Counting, patterns, {}))) == 100
        assert len(fetches) == 1 + 10

    def test_a_rejected_binding_is_not_shown_to_later_conjuncts(self, abc):
        # Leaf-only, & evaluates both sides and x / 0 raises; pushed down,
        # y != 0 drops the row first.  Strictly fewer errors (SEMANTICS §12).
        x, y, z = abc
        ds = Dataspace()
        # <d, y> is the narrowest bucket, so the plan binds y first
        ds.insert_many([("d", 0), ("d", 2)])
        ds.insert_many([("n", i) for i in (5, 6, 7)] + [("z", i) for i in range(3)])
        q = (
            forall(x, y)
            .match(P["d", y], P["n", x], P["z", z])
            .such_that((y != 0) & (x / y > 2))
            .build()
        )
        result = q.evaluate(planner_window(ds), {}, random.Random(0))
        assert {(m.bindings["a"], m.bindings["b"]) for m in result.matches} == {
            (5, 2), (6, 2), (7, 2)
        }
        with pytest.raises(QueryError) as caught:
            q.evaluate(FULL_VIEW.window(ds), {}, random.Random(0))
        assert isinstance(caught.value.__cause__, ZeroDivisionError)

    def test_early_unbound_variable_is_deferred_to_the_leaf(self, abc):
        a, b, _ = abc
        ds = Dataspace()
        ds.insert(("r", 1))
        q = exists(a, b).match(P["r", a], P["s", b]).such_that(a > Var("ghost"))
        # no <s, *>: the leaf is never reached, so nothing raises ...
        assert not q.build().evaluate(planner_window(ds), {}, None).success
        ds.insert(("s", 1))
        # ... and when it is, the error is the leaf's own
        with pytest.raises(UnboundVariableError):
            q.build().evaluate(planner_window(ds), {}, None)

    def test_raising_filter_is_not_a_verdict(self, abc):
        a, b, _ = abc

        def fussy(value):
            if value == 1:
                raise ValueError("fussy")
            return True

        ds = Dataspace()
        ds.insert_many([("r", 1), ("r", 2)] + [("s", i) for i in (5, 6, 7)])
        q = (
            forall(a, b)
            .match(P["r", a], P["s", b])
            .such_that(lift(fussy)(a) & (b > 0))
            .build()
        )
        with pytest.raises(QueryError, match="fussy"):
            q.evaluate(planner_window(ds), {}, None)


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_hit_after_miss(self, abc):
        a, _, _ = abc
        planner = QueryPlanner(Dataspace())
        patterns = (P["n", a],)
        first = planner.plan_for(patterns, {})
        second = planner.plan_for(patterns, {})
        assert first is second
        assert (planner.hits, planner.misses) == (1, 1)
        assert planner.hit_rate == 0.5

    def test_bound_set_keys_distinct_plans(self, abc):
        a, _, _ = abc
        planner = QueryPlanner(Dataspace())
        patterns = (P["n", a],)
        unbound = planner.plan_for(patterns, {})
        bound = planner.plan_for(patterns, {"a": 1})
        assert unbound is not bound
        assert planner.misses == 2

    def test_irrelevant_bindings_share_a_plan(self, abc):
        a, _, _ = abc
        planner = QueryPlanner(Dataspace())
        patterns = (P["n", a],)
        assert planner.plan_for(patterns, {"zzz": 9}) is planner.plan_for(
            patterns, {"other": 1, "unrelated": 2}
        )

    def test_distinct_pattern_tuples_distinct_entries(self, abc):
        a, _, _ = abc
        planner = QueryPlanner(Dataspace())
        planner.plan_for((P["n", a],), {})
        planner.plan_for((P["m", a],), {})
        assert planner.cache_size == 2


# ----------------------------------------------------------------------
# engine wiring
# ----------------------------------------------------------------------
class TestEngineWiring:
    def test_resolve_plan_mode(self):
        assert resolve_plan_mode(None, None) == "on"
        assert resolve_plan_mode(None, "off") == "off"
        assert resolve_plan_mode("off", "on") == "off"
        assert resolve_plan_mode(True, "off") == "on"
        assert resolve_plan_mode(False, None) == "off"
        with pytest.raises(ValueError):
            resolve_plan_mode("sideways", None)

    def test_engine_rejects_unknown_mode(self):
        with pytest.raises(EngineError):
            Engine(plan="sideways")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("SDL_PLAN", "off")
        assert Engine().planner is None
        monkeypatch.delenv("SDL_PLAN")
        assert Engine().planner is not None

    def test_windows_carry_the_planner(self):
        # plan="on" explicitly: this must hold under the SDL_PLAN=off sweep
        engine = Engine(definitions=[sum2_definition()], plan="on")
        proc = engine.start("Sum2", (0, 1))
        assert engine.planner is not None
        assert engine.window(proc).planner is engine.planner
        off = Engine(definitions=[sum2_definition()], plan="off")
        proc = off.start("Sum2", (0, 1))
        assert off.planner is None and off.window(proc).planner is None

    def test_bare_window_stays_naive(self, year_space):
        assert FULL_VIEW.window(year_space).planner is None

    def test_run_result_counters(self):
        run = run_sum2(list(range(8)), seed=1, plan="on")
        assert run.result.plan_misses >= 1
        assert run.result.plan_hits >= 1
        assert 0.0 < run.result.plan_hit_rate <= 1.0
        off = run_sum2(list(range(8)), seed=1, plan="off")
        assert (off.result.plan_hits, off.result.plan_misses) == (0, 0)
        assert off.result.plan_hit_rate == 0.0
        assert off.total == run.total

    def test_planner_obs_counters(self):
        run = run_sum2(list(range(8)), seed=1, obs=True, plan="on")
        data = run.result.metrics["sdl_plan_cache_total"]["data"]
        assert data["result=miss"] >= 1
        assert data["result=hit"] >= 1
        assert run.result.metrics["sdl_plan_seconds"]["data"]["count"] == data[
            "result=miss"
        ]
        assert run.result.metrics["sdl_plan_cache_size"]["data"] >= 1


# ----------------------------------------------------------------------
# FORALL resume + query-level parity
# ----------------------------------------------------------------------
class TestQueryEvaluation:
    def test_forall_retraction_greedy_maximal(self, abc):
        a, _, _ = abc
        ds = Dataspace()
        ds.insert_many([("job", i) for i in range(9)])
        window = planner_window(ds)
        q = forall(a).match(P["job", a].retract()).build()
        result = q.evaluate(window, {}, random.Random(3))
        assert result.success and len(result.matches) == 9
        assert {m.bindings["a"] for m in result.matches} == set(range(9))

    def test_forall_pairing_excludes_consumed(self, abc):
        # ∀ pairing: each match retracts two instances; 6 instances make 3
        # matches whichever order the seed visits them in.
        a, b, _ = abc
        ds = Dataspace()
        ds.insert_many([("t", i) for i in range(6)])
        for seed in range(6):
            window = planner_window(ds)
            q = (
                forall(a, b)
                .match(P["t", a].retract(), P["t", b].retract())
                .build()
            )
            result = q.evaluate(window, {}, random.Random(seed))
            assert result.success
            assert len(result.matches) == 3
            used = [i.tid for m in result.matches for i in m.retracted]
            assert len(used) == len(set(used)) == 6

    def test_exists_planner_verdict_matches_naive(self, abc):
        a, b, _ = abc
        ds = Dataspace()
        ds.insert_many([("p", i, i + 1) for i in range(5)])
        q = exists(a, b).match(P["p", a, b], P["p", b, ANY]).build()
        on = q.evaluate(planner_window(ds), {}, random.Random(0))
        off = q.evaluate(FULL_VIEW.window(ds), {}, random.Random(0))
        assert on.success == off.success is True

    def test_membership_uses_planner(self, abc):
        a, _, _ = abc
        ds = Dataspace()
        ds.insert(("flag", 1))
        window = planner_window(ds)
        q = exists().such_that(Membership(P["flag", a])).build()
        assert q.evaluate(window, {}, random.Random(0)).success
        assert window.planner.misses >= 1  # the membership atom got planned


# ----------------------------------------------------------------------
# satellite fast paths
# ----------------------------------------------------------------------
class TestDataspaceFastPaths:
    def test_count_find_agree_with_slow_path(self, year_space, abc):
        a, _, _ = abc
        assert year_space.count_matching(P["year", ANY]) == 4
        assert year_space.count_matching(P["year", a], {"a": 87}) == 1
        assert year_space.count_matching(P["year", a]) == 4
        found = year_space.find_matching(P["year", 88])
        assert [i.values for i in found] == [("year", 88)]

    def test_fast_path_does_not_leak_bindings(self, year_space, abc):
        a, _, _ = abc
        bound = {"a": 87}
        assert year_space.count_matching(P["year", a], bound) == 1
        assert bound == {"a": 87}

    def test_binding_pattern_still_isolated(self, year_space, abc):
        a, _, _ = abc
        # binding patterns keep the per-candidate copy (purity property)
        assert len(year_space.find_matching(P["year", a])) == 4


class TestListenerSnapshot:
    def test_snapshot_invalidation(self, space):
        seen = []
        unsub = space.subscribe(lambda ch: seen.append(("one", ch.version)))
        space.insert(("a",))
        space.insert(("b",))
        space.subscribe(lambda ch: seen.append(("two", ch.version)))
        space.insert(("c",))
        unsub()
        space.insert(("d",))
        assert seen == [
            ("one", 1),
            ("one", 2),
            ("one", 3),
            ("two", 3),
            ("two", 4),
        ]

    def test_unsubscribe_idempotent(self, space):
        unsub = space.subscribe(lambda ch: None)
        unsub()
        unsub()
        assert space.listener_count == 0
        space.insert(("a",))  # must not notify anyone / crash
