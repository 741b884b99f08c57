"""Differential properties: planner-on vs planner-off (naive) evaluation.

The planner reorders atoms and intersects index buckets but must preserve
the semantics exactly: the *set* of joint matches is identical, query
verdicts are identical, and whole-program outcomes agree.  ``∃`` commits
an arbitrary match and ``∀`` enumerates greedily, so individual committed
matches may differ between the two paths for a given seed — the properties
below assert exactly the order-independent facts.  Test pushdown (pure
conjuncts of the test applied as early join filters) is checked the same
way, against the same planner with the test withheld.
"""

import operator
import random
from functools import reduce

from hypothesis import given, settings, strategies as st

from repro.core.dataspace import Dataspace
from repro.core.expressions import Expr, lift, variables
from repro.core.patterns import ANY, P
from repro.core.plan import QueryPlanner
from repro.core.matching import iter_joint_matches
from repro.core.query import Membership, Query
from repro.core.views import FULL_VIEW
from repro.programs.labeling import run_worker_labeling
from repro.programs.summation import run_sum2
from repro.workloads import stripe_image

A, B, C = variables("a b c")

NAMES = ("r", "s")
VALUES = st.integers(min_value=0, max_value=3)

rows = st.lists(
    st.tuples(st.sampled_from(NAMES), VALUES, VALUES), min_size=0, max_size=12
)

fields = st.one_of(
    st.just(ANY),
    st.sampled_from((A, B, C)),
    VALUES,
)

atoms = st.tuples(st.sampled_from(NAMES), fields, fields).map(
    lambda t: P[t[0], t[1], t[2]]
)

pattern_lists = st.lists(atoms, min_size=1, max_size=3)


def space_of(tuples):
    ds = Dataspace()
    ds.insert_many(tuples)
    return ds


def canonical(matches):
    return sorted(
        (tuple(sorted(b.items())), tuple(sorted(i.tid for i in insts)))
        for b, insts in matches
    )


def planner_window(ds, planner=QueryPlanner):
    window = FULL_VIEW.window(ds)
    window.planner = planner(ds)
    return window


class TestJointMatchDifferential:
    @given(rows, pattern_lists)
    @settings(max_examples=60, deadline=None)
    def test_planned_enumeration_equals_naive(self, tuples, patterns):
        ds = space_of(tuples)
        naive = canonical(iter_joint_matches(ds, patterns, {}))
        planned = canonical(QueryPlanner(ds).iter_matches(ds, patterns, {}))
        assert planned == naive

    @given(rows, pattern_lists, st.dictionaries(st.sampled_from("ab"), VALUES))
    @settings(max_examples=60, deadline=None)
    def test_differential_under_prebound_variables(self, tuples, patterns, bound):
        ds = space_of(tuples)
        naive = canonical(iter_joint_matches(ds, patterns, bound))
        planned = canonical(QueryPlanner(ds).iter_matches(ds, patterns, bound))
        assert planned == naive

    @given(rows, pattern_lists, st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_planned_enumeration_is_seed_deterministic(self, tuples, patterns, seed):
        ds = space_of(tuples)
        planner = QueryPlanner(ds)
        one = canonical(
            planner.iter_matches(ds, patterns, {}, random.Random(seed))
        )
        two = canonical(
            planner.iter_matches(ds, patterns, {}, random.Random(seed))
        )
        assert one == two


class TestQueryDifferential:
    @given(rows, pattern_lists, st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_exists_verdicts_agree(self, tuples, patterns, seed):
        ds = space_of(tuples)
        q = Query("exists", (A, B, C), patterns)
        on = q.evaluate(planner_window(ds), {}, random.Random(seed))
        off = q.evaluate(FULL_VIEW.window(ds), {}, random.Random(seed))
        assert on.success == off.success

    @given(rows, pattern_lists, st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_negated_verdicts_agree(self, tuples, patterns, seed):
        ds = space_of(tuples)
        q = Query("exists", (), patterns, negated=True)
        on = q.evaluate(planner_window(ds), {}, random.Random(seed))
        off = q.evaluate(FULL_VIEW.window(ds), {}, random.Random(seed))
        assert on.success == off.success

    @given(rows, pattern_lists, st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_forall_read_only_match_sets_agree(self, tuples, patterns, seed):
        # Without retraction the greedy enumeration accepts *every* match,
        # so the committed binding set must be order-independent.
        ds = space_of(tuples)
        q = Query("forall", (A, B, C), patterns)
        on = q.evaluate(planner_window(ds), {}, random.Random(seed))
        off = q.evaluate(FULL_VIEW.window(ds), {}, random.Random(seed))
        assert on.success and off.success
        sig = lambda r: sorted(  # noqa: E731
            tuple(sorted(m.bindings.items())) for m in r.matches
        )
        assert sig(on) == sig(off)

    @given(rows, pattern_lists, st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_forall_retracting_stays_disjoint(self, tuples, patterns, seed):
        # Greedy maximality under retraction: accepted matches retract
        # pairwise-disjoint instances on both paths (the committed *sets*
        # may legitimately differ between enumeration orders).
        from repro.core.query import QueryAtom

        ds = space_of(tuples)
        q = Query(
            "forall", (A, B, C), [QueryAtom(p, retract=True) for p in patterns]
        )
        for window in (planner_window(ds), FULL_VIEW.window(ds)):
            result = q.evaluate(window, {}, random.Random(seed))
            assert result.success
            used = [i.tid for m in result.matches for i in m.retracted]
            assert len(used) == len(set(used))


class Withheld(QueryPlanner):
    """The same planned join, never shown the test: the leaf-only planner."""

    __slots__ = ()

    def join_filters(self, plan, test):
        return None


class SeesWindow(Expr):
    """An expression kind ``is_pure`` has never heard of.  Like
    ``Membership`` it reads the evaluation context, so it is only
    meaningful at the leaf: true there, false in a filter's windowless
    context."""

    __slots__ = ()

    def evaluate(self, ctx):
        return ctx.window is not None

    def free_variables(self):
        return frozenset()

    def __repr__(self):
        return "sees_window"


def _fussy(value):
    if value == 2:
        raise ValueError("fussy(2)")
    return value > 0


fussy = lift(_fussy, "fussy")
D, E = variables("d e")
names = st.sampled_from((A, B, C))
operands = st.one_of(names, VALUES)

conjunct = st.one_of(
    st.tuples(
        names,
        st.sampled_from(["__lt__", "__le__", "__eq__", "__ne__", "__gt__", "__ge__"]),
        operands,
    ).map(lambda t: getattr(t[0], t[1])(t[2])),
    st.tuples(names, operands, VALUES).map(
        lambda t: (t[0] + t[1]) % 2 == t[2] % 2
    ),
    # raises ZeroDivisionError wherever the divisor binds 0
    st.tuples(operands, names).map(lambda t: t[0] // t[1] >= 1),
    names.map(fussy),
    names.map(lambda v: fussy(v) | (v > 1)),
    # impure: leaf-only, whatever their variables
    names.map(lambda v: Membership(P["r", v, ANY])),
    names.map(lambda v: ~Membership(P["s", ANY, v])),
    names.map(
        lambda v: Membership(P["r", v, D], P["s", D, E], test=(D > 0) & (E != v))
    ),
    st.just(SeesWindow()),
)

tests = st.lists(conjunct, min_size=1, max_size=3).map(
    lambda cs: reduce(operator.and_, cs)
)


def outcome(query, window, rng):
    """``(success, sorted binding sets)`` or the error class raised."""
    try:
        result = query.evaluate(window, {}, rng)
    except Exception as exc:  # the property is about *whether*, not which
        return type(exc)
    return result.success, sorted(
        tuple(sorted(m.bindings.items())) for m in result.matches
    )


def quantified(patterns, test):
    """The three query shapes the planner is handed a test for."""
    return (
        Query("exists", (A, B, C), patterns, test),
        Query("exists", (), patterns, test, negated=True),
        Query("forall", (A, B, C), patterns, test),
    )


class TestPushdownDifferential:
    """Test pushdown (SEMANTICS §12) against two leaf-only oracles: the
    same planner with the test withheld, and the naive walk.

    Checked to have teeth by stubbing each safety rule in
    ``core/plan.py`` and watching this class fail: with the filter's
    ``try``/``except`` removed (an exception becomes an outcome) the
    never-a-new-error assertions fail on the first ``fussy`` / ``//``
    example whose raising prefix has no completion; with ``is_pure``
    replaced by ``lambda e: True`` in ``Plan._place`` the verdict
    assertions fail on ``sees_window`` (a ``Membership`` pushed down
    merely raises for want of a window and is ignored — the second rule
    covering for the first — so the unknown kind is the witness).
    """

    @given(rows, st.lists(atoms, min_size=2, max_size=3), tests)
    @settings(deadline=None)
    def test_unrotated_runs_agree_match_for_match(self, tuples, patterns, test):
        # Without rotation pushdown enumerates a subsequence of the
        # withheld enumeration that keeps every match the leaf accepts, so
        # whenever the leaf-only run completes the pushed-down run
        # completes with the very same result — never a new error.
        ds = space_of(tuples)
        for query in quantified(patterns, test):
            pushed = outcome(query, planner_window(ds), None)
            withheld = outcome(query, planner_window(ds, Withheld), None)
            naive = outcome(query, FULL_VIEW.window(ds), None)
            if isinstance(withheld, tuple):
                assert pushed == withheld, query
            if isinstance(naive, tuple) and isinstance(withheld, tuple):
                if query.quantifier == "forall":
                    assert naive == withheld, query
                else:  # a different atom order may pick a different match
                    assert naive[0] == withheld[0], query

    @given(rows, st.lists(atoms, min_size=2, max_size=3), tests, st.integers(0, 999))
    @settings(deadline=None)
    def test_rotated_runs_agree_on_verdicts_and_match_sets(
        self, tuples, patterns, test, seed
    ):
        # Under a seeded RNG the pruned subtrees' draws are skipped, so the
        # two runs may rotate differently from there on: an exhaustive
        # evaluation (∀, a failed ∃, a successful ¬∃) is still identical;
        # an early-exit one agrees on the verdict whenever both complete.
        ds = space_of(tuples)
        for query in quantified(patterns, test):
            pushed = outcome(query, planner_window(ds), random.Random(seed))
            withheld = outcome(
                query, planner_window(ds, Withheld), random.Random(seed)
            )
            if not isinstance(withheld, tuple):
                continue
            exhaustive = query.quantifier == "forall" or (
                withheld[0] == query.negated
            )
            if exhaustive:
                assert pushed == withheld, query
            elif isinstance(pushed, tuple):
                assert pushed[0] == withheld[0], query


class TestProgramDifferential:
    @given(
        st.integers(1, 3).flatmap(
            lambda a: st.lists(
                st.integers(-50, 50), min_size=2**a, max_size=2**a
            )
        ),
        st.integers(0, 99),
        st.sampled_from(["live", "group"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_summation_state_agrees_across_planner_modes(self, values, seed, commit):
        on = run_sum2(values, seed=seed, commit=commit, plan="on")
        off = run_sum2(values, seed=seed, commit=commit, plan="off")
        assert on.total == off.total == sum(values)
        assert on.engine.dataspace.multiset() == off.engine.dataspace.multiset()
        assert (off.result.plan_hits, off.result.plan_misses) == (0, 0)
        assert on.result.plan_misses >= 1

    @given(st.integers(0, 99))
    @settings(max_examples=8, deadline=None)
    def test_summation_is_seed_deterministic_with_planner(self, seed):
        one = run_sum2([3, 1, 4, 1, 5, 9, 2, 6], seed=seed, plan="on")
        two = run_sum2([3, 1, 4, 1, 5, 9, 2, 6], seed=seed, plan="on")
        assert one.total == two.total
        assert one.result.steps == two.result.steps
        assert one.engine.dataspace.snapshot() == two.engine.dataspace.snapshot()
        assert (one.result.plan_hits, one.result.plan_misses) == (
            two.result.plan_hits,
            two.result.plan_misses,
        )

    @given(st.integers(0, 9))
    @settings(max_examples=4, deadline=None)
    def test_labeling_agrees_across_planner_modes(self, seed):
        image = stripe_image(3, 3, stripe=1)
        on = run_worker_labeling(image, seed=seed, plan="on")
        off = run_worker_labeling(image, seed=seed, plan="off")
        assert on.labels == off.labels
