"""Attempt kernels against the evaluation loop they replace.

On the planner path :meth:`Query.evaluate` calls the query's attempt
kernel (:func:`repro.core.plan.compile_kernel`, SEMANTICS §12): the
planned join, the test and the ∃/∀/¬ evaluation compiled once per (query,
bound-name shape).  The reference below is that path as it was before:
the ∃/∀/¬ loop over :meth:`QueryPlanner.iter_matches` with the leaf test
of :meth:`Query._passes_test`.  For random queries — retract masks, pure,
raising and impure (``Membership``) tests, raising pattern literals,
unbound names, excluded instances — over random dataspaces seen through
a plain window, a ``where``-view window and the group snapshot lens, the
kernel must return the same :class:`QueryResult` with the bindings of
every match in the same key order, raise the same error and leave the RNG
in the same state.  Pure tests are also drawn as conjunctions of random
expression trees — raising lifted calls, ``&``/``|``, a test-only
parameter ``k`` and a name ``ghost`` nothing binds — and each is checked
in both textual orders of its conjuncts, over three-atom joins whose
depths carry several early filters.  The naive textual-order walk
(``plan="off"``) must agree on verdicts and read-only ∀ match sets.

A replication batch's kernels skip the outer rows they have ruled out
(the replica-batch memo, SEMANTICS §12).  Random replicated ∃ joins of
2–3 atoms, with retract masks, pure tests and a feeder branch, over a
plain and a ``where``-view process view, must run the same schedule —
commits, rounds, steps, event stream, final dataspace, RNG state — with
the memo and with it patched away, and a completed run, with the planner
or under ``plan="off"``, ends where no guard can fire.

The caches are bounded by the program, not the run: a Sum2 society of
1 023 processes with distinct ``(k, j)`` compiles one kernel and plans
once.
"""

from __future__ import annotations

import operator
import random
from functools import reduce
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.core.actions import assert_tuple
from repro.core.constructs import guarded, replicate
from repro.core.dataspace import Dataspace
from repro.core.expressions import Const, Var, lift, variables
from repro.core.patterns import ANY, P
from repro.core.plan import QueryPlanner
from repro.core.process import ProcessDefinition
from repro.core.query import Match, Membership, Query, QueryResult, exists
from repro.core.transactions import immediate
from repro.core.views import FULL_VIEW, View, import_rule
from repro.errors import SDLError
from repro.programs.summation import run_sum2
from repro.runtime import executor
from repro.runtime.engine import Engine
from repro.runtime.events import Trace
from repro.runtime.rounds import _SnapshotLens

A, B, C = variables("a b c")
K, GHOST = variables("k ghost")
NAMES = ("r", "s")
VALUES = st.integers(min_value=0, max_value=3)


def _inverse(x):
    return 6 // x  # raises ZeroDivisionError at 0


def _frail(x):
    if x == 3:
        raise ValueError("three")
    return x > 0


inverse, frail = lift(_inverse), lift(_frail)

rows = st.lists(st.tuples(st.sampled_from(NAMES), VALUES, VALUES), max_size=10)

fields = st.one_of(
    st.just(ANY),
    st.sampled_from((A, B, C)),
    VALUES,
    st.sampled_from((A + 1, inverse(B))),  # a raising literal
)

atoms = st.tuples(st.sampled_from(NAMES), fields, fields).map(lambda t: P[t[0], t[1], t[2]])

BINARY = (
    operator.add, operator.sub, operator.floordiv, operator.mod,
    operator.lt, operator.eq, operator.ne, operator.ge, operator.and_, operator.or_,
)
leaves = st.one_of(
    st.sampled_from((A, B, C)), st.sampled_from((A, B, C, K, GHOST)), VALUES.map(Const)
)


def _grow(children):
    return st.one_of(
        st.tuples(st.sampled_from(BINARY), children, children).map(lambda t: t[0](t[1], t[2])),
        st.tuples(st.sampled_from((operator.neg, operator.invert)), children).map(
            lambda t: t[0](t[1])
        ),
        children.map(inverse),  # raising calls
        children.map(frail),
    )


#: Conjunct lists; a test is their ``&``, in either textual order.
trees = st.recursive(leaves, _grow, max_leaves=4)
conjunct_lists = st.one_of(
    st.sampled_from(([A < B], [frail(A)], [B >= C, A != 2])),
    st.lists(trees, min_size=1, max_size=4),
)


def conjoined(conjuncts):
    return reduce(operator.and_, conjuncts)


pure_tests = conjunct_lists.map(conjoined)
impure_tests = st.sampled_from((
    Membership(P["s", A, ANY]),
    ~Membership(P["r", ANY, B]),
    Membership(P["s", ANY, C], test=(C > 1)),
))
tests = st.one_of(
    st.none(),
    pure_tests,
    impure_tests,
    st.tuples(pure_tests, impure_tests).map(lambda pair: pair[0] & pair[1]),
)


#: Three atoms binding a, b and c, in some order: every depth but the
#: last can carry early filters.
joins = st.permutations((A, B, C)).flatmap(lambda names: st.tuples(*(
    st.tuples(st.sampled_from(NAMES), fields).map(
        lambda t, name=name: P[t[0], name, t[1]]
    )
    for name in names
)).map(list))


@st.composite
def queries(draw):
    patterns = draw(st.one_of(st.lists(atoms, min_size=1, max_size=3), joins))
    test = draw(tests)
    kind = draw(st.sampled_from(("exists", "forall", "no")))
    if kind == "no":
        return Query("exists", (A, B, C), patterns, test, negated=True)
    mask = draw(st.lists(st.booleans(), min_size=len(patterns), max_size=len(patterns)))
    atoms_ = [p.retract() if kill else p for p, kill in zip(patterns, mask)]
    return Query(kind, (A, B, C), atoms_, test, require_nonempty=draw(st.booleans()))


params = st.dictionaries(st.sampled_from(("a", "b", "c", "k", "unused")), VALUES, max_size=3)


def reference(query, window, bound, rng, excluded):
    """``Query.evaluate`` before attempt kernels: the loop over
    :meth:`QueryPlanner.iter_matches`."""
    bound = dict(bound)
    if query.is_trivial():
        return QueryResult(True, [Match(bound, (), ())])

    def joint(excl):
        return window.planner.iter_matches(
            window, query._patterns, bound, rng, excl, query.test
        )

    if query.negated:
        for bindings, __ in joint(excluded):
            if query._passes_test(bindings, window, rng):
                return QueryResult(False)
        return QueryResult(True)
    mask = query._retract_mask
    if query.quantifier == "exists":
        for bindings, instances in joint(excluded):
            if not query._passes_test(bindings, window, rng):
                continue
            retracted = tuple(i for i, kill in zip(instances, mask) if kill)
            return QueryResult(True, [Match(bindings, tuple(instances), retracted)])
        return QueryResult(False)
    consumed = set(excluded)
    seen = set()
    matches = []
    for bindings, instances in joint(consumed):
        if not query._passes_test(bindings, window, rng):
            continue
        retracted = tuple(i for i, kill in zip(instances, mask) if kill)
        signature = (
            tuple(bindings.get(v) for v in query.variables),
            tuple(sorted(i.tid for i in retracted)),
        )
        if signature in seen:
            continue
        seen.add(signature)
        consumed.update(i.tid for i in retracted)
        matches.append(Match(bindings, tuple(instances), retracted))
    if query.require_nonempty and not matches:
        return QueryResult(False)
    return QueryResult(True, matches)


def outcome(evaluate, *args):
    """The result, or the error's type and message."""
    try:
        return evaluate(*args)
    except SDLError as exc:
        return type(exc), str(exc)


def observed(evaluate, *args):
    """:func:`outcome`, with the key order of each match's bindings."""
    result = outcome(evaluate, *args)
    if isinstance(result, QueryResult):
        return result, [list(match.bindings) for match in result.matches]
    return result


WHERE_VIEW = View(imports=[
    import_rule("r", Var("x"), Var("y"), where=[P["s", Var("y"), ANY]]),
    import_rule("s", ANY, ANY),
])


def windows(early, late, shape):
    """A window of *shape* over *early* then *late*, with a planner; the
    lens shows *early* only."""
    ds = Dataspace()
    ds.insert_many(early)
    watermark = ds.serial
    ds.insert_many(late)
    view = WHERE_VIEW if shape == "where" else FULL_VIEW
    window = view.window(ds)
    window.planner = QueryPlanner(ds)
    shown = _SnapshotLens(window, watermark) if shape == "lens" else window
    return ds, shown


#: ``∀`` whose retracting outer row is consumed by the first match under
#: it: the second inner row must be pruned at the leaf.
CONSUMED_OUTER = Query("forall", (A, B, C), [P["r", A, ANY].retract(), P["s", B, ANY]])
#: A literal that raises after a sibling subtree bound ``c``: the error
#: names the bindings of the raising row only.
RAISES_AFTER_SUBTREE = Query("forall", (A, B, C), [P["r", B, ANY], P["s", inverse(B), C]])
#: An ``&`` that short-circuits on its falsy left side never raises.
BOTH_SIDES = Query("exists", (A, B, C), [P["r", A, ANY]], test=(A > 5) & inverse(A))
#: frail(3) raises in the early filter at depth 0: no verdict, so the
#: leaf must see the row and raise, not find nothing.
RAISING_FILTER = Query(
    "exists", (A, B, C), [P["r", A, ANY], P["s", B, ANY]], test=frail(A) & (B > 0)
)
#: A leaf test that raises names every binding of the match it raised on,
#: and a match's keys are the parameters, then the binders in plan order.
RAISING_LEAF = Query(
    "exists", (A, B, C), [P["s", B, ANY], P["r", A, ANY], P["r", C, ANY]],
    test=(A != 2) & (inverse(C) > B),
)


class TestKernelEqualsReference:
    @given(
        rows, rows, queries(), params, st.sampled_from(("plain", "where", "lens")),
        st.lists(st.integers(0, 19), max_size=3), st.integers(0, 2**32 - 1),
    )
    @example(
        [("r", 1, 0), ("s", 1, 1), ("s", 2, 2)], [], CONSUMED_OUTER, {}, "plain", [], 0
    )
    @example([("r", 1, 0), ("r", 0, 0), ("s", 6, 2)], [], RAISES_AFTER_SUBTREE, {}, "plain", [], 0)
    @example([("r", 1, 0), ("r", 0, 0), ("s", 6, 2)], [], RAISES_AFTER_SUBTREE, {}, "plain", [], 1)
    @example(  # the lens shows 3 of the 4 rows: the offset is drawn over 3
        [("r", 0, 0), ("r", 1, 1), ("r", 2, 2)], [("r", 3, 3)],
        Query("exists", (A, B, C), [P["r", A, ANY]]), {}, "lens", [], 0,
    )
    @example([("r", 0, 0)], [], BOTH_SIDES, {}, "plain", [], 0)
    @example([("r", 3, 0), ("s", 1, 1)], [], RAISING_FILTER, {}, "plain", [], 0)
    @example(
        [("s", 1, 0), ("r", 1, 0), ("r", 0, 0)], [], RAISING_LEAF, {"k": 1}, "plain", [], 0
    )
    @example(
        [("s", 1, 0), ("r", 1, 0), ("r", 3, 0)], [], RAISING_LEAF, {"k": 1}, "plain", [], 0
    )
    @settings(deadline=None)
    def test_same_result_error_and_rng_state(
        self, early, late, query, bound, shape, excluded_at, seed
    ):
        agree(early, late, query, bound, shape, excluded_at, seed)

    @given(
        rows, joins, conjunct_lists, st.sampled_from(("exists", "forall", "no")),
        params, st.integers(0, 2**32 - 1),
    )
    @example(  # two filters at a's depth: frail(3) raises where a < 3 is false
        [("r", 3, 0), ("s", 0, 0), ("r", 1, 1)], [P["r", A, ANY], P["s", B, ANY], P["r", C, ANY]],
        [frail(A), A < 3], "exists", {}, 0,
    )
    @settings(deadline=None)
    def test_either_textual_order_of_the_conjuncts(
        self, tuples, patterns, conjuncts, kind, bound, seed
    ):
        for ordered in (conjuncts, conjuncts[::-1]):
            query = Query(
                "exists" if kind == "no" else kind, (A, B, C), patterns,
                conjoined(ordered), negated=kind == "no",
            )
            agree(tuples, [], query, bound, "plain", [], seed)


def agree(early, late, query, bound, shape, excluded_at, seed):
    """The kernel and the reference agree on *query* over the window of
    *shape*: result, bindings key order, error, RNG state."""
    ds, window = windows(early, late, shape)
    tids = sorted(ds.tids())
    excluded = frozenset(tids[i] for i in excluded_at if i < len(tids))
    rng_ref, rng_kernel = random.Random(seed), random.Random(seed)
    expected = observed(reference, query, window.refresh(), bound, rng_ref, excluded)
    got = observed(query.evaluate, window.refresh(), bound, rng_kernel, excluded)
    assert got == expected
    assert rng_kernel.getstate() == rng_ref.getstate()
    # A second attempt takes the remembered kernel, not a new one.
    again = observed(query.evaluate, window, bound, random.Random(seed), excluded)
    assert again == expected
    assert window.planner.kernel_count == 1


class TestKernelAgainstNaiveWalk:
    @given(rows, queries(), params, st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_verdicts_and_read_only_match_sets(self, tuples, query, bound, seed):
        ds = Dataspace()
        ds.insert_many(tuples)
        planned = FULL_VIEW.window(ds)
        planned.planner = QueryPlanner(ds)
        naive = FULL_VIEW.window(ds)
        on = outcome(query.evaluate, planned, bound, random.Random(seed))
        off = outcome(query.evaluate, naive, bound, random.Random(seed))
        if not (isinstance(on, QueryResult) and isinstance(off, QueryResult)):
            return  # pushdown may spare the planned path an error (SEMANTICS §12)
        assert on.success == off.success
        if query.quantifier == "forall" and not query.retracts() and on.success:
            def signatures(result):
                return sorted(
                    tuple(m.bindings.get(v) for v in query.variables) for m in result.matches
                )

            assert signatures(on) == signatures(off)


class TestBoundedCaches:
    def test_sum2_compiles_one_kernel_for_a_thousand_processes(self):
        run = run_sum2(list(range(1024)), seed=3, plan="on")
        planner = run.engine.planner
        assert run.total == sum(range(1024)) and run.result.commits == 1023
        # One query, one bound-name shape ({k, j}): one kernel, one plan.
        assert planner.kernel_count == 1
        assert len(planner.kernels) == 1
        assert planner.cache_size == 1
        assert run.result.plan_misses == 1

    def test_plan_for_runs_once_per_query_and_shape(self, monkeypatch):
        calls = []
        real = QueryPlanner.plan_for

        def counting(self, patterns, bound):
            calls.append(frozenset(bound))
            return real(self, patterns, bound)

        monkeypatch.setattr(QueryPlanner, "plan_for", counting)
        # (Parallel admission touches the plan cache once per shipped
        # candidate, as its serial evaluation would have.)
        run = run_sum2(list(range(64)), seed=3, plan="on", admit="serial")
        assert run.result.commits == 63
        assert calls == [frozenset({"k", "j"})]
        # Every later attempt counts a hit, as its plan_for call would have.
        assert run.result.plan_hits + run.result.plan_misses > 63


# ----------------------------------------------------------------------
# the replica-batch memo
# ----------------------------------------------------------------------

Q = "q"
#: Imports an ``r`` row only while an ``s`` row supports its last field:
#: a replica's (hidden) ``s`` assertion can import an *older* ``r`` row.
SUPPORTED_VIEW = View(imports=[
    import_rule("r", ANY, Var("y"), where=[P["s", Var("y"), ANY]]),
    import_rule("s", ANY, ANY),
    import_rule(Q, ANY),
])
seconds = st.one_of(st.just(ANY), st.sampled_from((A, B, C)), VALUES)
batch_tests = st.one_of(
    st.none(),
    st.sampled_from((A < B, A != C, (B >= 1) & (A != B), frail(A) | (C > 1))),
)


@st.composite
def replicated(draw):
    """The branches of a replication: a 2–3 atom ∃ join with a retract
    mask and a pure test, and maybe a feeder that turns each ``<q, v>``
    into a new ``r`` or ``s`` row."""
    names = draw(st.permutations("abc"))[: draw(st.integers(2, 3))]
    atoms = [P[draw(st.sampled_from(NAMES)), Var(name), draw(seconds)] for name in names]
    mask = draw(st.lists(st.booleans(), min_size=len(atoms), max_size=len(atoms)))
    query = exists(A, B, C).match(*(p.retract() if kill else p for p, kill in zip(atoms, mask)))
    test = draw(batch_tests)
    if test is not None:
        query = query.such_that(test)
    made = draw(st.tuples(
        st.sampled_from(NAMES), *(st.sampled_from([Var(n) for n in names] + [0, 1]),) * 2
    ))
    branches = [guarded(immediate(query).then(assert_tuple(*made)))]
    if draw(st.booleans()):
        fed = draw(st.sampled_from(NAMES))
        branches.append(guarded(
            immediate(exists(C).match(P[Q, C].retract())).then(assert_tuple(fed, 0, C))
        ))
    return branches


def run_batches(branches, view, tuples, seed, **config):
    """One replication over *tuples*: ``(outcome, event stream, RNG
    state, final multiset)``, the outcome being the run's commits,
    rounds and steps or the error it raised."""
    engine = Engine(
        definitions=[ProcessDefinition("Main", view=view, body=[replicate(*branches)])],
        seed=seed, trace=Trace(True), **config,
    )
    engine.assert_tuples(tuples)
    engine.start("Main")
    try:
        result = engine.run(max_steps=150)
        ended = result.commits, result.rounds, result.steps
    except SDLError as exc:
        ended = type(exc), str(exc)
    return ended, engine.trace.events, engine.rng.getstate(), engine.dataspace.multiset()


def memoless(window, max_serial, memo=None):
    """A replication batch's lens without its memo."""
    return _SnapshotLens(window, max_serial)


def fires(branches, view, final, plan):
    """Can some guard fire on the *final* multiset, evaluated with the
    planner *plan*?"""
    space = Dataspace()
    space.insert_many(values for values, count in final.items() for __ in range(count))
    window = view.window(space)
    if plan == "on":
        window.planner = QueryPlanner(space)
    return any(
        branch.guard.query.evaluate(window, {}, random.Random(0)).success
        for branch in branches
    )


def settled(branches, view, final, judge):
    """No guard can fire on the *final* multiset, judged with the planner
    *judge*.  Test pushdown makes errors strictly fewer (SEMANTICS §12):
    where the leaf-only walk raises on a legal final state, the kernels
    judge it, and they must find no guard to fire."""
    try:
        return not fires(branches, view, final, judge)
    except SDLError:
        if judge == "on":
            raise
        return not fires(branches, view, final, "on")


#: ``<r, 3>`` has no ``<s, b>`` with 3 < b: once ruled out, each later
#: visit in the batch skips it with its one draw over the four ``s`` rows.
REPLAYED = (
    [guarded(immediate(
        exists(A, B, C).match(P["r", A].retract(), P["s", B]).such_that(A < B)
    ).then(assert_tuple("done", A)))],
    [("r", 3), ("r", 0), ("r", 1), ("s", 1), ("s", 2), ("s", 2), ("s", 3)],
)
#: ``<o, 0>`` has no completion, but its search draws over the two
#: ``<i, 7, c>`` rows at depth 2: it must be searched again on every visit.
DEEP = (
    [guarded(immediate(
        exists(A, B, C)
        .match(P["o", A].retract(), P["m", A, B], P["i", B, C])
        .such_that(C == A)
    ).then(assert_tuple("done", A)))],
    [("o", 0), ("o", 1), ("o", 2), ("m", 0, 7), ("m", 1, 8), ("m", 2, 9),
     ("i", 7, 1), ("i", 7, 2), ("i", 8, 1), ("i", 9, 2)],
)

#: ``<s, 1, 1>`` finds no imported ``<r, 1, y>`` until the feeder asserts
#: ``<s, 5, 0>``, which imports the old ``<r, 1, 5>`` mid-batch.
FED = (
    [
        guarded(immediate(
            exists(A, B, C).match(P["s", A, 1].retract(), P["r", A, B])
        ).then(assert_tuple("done", A))),
        guarded(immediate(exists(C).match(P[Q, C].retract())).then(assert_tuple("s", C, 0))),
    ],
    [("s", 1, 1), ("r", 1, 5), (Q, 5)],
)

#: The planned run pushes ``b >= 1`` down and completes; the leaf-only
#: walk reaches ``a != b`` with ``a`` unbound and raises, so the final
#: state is judged by the kernels.
PUSHED = (
    [guarded(immediate(
        exists(A, B, C).match(P["r", B, ANY], P["r", C, ANY]).such_that((B >= 1) & (A != B))
    ).then(assert_tuple("r", B, B)))],
    [("r", 0, 0), ("r", 0, 0)],
)

class TestReplicaBatchMemo:
    """Replication batches with the memo, without it (every kernel call
    searches every outer row again), and under ``plan="off"``: the memo
    run has the schedule — commits, rounds, steps, event stream, RNG
    state and dataspace — of the run without it, a completed run ends
    where the naive walk finds no guard to fire (the kernels, where that
    walk raises), and a completed ``plan="off"`` run where the kernels
    find none."""

    @given(
        replicated(), st.sampled_from(("full", "supported")),
        st.lists(st.tuples(st.sampled_from(NAMES), VALUES, VALUES), max_size=12),
        st.lists(VALUES.map(lambda v: (Q, v)), max_size=3), st.integers(0, 2**32 - 1),
    )
    @example(REPLAYED[0], "full", REPLAYED[1], [], 1)
    @example(DEEP[0], "full", DEEP[1], [], 1)
    @example(FED[0], "supported", FED[1], [], 0)
    @example(PUSHED[0], "full", PUSHED[1], [], 0)
    @settings(deadline=None)
    def test_same_schedule_with_and_without_the_memo(self, branches, shape, tuples, fed, seed):
        view = SUPPORTED_VIEW if shape == "supported" else FULL_VIEW
        tuples = tuples + fed
        remembered = run_batches(branches, view, tuples, seed)
        with mock.patch.object(executor, "_SnapshotLens", memoless):
            searched = run_batches(branches, view, tuples, seed)
        assert remembered == searched
        naive = run_batches(branches, view, tuples, seed, plan="off")
        for run, judge in ((remembered, "off"), (naive, "on")):
            ended, __, __, final = run
            if not isinstance(ended[0], type):  # completed: no guard can fire
                assert settled(branches, view, final, judge)

    def test_a_where_view_runs_without_the_memo(self):
        """``<p, a>`` finds no supported ``<r, a, y>`` until a replica
        asserts ``<s, 5, 0>``: that row stays hidden, but the old
        ``<r, 1, 5>`` it supports is imported at once, mid-batch, so the
        outer row ``<p, 1>`` gains a completion.  Each schedule equals the
        run without the memo, and on some seed the join is refused, then
        fires in the round that fed it."""
        a, y, v = variables("a y v")
        view = View(imports=[
            import_rule("r", ANY, y, where=[P["s", y, ANY]]),
            import_rule("s", ANY, ANY), import_rule("p", ANY), import_rule(Q, ANY),
        ])
        join = immediate(exists(a, y).match(P["p", a].retract(), P["r", a, y]))
        branches = [
            guarded(join.then(assert_tuple("done", a))),
            guarded(immediate(exists(v).match(P[Q, v].retract())).then(assert_tuple("s", v, 0))),
        ]
        query = branches[0].guard.query
        tuples = [("p", 1), ("r", 1, 5), ("r", 2, 5), (Q, 5)]
        real = Query.evaluate
        verdicts = []

        def recording(self, *args, **kwargs):
            result = real(self, *args, **kwargs)
            if self is query:
                verdicts.append(result.success)
            return result

        refused_then_fired = 0
        for seed in range(8):
            with mock.patch.object(Query, "evaluate", recording):
                verdicts.clear()
                remembered = run_batches(branches, view, tuples, seed)
            with mock.patch.object(executor, "_SnapshotLens", memoless):
                searched = run_batches(branches, view, tuples, seed)
            assert remembered == searched
            rounds = {e.round for e in remembered[1] if type(e).__name__ == "TxnCommitted"}
            assert remembered[3][("done", 1)] == 1 and len(rounds) == 1
            refused_then_fired += verdicts[:2] == [False, True]
        assert refused_then_fired  # the join saw <r, 1, 5> imported mid-batch
