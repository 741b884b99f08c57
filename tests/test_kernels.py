"""Compiled kernels against their references (SEMANTICS §12, Kernels).

``kernel(expr)(env)`` — one generated function over ``source(expr)`` —
must agree with ``expr.evaluate`` under the same bindings — the same
value, or an exception of the same type — and the compiled
``Pattern.match`` / ``index_constants`` / ``instantiate`` with the
per-element walks over ``PatternElement``.  The properties pin no
``max_examples``, so ``--hypothesis-profile=ci`` (the CI chaos job)
deepens them.  ``test_kernel_equals_evaluate`` fails if ``&`` or ``|`` is
compiled to short-circuit (its explicit examples raise only when both
sides are evaluated), if a missing name raises before an earlier operand
does, and if a deep expression is written out without the depth cut.  The
source emitter (``source``, what attempt kernels write their filters,
tests and probe expressions with) is held to ``Expr.evaluate`` too, with
some names read from locals and the rest from ``params``; so is the
action stager (``compile_actions``), which writes pure template fields,
spawn arguments and ``let`` bodies the same way.  An expression nested
past the parser's bracket limit compiles wherever an expression can
stand, with the planner and without it.
"""

import operator
import pickle

import pytest
from hypothesis import example, given, strategies as st

from repro.core import transactions
from repro.core.actions import Let, Spawn, assert_tuple, let, spawn
from repro.core.dataspace import Dataspace
from repro.core.expressions import (
    Bindings,
    Const,
    EvalContext,
    Var,
    _logical_and,
    kernel,
    lift,
    source,
    variables,
)
from repro.core.patterns import ANY, LitElement, P, VarElement, WildElement, pattern
from repro.core.plan import build_plan
from repro.core.process import ProcessDefinition
from repro.core.query import Membership, exists
from repro.core.transactions import TransactionOutcome, action_error, compile_actions, immediate
from repro.core.views import View, import_rule
from repro.errors import PatternError, QueryError, SDLError, UnboundVariableError
from repro.runtime.engine import Engine

NAMES = ("a", "b", "c")
A, B, GHOST = Var("a"), Var("b"), Var("ghost")

#: Nesting well past the parser's limit of 200 brackets in one expression.
DEEP = 250


def deep(expr, depth=DEEP):
    """``expr + 1 + … + 1``: *depth* additions, nested to the left."""
    for __ in range(depth):
        expr = expr + 1
    return expr


def _picky(value):
    if value == 2:
        raise ValueError("picky(2)")
    return value > 0


picky = lift(_picky, "picky")
pair = lift(lambda x, y: (x, y), "pair")

BINARY = (
    operator.add,
    operator.sub,
    operator.mul,
    operator.truediv,
    operator.floordiv,
    operator.mod,
    operator.lt,
    operator.le,
    operator.eq,
    operator.ne,
    operator.and_,
    operator.or_,
)
leaves = st.one_of(st.sampled_from(NAMES).map(Var), st.integers(-2, 3).map(Const))


def _grow(children):
    return st.one_of(
        st.tuples(st.sampled_from(BINARY), children, children).map(
            lambda t: t[0](t[1], t[2])
        ),
        st.tuples(st.sampled_from((operator.neg, operator.invert)), children).map(
            lambda t: t[0](t[1])
        ),
        children.map(picky),
        st.tuples(children, children).map(lambda t: pair(*t)),
    )


exprs = st.recursive(leaves, _grow, max_leaves=8)
scalars = st.one_of(st.integers(-2, 3), st.booleans(), st.just("x"), st.just((1, 2)))
envs = st.dictionaries(st.sampled_from(NAMES), scalars)


def outcome(thunk):
    """``("ok", value)``, or ``("raised", the exception's type)``."""
    try:
        return "ok", thunk()
    except Exception as exc:
        return "raised", type(exc)


def evaluated(expr, env):
    return expr.evaluate(EvalContext(Bindings(env)))


class TestKernelDifferential:
    @given(exprs, envs)
    @example((A > 5) & (A // 0 > 1), {"a": 1})
    @example((A > 0) | picky(A), {"a": 2})
    @example(A + GHOST, {"a": 1})
    @example(pair(A, GHOST), {"a": 1})
    @example(Const(1) // A, {"a": 0})
    @example((Const(1) // A) + GHOST, {"a": 0})
    @example(deep(A), {"a": 1})
    @example(deep(Const(1) // A) + GHOST, {"a": 0})
    def test_kernel_equals_evaluate(self, expr, env):
        assert outcome(lambda: kernel(expr)(env)) == outcome(lambda: evaluated(expr, env))

    def test_missing_name_is_an_unbound_variable_error(self):
        for expr in (GHOST, A + GHOST, GHOST > 1, pair(A, GHOST), picky(GHOST), -GHOST):
            with pytest.raises(UnboundVariableError) as caught:
                kernel(expr)({"a": 1})
            assert caught.value.name == "ghost"

    def test_memoised_on_the_node(self):
        expr = picky(A) & (A > 1)
        assert kernel(expr) is kernel(expr)

    def test_impure_nodes_have_no_kernel(self):
        with pytest.raises(TypeError):
            kernel(Membership(P["r", ANY]))

    def test_early_filters_run_as_kernels(self):
        a, b, c = variables("a b c")
        plan = build_plan([P["r", a], P["s", b], P["t", c]], frozenset(), {}, Dataspace())
        first, second, costly = a > 0, b > a, picky(b) | (a == b)
        test = first & costly & second & (c > b)
        # Within a depth, conjuncts without a lifted call come first.
        assert plan.early_filters(test) == ((first,), (second, costly), None)


def run_source(expr, env, as_locals):
    """``source(expr)`` evaluated with the names in *as_locals* bound as
    locals and the rest of *env* as ``params``."""
    locals_ = {name: f"v_{name}" for name in sorted(as_locals) if name in env}
    consts = {}
    text = source(expr, locals_, consts)
    frame = {local: env[name] for name, local in locals_.items()}
    frame["params"] = {name: v for name, v in env.items() if name not in locals_}
    return eval(text, consts, frame)


class TestSourceDifferential:
    @given(exprs, envs, st.sets(st.sampled_from(NAMES)))
    @example((A > 5) & (A // 0 > 1), {"a": 1}, {"a"})
    @example((A > 0) | picky(A), {"a": 2}, set())
    @example(~((A > 5) & picky(A)), {"a": 2}, {"a"})
    @example(A + GHOST, {"a": 1}, {"a"})
    @example(pair(GHOST, A), {"a": 1}, set())
    @example(-(Const(2) ** A), {"a": 3}, {"a"})
    @example(((A - Var("b")) * 2) % 3 <= A / 2, {"a": 3, "b": 1}, {"b"})
    @example(deep(A) * deep(B), {"a": 1, "b": 2}, {"a"})
    @example(deep(GHOST) + A, {"a": 1}, {"a"})
    def test_source_equals_evaluate(self, expr, env, as_locals):
        got = outcome(lambda: run_source(expr, env, as_locals))
        assert got == outcome(lambda: evaluated(expr, env))

    def test_missing_name_is_an_unbound_variable_error(self):
        for expr in (GHOST, A + GHOST, pair(A, GHOST), ~GHOST):
            with pytest.raises(UnboundVariableError) as caught:
                run_source(expr, {"a": 1}, {"a"})
            assert caught.value.name == "ghost"

    def test_operators_are_inline_and_calls_direct(self):
        consts = {}
        text = source((A + 1 > Var("b")) & picky(A), {"a": "x"}, consts)
        assert "_param(params, 'b')" in text and "x + " in text
        names = {value: name for name, value in consts.items() if callable(value)}
        # & goes through _logical_and (both sides evaluated); the lifted
        # function is called by its own name, not through a wrapper
        assert f"{names[_logical_and]}(" in text and f"{names[_picky]}(x)" in text

    def test_impure_nodes_have_no_source(self):
        with pytest.raises(TypeError):
            source(Membership(P["r", ANY]), {}, {})


class TestNeverPickled:
    """Generated code cannot cross a process boundary: whatever holds a
    kernel rebuilds from its fields and compiles again on first use."""

    def test_expression(self):
        a, b = variables("a b")
        expr = (lift(max, "max")(a, b + 1) > -a) & ~(b == 0)
        env = {"a": 2, "b": 1}
        value = kernel(expr)(env)
        clone = pickle.loads(pickle.dumps(expr))
        assert repr(clone) == repr(expr)
        assert kernel(clone) is not kernel(expr)
        assert kernel(clone)(env) == value

    def test_pattern_query_and_view_rule(self):
        a = Var("a")
        ds = Dataspace()
        ds.insert(("r", 2))
        pat = P["r", a + 0]
        query = exists(a).match(P["r", a]).such_that(a > 1).build()
        rule = import_rule("r", a, guard=a > 1)
        # used once each, so that each holds its compiled state
        assert pat.match(("r", 2), {"a": 2}) == {}
        assert query.evaluate(ds).success
        assert rule.covers(("r", 2), ds, {})
        assert pickle.loads(pickle.dumps(pat)).match(("r", 2), {"a": 2}) == {}
        assert pickle.loads(pickle.dumps(query)).evaluate(ds).success
        assert pickle.loads(pickle.dumps(rule)).covers(("r", 2), ds, {})


fields = st.one_of(st.just(ANY), st.sampled_from(NAMES).map(Var), st.integers(0, 2), exprs)
patterns = st.lists(fields, min_size=1, max_size=4).map(lambda fs: pattern(*fs))
rows = st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple)
bounds = st.dictionaries(st.sampled_from(NAMES), st.integers(0, 2))


def walk_match(pat, values, bound):
    """``Pattern.match`` as the per-element walk."""
    if len(values) != len(pat.elements):
        return None
    new = {}
    for element, value in zip(pat.elements, values):
        got = element.match(value, {**bound, **new} if new else bound)
        if got is None:
            return None
        new.update(got)
    return new


def walk_index_constants(pat, bound):
    """``Pattern.index_constants`` as the per-element walk."""
    probes = []
    for position, element in enumerate(pat.elements):
        if isinstance(element, LitElement):
            if element.free_variables() <= set(bound):
                probes.append((position, evaluated(element.expr, bound)))
        elif isinstance(element, VarElement) and element.name in bound:
            probes.append((position, bound[element.name]))
    return probes


def walk_instantiate(pat, bound):
    """``Pattern.instantiate`` as the per-element walk."""
    ctx = EvalContext(Bindings(bound))
    out = []
    for element in pat.elements:
        if isinstance(element, WildElement):
            raise PatternError("cannot assert a tuple containing a wildcard")
        if isinstance(element, VarElement):
            out.append(ctx.bindings.get(element.name))
        else:
            out.append(element.expr.evaluate(ctx))
    return tuple(out)


def unwrapped(thunk):
    """:func:`outcome`, reading a pattern field's typed error as the
    exception it wraps."""
    try:
        return "ok", thunk()
    except QueryError as exc:
        assert "pattern field" in str(exc)
        assert not isinstance(exc.__cause__, SDLError)
        return "raised", type(exc.__cause__)
    except Exception as exc:
        return "raised", type(exc)


class TestCompiledPatternDifferential:
    @given(patterns, rows, bounds)
    def test_match_equals_the_element_walk(self, pat, values, bound):
        got = unwrapped(lambda: pat.match(values, bound))
        assert got == outcome(lambda: walk_match(pat, values, bound))

    @given(patterns, bounds)
    def test_index_constants_equal_the_element_walk(self, pat, bound):
        got = unwrapped(lambda: pat.index_constants(bound))
        assert got == outcome(lambda: walk_index_constants(pat, bound))

    @given(patterns, bounds)
    def test_instantiate_equals_the_element_walk(self, pat, bound):
        got = outcome(lambda: pat.instantiate(EvalContext(Bindings(bound))))
        assert got == outcome(lambda: walk_instantiate(pat, bound))


def walk_actions(actions, env):
    """The action list as the element walk, staged under one ∃ match
    *env*: ``(assertions, spawns, lets)``, or the typed error."""
    once_env, lets = dict(env), {}
    assertions, spawned = [], []
    action, scope = None, None
    try:
        for action in actions:
            if isinstance(action, Let):
                scope = once_env
                lets[action.name] = once_env[action.name] = evaluated(action.expr, scope)
                continue
            scope = {**env, **lets}
            if isinstance(action, Spawn):
                spawned.append(
                    (action.process_name, tuple(evaluated(arg, scope) for arg in action.args))
                )
            else:
                assertions.append(walk_instantiate(action.pattern, scope))
    except SDLError as exc:
        return type(exc), str(exc)
    except Exception as exc:
        error = action_error(action, scope, exc)
        return type(error), str(error)
    return assertions, spawned, lets


def staged(actions, env):
    """``compile_actions(actions)`` under the same ∃ match."""
    effect = compile_actions(tuple(actions))(
        TransactionOutcome(success=True), dict(env), [env], None, None
    )
    if effect.error is not None:
        return type(effect.error), str(effect.error)
    return effect.assertions, effect.spawned, effect.lets


templates = st.lists(
    st.one_of(st.sampled_from(NAMES + ("ghost",)).map(Var), st.integers(0, 2), exprs),
    min_size=1, max_size=3,
).map(lambda fs: assert_tuple("t", *fs))
action_lists = st.lists(
    st.one_of(
        templates,
        st.lists(exprs, max_size=2).map(lambda args: spawn("P", *args)),
        st.tuples(st.sampled_from(NAMES), exprs).map(lambda t: let(t[0], t[1])),
    ),
    min_size=1, max_size=3,
)


class TestActionStagerDifferential:
    """A stager writes pure fields, spawn arguments and ``let`` bodies
    into its source: the same values, in the same order, and the same
    typed error, as evaluating each action in turn."""

    @given(action_lists, envs)
    @example([assert_tuple("t", A + GHOST)], {"a": 1})
    @example([assert_tuple("t", picky(A) + GHOST)], {"a": 2})
    @example([assert_tuple("t", picky(A), GHOST)], {"a": 2})
    @example([let("b", A + 1), assert_tuple("t", Var("b") * 2)], {"a": 1})
    @example([spawn("P", A // Var("b"))], {"a": 1, "b": 0})
    def test_stager_equals_the_action_walk(self, actions, env):
        assert staged(actions, env) == walk_actions(actions, env)

    def test_pure_fields_are_written_inline(self, monkeypatch):
        texts = []
        real = transactions.define

        def keep(text, namespace):
            texts.append(text)
            return real(text, namespace)

        monkeypatch.setattr(transactions, "define", keep)
        compile_actions((assert_tuple("t", A + Var("b"), A + 1),))
        # a + b over two locals read from env; the kernel only when one
        # of them is missing
        assert "v0_1 = (v0_1_0 + v0_1_1)" in texts[0]
        assert "v0_1 = Kv0_1(env)" in texts[0].split("except KeyError:")[1]


def run_main(body, rows, plan, view=None):
    """A ``Main`` process running *body* over *rows*: the final multiset,
    or the type and message of the error the run raised."""
    engine = Engine(
        definitions=[ProcessDefinition("Main", body=body, view=view)], seed=0, plan=plan
    )
    engine.assert_tuples(rows)
    engine.start("Main")
    try:
        engine.run()
    except SDLError as exc:
        return type(exc), str(exc)
    return engine.dataspace.multiset()


class TestDeepExpressions:
    """An expression nested past the parser's limit of 200 brackets, as
    an action field, an ∃ test, an early filter, a pattern literal and a
    view guard: the generated code calls the deep subtree's own kernel,
    and the run ends in the dataspace of ``plan="off"``, which the
    reference evaluation predicts."""

    @staticmethod
    def both(body, rows, view=None):
        planned = run_main(body, rows, "on", view)
        assert planned == run_main(body, rows, "off", view)
        return planned

    def test_action_field(self):
        body = [immediate(exists(A).match(P["r", A].retract())).then(assert_tuple("out", deep(A)))]
        assert self.both(body, [("r", 1)]) == {("out", evaluated(deep(A), {"a": 1})): 1}

    def test_exists_test(self):
        test = deep(A) > DEEP
        assert [evaluated(test, {"a": a}) for a in (-5, 3)] == [False, True]
        body = [immediate(
            exists(A).match(P["r", A].retract()).such_that(test)
        ).then(assert_tuple("out", A))]
        assert self.both(body, [("r", -5), ("r", 3)]) == {("r", -5): 1, ("out", 3): 1}

    def test_early_filter_of_a_join(self):
        early = deep(A) > DEEP
        test = early & (B > A)
        rows = [("r", -1), ("r", 2), ("s", 1), ("s", 3)]
        space = Dataspace()
        space.insert_many(rows)
        plan = build_plan([P["r", A], P["s", B]], frozenset(), {}, space)
        assert plan.order == (0, 1) and plan.early_filters(test) == ((early,), None)
        body = [immediate(
            exists(A, B).match(P["r", A], P["s", B].retract()).such_that(test)
        ).then(assert_tuple("out", A, B))]
        got = self.both(body, rows)
        assert got == {("r", -1): 1, ("r", 2): 1, ("s", 1): 1, ("out", 2, 3): 1}

    def test_pattern_literal(self):
        assert evaluated(deep(A), {"a": 1}) == DEEP + 1
        body = [immediate(
            exists(A).match(P["r", A].retract(), P["s", deep(A)].retract())
        ).then(assert_tuple("out", A))]
        got = self.both(body, [("r", 1), ("s", DEEP + 1), ("s", 7)])
        assert got == {("s", 7): 1, ("out", 1): 1}

    def test_view_import_guard(self):
        guard = deep(A) > DEEP
        view = View(imports=[import_rule("r", A, guard=guard)])
        body = [immediate(exists(A).match(P["r", A].retract())).then(assert_tuple("out", A))]
        got = self.both(body, [("r", -5), ("r", 3)], view)
        assert got == {("r", -5): 1, ("out", 3): 1}

    def test_a_missing_name_raises_what_evaluate_raises(self):
        field = deep(A) + GHOST
        with pytest.raises(UnboundVariableError) as caught:
            evaluated(field, {"a": 1})
        body = [immediate(exists(A).match(P["r", A].retract())).then(assert_tuple("out", field))]
        assert self.both(body, [("r", 1)]) == (UnboundVariableError, str(caught.value))
        for expr in (field, deep(GHOST) + A, deep(GHOST + A)):
            with pytest.raises(UnboundVariableError) as caught:
                kernel(expr)({"a": 1})
            assert caught.value.name == "ghost"
