"""Tests for the exception hierarchy (repro.errors)."""


import pytest

from repro import (
    Engine,
    P,
    ProcessDefinition,
    assert_tuple,
    errors,
    exists,
    guarded,
    immediate,
    repeat,
    variables,
)
from repro.core.actions import let, spawn
from repro.core.dataspace import Dataspace
from repro.core.patterns import ANY
from repro.core.transactions import consensus
from repro.core.views import View, import_rule


class TestHierarchy:
    def test_everything_is_sdlerror(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.SDLError), name

    def test_dual_inheritance_for_catchability(self):
        # library errors should also be catchable as their natural builtin
        assert issubclass(errors.ValueDomainError, TypeError)
        assert issubclass(errors.ArityError, ValueError)
        assert issubclass(errors.UnboundVariableError, NameError)
        assert issubclass(errors.ParseError, SyntaxError)
        assert issubclass(errors.ExportViolation, PermissionError)
        assert issubclass(errors.DeadlockError, RuntimeError)

    def test_unknown_process_is_process_error(self):
        assert issubclass(errors.UnknownProcessError, errors.ProcessError)


class TestMessages:
    def test_unbound_variable_names_the_variable(self):
        err = errors.UnboundVariableError("alpha")
        assert "alpha" in str(err)
        assert err.name == "alpha"

    def test_rebind_names_the_variable(self):
        assert "x" in str(errors.RebindError("x"))

    def test_export_violation_carries_payload(self):
        err = errors.ExportViolation("Sorter", ("secret", 1))
        assert "Sorter" in str(err)
        assert err.values == ("secret", 1)

    def test_deadlock_lists_blocked(self):
        err = errors.DeadlockError(["A#1", "B#2"])
        assert "A#1" in str(err) and "B#2" in str(err)
        assert err.blocked == ["A#1", "B#2"]

    def test_step_limit_mentions_limit(self):
        err = errors.StepLimitExceeded(500)
        assert "500" in str(err)
        assert err.limit == 500

    def test_parse_error_carries_position(self):
        err = errors.ParseError("bad token", 3, 7)
        assert "line 3" in str(err)
        assert (err.line, err.column) == (3, 7)

    def test_unknown_process_names_target(self):
        err = errors.UnknownProcessError("Ghost")
        assert "Ghost" in str(err)


class TestRaisingTest:
    """A ``such_that`` that cannot be evaluated on some tuple is a typed
    error naming the test and the bindings, never a raw Python exception
    out of ``Engine.run()``."""

    @staticmethod
    def harvest_engine(**options):
        (alpha,) = variables("alpha")
        harvest = ProcessDefinition(
            "Harvest",
            body=[
                repeat(
                    guarded(
                        immediate(
                            exists(alpha)
                            .match(P["year", alpha].retract())
                            .such_that(alpha > 87)
                        ).then(assert_tuple("found", alpha))
                    )
                )
            ],
        )
        engine = Engine(definitions=[harvest], seed=3, **options)
        engine.assert_tuples([("year", 85), ("year", "abc"), ("year", 90)])
        for __ in range(3):
            engine.start("Harvest")
        return engine

    @pytest.mark.parametrize(
        "options",
        [
            {"plan": "on"},
            {"plan": "off"},
            {"commit": "group"},
            # a worker-side error forces serial re-evaluation on main,
            # which is where the typed error comes from
            {"commit": "group", "shards": 4, "workers": "thread:2", "admit": "parallel"},
        ],
        ids=["planned", "naive", "group", "parallel-admit"],
    )
    def test_engine_run_raises_query_error(self, options):
        engine = self.harvest_engine(**options)
        with pytest.raises(errors.QueryError) as caught:
            engine.run()
        assert isinstance(caught.value.__cause__, TypeError)
        message = str(caught.value)
        assert "(alpha > 87)" in message and "alpha='abc'" in message

    def test_sdl_errors_pass_through_untouched(self):
        alpha, ghost = variables("alpha ghost")
        ds = Dataspace()
        ds.insert(("year", 90))
        query = exists(alpha).match(P["year", alpha]).such_that(alpha > ghost).build()
        with pytest.raises(errors.UnboundVariableError) as caught:
            query.evaluate(ds)
        assert caught.value.name == "ghost" and caught.value.__cause__ is None


MODES = pytest.mark.parametrize(
    "options",
    [{"plan": "on"}, {"plan": "off"}, {"commit": "group"}],
    ids=["planned", "naive", "group"],
)


def _started(definitions, rows, name, args=(), **options):
    engine = Engine(definitions=definitions, seed=3, **options)
    engine.assert_tuples(rows)
    engine.start(name, args)
    return engine


class TestRaisingLiteral:
    """A pattern field, an assertion template or a spawn argument that
    cannot be evaluated is a typed error naming it and the bindings
    (SEMANTICS §6), never a raw Python exception out of ``Engine.run()``."""

    @MODES
    def test_query_atom_literal_is_a_query_error(self, options):
        k, alpha = variables("k alpha")
        probe = ProcessDefinition(
            "Probe", params=("k",),
            body=[immediate(exists(alpha).match(P[k // 0, alpha]))],
        )
        engine = _started([probe], [(1, 2)], "Probe", (1,), **options)
        with pytest.raises(errors.QueryError) as caught:
            engine.run()
        assert isinstance(caught.value.__cause__, ZeroDivisionError)
        message = str(caught.value)
        assert "(k // 0)" in message and "k=1" in message

    @MODES
    def test_assert_template_is_a_transaction_error(self, options):
        (alpha,) = variables("alpha")
        move = ProcessDefinition(
            "Move",
            body=[
                immediate(exists(alpha).match(P["src", alpha].retract()))
                .then(assert_tuple("dst", alpha // 0))
            ],
        )
        engine = _started([move], [("src", 1)], "Move", **options)
        with pytest.raises(errors.TransactionError) as caught:
            engine.run()
        assert isinstance(caught.value.__cause__, ZeroDivisionError)
        message = str(caught.value)
        assert "(alpha // 0)" in message and "alpha=1" in message

    @MODES
    def test_spawn_argument_is_a_transaction_error(self, options):
        (alpha,) = variables("alpha")
        parent = ProcessDefinition(
            "Parent",
            body=[
                immediate(exists(alpha).match(P["n", alpha]))
                .then(spawn("Child", alpha // 0))
            ],
        )
        child = ProcessDefinition("Child", params=("x",), body=[immediate()])
        engine = _started([parent, child], [("n", 1)], "Parent", **options)
        with pytest.raises(errors.TransactionError) as caught:
            engine.run()
        assert isinstance(caught.value.__cause__, ZeroDivisionError)
        assert "spawn Child((alpha // 0))" in str(caught.value)

    @MODES
    def test_let_body_is_a_transaction_error(self, options):
        (alpha,) = variables("alpha")
        counter = ProcessDefinition(
            "Counter",
            body=[immediate(exists(alpha).match(P["n", alpha])).then(let("n", alpha // 0))],
        )
        engine = _started([counter], [("n", 1)], "Counter", **options)
        with pytest.raises(errors.TransactionError) as caught:
            engine.run()
        assert isinstance(caught.value.__cause__, ZeroDivisionError)
        assert "let n = (alpha // 0)" in str(caught.value)


class TestRaisingViewGuard:
    """An import guard that cannot be evaluated is a :class:`ViewError`
    naming the rule and the bindings, raised where the reference order
    (pattern, ``where``, guard) reaches the guard (SEMANTICS §6)."""

    def _window(self, rows, **rule):
        (x,) = variables("x")
        space = Dataspace()
        space.insert_many(rows)
        view = View(imports=[import_rule("item", x, guard=(10 // x) > 1, **rule)])
        return view.window(space)

    def test_footprint_and_candidates_raise_a_view_error(self):
        for read in (
            lambda window: window.footprint(),
            lambda window: window.candidates(P["item", ANY]),
        ):
            with pytest.raises(errors.ViewError) as caught:
                read(self._window([("item", 0)]))
            assert isinstance(caught.value.__cause__, ZeroDivisionError)
            message = str(caught.value)
            assert "<'item',x> if ((10 // x) > 1)" in message and "{x=0}" in message
            assert "ZeroDivisionError: " in message

    def test_a_failing_where_still_decides_first(self):
        window = self._window([("item", 0)], where=[P["open", variables("x")[0]]])
        assert window.footprint() == frozenset()
        assert window.candidates(P["item", ANY]) == []

    def test_a_passing_where_reaches_the_guard(self):
        (x,) = variables("x")
        window = self._window([("item", 0), ("open", 0)], where=[P["open", x]])
        with pytest.raises(errors.ViewError):
            window.footprint()

    @staticmethod
    def _reader_error(waiting: bool) -> str:
        """Run a ``Reader`` that reads only ``<other, a>`` while its
        ``<item, x>`` guard raises on the live ``<item, 0>``; with
        *waiting*, an unrelated process waits at a consensus transaction."""
        a, x = variables("a x")
        reader = ProcessDefinition(
            "Reader",
            imports=[import_rule("item", x, guard=(10 // x) > 1), import_rule("other", ANY)],
            body=[immediate(exists(a).match(P["other", a])).then(assert_tuple("seen", a))],
        )
        waiter = ProcessDefinition(
            "Waiter",
            imports=[import_rule("flag", ANY)],
            body=[consensus(exists(a).match(P["flag", a].retract())).then(assert_tuple("done", a))],
        )
        engine = Engine(definitions=[reader, waiter], seed=1)
        engine.assert_tuples([("item", 0), ("other", 5), ("flag", 1)])
        if waiting:
            engine.start("Waiter")
        engine.start("Reader")
        with pytest.raises(errors.ViewError) as caught:
            engine.run()
        return str(caught.value)

    def test_a_window_raises_whatever_its_transaction_reads(self):
        """The window is computed at the start of every transaction, so
        the raising guard surfaces at the Reader's first refresh, whether
        or not a consensus attempt reads its footprint first."""
        alone = self._reader_error(waiting=False)
        assert "{x=0}" in alone
        assert self._reader_error(waiting=True) == alone
