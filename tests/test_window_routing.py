"""Routed windows against windows built from scratch (SEMANTICS §7, *Routing*).

From its first refresh on, a restricted window is a member of its
dataspace's :class:`~repro.core.views.WindowRouter`: the router files each
journal change under its ``(arity, head)`` and, for a rule whose guard is
keyable, the key fields the guard reads, and the window's refresh drains
only its own inboxes.  The oracles are a fresh window over the same view
and params, and, since both answer by footprint membership, the rules
themselves (``View.imports_value``): after every mutation step, across a
journal gap, after a ``detach`` and with one window left unrefreshed while
an inbox overflows, every window must have the fresh window's footprint,
answer ``imports_instance`` as it and the rules do, and raise a
:class:`~repro.errors.ViewError` exactly when it does.  A window is first
used through its footprint, its candidates, ``in`` or
``imports_instance``: each is a first refresh.

The windows share one view, with a different ``p`` each, so they share
the router's key tables.  The properties pin no ``max_examples``, so
``--hypothesis-profile=ci`` deepens them; the explicit tests below catch
verdicts shared across params, dropped seed routes, an overflowing inbox
that does not invalidate, and a refresh that does not catch the router up.
The last class audits, inside every consensus attempt of the labeling and
E8 programs, each footprint the attempt reads.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.core.actions import assert_tuple
from repro.core.dataspace import JOURNAL_DEPTH, Dataspace
from repro.core.expressions import Var, lift
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import consensus, immediate
from repro.core.views import (
    MAX_ROUTER_KEYS, View, Window, WindowRouter, _rule_key, import_rule,
)
from repro.errors import ViewError
from repro.programs import run_community_labeling
from repro.runtime.engine import Engine
from repro.runtime.executor import Executor
from repro.workloads import random_blob_image
from repro.workloads.images import is_pixel, neighbor, neighbors_of
from tests.test_properties import mutations, rows, where_rules

X, Y, P_ = Var("x"), Var("y"), Var("p")


def _odd_sum(a, b):
    return (a + b) % 2 == 1


def _pair(a, b, c):
    return (a + 2 * b) % 3 != c


def _inverse(a, b):
    return 1 // (a - b) >= 0  # raises where a == b


#: Keyed on one head field: a lifted pure function of ``x`` and ``p``.
KEYED = import_rule("item", X, ANY, guard=lift(_odd_sum, "odd_sum")(X, P_))
#: Keyed on two head fields.
TWO_FIELD = import_rule("sup", X, Y, guard=lift(_pair, "pair")(X, Y, P_))
#: A literal field that may not match: never keyed, so routed by head only.
UNKEYABLE = import_rule("item", X, X + 1, guard=(X != P_))
#: Keyed, and raising when ``x == p``.
RAISING = import_rule("sup", X, guard=lift(_inverse, "inverse")(X, P_))



def _near(a, b):
    return abs(a - b) == 1


def _around(b):
    return (b - 1, b + 1)


def _is_int(value):
    return type(value) is int


NEAR = lift(_near, "near", enumerator=_around, domain=_is_int)
#: Named keys: true on ``p`` and ``p ± 1``, by key set on ints.
NAMED_KEYS = import_rule("sup", X, ANY, guard=(X == P_) | NEAR(X, P_))
#: Named keys with ``where`` support keyed on the same field.
NAMED_WHERE = import_rule("item", X, guard=NEAR(X, P_) | (P_ == X), where=[P["sup", X, ANY]])
#: Named keys on the arity's catch-all route (no head constant).
NAMED_ANY_HEAD = import_rule(ANY, X, guard=NEAR(X, P_))

EXTRAS = [KEYED, TWO_FIELD, UNKEYABLE, RAISING, NAMED_KEYS, NAMED_WHERE, NAMED_ANY_HEAD]
PARAMS = [{"p": p} for p in (0, 1, 2)]


@st.composite
def views(draw):
    rules = draw(st.lists(where_rules(), max_size=2))
    extras = draw(st.lists(st.sampled_from(EXTRAS), min_size=1, max_size=4, unique=True))
    return View(imports=draw(st.permutations(rules + extras)))


def _footprint(window):
    try:
        return window.footprint()
    except ViewError:
        return ViewError


def assert_like_fresh(windows, ds):
    """Each window against a window built now from its view and params,
    and each live instance's import decision against the rules."""
    for window in windows:
        view, params = window.view, window.params
        fresh = view.window(ds, params)
        got, expected = _footprint(window), _footprint(fresh)
        assert got == expected
        if expected is not ViewError:
            for inst in ds.instances():
                verdict = view.imports_value(inst.values, ds, params)
                assert window.imports_instance(inst) == verdict
                assert fresh.imports_instance(inst) == verdict
        fresh.detach()


def _touch(window, how, ds):
    """Use *window* as *how* names; each way refreshes it."""
    try:
        if how == "footprint":
            window.footprint()
        elif how == "candidates":
            arity = len(next(iter(ds.instances())).values)
            window.candidates(P[(ANY,) * arity])
        elif how == "in":
            for inst in ds.instances():
                inst.tid in window
        else:
            for inst in ds.instances():
                window.imports_instance(inst)
    except ViewError:
        pass


#: The ways a window is first used.
TOUCHES = ["footprint", "candidates", "in", "imports_instance"]


def _apply(ds, op, arg):
    live = list(ds.instances())
    if op == "insert":
        ds.insert(arg)
    elif op == "insert_many":
        ds.insert_many(arg)
    elif live and op == "retract":
        ds.retract(live[arg % len(live)].tid)
    elif live:
        ds.retract_many({live[i % len(live)].tid for i in arg})


#: A flood arrives in this many changes, so only the window that sleeps
#: through all of them holds more than ``JOURNAL_DEPTH`` entries.
CHUNKS = 4


def _flood(arity: int) -> list[list[tuple]]:
    """More rows than an inbox may hold, of every small key, in chunks."""
    rows = [
        ("item", i % 3, *([(i // 3) % 3] if arity == 3 else []))
        for i in range(JOURNAL_DEPTH + 1)
    ]
    return [rows[i::CHUNKS] for i in range(CHUNKS)]


def flood(ds, readers, arity=3):
    """Insert the flood while only *readers* refresh, after every chunk."""
    added = []
    for chunk in _flood(arity):
        added += ds.insert_many(chunk)
        for window in readers:
            _footprint(window)
    return added


def lag(ds, readers):
    """Move *ds* more than ``JOURNAL_DEPTH`` versions on, in rows no view
    imports, while only *readers* refresh and keep the router current."""
    noise = []
    for i in range(JOURNAL_DEPTH + 1):
        noise.append(ds.insert(("noise",)))
        if i % (JOURNAL_DEPTH // 2) == 0:
            for window in readers:
                _footprint(window)
    ds.retract_many(inst.tid for inst in noise)
    for window in readers:
        _footprint(window)


LAYOUTS = [(shards, store) for shards in ("single", 2, 4) for store in ("object", "columnar")]


class TestRoutedEqualsFresh:
    @given(
        view=views(),
        layout=st.sampled_from(LAYOUTS),
        initial=st.lists(rows, min_size=2, max_size=8),
        steps=st.lists(st.lists(mutations, min_size=1, max_size=3), min_size=2, max_size=10),
        gap_at=st.one_of(st.none(), st.integers(0, 10)),
        flood_at=st.one_of(st.none(), st.integers(0, 10)),
        flood_arity=st.sampled_from([2, 3]),
        lag_at=st.one_of(st.none(), st.integers(0, 10)),
        touches=st.lists(st.sampled_from(TOUCHES), min_size=3, max_size=3),
        detach_at=st.one_of(st.none(), st.integers(0, 10)),
    )
    def test_routed_windows_equal_fresh_windows(
        self, view, layout, initial, steps, gap_at, flood_at, flood_arity, lag_at,
        touches, detach_at,
    ):
        shards, store = layout
        ds = Dataspace(shards=shards, store=store)
        ds.insert_many(initial)
        windows = [view.window(ds, params) for params in PARAMS]
        for window, how in zip(windows, touches):
            _touch(window, how, ds)  # the first refresh: the window joins
        assert_like_fresh(windows, ds)
        for number, step in enumerate(steps):
            if number == detach_at:  # re-used at once after a detach: joins again
                windows[-1].detach()
                assert_like_fresh(windows[-1:], ds)
            if number == gap_at:  # every window falls off the journal
                noise = [ds.insert(("noise",)) for _ in range(JOURNAL_DEPTH)]
                ds.retract_many(inst.tid for inst in noise)
            if number == flood_at:
                # windows[0] sleeps while its inbox overflows; the others
                # keep the router moving through the flood and its retraction.
                added = flood(ds, windows[1:], flood_arity)
                assert_like_fresh(windows, ds)
                ds.retract_many(inst.tid for inst in added)
                for window in windows[1:]:
                    _footprint(window)
            if number == lag_at:
                # windows[0] sleeps through the step, more than JOURNAL_DEPTH
                # versions on either side, while the others file it: it is
                # behind, not in a gap, and drains what was filed for it.
                lag(ds, windows[1:])
            for op, arg in step:
                _apply(ds, op, arg)
            if number == lag_at:
                lag(ds, windows[1:])
            assert_like_fresh(windows, ds)


class TestKeyability:
    def test_which_rules_are_keyed(self):
        params = {"p": 0}
        assert _rule_key(KEYED, params) == (("x",), (1,))
        assert _rule_key(TWO_FIELD, params) == (("x", "y"), (1, 2))
        assert _rule_key(RAISING, params) == (("x",), (1,))
        assert _rule_key(UNKEYABLE, params) is None
        # a guard over a variable only ``where`` binds, and one over the
        # params alone, are not keyed
        z = Var("z")
        assert _rule_key(import_rule("a", X, guard=(z > 0), where=[P["b", X, z]]), params) is None
        assert _rule_key(import_rule("a", X, guard=(P_ > 0)), params) is None
        # a variable the params bind is no key
        assert _rule_key(import_rule("a", X, P_, guard=(X > P_)), params) == (("x",), (1,))


def _space(*rows):
    ds = Dataspace()
    ds.insert_many(rows)
    return ds


class TestRouting:
    def test_key_verdicts_are_per_window(self):
        """Every window's guard verdict on a new key is its own: with one
        verdict for all, the odd-sum rule would import the same keys for
        ``p = 0`` and ``p = 1``."""
        ds = _space(("item", 0, 0))
        view = View(imports=[KEYED])
        even, odd = view.window(ds, {"p": 0}), view.window(ds, {"p": 1})
        assert even.footprint() == frozenset() and len(odd.footprint()) == 1
        one, two = ds.insert(("item", 1, 0)), ds.insert(("item", 2, 0))
        assert one.tid in even.footprint() and one.tid not in odd.footprint()
        assert two.tid in odd.footprint() and two.tid not in even.footprint()
        assert_like_fresh([even, odd], ds)

    def test_support_changes_reach_where_windows(self):
        """A ``where`` witness coming or going re-decides the head it joins."""
        ds = _space(("item", 1))
        view = View(imports=[import_rule("item", X, where=[P["sup", X]])])
        window = view.window(ds, {})
        assert window.footprint() == frozenset()
        witness = ds.insert(("sup", 1))
        assert len(window.footprint()) == 1
        ds.retract(witness.tid)
        assert window.footprint() == frozenset()

    def test_refresh_catches_the_router_up(self):
        """The only window of a router must file changes itself."""
        ds = _space(("item", 1, 0))
        window = View(imports=[KEYED]).window(ds, {"p": 0})
        assert len(window.footprint()) == 1
        inst = ds.insert(("item", 3, 0))
        assert window.imports_instance(inst)
        assert inst.tid in window.footprint()

    def test_overflowing_inbox_is_a_journal_gap(self):
        ds = _space(("item", 1, 0))
        view = View(imports=[import_rule("item", X, ANY)])  # routed by head
        sleeper, reader = view.window(ds, {}), view.window(ds, {})
        sleeper.footprint(), reader.footprint()
        added = flood(ds, [reader])  # the sleeper's inbox overflows
        router = WindowRouter.of(ds)
        assert sleeper not in router.members and reader in router.members
        assert sleeper.footprint() == reader.footprint()
        assert sleeper.stats.full_invalidations == 1
        assert reader.stats.full_invalidations == 0
        assert {inst.tid for inst in added} <= sleeper.footprint()
        assert sleeper in router.members  # rejoined with its new footprint

    def test_lagging_window_invalidates_as_on_the_journal(self):
        ds = _space(("item", 1, 0))
        window = View(imports=[KEYED]).window(ds, {"p": 0})
        window.footprint()
        for _ in range(JOURNAL_DEPTH + 1):
            ds.insert(("noise",))
        assert len(window.footprint()) == 1
        assert window.stats.full_invalidations == 1

    @pytest.mark.parametrize("first", [1, True, 1.0])
    def test_equal_keys_of_different_types_get_their_own_verdicts(self, first):
        """``1``, ``1.0`` and ``True`` are one dict key, but a guard may
        tell them apart: each key verdict is filed by type and value, when
        the footprint is materialised and when a change is routed."""
        is_float = lift(lambda v: isinstance(v, float), "is_float")
        view = View(imports=[import_rule("item", X, guard=is_float(X))])
        later = [v for v in (1, True, 1.0) if v is not first]
        ds = _space(("item", first), *(("item", v) for v in later))
        floats = {i.tid for i in ds.instances() if isinstance(i.values[1], float)}
        window = view.window(ds, {})
        assert window.footprint() == floats  # materialised
        routed = View(imports=[import_rule("item", X, guard=is_float(X))]).window(_space(), {})
        routed.footprint()
        rows = [routed.dataspace.insert(("item", v)) for v in (first, *later)]
        assert routed.footprint() == {i.tid for i in rows if isinstance(i.values[1], float)}
        assert_like_fresh([window, routed], ds)
        assert_like_fresh([routed], routed.dataspace)

    def test_raising_guard_raises_until_its_tuple_is_gone(self):
        ds = _space(("sup", 1))
        window = View(imports=[RAISING]).window(ds, {"p": 0})
        assert len(window.footprint()) == 1
        bad = ds.insert(("sup", 0))
        with pytest.raises(ViewError, match="inverse"):
            window.footprint()
        with pytest.raises(ViewError, match="inverse"):
            window.footprint()
        ds.retract(bad.tid)
        assert len(window.footprint()) == 1


# ----------------------------------------------------------------------
# guards that name their keys against the same guards asked
# ----------------------------------------------------------------------

PI, R, T = Var("pi"), Var("r"), Var("t")
NAMED = lift(neighbor, "neighbor", enumerator=neighbors_of, domain=is_pixel)
ASKED = lift(neighbor, "neighbor")
NAN = math.nan


def _labels(predicate):
    """The community ``Label`` view over *predicate*: labels of the
    same-threshold neighbourhood (``where``) and its thresholds."""
    same = (PI == R) | predicate(PI, R)
    return View(imports=[
        import_rule("label", PI, ANY, guard=same, where=[P["thr", PI, T]]),
        import_rule("thr", PI, T, guard=same),
    ])


#: Keys on and off the grid, and outside ``is_pixel``: bools, floats (one
#: of them a neighbour by arithmetic), NaN, non-pairs, atoms.
KEYS_ = st.sampled_from([
    (0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, 0), (-1, -1),
    (True, 0), (1.0, 0), (0.5, 0.5), (NAN, 0), NAN, 5, "a", (0, 0, 0),
])
CENTRES = st.sampled_from([(0, 0), (1, 1), (-1, 0), (True, 0), (0.5, 0.5)])
named_rows = st.one_of(
    st.tuples(st.just("label"), KEYS_, st.integers(0, 2)),
    st.tuples(st.just("thr"), KEYS_, st.integers(0, 1)),
)
named_steps = st.one_of(
    st.tuples(st.just("insert"), named_rows), st.tuples(st.just("retract"), st.integers(0, 50)),
)


def _read(window):
    try:
        return window.footprint()
    except ViewError as exc:
        return str(exc)


class TestNamedKeys:
    """A view whose guard names its keys (``neighbor`` with its
    enumerator and ``is_pixel`` domain) against the same view whose guard
    is asked (SEMANTICS §6, §7): the same footprint, or the same
    ``ViewError`` message, routed and fresh, after every step."""

    @given(
        st.lists(st.tuples(CENTRES, st.integers(0, 1)), min_size=1, max_size=3),
        st.lists(named_rows, max_size=8),
        st.lists(named_steps, max_size=10),
    )
    @example([((0, 0), 0)], [("label", (0.5, 0.5), 1), ("thr", (0.5, 0.5), 0)], [])
    @example([((0, 0), 0)], [("label", (1, 0), 1)], [("insert", ("thr", (1.0, 0), 0))])
    @example([((0, 0), 0)], [("label", 5, 1), ("thr", 5, 0)], [("retract", 1)])
    # routed with a key outside the domain that no key set holds
    @example([((0, 0), 0)], [], [("insert", ("thr", (0.5, 0.5), 0))])
    def test_named_windows_equal_asked_windows(self, centres, initial, steps):
        ds = Dataspace()
        ds.insert_many(initial)
        named, asked = _labels(NAMED), _labels(ASKED)
        pairs = [
            (named.window(ds, {"r": r, "t": t}), asked.window(ds, {"r": r, "t": t}))
            for r, t in centres
        ]

        def check():
            for mine, theirs in pairs:
                assert _read(mine) == _read(theirs)
                params = mine.params
                fresh = named.window(ds, params), asked.window(ds, params)
                assert _read(fresh[0]) == _read(fresh[1])
                # a routed window and a fresh one may meet two raising
                # tuples in another order: they agree up to the message
                routed, scratch = _read(theirs), _read(fresh[1])
                assert routed == scratch or all(isinstance(v, str) for v in (routed, scratch))
                for window in fresh:
                    window.detach()

        check()
        for op, arg in steps:
            if op == "insert":
                ds.insert(arg)
            else:
                live = list(ds.instances())
                if live:
                    ds.retract(live[arg % len(live)].tid)
            check()

    def test_a_stray_head_gets_its_support(self):
        """``<item, 2.0>`` has a key outside the domain, where this guard
        is true; its ``where`` witness ``<sup, 2>`` has an in-domain key
        that is not in the key set {1}, yet it flips that head."""
        def succ_or_float(k, p):
            return isinstance(k, float) or k == p + 1

        guard = lift(succ_or_float, "succ", enumerator=lambda p: (p + 1,), domain=_is_int)
        view = View(imports=[import_rule("item", X, guard=guard(X, P_), where=[P["sup", X]])])
        ds = _space(("item", 2.0), ("item", 1))
        window = view.window(ds, {"p": 0})
        assert window.footprint() == frozenset()
        ds.insert(("sup", 2))
        assert len(window.footprint()) == 1
        assert_like_fresh([window], ds)

    def test_a_named_guard_asks_nothing_on_the_grid(self):
        calls = []

        def counting(p1, p2):
            calls.append((p1, p2))
            return neighbor(p1, p2)

        view = _labels(lift(counting, "neighbor", enumerator=neighbors_of, domain=is_pixel))
        ds = _space(*(("thr", (x, y), 0) for x in range(4) for y in range(4)))
        windows = [view.window(ds, {"r": (x, y), "t": 0}) for x in range(4) for y in range(4)]
        for window in windows:
            window.footprint()  # the first one scans, the rest probe
        for x in range(4):
            ds.insert(("label", (x, 0), 7))
        # r = (0, 0): 3 thresholds, 2 labels; r = (0, 1): 4 thresholds, 1 label
        assert [len(w.footprint()) for w in windows[:2]] == [5, 5]
        assert calls == []  # every key is a pixel: the key sets answer


class TestBounds:
    def test_detach_leaves_no_route_behind(self):
        ds = _space(("item", 1, 0), ("sup", 1, 1))
        view = View(imports=[KEYED, TWO_FIELD, UNKEYABLE, import_rule("item", X, where=[P["sup", X]])])
        windows = [view.window(ds, params) for params in PARAMS]
        for window in windows:
            window.footprint()
        router = WindowRouter.of(ds)
        assert router.members and router.routes and router.tables
        for window in windows:
            window.detach()
        assert not router.members and not router.routes and not router.tables
        ds.insert(("item", 2, 0))
        assert_like_fresh(windows, ds)  # detached: materialised again

    def test_key_tables_start_over_past_their_bound(self):
        ds = _space(("item", 1, 0))
        window = View(imports=[KEYED]).window(ds, {"p": 0})
        window.footprint()
        for key in range(MAX_ROUTER_KEYS + 10):
            ds.insert(("item", key, 0))
            window.refresh()
        (table,) = WindowRouter.of(ds).tables.values()
        assert len(table.admitting) + len(table.members[window]) <= 2 * MAX_ROUTER_KEYS
        assert window.footprint() == View(imports=[KEYED]).window(ds, {"p": 0}).footprint()


# ----------------------------------------------------------------------
# the engine: every footprint a consensus attempt reads is exact
# ----------------------------------------------------------------------

@pytest.fixture
def audited(monkeypatch):
    """Check, during every consensus attempt, each footprint it reads
    against a fresh window's; returns the number of checks made."""
    checks = [0]
    attempting = [False]
    seen = set()  # (window, version): an attempt may read a window twice
    footprint, attempt = Window.footprint, Executor._try_consensus

    def audited_footprint(window):
        got = footprint(window)
        read = (window, window.dataspace.version)
        if attempting[0] and window.view.imports is not None and read not in seen:
            seen.add(read)
            fresh = window.view.window(window.dataspace, window.params)
            assert got == footprint(fresh)
            fresh.detach()
            checks[0] += 1
        return got

    def audited_attempt(executor):
        attempting[0] = True
        try:
            return attempt(executor)
        finally:
            attempting[0] = False

    monkeypatch.setattr(Window, "footprint", audited_footprint)
    monkeypatch.setattr(Executor, "_try_consensus", audited_attempt)
    return checks


def _member():
    """E8's community member: one consensus over its group's tuples."""
    g = Var("g")
    return ProcessDefinition(
        "Member",
        params=("g",),
        imports=[P[g, ANY]],
        exports=[P[g, ANY], P["done", ANY, ANY]],
        body=[
            immediate().then(assert_tuple(g, "arrived")),
            consensus(exists().match(P[g, ANY])).then(assert_tuple("done", g, 1)),
        ],
    )


class TestEngineAudit:
    @pytest.mark.parametrize(
        "side,commit,expected",
        [
            (4, "live", (104, 10, 138)),
            (4, "group", (104, 39, 489)),
            (8, "live", (520, 13, 734)),
            (8, "group", (541, 137, 6675)),
        ],
    )
    @pytest.mark.parametrize("shards", [None, 4])
    def test_community_labeling(self, audited, side, commit, expected, shards):
        image = random_blob_image(side, side, blobs=2, seed=side)
        out = run_community_labeling(
            image, seed=3, commit=commit, shards=shards, plan="on"
        )
        assert out.correct
        result = out.result
        assert (result.commits, result.rounds, result.steps) == expected
        assert audited[0] > 0

    def test_one_community(self, audited):
        engine = Engine(definitions=[_member()], seed=1)
        engine.assert_tuples([("g0", "token")])
        for __ in range(32):
            engine.start("Member", ("g0",))
        result = engine.run()
        assert result.consensus_rounds == 1
        assert (result.commits, result.rounds, result.steps) == (64, 3, 96)
        assert engine.dataspace.count_matching(P["done", ANY, ANY]) == 32
        assert audited[0] > 0
