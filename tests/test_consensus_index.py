"""Maintained consensus detection against the from-scratch closure.

:class:`~repro.core.consensus.ConsensusIndex` keeps the consensus closure
across attempts (SEMANTICS §5): a ``tid -> waiting pids`` index and a
blocker witness per waiter.  Its oracle is :func:`partition` over the
waiter windows plus the union-footprint runner scan, the detection every
attempt used to recompute.  Both must name the same unblocked components
in the same order, and an engine driven by either must fire the same sets
and leave the same RNG state.  The properties pin no ``max_examples``, so
``--hypothesis-profile=ci`` deepens them.  The explicit examples fail if
a witness is trusted without its tid still being in the runner's
footprint, or if components are visited in pid order rather than in
waiter order.

The same file checks the pieces the detection leans on: guard-first
``ViewRule.covers`` against the where-first reference, routed import rules
against all rules, and the society's kept live set against a scan.
"""

from contextlib import contextmanager

import pytest
from hypothesis import example, given, strategies as st

from repro.core import consensus as consensus_module
from repro.core.actions import assert_tuple
from repro.core.consensus import ConsensusIndex, evaluate_composite, partition
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var, lift
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.society import ProcessSociety
from repro.core.transactions import consensus, immediate
from repro.core.views import View, ViewRule, _where_satisfiable, import_rule
from repro.errors import EngineError
from repro.programs import run_community_labeling
from repro.runtime.engine import Engine
from repro.runtime.events import ConsensusFired, Trace
from repro.runtime.executor import Executor
from repro.workloads import random_blob_image

X, Y = Var("x"), Var("y")
KEYS = range(4)


# ----------------------------------------------------------------------
# the index against partition + scan, over random dataspace scripts
# ----------------------------------------------------------------------

def _rule(spec):
    kind, key = spec
    if kind == "plain":
        return P["t", key]
    # configuration-dependent: <t, key> only while <open, key> exists
    return import_rule("t", X, guard=(X == key), where=[P["open", X]])


def _scratch(windows, order, alive):
    """Today's oracle: partition, then the union footprint against every
    runner's footprint."""
    waiting = {pid: windows[pid] for pid in order}
    runners = [pid for pid in sorted(alive) if pid not in waiting]
    out = []
    for component in partition(waiting):
        union = set().union(*(waiting[pid].footprint() for pid in component))
        if union and any(union & windows[r].footprint() for r in runners):
            continue
        out.append(component)
    return out


def _maintained(index, windows, order, alive):
    index.sync({pid: windows[pid].footprint() for pid in order})

    def runner_footprint(pid):
        if pid in order or pid not in alive:
            return None
        return windows[pid].footprint()

    def runners():
        return [pid for pid in sorted(alive) if pid not in order]

    return list(index.unblocked(order, runners, runner_footprint))


rule_specs = st.tuples(st.sampled_from(("plain", "where")), st.sampled_from(KEYS))
ops = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(("t", "open")), st.sampled_from(KEYS)),
    st.tuples(st.just("retract"), st.sampled_from(("t", "open")), st.sampled_from(KEYS)),
    st.tuples(st.sampled_from(("wait", "run", "kill")), st.integers(0, 5), st.just(0)),
)


@st.composite
def societies(draw):
    views = draw(st.lists(st.lists(rule_specs, min_size=1, max_size=3), min_size=2, max_size=6))
    pids = list(range(len(views)))
    order = draw(st.permutations(pids))
    waiting = draw(st.integers(0, len(pids)))
    return views, list(order[:waiting])


@given(societies(), st.lists(ops, max_size=12))
# a witness whose tid left the runner's footprint no longer blocks
@example(([[("plain", 0)], [("where", 0)]], [0]), [("retract", "open", 0)])
# components come in waiter order, not pid order
@example(([[("plain", 0)], [("plain", 1)]], [1, 0]), [])
def test_index_matches_partition_and_scan(society, script):
    views, order = society
    ds = Dataspace()
    ds.insert_many([(tag, key) for tag in ("t", "open") for key in KEYS])
    windows = {pid: View(imports=[_rule(s) for s in spec]).window(ds) for pid, spec in enumerate(views)}
    alive = set(windows)
    index = ConsensusIndex()
    assert _maintained(index, windows, order, alive) == _scratch(windows, order, alive)
    for kind, what, key in script:
        if kind == "insert":
            ds.insert((what, key))
        elif kind == "retract":
            found = ds.find_matching(P[what, key])
            if found:
                ds.retract(found[0].tid)
        elif what in alive:
            if what in order:
                order.remove(what)
            if kind == "wait":
                order.append(what)
            elif kind == "kill":
                alive.discard(what)
                index.forget(what)
        assert _maintained(index, windows, order, alive) == _scratch(windows, order, alive)
        assert index.pids() <= alive


# ----------------------------------------------------------------------
# the engine against the from-scratch detection
# ----------------------------------------------------------------------

def _scratch_try_consensus(self):
    """The detection every attempt used to recompute, memo included."""
    engine = self.engine
    self.consensus_dirty = False
    if not self.consensus_waiters:
        return False
    live = frozenset(p.pid for p in engine.society.all_instances() if p.is_live())
    key = (engine.dataspace.version, frozenset(self.consensus_waiters), live)
    if getattr(engine, "_scratch_memo", None) == key:
        return False
    windows = {pid: engine.window(t.process) for pid, t in self.consensus_waiters.items()}
    runners = [
        p for p in engine.society.all_instances() if p.is_live() and p.pid not in windows
    ]
    for component in partition(windows):
        union = set().union(*(windows[pid].footprint() for pid in component))
        if union and any(union & engine.window(r).footprint() for r in runners):
            continue
        participants = self._gather_participants(component)
        if participants is None:
            continue
        effect = evaluate_composite(participants, engine.rng)
        if effect is None:
            continue
        self._fire_consensus(participants, effect)
        engine._scratch_memo = None
        return True
    engine._scratch_memo = key
    return False


@contextmanager
def scratch_detection():
    real = Executor._try_consensus
    Executor._try_consensus = _scratch_try_consensus
    try:
        yield
    finally:
        Executor._try_consensus = real


G1, G2, H = Var("g1"), Var("g2"), Var("h")


def _member(name, warmup):
    return ProcessDefinition(
        name,
        params=("g1", "g2", "h"),
        imports=[P[G1, ANY], P[G2, ANY], P[H, ANY]],
        body=[immediate() for __ in range(warmup)]
        + [
            immediate().then(assert_tuple(H, "arrived")),
            consensus(exists(X).match(P[H, X])).then(assert_tuple("done", H)),
        ],
    )


def _runner(name, steps):
    return ProcessDefinition(
        name,
        params=("g1", "g2"),
        imports=[P[G1, ANY], P[G2, ANY]],
        body=[immediate().then(assert_tuple(G1, "busy")) for __ in range(steps)],
    )


DEFINITIONS = [_member("Fast", 0), _member("Slow", 2), _runner("Brief", 1), _runner("Long", 4)]
groups = st.sampled_from(("g0", "g1", "g2", "g3"))
members = st.tuples(st.sampled_from(("Fast", "Slow")), groups, groups, groups)
runners_ = st.tuples(st.sampled_from(("Brief", "Long")), groups, groups)


def _fingerprint(launches, seed, commit):
    engine = Engine(
        definitions=DEFINITIONS, seed=seed, trace=Trace(True), commit=commit,
        on_deadlock="return",
    )
    engine.assert_tuples([(g, "token") for g in ("g0", "g1", "g2", "g3")])
    for name, *args in launches:
        engine.start(name, tuple(args))
    result = engine.run(max_steps=5_000)
    fired = [e.pids for e in engine.trace.events if isinstance(e, ConsensusFired)]
    return (
        result.reason, result.commits, result.rounds, result.steps, fired,
        engine.trace.events, engine.dataspace.multiset(), engine.rng.random(),
    )


@given(
    st.lists(members, min_size=1, max_size=5),
    st.lists(runners_, max_size=3),
    st.integers(0, 3),
    st.sampled_from(("live", "group")),
)
# two sets freed by one runner at once fire in waiter order: the slow
# member has the lower pid but waits second
@example(
    [("Slow", "g0", "g0", "g0"), ("Fast", "g1", "g1", "g1")],
    [("Long", "g0", "g1")], 0, "live",
)
def test_engine_matches_from_scratch_detection(members, runners, seed, commit):
    launches = members + runners
    maintained = _fingerprint(launches, seed, commit)
    with scratch_detection():
        scratch = _fingerprint(launches, seed, commit)
    assert maintained == scratch


def test_a_set_that_partition_does_not_confirm_is_not_fired():
    def wrong(self, waiters, runners, runner_footprint):
        # once anything is free, offer every waiter as one set
        waiters = list(waiters)
        if any(True for __ in real(self, waiters, runners, runner_footprint)):
            yield frozenset(waiters)

    engine = Engine(definitions=DEFINITIONS, seed=1)
    engine.assert_tuples([("g0", "token"), ("g1", "token")])
    engine.start("Fast", ("g0", "g0", "g0"))
    engine.start("Fast", ("g1", "g1", "g1"))
    engine.start("Long", ("g0", "g1"))  # both wait until it finishes
    real = ConsensusIndex.unblocked
    ConsensusIndex.unblocked = wrong
    try:
        with pytest.raises(EngineError, match="not a component"):
            engine.run()
    finally:
        ConsensusIndex.unblocked = real


# ----------------------------------------------------------------------
# the community run: scans, and no entry outlives its process
# ----------------------------------------------------------------------

def test_community_run_pays_few_full_scans(monkeypatch):
    scans = []
    real = consensus_module.blocking_runner

    def counting(*args):
        scans.append(1)
        return real(*args)

    monkeypatch.setattr(consensus_module, "blocking_runner", counting)
    out = run_community_labeling(random_blob_image(8, 8, blobs=3, seed=1), seed=3)
    assert out.correct
    assert 0 < len(scans) <= 50  # one per component attempt before: 629


def test_index_holds_only_live_pids(monkeypatch):
    checked = []
    real = Executor.try_consensus

    def checking(self):
        fired = real(self)
        live = self.engine.society.live_pids()
        assert self.consensus_index.pids() <= live
        checked.append(fired)
        return fired

    monkeypatch.setattr(Executor, "try_consensus", checking)
    out = run_community_labeling(random_blob_image(6, 6, blobs=2, seed=4), seed=1)
    assert out.correct and True in checked
    assert out.engine.executor.consensus_index.pids() == set()


def test_crashed_waiter_and_runner_leave_the_index():
    engine = Engine(definitions=DEFINITIONS, seed=2, on_deadlock="return")
    engine.assert_tuples([("g0", "token")])
    engine.start("Fast", ("g0", "g0", "g0"))
    engine.start("Fast", ("g0", "g0", "g0"))
    engine.start("Long", ("g0", "g0"))
    executor = engine.executor
    while len(executor.consensus_waiters) < 2:
        engine.run(max_steps=engine.step_count + 1)
    executor.try_consensus()  # blocked by the runner: a witness names it
    index = executor.consensus_index
    assert index.pids() == {1, 2, 3}
    runner = engine.society.get(3)
    executor.crash_process(runner, "pre-commit")
    assert index.pids() == {1, 2}
    executor.crash_process(engine.society.get(1), "pre-commit")
    assert index.pids() <= {2}
    result = engine.run()
    assert result.consensus_rounds == 1 and index.pids() == set()


# ----------------------------------------------------------------------
# the pieces: guard-first covers, routed rules, the kept live set
# ----------------------------------------------------------------------

def _picky(value):
    if value == 2:
        raise ValueError("picky(2)")
    return value != 1


picky = lift(_picky, "picky")
GUARDS = (None, X > 0, (10 // X) > 1, picky(X), Y > 0, X == X)
WHERES = ((), (P["open", X],), (P["open", Y],), (P["open", X + 1],), (P["open", ANY], P["shut", X]))
values_ = st.one_of(st.integers(-1, 3), st.just("s"))


def _outcome(thunk):
    try:
        return ("value", thunk())
    except Exception as exc:  # the type is the verdict
        return ("raises", type(exc))


def _where_first(rule, values, ds, params):
    """The reference order: pattern, ``where``, guard."""
    new = rule.pattern.match(values, params)
    if new is None:
        return False
    merged = {**params, **new}
    if rule.where and not _where_satisfiable(ds, rule.where, merged):
        return False
    return rule.guard is None or rule._passes_guard(merged)


@given(
    st.sampled_from(GUARDS),
    st.sampled_from(WHERES),
    values_,
    st.lists(st.tuples(st.sampled_from(("open", "shut")), values_), max_size=4),
)
@example(GUARDS[2], WHERES[1], 0, [])  # raises, where fails: no error
@example(GUARDS[2], WHERES[1], 0, [("open", 0)])  # raises, where passes
@example(GUARDS[4], WHERES[2], 1, [("open", 1)])  # guard reads a where variable
def test_guard_first_covers_equals_where_first(guard, where, value, rows):
    ds = Dataspace()
    ds.insert_many(rows)
    rule = ViewRule(P["item", X], guard=guard, where=where)
    values = ("item", value)
    assert _outcome(lambda: rule.covers(values, ds, {})) == _outcome(
        lambda: _where_first(rule, values, ds, {})
    )


heads = st.sampled_from(("a", "b", 1, 1.0, True, 0, X, ANY, Var("p") + 0))
patterns = st.lists(heads, min_size=1, max_size=3).map(lambda fields: P[tuple(fields)])
firsts = st.sampled_from(("a", "b", "c", 0, 1, 1.0, True, False, 2))


@given(st.lists(patterns, min_size=1, max_size=5), firsts, st.integers(0, 2))
@example([P[1, X], P[True, X], P[1.0, X], P["a", X]], 1.0, 1)  # equal heads route together
def test_routed_rules_equal_all_rules(pats, first, extra):
    view = View(imports=[ViewRule(p) for p in pats])
    values = (first,) + (7,) * extra
    params = {"p": 1}
    routed = view._routed(values)
    assert [r for r in view.imports if r in routed] == list(routed)  # rule order kept
    matching = [r for r in view.imports if r.pattern.match(values, params) is not None]
    assert [r for r in routed if r.pattern.match(values, params) is not None] == matching


@given(st.lists(st.tuples(st.sampled_from(("spawn", "end", "abort", "crash")), st.integers(1, 6))))
def test_society_live_set_equals_a_scan(script):
    society = ProcessSociety([ProcessDefinition("P")])
    for action, pid in script:
        before = (society.generation, society.live_pids())
        if action == "spawn":
            society.spawn("P")
        elif pid <= society.total_spawned:
            if action == "crash":
                society.mark_crashed(pid)
            else:
                society.mark_terminated(pid, aborted=action == "abort")
        scan = [p for p in society.all_instances() if p.is_live()]
        assert society.live() == scan
        assert society.live_pids() == frozenset(p.pid for p in scan)
        assert len(society) == len(scan)
        assert (society.generation == before[0]) == (society.live_pids() == before[1])
        assert all(society.find_live(p.pid) is p for p in scan)
