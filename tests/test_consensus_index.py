"""The counted consensus closure against the from-scratch closure.

:class:`~repro.core.consensus.ConsensusIndex` keeps the import-overlap
components of the live society with a runner count each (SEMANTICS §5),
folded from what changed.  Its oracles live here: :func:`partition` over
the waiter windows plus :func:`blocking_runner`, the union-footprint
runner scan every attempt once recomputed, and :class:`WitnessIndex`, the
waiter index with blocker witnesses it replaced.  All must name the same
unblocked components in the same order, and an engine driven by the
counted closure or by the scan must fire the same sets and leave the same
RNG state.  The properties pin no ``max_examples``, so
``--hypothesis-profile=ci`` deepens them.  The explicit examples fail if
a witness is trusted without its tid still being in the runner's
footprint, or if components are visited in pid order rather than in
waiter order.

The same file checks the pieces the detection leans on: guard-first
``ViewRule.covers`` against the where-first reference, routed import rules
against all rules, and the society's kept live set against a scan.
"""

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

import pytest
from hypothesis import example, given, strategies as st

from repro.core.actions import assert_tuple, spawn
from repro.core.consensus import ConsensusIndex, evaluate_composite, partition
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var, lift
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.society import ProcessSociety
from repro.core.transactions import consensus, delayed, immediate
from repro.core.views import View, ViewRule, WindowRouter, _where_satisfiable, import_rule
from repro.errors import EngineError
from repro.programs import run_community_labeling, run_sum2
from repro.runtime.engine import Engine
from repro.runtime.events import ConsensusFired, Trace
from repro.runtime.executor import Executor
from repro.workloads import random_blob_image

X, Y = Var("x"), Var("y")
KEYS = range(4)


# ----------------------------------------------------------------------
# the oracles: the runner scan and the witness index it replaced
# ----------------------------------------------------------------------

def blocking_runner(footprint, runners, runner_footprint):
    """The first runner importing an instance of *footprint*, with that
    tid: one set intersection per runner, in the order *runners* gives."""
    if not footprint:
        return None
    for runner in runners:
        other = runner_footprint(runner)
        small, large = (other, footprint) if len(other) < len(footprint) else (footprint, other)
        for tid in small:
            if tid in large:
                return runner, tid
    return None


class WitnessIndex:
    """The consensus index before the counted closure: a ``tid -> waiting
    pids`` index folded from footprint differences, and a ``(runner,
    tid)`` blocker witness per waiter that skips its component while the
    runner still imports *tid*; a walk that completes pays the full
    :func:`blocking_runner` scan."""

    def __init__(self):
        self._seen = {}
        self._importers = {}
        self._witnesses = {}

    def sync(self, footprints):
        seen = self._seen
        for pid in [pid for pid in seen if pid not in footprints]:
            self._unindex(pid)
        for pid, now in footprints.items():
            before = seen.get(pid)
            if before is now:
                continue
            if before is None:
                added = now
            else:
                added = now - before
                self._drop_tids(pid, before - now)
            for tid in added:
                self._importers.setdefault(tid, set()).add(pid)
            seen[pid] = now

    def forget(self, pid):
        if pid in self._seen:
            self._unindex(pid)
        for waiter in [w for w, (runner, __) in self._witnesses.items() if runner == pid]:
            del self._witnesses[waiter]

    def _unindex(self, pid):
        self._drop_tids(pid, self._seen.pop(pid))
        self._witnesses.pop(pid, None)

    def _drop_tids(self, pid, tids):
        for tid in tids:
            holders = self._importers[tid]
            holders.discard(pid)
            if not holders:
                del self._importers[tid]

    def _witnessed(self, pid, runner_footprint):
        witness = self._witnesses.get(pid)
        if witness is None:
            return False
        runner, tid = witness
        if tid in self._seen[pid]:
            footprint = runner_footprint(runner)
            if footprint is not None and tid in footprint:
                return True
        del self._witnesses[pid]
        return False

    def unblocked(
        self,
        waiters: Iterable[int],
        runners: Callable[[], Iterable[int]],
        runner_footprint,
    ) -> Iterator[frozenset[int]]:
        visited, blocked = set(), set()
        for start in waiters:
            if start in visited or self._witnessed(start, runner_footprint):
                continue
            members, union, stopped = self._walk(start, blocked, runner_footprint)
            visited |= members
            if stopped:
                blocked |= members
                continue
            blocker = blocking_runner(union, runners(), runner_footprint)
            if blocker is not None:
                for owner in self._importers[blocker[1]]:
                    self._witnesses[owner] = blocker
                blocked |= members
                continue
            yield frozenset(members)

    def _walk(self, start, blocked, runner_footprint):
        members, expanded, queue = {start}, set(), [start]
        for pid in queue:
            for tid in self._seen[pid]:
                if tid in expanded:
                    continue
                expanded.add(tid)
                for other in self._importers[tid]:
                    if other in members:
                        continue
                    if other in blocked or self._witnessed(other, runner_footprint):
                        return members, expanded, True
                    members.add(other)
                    queue.append(other)
        return members, expanded, False


# ----------------------------------------------------------------------
# the counted index against partition + scan and the witness index
# ----------------------------------------------------------------------

def _rule(spec):
    kind, key = spec
    if kind == "plain":
        return P["t", key]
    # configuration-dependent: <t, key> only while <open, key> exists
    return import_rule("t", X, guard=(X == key), where=[P["open", X]])


def _scratch(windows, order, alive):
    """Partition, then the union footprint against every runner's footprint."""
    waiting = {pid: windows[pid] for pid in order}
    runners = [pid for pid in sorted(alive) if pid not in waiting]
    out = []
    for component in partition(waiting):
        union = set().union(*(waiting[pid].footprint() for pid in component))
        if union and any(union & windows[r].footprint() for r in runners):
            continue
        out.append(component)
    return out


def _witnessed(index, windows, order, alive):
    index.sync({pid: windows[pid].footprint() for pid in order})

    def runner_footprint(pid):
        if pid in order or pid not in alive:
            return None
        return windows[pid].footprint()

    def runners():
        return [pid for pid in sorted(alive) if pid not in order]

    return list(index.unblocked(order, runners, runner_footprint))


class _Process:
    def __init__(self, pid):
        self.pid = pid


class _Society:
    """What the counted index reads of a society: the live processes, a
    live lookup, and the spawn count (pids are 1, 2, ... in spawn order)."""

    def __init__(self):
        self.alive: dict[int, _Process] = {}
        self.total_spawned = 0

    def spawn(self):
        self.total_spawned += 1
        self.alive[self.total_spawned] = _Process(self.total_spawned)
        return self.total_spawned

    def live(self):
        return list(self.alive.values())

    def find_live(self, pid):
        return self.alive.get(pid)


rule_specs = st.tuples(st.sampled_from(("plain", "where")), st.sampled_from(KEYS))
#: A view: one to three rules, or the unrestricted import set (the hub).
view_specs = st.one_of(st.lists(rule_specs, min_size=1, max_size=3), st.just("full"))
ops = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(("t", "open")), st.sampled_from(KEYS)),
    st.tuples(st.just("retract"), st.sampled_from(("t", "open")), st.sampled_from(KEYS)),
    st.tuples(st.sampled_from(("wait", "run", "kill")), st.integers(1, 7), st.just(0)),
    st.tuples(st.just("spawn"), view_specs, st.just(0)),
    st.tuples(st.just("empty"), st.just(0), st.just(0)),
)


@st.composite
def societies(draw):
    views = draw(st.lists(view_specs, min_size=2, max_size=6))
    pids = list(range(1, len(views) + 1))
    order = draw(st.permutations(pids))
    waiting = draw(st.integers(0, len(pids)))
    return views, list(order[:waiting])


def _view(spec):
    return View.full() if spec == "full" else View(imports=[_rule(s) for s in spec])


@given(societies(), st.lists(st.lists(ops, min_size=1, max_size=3), max_size=8), st.booleans())
# a witness whose tid left the runner's footprint no longer blocks
@example(([[("plain", 0)], [("where", 0)]], [1]), [[("retract", "open", 0)]], True)
# components come in waiter order, not pid order
@example(([[("plain", 0)], [("plain", 1)]], [2, 1]), [], True)
# the hub links everything that imports anything, until D is empty
@example((["full", [("plain", 0)], "full"], [1, 3]), [[("run", 2, 0)], [("empty", 0, 0)]], True)
# a bridge leaves: the component splits
@example(
    ([[("plain", 0)], [("plain", 0), ("plain", 1)], [("plain", 1)]], [1, 3]),
    [[("kill", 2, 0)]], True,
)
# the bridge and the stand-in for its other side leave before a sync
@example(
    ([[("plain", 1)], [("plain", 0), ("plain", 1)], [("plain", 0)], [("plain", 0)]], [1, 4]),
    [[("kill", 2, 0), ("kill", 3, 0)]], True,
)
def test_index_matches_partition_and_scan(society, script, full):
    views, order = society
    ds = Dataspace()
    if full:
        ds.insert_many([(tag, key) for tag in ("t", "open") for key in KEYS])
    people = _Society()
    hub = View.full().window(ds)  # shared, like the engine's unrestricted window
    windows = {}

    def spawn(spec):
        pid = people.spawn()
        windows[pid] = hub if spec == "full" else _view(spec).window(ds)
        return pid

    for spec in views:
        spawn(spec)
    index = ConsensusIndex()
    index.start(people, lambda process: windows[process.pid], ds)
    for pid in order:
        index.park(pid)
    witness = WitnessIndex()

    def check():
        alive = set(people.alive)
        index.sync()
        expected = _scratch(windows, order, alive)
        assert index.free_components() == expected
        assert _witnessed(witness, windows, order, alive) == expected
        assert index.pids() <= alive

    check()
    for batch in script:  # the index syncs between batches, not inside one
        for kind, what, key in batch:
            if kind == "insert":
                ds.insert((what, key))
            elif kind == "retract":
                found = ds.find_matching(P[what, key])
                if found:
                    ds.retract(found[0].tid)
            elif kind == "empty":
                ds.retract_many([inst.tid for inst in ds.instances()])
            elif kind == "spawn":
                spawn(what)
            elif what in people.alive:
                if what in order:
                    order.remove(what)
                    index.unpark(what)
                if kind == "wait":
                    order.append(what)
                    index.park(what)
                elif kind == "kill":
                    del people.alive[what]
                    if windows[what] is not hub:
                        windows[what].detach()
                    index.forget(what)
                    witness.forget(what)
        check()


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


def _always_due(self):
    """Every dirty mark is an attempt, as before the counted closure."""
    self.consensus_dirty = False
    return True


@contextmanager
def scratch_detection():
    real = Executor._try_consensus, Executor.consensus_due
    Executor._try_consensus = _scratch_try_consensus
    Executor.consensus_due = _always_due
    try:
        yield
    finally:
        Executor._try_consensus, Executor.consensus_due = real


G1, G2, H = Var("g1"), Var("g2"), Var("h")


def _member(name, warmup, imports=True):
    return ProcessDefinition(
        name,
        params=("g1", "g2", "h"),
        imports=[P[G1, ANY], P[G2, ANY], P[H, ANY]] if imports else None,
        body=[immediate() for __ in range(warmup)]
        + [
            immediate().then(assert_tuple(H, "arrived")),
            consensus(exists(X).match(P[H, X])).then(assert_tuple("done", H)),
        ],
    )


def _runner(name, steps, imports=True):
    return ProcessDefinition(
        name,
        params=("g1", "g2"),
        imports=[P[G1, ANY], P[G2, ANY]] if imports else None,
        body=[immediate().then(assert_tuple(G1, "busy")) for __ in range(steps)],
    )


DEFINITIONS = [
    _member("Fast", 0), _member("Slow", 2), _member("Open", 1, imports=False),
    _runner("Brief", 1), _runner("Long", 4), _runner("Wide", 2, imports=False),
]
groups = st.sampled_from(("g0", "g1", "g2", "g3"))
members = st.tuples(st.sampled_from(("Fast", "Slow", "Open")), groups, groups, groups)
runners_ = st.tuples(st.sampled_from(("Brief", "Long", "Wide")), groups, groups)


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
# an unrestricted runner holds back every set while D is not empty
@example([("Fast", "g0", "g0", "g0"), ("Open", "g1", "g1", "g1")], [("Wide", "g2", "g2")], 1, "live")
def test_engine_matches_from_scratch_detection(members, runners, seed, commit):
    launches = members + runners
    maintained = _fingerprint(launches, seed, commit)
    with scratch_detection():
        scratch = _fingerprint(launches, seed, commit)
    assert maintained == scratch


def test_a_process_spawned_after_a_failed_attempt_is_noticed():
    """A failed attempt is remembered until the version, the waiters or the
    live set change.  ``Spawner`` starts ``Brief`` and ``Idle`` without
    touching the dataspace; ``Brief`` finishing asks for an attempt at
    the same version, and the live set is not what it was (``Idle`` is
    alive): the failing set is evaluated again, drawing from the RNG, as
    the from-scratch detection does."""
    a = Var("a")
    never = delayed(exists(a).match(P["never", a]))
    definitions = [
        ProcessDefinition(
            "Waiter", imports=[P["w", ANY]],
            body=[consensus(exists(a).match(P["w", a]).such_that(a > 5))],
        ),
        ProcessDefinition(
            "Spawner", imports=[P["s", ANY]],
            body=[immediate().then(spawn("Brief"), spawn("Idle")), never],
        ),
        ProcessDefinition("Brief", imports=[P["b", ANY]], body=[immediate()]),
        ProcessDefinition("Idle", imports=[P["i", ANY]], body=[never]),
    ]
    for seed in range(8):
        runs = []
        for detection in (None, scratch_detection):
            engine = Engine(definitions=definitions, seed=seed, on_deadlock="return")
            engine.assert_tuples([("w", 1), ("w", 2)])
            engine.start("Waiter")
            engine.start("Spawner")
            if detection is None:
                result = engine.run()
            else:
                with detection():
                    result = engine.run()
            runs.append((result.reason, result.steps, engine.rng.random()))
        assert runs[0] == runs[1]


def test_a_set_that_partition_does_not_confirm_is_not_fired():
    def wrong(self):
        # once anything is free, offer every waiter as one set
        if real(self):
            return [frozenset(self._waiting)]
        return []

    engine = Engine(definitions=DEFINITIONS, seed=1)
    engine.assert_tuples([("g0", "token"), ("g1", "token")])
    engine.start("Fast", ("g0", "g0", "g0"))
    engine.start("Fast", ("g1", "g1", "g1"))
    engine.start("Long", ("g0", "g1"))  # both wait until it finishes
    real = ConsensusIndex.free_components
    ConsensusIndex.free_components = wrong
    try:
        with pytest.raises(EngineError, match="not a component"):
            engine.run()
    finally:
        ConsensusIndex.free_components = real


# ----------------------------------------------------------------------
# the community run: scans, reads, and no entry outlives its process
# ----------------------------------------------------------------------

def test_community_run_pays_few_full_scans(monkeypatch):
    """The closure reads the live society once, when the first process
    parks at a consensus point; after that no attempt scans the runners
    (one scan per component attempt before the index: 629; 32 with
    witnesses)."""
    scans = []
    real = ProcessSociety.live

    def counting(self):
        scans.append(1)
        return real(self)

    monkeypatch.setattr(ProcessSociety, "live", counting)
    out = run_community_labeling(random_blob_image(8, 8, blobs=3, seed=1), seed=3)
    assert out.correct
    assert len(scans) == 1


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
    executor.try_consensus()  # blocked by the runner
    index = executor.consensus_index
    assert index.pids() == {1, 2, 3}
    runner = engine.society.get(3)
    executor.crash_process(runner, "pre-commit")
    assert index.pids() == {1, 2}
    executor.crash_process(engine.society.get(1), "pre-commit")
    assert index.pids() <= {2}
    result = engine.run()
    assert result.consensus_rounds == 1 and index.pids() == set()


def test_a_program_that_never_waits_builds_no_closure():
    """Sum2 never parks at a consensus point: the index is never started,
    holds nothing, and the router records no touched window."""
    out = run_sum2(list(range(256)), seed=1)
    index = out.engine.executor.consensus_index
    assert out.total == sum(range(256))
    assert not index.started and index.pids() == set()
    assert WindowRouter.of(out.engine.dataspace).touched is None


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
