"""Differential tests: the keyed indexes against the oracles they replaced.

Both hot-path lookups are exact hash probes by shape —
:class:`~repro.runtime.wakeup.WakeupIndex` for "which parked items does
this change wake?", :class:`~repro.runtime.commit.AdmittedBatch` for "which
admitted footprint does this candidate conflict with first?".  The linear
definitions they replaced stay in the source as oracles
(``Subscription.matches``; ``conflicts`` / ``WriteRecord.touches``), and
these properties hold the indexes to them on inputs built to stress the
hash/``==`` agreement of the value domain (``Atom("x")`` vs ``"x"``,
``True`` / ``1`` / ``1.0``).  The two count tests pin that the engine path
no longer runs the oracles at all.  A third property holds the lemma group
admission rests on: a candidate's read side alone finds the winner its
full footprint would, and a fourth that the batch's memoised verdicts
(shared by content-equal read-only probes) are the walk they replace.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.actions import assert_tuple
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import ANY, pattern
from repro.core.process import ProcessDefinition, ProcessInstance
from repro.core.query import Query, QueryAtom
from repro.core.transactions import Mode, Transaction
from repro.core.tuples import TupleId, TupleInstance
from repro.core.values import Atom
from repro.programs.summation import run_sum2
from repro.runtime import commit
from repro.runtime.commit import (
    AdmittedBatch,
    Footprint,
    WriteRecord,
    complete_footprint,
    conflicts,
    first_conflict,
    footprint_for,
    read_side,
)
from repro.runtime.wakeup import WAKE_ANY, AtomWatcher, Subscription, WakeupIndex

# A deliberately tiny domain, so keys collide, holding every pair the dict
# must treat as ``==`` does.
values = st.sampled_from([0, 1, True, 1.0, 2, "x", Atom("x"), "y", (1, "x")])
arities = st.integers(min_value=1, max_value=3)


@st.composite
def watchers(draw) -> AtomWatcher:
    """Any shape over its arity: probe-less, partial, full, in any order."""
    arity = draw(arities)
    positions = draw(st.lists(st.integers(0, arity - 1), unique=True, max_size=arity))
    return AtomWatcher(arity, tuple((p, draw(values)) for p in positions))


@st.composite
def instances(draw) -> TupleInstance:
    row = tuple(draw(st.lists(values, min_size=1, max_size=3)))
    return TupleInstance(TupleId(draw(st.integers(1, 99)), 0), row)


# ---------------------------------------------------------------------------
# (i) WakeupIndex.affected == FIFO filter by Subscription.matches
# ---------------------------------------------------------------------------

subscriptions = st.one_of(
    st.just(WAKE_ANY),
    st.lists(watchers(), max_size=3).map(Subscription),
)


class Item:
    """A parked item as the index sees it: anything with a ``tid``."""

    def __init__(self, tid: int) -> None:
        self.tid = tid


index_ops = st.one_of(
    st.tuples(st.just("add"), st.integers(1, 6), subscriptions),
    st.tuples(st.just("discard"), st.integers(1, 6), st.none()),
)


class TestWakeupIndexAgainstMatches:
    @given(st.lists(index_ops, max_size=14), st.lists(st.lists(instances(), max_size=4), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_affected_is_the_fifo_filter(self, script, changes):
        index = WakeupIndex()
        # dict order is first-insertion order: re-adding a key keeps its
        # slot, popping and adding again moves it last — the FIFO contract.
        parked: dict[int, tuple[Item, Subscription]] = {}
        for op, tid, sub in script:
            if op == "add":
                item = Item(tid)
                index.add(item, sub)
                parked[tid] = (item, sub)
            else:
                index.discard(tid)
                parked.pop(tid, None)
            assert len(index) == len(parked)
            for changed in changes:
                expected = [item for item, sub in parked.values() if sub.matches(changed)]
                before = index.stats.wake_checks
                assert index.affected(changed) == expected
                keyed = sum(1 for item, sub in parked.values()
                            if not sub.wake_any and sub.matches(changed))
                assert index.stats.wake_checks - before == keyed
        for tid in list(parked):
            index.discard(tid)
        assert not index._shapes and not index._any  # every bucket pruned


# ---------------------------------------------------------------------------
# (ii) first_conflict(batch, fp) is the pairwise conflicts() walk
# ---------------------------------------------------------------------------

tids = st.builds(TupleId, st.integers(1, 5), st.just(0))


@st.composite
def write_records(draw) -> WriteRecord:
    """Exact (every position known) or predicted (unknown ones absent)."""
    arity = draw(arities)
    known = draw(st.lists(st.integers(0, arity - 1), unique=True, max_size=arity))
    return WriteRecord(arity, {p: draw(values) for p in known})


@st.composite
def footprints(draw) -> Footprint:
    return Footprint(
        draw(st.integers(1, 99)),
        draw(st.sampled_from([False, False, False, True])),
        draw(st.lists(watchers(), max_size=3)),
        frozenset(draw(st.lists(tids, max_size=2))),
        draw(st.lists(write_records(), max_size=3)),
    )


def walk(admitted, candidate):
    for earlier in admitted:
        if conflicts(candidate, earlier):
            return earlier
    return None


class TestAdmittedBatchAgainstConflicts:
    @given(st.lists(footprints(), max_size=8), st.lists(footprints(), min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_first_conflict_is_the_pairwise_walk(self, admitted, candidates):
        batch = AdmittedBatch()
        for count, footprint in enumerate(admitted, start=1):
            batch.append(footprint)
            assert len(batch) == count and batch[count - 1] is footprint
            # Probing builds shape tables lazily; later appends must keep
            # the built ones current, hence the check after every append.
            for candidate in candidates:
                assert first_conflict(batch, candidate) is walk(admitted[:count], candidate)
        for candidate in candidates:
            assert first_conflict(admitted, candidate) is walk(admitted, candidate)
            assert first_conflict([], candidate) is None


# ---------------------------------------------------------------------------
# (iii) the read side alone decides a loser
# ---------------------------------------------------------------------------
#
# A w-w conflict implies an r-w conflict at the same or an earlier admitted
# index: the shared instance matched one of the candidate's query atoms, so
# the watcher of that atom is touched by the exact write record the
# admitted footprint keeps for the same instance.  Hence probing with the
# reads alone — before evaluating — returns the full footprint's winner.

# The values the engine can store: the domain above minus the tuple.
field_values = st.sampled_from([0, 1, True, 1.0, 2, "x", Atom("x"), "y"])
# Query variables, and ``k``, a process parameter the scope binds.
names = st.sampled_from(["a", "b", "k"])


@st.composite
def fields(draw):
    kind = draw(st.sampled_from(["value", "value", "var", "any"]))
    if kind == "value":
        return draw(field_values)
    if kind == "var":
        return Var(draw(names))
    return ANY


@st.composite
def retracting_txns(draw) -> Transaction:
    """One or two atoms, at least one retracted, and one assert."""
    atoms = []
    for __ in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(1, 3))
        atoms.append(QueryAtom(
            pattern(*[draw(fields()) for __ in range(arity)]),
            retract=draw(st.booleans()),
        ))
    if not any(atom.retract for atom in atoms):
        atoms[0] = QueryAtom(atoms[0].pattern, retract=True)
    quantifier = draw(st.sampled_from(["exists", "exists", "forall"]))
    asserted = pattern(*[draw(st.one_of(field_values, st.builds(Var, names)))
                         for __ in range(draw(st.integers(1, 3)))])
    return Transaction(
        Query(quantifier, ["a", "b"], atoms),
        Mode.DELAYED,
        [assert_tuple(*asserted)],
    )


rows = st.lists(field_values, min_size=1, max_size=3).map(tuple)
OWNER = ProcessDefinition("P", params=("k",))


def evaluated(space, txn, pid, k):
    process = ProcessInstance(pid, OWNER, (k,))
    scope = process.scope()
    reads = read_side(txn, process, scope)
    result = txn.query.evaluate(space, scope, random.Random(pid))
    return reads, result, scope, footprint_for(txn, result, process, scope, reads)


class TestReadSideDecidesLosers:
    @given(
        st.lists(rows, min_size=1, max_size=10),
        st.lists(st.tuples(retracting_txns(), field_values), max_size=5),
        retracting_txns(),
        field_values,
    )
    @settings(max_examples=300, deadline=None)
    def test_reads_only_probe_finds_the_full_footprints_winner(
        self, data, admitted_txns, candidate, k
    ):
        space = Dataspace()
        space.insert_many(data)
        batch = AdmittedBatch()
        admitted = []
        for pid, (txn, param) in enumerate(admitted_txns, start=1):
            __, result, scope, fp = evaluated(space, txn, pid, param)
            if result.success:
                admitted.append(complete_footprint(fp, txn, result, scope))
                batch.append(admitted[-1])
        reads, __, __, full = evaluated(space, candidate, 99, k)
        reads_only = Footprint(99, *reads, frozenset(), ())
        winner = walk(admitted, full)
        assert first_conflict(batch, full) is winner
        assert first_conflict(batch, reads_only) is winner


# ---------------------------------------------------------------------------
# (iv) a memoised verdict is the walk it replaced
# ---------------------------------------------------------------------------
#
# Between two appends, a read-only probe's answer is a pure function of the
# batch and its content key, so AdmittedBatch memoises it under that key.
# Probes are drawn from a small pool and asked again as distinct but
# content-equal copies; their values add one shared NaN object (equal to
# itself only by identity) and fresh NaNs (equal to nothing), which the
# memo may only miss on.  Writes stay NaN-free: the pairwise oracle
# compares with ``!=``, under which even a shared NaN never touches.

SHARED_NAN = float("nan")
probe_values = st.one_of(
    values, st.just(SHARED_NAN), st.builds(float, st.just("nan"))
)


@st.composite
def probe_watchers(draw) -> AtomWatcher:
    arity = draw(arities)
    positions = draw(st.lists(st.integers(0, arity - 1), unique=True, max_size=arity))
    return AtomWatcher(arity, tuple((p, draw(probe_values)) for p in positions))


@st.composite
def probes(draw) -> Footprint:
    """Mostly read-only, as the round walk asks; some carry retract ids."""
    return Footprint(
        draw(st.integers(1, 99)),
        draw(st.sampled_from([False, False, False, True])),
        draw(st.lists(probe_watchers(), max_size=3)),
        frozenset(draw(st.lists(tids, max_size=2)) if draw(st.booleans()) else ()),
        (),
    )


def content_equal_copy(probe: Footprint) -> Footprint:
    return Footprint(
        probe.pid + 100,
        probe.reads_all,
        [AtomWatcher(w.arity, w.probes) for w in probe.watchers],
        probe.retract_tids,
        (),
    )


def pairwise_index(admitted, candidate):
    return next(
        (i for i, earlier in enumerate(admitted) if conflicts(candidate, earlier)),
        None,
    )


memo_ops = st.one_of(
    st.tuples(st.just("append"), footprints()),
    st.tuples(st.just("probe"), st.integers(0, 3), st.booleans()),
)


class TestVerdictMemo:
    @given(st.lists(probes(), min_size=1, max_size=4), st.lists(memo_ops, max_size=24))
    @settings(deadline=None)
    def test_memoised_answer_is_the_memo_free_walk(self, pool, script):
        batch = AdmittedBatch()
        appended: list[Footprint] = []
        for op in script:
            if op[0] == "append":
                batch.append(op[1])
                appended.append(op[1])
                continue
            __, choice, copy = op
            probe = pool[choice % len(pool)]
            if copy:
                probe = content_equal_copy(probe)
            got = batch.first_conflict_index(probe)
            # A fresh batch over the same footprints has an empty memo.
            assert got == AdmittedBatch(appended).first_conflict_index(probe)
            assert got == pairwise_index(appended, probe)

    def test_content_equal_probes_share_one_walk(self, monkeypatch):
        walks = []
        real = AdmittedBatch._walk
        monkeypatch.setattr(
            AdmittedBatch, "_walk", lambda self, fp: walks.append(fp) or real(self, fp)
        )
        batch = AdmittedBatch([Footprint(1, False, (), frozenset(),
                                         [WriteRecord(2, {0: "tok", 1: 0})])])
        takers = [Footprint(pid, False, [AtomWatcher(2, ((0, "tok"),))], frozenset(), ())
                  for pid in range(2, 6)]
        assert [batch.first_conflict_index(t) for t in takers] == [0] * 4
        assert len(walks) == 1
        # Retract ids are never memoised; an unhashable key skips the memo.
        retracting = Footprint(9, False, takers[0].watchers, frozenset([TupleId(1, 0)]), ())
        unhashable = Footprint(9, False, [AtomWatcher(3, ((0, [1]),))], frozenset(), ())
        for __ in range(2):
            assert batch.first_conflict_index(retracting) == 0
            assert batch.first_conflict_index(unhashable) is None
        assert len(walks) == 5

    def test_append_forgets_the_answers(self):
        watcher = AtomWatcher(2, ((0, "tok"),))
        batch = AdmittedBatch([Footprint(1, False, (), frozenset(), ())])
        assert batch.first_conflict_index(Footprint(2, False, [watcher], frozenset(), ())) is None
        batch.append(Footprint(3, False, (), frozenset(), [WriteRecord(2, {0: "tok"})]))
        assert batch.first_conflict_index(Footprint(4, False, [watcher], frozenset(), ())) == 1


# ---------------------------------------------------------------------------
# the engine path runs neither oracle
# ---------------------------------------------------------------------------

class TestEnginePathIsKeyed:
    def test_sum2_delivers_at_most_one_wake_per_commit(self):
        """Each Sum2 commit asserts one tuple, awaited by one process."""
        result = run_sum2(list(range(256)), seed=3).result
        assert result.commits == 255
        assert result.wake_checks <= result.commits

    def test_sum2_group_admission_never_walks_pairs(self, monkeypatch):
        calls = {"touches": 0, "conflicts": 0, "matches": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(WriteRecord, "touches", counting("touches", WriteRecord.touches))
        monkeypatch.setattr(commit, "conflicts", counting("conflicts", commit.conflicts))
        monkeypatch.setattr(Subscription, "matches", counting("matches", Subscription.matches))
        result = run_sum2(list(range(256)), seed=3, commit="group").result
        assert result.commits == 255
        assert calls == {"touches": 0, "conflicts": 0, "matches": 0}
