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
no longer runs the oracles at all.
"""

from hypothesis import given, settings, strategies as st

from repro.core.tuples import TupleId, TupleInstance
from repro.core.values import Atom
from repro.programs.summation import run_sum2
from repro.runtime import commit
from repro.runtime.commit import (
    AdmittedBatch,
    Footprint,
    WriteRecord,
    conflicts,
    first_conflict,
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
