"""Candidate rows are handed out, not copied: a differential against copying.

An arity bucket is a serial-ascending list that a probe-less fetch
returns uncopied, the snapshot lens reports how many of those rows it shows instead of
slicing them (``storage.cut_len``), and the planned search starts at the
arbitration offset instead of building a rotated copy
(``matching.rotation_start``).  None of that may move a schedule.

The reference here is the copying design, rebuilt from nothing the change
touched: every fetch is recomputed from the identity table (global serial
order, ``Dataspace.instances``) with the probes, the view's imports and the
watermark applied as per-row filters, then rotated with the naive walk's
``_rotated`` copy.  The planner runs over that reference with ``rng=None``,
so the only rotation is the reference's own draw — taken right after each
fetch, where the planned search takes its draw.  Planned ``∃`` and ``∀``
(the latter under a growing exclusion set, as ``Query.evaluate`` drives
it) must then yield the same ``(bindings, tids)`` sequence from both, and
leave the two RNGs in the same state.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.matching import _rotated, rotation_start
from repro.core.patterns import pattern
from repro.core.plan import QueryPlanner
from repro.core.storage import cut_at_serial, cut_len
from repro.core.tuples import make_tuple
from repro.core.views import View, import_rule
from repro.runtime.rounds import _SnapshotLens

a, b, k, m = Var("a"), Var("b"), Var("k"), Var("m")

#: (atoms, test, indexes of the retracting atoms) — Sum3's probe-less
#: guard, a position-0 probe joined on a shared variable, a repeated
#: variable over a field probe, and a three-atom chain with a test that
#: the planner places as an early filter.
QUERIES = (
    ((pattern(k, a), pattern(m, b)), k != m, (0, 1)),
    ((pattern("c1", a), pattern(k, a)), None, (1,)),
    ((pattern(k, a, a), pattern(m, 3)), None, (0,)),
    ((pattern(k, a), pattern(m, a, b), pattern("c2", b)), a < 4, (0, 2)),
)

# (op, community, value, pick)
scripts = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "insert_many", "retract", "retract_many"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=14,
)


def apply_op(space, op):
    kind, c, n, pick = op
    if kind == "insert":
        space.insert((f"c{c}", n))
    elif kind == "insert_many":
        space.insert_many(
            [(f"c{(c + i) % 4}", (n + i) % 5) for i in range(1 + pick % 4)]
            + [(f"c{c}", n, n), (f"c{c}", 3, (n + pick) % 5)]
        )
    else:
        live = sorted(space.tids(), key=lambda tid: tid.serial)
        if not live:
            return
        start = pick % len(live)
        if kind == "retract":
            space.retract(live[start])
        else:
            space.retract_many(live[start::2][: 1 + n])


class CopyingWindow:
    """The copying design: filter the identity table, copy, rotate."""

    def __init__(self, space, window, watermark, rng):
        self.space = space
        self.window = window
        self.watermark = watermark
        self.rng = rng

    def candidates_probed(self, arity, probes):
        rows = [
            inst
            for inst in self.space.instances()
            if len(inst.values) == arity
            and all(inst.values[position] == value for position, value in probes)
            and inst.tid.serial <= self.watermark
            and self.window.imports_instance(inst)
        ]
        return _rotated(rows, self.rng)


def forall(planner, window, query, rng):
    """``∀`` as ``Query.evaluate`` drives it: exclusion grows mid-search."""
    atoms, test, retracting = query
    consumed = set()
    out = []
    for bindings, insts in planner.iter_matches(window, atoms, {}, rng, consumed, test):
        out.append((sorted(bindings.items()), [inst.tid for inst in insts]))
        consumed.update(insts[i].tid for i in retracting)
    return out


def exists(planner, window, query, rng):
    atoms, test, __ = query
    for bindings, insts in planner.iter_matches(window, atoms, {}, rng, frozenset(), test):
        return sorted(bindings.items()), [inst.tid for inst in insts]
    return None


@settings(deadline=None)
@given(
    script=scripts,
    shards=st.sampled_from(["single", "head:4"]),
    store=st.sampled_from(["object", "columnar"]),
    narrow=st.booleans(),
    cut=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_planned_search_equals_the_copying_reference(script, shards, store, narrow, cut, seed):
    space = Dataspace(shards=shards, store=store)
    view = View(imports=[import_rule("c1", a), import_rule(k, a, b)]) if narrow else View.full()
    window = view.window(space)
    planner = QueryPlanner(space)
    for op in script:
        apply_op(space, op)
        # The watermark hides a suffix of everything asserted so far, or
        # nothing at all (the live window, no lens).
        watermark = space.serial if cut is None else space.serial * cut // 100
        shown = window if cut is None else _SnapshotLens(window, watermark)
        for query in QUERIES:
            for drive in (exists, forall):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                reference = CopyingWindow(space, window, watermark, ref_rng)
                got = drive(planner, shown, query, rng)
                assert got == drive(planner, reference, query, None), (op, query)
                assert rng.getstate() == ref_rng.getstate()


@settings(deadline=None)
@given(
    script=scripts,
    shards=st.sampled_from(["single", "head:4"]),
    store=st.sampled_from(["object", "columnar"]),
)
def test_probes_hand_out_serial_ascending_buckets(script, shards, store):
    """Every fetch equals the identity-table filter, and a probe-less
    read of the object store is its bucket itself, uncopied."""
    space = Dataspace(shards=shards, store=store)
    for op in script:
        apply_op(space, op)
        live = list(space.instances())
        for arity, probes in ((2, []), (2, [(0, "c1")]), (2, [(1, 3)]), (3, [(1, 3)])):
            rows = space.candidates_probed(arity, probes)
            assert rows == [
                inst
                for inst in live
                if inst.arity == arity and all(inst.values[p] == v for p, v in probes)
            ]
        if store == "object" and space.arity_size(2):
            first = space.candidates_probed(2, [])
            assert space.candidates_probed(2, []) is first


def test_rotation_start_draws_as_the_naive_rotation():
    for n in range(5):
        rng, ref = random.Random(n), random.Random(n)
        start = rotation_start(n, rng)
        rows = list(range(n))
        assert rows[start:] + rows[:start] == _rotated(rows, ref)
        assert rng.getstate() == ref.getstate()  # no draw for n < 2
    assert rotation_start(7, None) == 0


def test_cut_len_is_the_length_of_the_cut():
    rows = [make_tuple((s,), serial=s, owner=0) for s in (2, 5, 9)]
    for serial in range(11):
        assert cut_len(rows, serial) == len(cut_at_serial(rows, serial))
    assert cut_len([], 3) == 0


def test_retract_deletes_the_named_row_and_rejects_a_stranger():
    space = Dataspace()
    kept = space.insert_many([("x", i) for i in range(6)])
    space.retract(kept[2].tid)
    assert space.stores[0].by_arity[2] == kept[:2] + kept[3:]
    stranger = make_tuple(("x", 9), serial=kept[2].tid.serial, owner=0)
    with pytest.raises(KeyError):
        space.stores[0].remove(stranger)
