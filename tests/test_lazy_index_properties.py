"""Demand-built field indexes: built late, they answer as if built at load.

An ``(arity, position)`` field index comes into being at the first lookup
that needs it and is maintained from then on (SEMANTICS §12).  The claim
checked here is that *when* an index was built is unobservable: after any
mix of ``insert`` / ``insert_many`` / ``retract`` / ``retract_many`` /
``apply_change``, with probes at random points, every lookup — sizes,
buckets, candidate lists, their serial order — equals the same lookup
answered from scratch over the live rows, in both backends and both
layouts.  The second half pins the gain: a program that never probes a
position never indexes it, and inspection never builds one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import pattern
from repro.programs.summation import run_sum2, run_sum3

LAYOUTS = [(store, shards) for store in ("object", "columnar") for shards in ("single", 4)]

#: Arity 4 never receives a row: probing it is the empty-arity case.
ARITIES = (1, 2, 3, 4)
values = st.integers(min_value=0, max_value=3)
rows = st.integers(min_value=1, max_value=3).flatmap(
    lambda arity: st.tuples(*[values] * arity)
)
probes = st.tuples(
    st.sampled_from(ARITIES),
    st.integers(min_value=0, max_value=3),  # position (clamped to the arity)
    values,
    st.integers(min_value=0, max_value=3),  # a second probe's position
    values,
)
ops = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("insert_many"), st.lists(rows, max_size=6)),
    st.tuples(st.just("retract"), st.integers(min_value=0)),
    st.tuples(st.just("retract_many"), st.integers(min_value=0), st.integers(0, 4)),
    st.tuples(
        st.just("apply_change"),
        st.integers(min_value=0),
        st.integers(0, 3),
        st.lists(rows, max_size=3),
    ),
    st.tuples(st.just("probe"), probes),
)


def _live(ds, arity, shard=None):
    """The live rows of *arity* in serial order (of one shard, if named)."""
    shard_of = ds.partitioner.shard_of_values
    return [
        inst
        for inst in ds.instances()
        if len(inst.values) == arity
        and (shard is None or shard_of(inst.values) == shard)
    ]


def _tids(instances):
    return [inst.tid for inst in instances]


def _check_probe(ds, arity, position, value, other, other_value):
    """Every lookup of one key, against the from-scratch answer."""
    position %= arity
    other %= arity
    key = [inst for inst in _live(ds, arity) if inst.values[position] == value]
    assert _tids(ds.by_field(arity, position, value).values()) == _tids(key)
    assert ds.field_size(arity, position, value) == len(key)
    two = [(position, value)] if other == position else [(position, value), (other, other_value)]
    both = [
        inst for inst in _live(ds, arity)
        if all(inst.values[p] == v for p, v in two)
    ]
    assert _tids(ds.candidates_probed(arity, two)) == _tids(both)
    for store in ds.stores:
        local = [
            inst for inst in _live(ds, arity, store.shard)
            if inst.values[position] == value
        ]
        assert store.field_size(arity, position, value) == len(local)
        assert _tids(store.field_bucket(arity, position, value).values()) == _tids(local)
        assert _tids(store.field_candidates(arity, position, value)) == _tids(local)
        local_both = [
            inst for inst in _live(ds, arity, store.shard)
            if all(inst.values[p] == v for p, v in two)
        ]
        assert _tids(store.candidates_probed(arity, two)) == _tids(local_both)
        # ``candidates``: the narrowest constant's bucket, the first (in
        # position order) winning a tie
        fields = [Var(f"x{i}") for i in range(arity)]
        for p, v in two:
            fields[p] = v
        buckets = [
            [inst for inst in _live(ds, arity, store.shard) if inst.values[p] == v]
            for p, v in sorted(two)
        ]
        if any(not bucket for bucket in buckets):
            narrowest = []
        else:
            narrowest = min(buckets, key=len)
        assert _tids(store.candidates(pattern(*fields), {})) == _tids(narrowest)


def _indexed(ds):
    """The built ``(arity, position)`` indexes, over every shard."""
    return {
        pair for store in ds.stores for pair in store.stats()["indexed_positions"]
    }


def _check_inspection(ds):
    """``debug_by_field`` is the from-scratch index and builds nothing."""
    before = _indexed(ds)
    table = ds._by_field
    assert _indexed(ds) == before
    expected = {}
    for inst in ds.instances():
        for position, value in enumerate(inst.values):
            expected.setdefault((len(inst.values), position, value), []).append(inst.tid)
    assert {key: sorted(bucket) for key, bucket in table.items()} == expected


def _replay(ds, script):
    for op in script:
        kind = op[0]
        live = list(ds.instances())
        if kind == "insert":
            ds.insert(op[1])
        elif kind == "insert_many":
            ds.insert_many(op[1])
        elif kind == "retract" and live:
            ds.retract(live[op[1] % len(live)].tid)
        elif kind == "retract_many" and live:
            start = op[1] % len(live)
            ds.retract_many([inst.tid for inst in live[start : start + op[2]]])
        elif kind == "apply_change":
            start = op[1] % len(live) if live else 0
            ds.apply_change(live[start : start + op[2]], [(3, op[3])])
        elif kind == "probe":
            _check_probe(ds, *op[1])


@pytest.mark.parametrize("store,shards", LAYOUTS)
@settings(max_examples=60, deadline=None)
@given(script=st.lists(ops, max_size=40))
def test_late_indexes_answer_like_indexes_built_at_load(store, shards, script):
    ds = Dataspace(store=store, shards=shards)
    _replay(ds, script)
    for arity in ARITIES:
        for position in range(arity):
            for value in range(4):
                _check_probe(ds, arity, position, value, 0, 0)
    _check_inspection(ds)


@pytest.mark.parametrize("store,shards", LAYOUTS)
class TestFirstDemand:
    def test_after_mutations(self, store, shards):
        ds = Dataspace(store=store, shards=shards)
        insts = ds.insert_many([(i % 3, i % 2, i) for i in range(40)])
        ds.retract_many([inst.tid for inst in insts[::4]])
        ds.apply_change(insts[1:3], [(5, [(1, 1, 99), (2, 1, 100)])])
        assert _indexed(ds) == set()
        for value in (0, 1):
            _check_probe(ds, 3, 1, value, 2, 99)
        assert (3, 1) in _indexed(ds)
        ds.insert((0, 1, 7))  # maintained from now on
        ds.retract(insts[5].tid)
        _check_probe(ds, 3, 1, 1, 0, 0)

    def test_after_every_row_of_its_key_is_gone(self, store, shards):
        ds = Dataspace(store=store, shards=shards)
        insts = ds.insert_many([("k", i % 2) for i in range(10)])
        ds.retract_many([inst.tid for inst in insts if inst.values[1] == 1])
        _check_probe(ds, 2, 1, 1, 0, "k")
        assert ds.field_size(2, 1, 0) == 5
        ds.insert(("k", 1))
        _check_probe(ds, 2, 1, 1, 0, "k")

    def test_empty_arity(self, store, shards):
        ds = Dataspace(store=store, shards=shards)
        ds.insert_many([("k", 1)])
        _check_probe(ds, 3, 2, 0, 0, 0)  # no row of arity 3 yet
        ds.insert_many([(i, i, i % 2) for i in range(6)])
        _check_probe(ds, 3, 2, 0, 1, 2)
        ds.retract_many([inst.tid for inst in _live(ds, 3)])
        _check_probe(ds, 3, 2, 0, 0, 0)


# ---------------------------------------------------------------------------
# the gain, pinned: what no query reads is never indexed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("store,shards", LAYOUTS)
def test_sum3_indexes_nothing(store, shards):
    # <n, a> and <m, b> carry no constant: no lookup names a field.
    run = run_sum3(list(range(256)), seed=1, store=store, shards=shards)
    assert run.total == sum(range(256))
    assert _indexed(run.engine.dataspace) == set()


@pytest.mark.parametrize("store,shards", LAYOUTS)
def test_sum2_indexes_the_positions_it_binds(store, shards):
    # <k - 2^(j-1), a, j> binds positions 0 and 2; the value is never a key.
    run = run_sum2(list(range(64)), seed=1, store=store, shards=shards)
    assert run.total == sum(range(64))
    assert _indexed(run.engine.dataspace) == {(3, 0), (3, 2)}
    _check_inspection(run.engine.dataspace)
    assert _indexed(run.engine.dataspace) == {(3, 0), (3, 2)}
