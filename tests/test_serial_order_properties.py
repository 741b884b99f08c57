"""Serial order is an invariant: what the prefix cut and the facade order rest on.

Serials are issued by one monotone facade counter and every store only
appends, so every enumeration the dataspace offers is strictly
serial-ascending.  Two hot paths now *exploit* that instead of recomputing
it per query: the sharded facade keeps a per-arity serial order current
(``Dataspace._arity_ordered``) rather than merging the shards' buckets on
every probe-less read, and the snapshot lens cuts a prefix
(``storage.cut_at_serial``) rather than filtering each row.  The old
per-query computations — the k-way ``heapq`` merge and the filter
comprehension — stay here as the oracles.
"""

import heapq

from hypothesis import given, settings, strategies as st

import repro.core.dataspace as dataspace_module
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import pattern
from repro.core.storage import cut_at_serial, merge_by_serial, merge_serial_lists
from repro.core.tuples import make_tuple
from repro.core.views import View, import_rule
from repro.programs.summation import sum3_definition
from repro.runtime.engine import Engine
from repro.runtime.rounds import _SnapshotLens
from repro.workloads.arrays import array_tuples

a = Var("a")
k = Var("k")

SCAN = {2: pattern(k, a), 3: pattern(k, a, Var("b"))}  # probe-less, per arity
PATTERNS = (
    SCAN[2],
    pattern("c1", a),  # position 0: routed to the home shard
    pattern(k, 3),  # position 1: cross-shard field probe
    pattern("c2", 3),
    pattern(k, a, a),  # repeated variable: the columnar scan kernel
    pattern(k, 3, a),
)
PROBES = (
    (2, []),
    (2, [(0, "c1")]),
    (2, [(1, 3)]),
    (2, [(0, "c2"), (1, 3)]),
    (3, []),
    (3, [(1, 3)]),
    (3, [(2, 3)]),
)
FIELDS = ((2, 0, "c1"), (2, 1, 3), (3, 2, 3))

# (op, community, payload, pick).  ``bulk``/``purge`` move enough rows to
# cross the columnar compaction threshold (>= 64 tombstones and half the
# group); ``read`` makes a probe-less read happen at a drawn point.
scripts = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert", "batch", "bulk", "retract", "retract_many", "purge", "read"]
        ),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=24,
)
configs = st.tuples(
    st.sampled_from(["object", "columnar"]),
    st.sampled_from(["single", "head:2", "head:4"]),
    st.booleans(),
)


def serials(instances):
    return [inst.tid.serial for inst in instances]


def apply_op(space, op):
    """Apply one script op; every space given the same script stays equal."""
    kind, c, n, pick = op
    if kind == "insert":
        space.insert((f"c{c}", n))
    elif kind == "batch":
        space.insert_many([(f"c{c}", n), (f"c{(c + 1) % 7}", n, n), (f"c{c}", 3)])
    elif kind == "bulk":
        space.insert_many(
            [(f"c{(c + i) % 7}", (n + i) % 6) for i in range(90)]
            + [(f"c{(c + i) % 7}", 3, (n + i) % 6) for i in range(20)]
        )
    elif kind == "read":
        space.candidates_probed(2 + pick % 2, [])
    else:
        live = sorted(space.tids(), key=lambda tid: tid.serial)
        if not live:
            return
        start = pick % len(live)
        if kind == "retract":
            space.retract(live[start])
        elif kind == "retract_many":
            space.retract_many(live[start::3][: 1 + n])
        else:  # purge: most of what is live, oldest and newest included
            space.retract_many(live[start % 2 :: 2][:80] + live[1 - start % 2 :: 2][:40])


def every_read(space):
    """Every enumeration the dataspace and its windows offer, labelled."""
    full = View.full().window(space)
    narrow = View(
        imports=[import_rule("c1", a), import_rule(k, 3), import_rule(k, a, a)]
    ).window(space)
    for pat in PATTERNS:
        yield ("candidates", pat), space.candidates(pat)
        yield ("find_matching", pat), space.find_matching(pat)
        yield ("window.candidates", pat), full.candidates(pat)
        yield ("narrow.candidates", pat), narrow.candidates(pat)
    for arity, probes in PROBES:
        yield ("candidates_probed", arity, probes), space.candidates_probed(arity, probes)
        yield ("window.candidates_probed", arity, probes), full.candidates_probed(arity, probes)
        yield ("narrow.candidates_probed", arity, probes), narrow.candidates_probed(arity, probes)
    for arity in (2, 3):
        yield ("by_arity", arity), list(space.by_arity(arity).values())
    for arity, position, value in FIELDS:
        yield ("by_field", arity, position, value), list(
            space.by_field(arity, position, value).values()
        )
    yield ("instances",), list(space.instances())
    yield ("window.instances",), list(narrow.instances())


# ---------------------------------------------------------------------------
# (i) every enumeration is strictly serial-ascending
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(script=scripts, config=configs)
def test_every_enumeration_is_strictly_serial_ascending(script, config):
    store, shards, indexed = config
    space = Dataspace(indexed=indexed, shards=shards, store=store)
    for op in script:
        apply_op(space, op)
        for label, rows in every_read(space):
            order = serials(rows)
            assert all(x < y for x, y in zip(order, order[1:])), (label, order)


# ---------------------------------------------------------------------------
# (ii) the maintained facade order == the per-query k-way merge == one store
# ---------------------------------------------------------------------------


def kway_merge(parts):
    """The per-query merge the facade used to run: the oracle."""
    return list(heapq.merge(*parts, key=lambda inst: inst.tid.serial))


def merged_arity(space, arity):
    return serials(kway_merge([s.arity_candidates(arity) for s in space.stores]))


@settings(max_examples=40, deadline=None)
@given(
    script=scripts,
    store=st.sampled_from(["object", "columnar"]),
    shards=st.sampled_from(["head:2", "head:4"]),
    late=st.integers(min_value=0, max_value=24),
)
def test_facade_arity_order_equals_kway_merge_and_single_store(script, store, shards, late):
    single = Dataspace(store=store)
    early = Dataspace(shards=shards, store=store)  # order built before any admit
    later = Dataspace(shards=shards, store=store)  # order built mid-script
    never = Dataspace(shards=shards, store=store)  # no probe-less read at all
    script = [op for op in script if op[0] != "read"]
    for arity in (2, 3):
        early.candidates_probed(arity, [])
    for step, op in enumerate(script):
        if step == late:
            for arity in (2, 3):
                later.by_arity(arity)
        for space in (single, early, later, never):
            apply_op(space, op)
        for arity in (2, 3):
            expected = serials(single.candidates_probed(arity, []))
            for space in (early, later, never):
                assert merged_arity(space, arity) == expected
            # white box: the maintained order, read without triggering a build
            assert serials(early._arity_order[arity]) == expected
            if step >= late:
                assert serials(later._arity_order[arity]) == expected
            assert serials(early.candidates(SCAN[arity])) == expected
    assert never._arity_order == {}  # arities never scanned are never tracked
    for arity in (2, 3):
        expected = serials(single.candidates_probed(arity, []))
        assert serials(never.candidates_probed(arity, [])) == expected
        assert list(never.by_arity(arity)) == list(single.by_arity(arity))
    # bounded by the live tuples of the tracked arities: a full retract drains it
    for space in (early, later, never):
        space.retract_many(list(space.tids()))
        assert not any(space._arity_order.values())


instance_runs = st.lists(
    st.lists(st.integers(min_value=1, max_value=400), max_size=30), max_size=5
)


@settings(max_examples=60, deadline=None)
@given(runs=instance_runs)
def test_merge_helpers_equal_the_kway_merge(runs):
    """Disjoint ascending runs (shards never share a serial), some empty."""
    seen = set()
    parts = []
    for run in runs:
        fresh = sorted(set(run) - seen)
        seen.update(fresh)
        parts.append([make_tuple((s,), serial=s, owner=0) for s in fresh])
    expected = kway_merge(parts)
    assert merge_serial_lists(parts) == expected
    assert merge_serial_lists(iter(part) for part in parts) == expected
    assert merge_by_serial({i.tid: i for i in part} for part in parts) == expected


# ---------------------------------------------------------------------------
# (iii) the snapshot lens's prefix cut == the filter it replaced
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(script=scripts, config=configs)
def test_snapshot_lens_cut_equals_the_watermark_filter(script, config):
    store, shards, indexed = config
    space = Dataspace(indexed=indexed, shards=shards, store=store)
    for op in script:
        apply_op(space, op)
    narrow = View(imports=[import_rule("c1", a), import_rule(k, 3)])
    for window in (View.full().window(space), narrow.window(space)):
        reads = [
            (lambda lens, pat=pat: lens.candidates(pat), window.candidates(pat))
            for pat in PATTERNS[:4]
        ] + [
            (
                lambda lens, arity=arity, probes=probes: lens.candidates_probed(arity, probes),
                window.candidates_probed(arity, probes),
            )
            for arity, probes in PROBES[:4]
        ]
        for read, rows in reads:
            # A read can change only where one of its rows' serials is
            # crossed: 0 and serial+1 bracket the all-hidden and
            # nothing-hidden cuts, and s-1 and s, for each row's serial s,
            # are the cuts on either side of it.
            own = {inst.tid.serial for inst in rows}
            for watermark in sorted({0, space.serial + 1} | own | {s - 1 for s in own}):
                assert read(_SnapshotLens(window, watermark)) == [
                    inst for inst in rows if inst.tid.serial <= watermark
                ]


def test_cut_at_serial_edges():
    rows = [make_tuple((s,), serial=s, owner=0) for s in (2, 5, 9)]
    assert cut_at_serial([], 7) == []
    assert cut_at_serial(rows, 1) == []
    assert cut_at_serial(rows, 2) == rows[:1]
    assert cut_at_serial(rows, 8) == rows[:2]
    assert cut_at_serial(rows, 9) is rows  # nothing hidden: no copy


# ---------------------------------------------------------------------------
# (iv) Sum3 under shards: one merge per arity, not two per commit
# ---------------------------------------------------------------------------


def test_sum3_sharded_merges_once_per_arity(monkeypatch):
    engine = Engine(definitions=[sum3_definition()], seed=3, shards=4, commit="group")
    engine.assert_tuples(array_tuples(list(range(256))))
    engine.start("Sum3")
    merges = []
    real = dataspace_module.merge_serial_lists

    def counting(parts):
        out = real(parts)
        merges.append(len(out))
        return out

    monkeypatch.setattr(dataspace_module, "merge_serial_lists", counting)
    result = engine.run()
    assert result.commits == 255
    # Sum3's dataspace holds one arity (<k, A(k)>), scanned probe-less by
    # every evaluation: the lazy build is the only merge of the whole run.
    assert merges == [256]
