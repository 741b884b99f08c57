"""E20 — columnar tuple storage: scan and batch-mutation speedups.

The struct-of-arrays backend must be a pure performance knob: identical
observable behavior (the differential suite in
``tests/test_columnar_properties.py`` proves bit-identity), with

* **match-heavy scan ≥ 2×** — ``count_matching``/``find_matching`` over a
  hot arity resolve through the column-scan kernel (contiguous per-field
  arrays, no per-tuple ``Pattern.match`` calls) instead of walking
  instance objects;
* **batched assert/retract, reported** — ``insert_many``/``retract_many``
  become column appends and tombstones.  Its ratio is reported, not
  asserted: the ≥ 1.5× floor it once had measured columnar against the
  object store's per-field dict upkeep, and since field indexes are
  built on first probe an unprobed batch maintains none in either
  backend (about 1.6× before, about 1× after);
* **snapshot shipping** — a shard pickles compactly from its column form
  (``ship_shard``/``load_shard``); timed for the report, no floor.

Timing uses best-of-N interleaved between the two backends (the E17
idiom) so load drift cannot land on one side of the comparison.
"""

import time

import pytest

from _helpers import attach, once
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import pattern
from repro.runtime.parallel import load_shard, ship_shard

SCAN_ROWS = 20_000
BATCH_ROWS = 5_000
BATCH_ROUNDS = 4

a = Var("a")

# hot arity-4 telemetry rows: one head, clustered numeric fields
_SCAN_DATA = [
    ("reading", i % 50, i % 7, (i * 13) % 50) for i in range(SCAN_ROWS)
]
# wide numeric rows: six fields, none of them probed
_BATCH_DATA = [
    ("m", i, i + 1, i * 2, i % 7, i % 13) for i in range(BATCH_ROWS)
]

SCAN_PATTERNS = {
    "mid_probe": pattern("reading", Var("x"), 3, Var("y")),
    "head_probe": pattern("reading", 7, Var("x"), Var("y")),
    "repeat_var": pattern("reading", a, Var("b"), a),
}


def _scan_space(store):
    ds = Dataspace(store=store)
    ds.insert_many(_SCAN_DATA)
    return ds


def _scan_all(ds):
    total = 0
    for pat in SCAN_PATTERNS.values():
        total += ds.count_matching(pat)
        total += sum(1 for __ in ds.find_matching(pat))
    return total


def _batch_cycle(store):
    ds = Dataspace(store=store)
    for __ in range(BATCH_ROUNDS):
        insts = ds.insert_many(_BATCH_DATA)
        # retract half: exercises tombstones + compaction on the columnar
        # side, per-tuple bucket surgery on the object side
        ds.retract_many([i.tid for i in insts[: BATCH_ROWS // 2]])
    return ds


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of_interleaved(n, fn_a, fn_b):
    best_a = best_b = float("inf")
    for __ in range(n):
        best_a = min(best_a, _timed(fn_a))
        best_b = min(best_b, _timed(fn_b))
    return best_a, best_b


@pytest.mark.parametrize("store", ["object", "columnar"])
def test_e20_scan_runs(benchmark, store):
    ds = _scan_space(store)
    total = benchmark(_scan_all, ds)
    attach(benchmark, store=store, rows=SCAN_ROWS, matched=total)
    assert total == _scan_all(_scan_space("object"))


def test_e20_shape_match_scan_2x(benchmark):
    def check():
        obj, col = _scan_space("object"), _scan_space("columnar")
        # identical answers before any timing claim
        for name, pat in SCAN_PATTERNS.items():
            assert col.count_matching(pat) == obj.count_matching(pat), name
            assert [i.tid for i in col.find_matching(pat)] == [
                i.tid for i in obj.find_matching(pat)
            ], name
        _scan_all(obj), _scan_all(col)  # warm
        obj_s, col_s = _best_of_interleaved(
            7, lambda: _scan_all(obj), lambda: _scan_all(col)
        )
        ratio = obj_s / col_s
        assert ratio >= 2.0, f"columnar scan speedup {ratio:.2f}x below 2x"
        return obj_s, col_s, ratio

    obj_s, col_s, ratio = once(benchmark, check)
    attach(
        benchmark,
        object_ms=round(obj_s * 1e3, 2),
        columnar_ms=round(col_s * 1e3, 2),
        speedup=round(ratio, 2),
        rows=SCAN_ROWS,
    )


def test_e20_shape_batch_mutation_reported(benchmark):
    """Same end state from both backends; the wall-clock ratio is
    reported (``speedup``), not asserted."""

    def check():
        # identical end state before any timing claim
        assert (
            _batch_cycle("columnar").multiset()
            == _batch_cycle("object").multiset()
        )
        obj_s, col_s = _best_of_interleaved(
            5,
            lambda: _batch_cycle("object"),
            lambda: _batch_cycle("columnar"),
        )
        return obj_s, col_s, obj_s / col_s

    obj_s, col_s, ratio = once(benchmark, check)
    attach(
        benchmark,
        object_ms=round(obj_s * 1e3, 2),
        columnar_ms=round(col_s * 1e3, 2),
        speedup=round(ratio, 2),
        rows=BATCH_ROWS,
        rounds=BATCH_ROUNDS,
    )


def test_e20_snapshot_shipping(benchmark):
    def check():
        sizes, times = {}, {}
        for store in ("object", "columnar"):
            ds = Dataspace(shards=4, store=store)
            ds.insert_many(_SCAN_DATA)
            start = time.perf_counter()
            blobs = [ship_shard(ds, i) for i in range(ds.shard_count)]
            times[store] = time.perf_counter() - start
            sizes[store] = sum(len(b) for b in blobs)
            clones = [load_shard(b) for b in blobs]
            assert sum(len(c) for c in clones) == len(ds)
        return sizes, times

    sizes, times = once(benchmark, check)
    attach(
        benchmark,
        object_bytes=sizes["object"],
        columnar_bytes=sizes["columnar"],
        object_ms=round(times["object"] * 1e3, 2),
        columnar_ms=round(times["columnar"] * 1e3, 2),
        rows=SCAN_ROWS,
    )
