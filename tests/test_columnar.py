"""Columnar storage units and the PR's bugfix regressions.

The struct-of-arrays backend (``ColumnarStore``) carries machinery the
object store never needed — column promotion/demotion, tombstones and
compaction, lazy per-position indexes, the column-scan kernel — and each
mechanism has an invariant the differential suite alone would only catch
indirectly.  This module pins them down directly, alongside the three
bugfix regressions that ride with the PR: explicit ``head:N`` specs with
``N < 2`` are rejected (covered in ``test_storage_properties``) and the
routing memo evicts a bounded slice instead of wiping itself.
"""

from array import array

import pytest

from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import pattern
from repro.core.storage import (
    ColumnarStore,
    HeadPartitioner,
    TupleStore,
    merge_serial_lists,
    resolve_store,
)
from repro.core.tuples import make_tuple
from repro.errors import EngineError, SDLError
from repro.runtime.engine import Engine
from repro.runtime.parallel import load_shard, ship_shard

a = Var("a")


def _fill(store, rows, base=0):
    instances = [
        make_tuple(tuple(row), serial=base + i + 1, owner=0)
        for i, row in enumerate(rows)
    ]
    store.admit_many(instances)
    return instances


# ---------------------------------------------------------------------------
# resolve_store
# ---------------------------------------------------------------------------

class TestResolveStore:
    def test_defaults_to_object(self):
        for spec in (None, "", "object", "obj", " OBJECT "):
            kind, cls = resolve_store(spec)
            assert kind == "object" and cls is TupleStore

    def test_columnar_forms(self):
        for spec in ("columnar", "column", "col", " Columnar "):
            kind, cls = resolve_store(spec)
            assert kind == "columnar" and cls is ColumnarStore

    def test_rejects_garbage(self):
        for bad in ("frob", 4, True, "rowstore"):
            with pytest.raises(ValueError, match="unknown store backend"):
                resolve_store(bad)

    def test_round_trips_through_dataspace(self):
        ds = Dataspace(store="columnar")
        assert ds.store_kind == "columnar"
        assert Dataspace(store=ds.store_kind).store_kind == "columnar"
        assert Dataspace().store_kind == "object"


# ---------------------------------------------------------------------------
# column layout mechanics
# ---------------------------------------------------------------------------

class TestColumnLayout:
    def test_homogeneous_int_columns_promote_at_compaction(self):
        store = ColumnarStore(0)
        insts = _fill(store, [("k", i) for i in range(200)])
        for inst in insts[:100]:
            store.remove(inst)
        group = store.groups[2]
        assert store.compactions == 1
        assert isinstance(group.cols[1], array)  # homogeneous ints
        assert not isinstance(group.cols[0], array)  # strings stay a list
        assert [i.values for i in store.arity_candidates(2)] == [
            ("k", i) for i in range(100, 200)
        ]

    def test_promoted_column_demotes_on_mixed_append(self):
        store = ColumnarStore(0)
        insts = _fill(store, [("k", i) for i in range(200)])
        for inst in insts[:100]:
            store.remove(inst)
        assert isinstance(store.groups[2].cols[1], array)
        extra = _fill(store, [("k", "not-an-int"), ("k", 5)], base=200)
        col = store.groups[2].cols[1]
        assert not isinstance(col, array)
        # the demotion rolled back any partial extend: row count is exact
        assert len(col) == len(store.groups[2].insts)
        assert [i.values for i in store.scan(2, [(0, "k")], [])][-2:] == [
            ("k", "not-an-int"), ("k", 5)
        ]
        assert all(inst.tid in store.rows for inst in extra)

    def test_oversize_ints_stay_in_lists(self):
        store = ColumnarStore(0)
        insts = _fill(store, [("k", 2**80 + i) for i in range(200)])
        for inst in insts[:100]:
            store.remove(inst)
        assert not isinstance(store.groups[2].cols[1], array)
        assert store.scan_count(2, [(1, 2**80 + 150)], []) == 1

    def test_compaction_thresholds(self):
        store = ColumnarStore(0)
        insts = _fill(store, [("k", i) for i in range(100)])
        for inst in insts[:50]:  # 50 dead of 100: below the 64 floor
            store.remove(inst)
        assert store.compactions == 0
        more = _fill(store, [("k", i) for i in range(100, 130)], base=100)
        for inst in insts[50:] + more[:15]:  # crosses 65 dead of 130 rows
            store.remove(inst)
        assert store.compactions == 1
        # the removals after the mid-loop compaction are fresh tombstones
        assert store.groups[2].dead == 50
        assert len(store) == 15

    def test_lazy_position_index_is_exact_and_maintained(self):
        store = ColumnarStore(0)
        insts = _fill(store, [("k", i % 4, i) for i in range(40)])
        group = store.groups[3]
        assert group.pos_index == {}  # nothing probed yet
        assert store.field_size(3, 1, 2) == 10  # first probe builds it
        assert 1 in group.pos_index
        store.remove(insts[2])  # values (k, 2, 2)
        assert store.field_size(3, 1, 2) == 9  # maintained incrementally
        _fill(store, [("k", 2, 99)], base=40)
        assert store.field_size(3, 1, 2) == 10
        assert store.field_size(3, 1, 77) == 0

    def test_compaction_preserves_lazy_indexes_and_rows(self):
        store = ColumnarStore(0)
        insts = _fill(store, [("k", i % 3, i) for i in range(150)])
        assert store.field_size(3, 2, 149) == 1  # build the lazy index
        for inst in insts[:100]:
            store.remove(inst)
        assert store.compactions == 1
        group = store.groups[3]
        assert 2 in group.pos_index  # survived (renumbered), not discarded
        assert store.field_size(3, 2, 149) == 1
        assert [i.values[2] for i in store.field_candidates(3, 1, 100 % 3)] == [
            i for i in range(100, 150) if i % 3 == 100 % 3
        ]

    def test_stats_shape(self):
        store = ColumnarStore(0)
        _fill(store, [("k", i) for i in range(8)])
        stats = store.stats()
        assert stats["groups"] == 1 and stats["rows"] == 8
        assert set(stats) == {
            "groups", "rows", "dead_rows", "numeric_columns",
            "indexed_positions", "compactions",
        }
        assert stats["indexed_positions"] == ()  # nothing probed yet
        store.field_size(2, 1, 3)
        assert store.stats()["indexed_positions"] == ((2, 1),)


# ---------------------------------------------------------------------------
# the column-scan kernel (scan/scan_count vs. per-candidate matching)
# ---------------------------------------------------------------------------

class TestScanKernel:
    def _pair(self, rows):
        obj, col = Dataspace(), Dataspace(store="columnar")
        obj.insert_many(rows)
        col.insert_many(rows)
        return obj, col

    def test_kernel_equals_match_walk(self):
        rows = (
            [("year", i % 7) for i in range(60)]
            + [("pair", i % 5, (i + 1) % 5) for i in range(40)]
            + [("pair", i % 5, i % 5) for i in range(20)]
        )
        obj, col = self._pair(rows)
        for pat in (
            pattern("year", 3),
            pattern("year", a),
            pattern("pair", a, a),            # repeated variable
            pattern(Var("k"), a, a),
            pattern("pair", 2, Var("y")),
            pattern("absent", a),
        ):
            assert col.count_matching(pat) == obj.count_matching(pat)
            assert [i.tid for i in col.find_matching(pat)] == [
                i.tid for i in obj.find_matching(pat)
            ]

    def test_kernel_respects_bound_environment(self):
        obj, col = self._pair([("pair", i % 4, i % 3) for i in range(36)])
        pat = pattern("pair", a, Var("y"))
        for env in ({"a": 2}, {"a": 2, "y": 1}, {"y": 0}, {"a": 99}):
            assert col.count_matching(pat, env) == obj.count_matching(pat, env)
            assert [i.tid for i in col.find_matching(pat, env)] == [
                i.tid for i in obj.find_matching(pat, env)
            ]

    def test_kernel_scans_tombstoned_groups_correctly(self):
        obj, col = self._pair([("k", i % 3, i) for i in range(30)])
        for ds in (obj, col):
            doom = [i.tid for i in list(ds.instances())[::2]]
            ds.retract_many(doom)
        pat = pattern("k", a, Var("y"))
        assert col.count_matching(pat) == obj.count_matching(pat)
        assert [i.tid for i in col.find_matching(pat)] == [
            i.tid for i in obj.find_matching(pat)
        ]

    def test_unindexed_kernel_walks_columns(self):
        obj = Dataspace(indexed=False)
        col = Dataspace(indexed=False, store="columnar")
        rows = [("k", i % 5, i) for i in range(50)]
        obj.insert_many(rows)
        col.insert_many(rows)
        assert col.stores[0].field_size(3, 1, 2) == 0  # mirror TupleStore
        for pat in (pattern("k", 2, a), pattern(Var("h"), a, a)):
            assert col.count_matching(pat) == obj.count_matching(pat)
            assert [i.tid for i in col.find_matching(pat)] == [
                i.tid for i in obj.find_matching(pat)
            ]

    def test_expression_patterns_fall_back_to_match(self):
        # A literal expression over an unbound variable must raise through
        # the naive walk exactly as the object store does — the kernel may
        # not swallow it (and must not raise when there are no candidates).
        obj, col = self._pair([("year", i) for i in range(5)])
        pat = pattern("year", Var("missing") + 1)
        for ds in (obj, col):
            with pytest.raises(Exception):
                ds.count_matching(pat)
        empty_obj, empty_col = self._pair([])
        assert empty_obj.count_matching(pat) == 0
        assert empty_col.count_matching(pat) == 0

    def test_evaluable_expressions_scan(self):
        obj, col = self._pair([("year", i) for i in range(10)])
        pat = pattern("year", a + 2)
        env = {"a": 5}
        assert col.count_matching(pat, env) == obj.count_matching(pat, env) == 1
        assert [i.values for i in col.find_matching(pat, env)] == [("year", 7)]


# ---------------------------------------------------------------------------
# shard shipping
# ---------------------------------------------------------------------------

class TestPickleRoundTrip:
    @pytest.mark.parametrize("cls", [TupleStore, ColumnarStore])
    def test_store_round_trip_rebuilds_layout(self, cls):
        ds = Dataspace(store=cls.kind)
        insts = ds.insert_many([("k", i % 4, i) for i in range(40)])
        ds.retract_many([inst.tid for inst in insts[::3]])
        store = ds.stores[0]
        clone = load_shard(ship_shard(ds, 0))
        assert type(clone) is cls
        assert clone.shard == 0
        assert len(clone) == len(store)
        assert [i.tid for i in clone.arity_candidates(3)] == [
            i.tid for i in ds.instances()
        ]
        assert clone.field_size(3, 1, 2) == store.field_size(3, 1, 2)
        assert [i.tid for i in clone.candidates_probed(3, [(1, 2)])] == [
            i.tid for i in store.candidates_probed(3, [(1, 2)])
        ]

    @pytest.mark.parametrize("store_kind", ["object", "columnar"])
    def test_ship_and_load_shard(self, store_kind):
        ds = Dataspace(shards=4, store=store_kind)
        ds.insert_many([(f"c{i % 5}", i) for i in range(60)])
        shipped = [load_shard(ship_shard(ds, k)) for k in range(ds.shard_count)]
        merged = merge_serial_lists(s.arity_candidates(2) for s in shipped)
        assert [i.tid for i in merged] == [i.tid for i in ds.instances()]
        for original, clone in zip(ds.stores, shipped):
            assert clone.kind == original.kind
            assert clone.shard == original.shard
            assert len(clone) == len(original)


# ---------------------------------------------------------------------------
# S2 regression: bounded memo eviction in HeadPartitioner
# ---------------------------------------------------------------------------

class TestRoutingMemoEviction:
    def test_eviction_is_bounded_and_routing_pure(self):
        part = HeadPartitioner(8)
        cap = part._CACHE_CAP
        before = {
            (2, f"h{i}"): part.shard_of(2, f"h{i}") for i in range(cap + 200)
        }
        # the memo never exceeds the cap, and eviction dropped a slice —
        # not the whole table.
        assert len(part._cache) <= cap
        assert len(part._cache) > cap - part._EVICT_SLICE - 1
        # eviction can only cost recomputation, never change a route
        for (arity, head), shard in before.items():
            assert part.shard_of(arity, head) == shard

    def test_working_set_at_cap_keeps_recent_entries(self):
        part = HeadPartitioner(4)
        cap = part._CACHE_CAP
        for i in range(cap):
            part.shard_of(2, i)
        assert len(part._cache) == cap
        part.shard_of(2, cap)  # one past the cap: evicts the oldest slice
        cache = part._cache
        assert (2, cap) in cache
        assert (2, cap - 1) in cache          # recent survivors
        assert (2, 0) not in cache            # oldest slice gone
        assert len(cache) == cap - part._EVICT_SLICE + 1

    def test_unhashable_heads_still_route_without_caching(self):
        part = HeadPartitioner(4)
        route = part.shard_of(1, [1, 2])
        assert route == part.shard_of(1, [1, 2])
        assert not part._cache


# ---------------------------------------------------------------------------
# facade batch mutation + engine wiring
# ---------------------------------------------------------------------------

class TestRetractMany:
    @pytest.mark.parametrize("store_kind", ["object", "columnar"])
    def test_single_event_and_journal(self, store_kind):
        ds = Dataspace(store=store_kind)
        insts = ds.insert_many([("k", i) for i in range(10)])
        mark = ds.version
        events = []
        ds.subscribe(events.append)
        gone = ds.retract_many([i.tid for i in insts[:4]])
        assert [i.tid for i in gone] == [i.tid for i in insts[:4]]
        assert ds.version == mark + 1
        assert len(events) == 1
        assert (len(events[0].asserted), len(events[0].retracted)) == (0, 4)
        assert len(ds) == 6

    def test_validates_before_mutating(self):
        ds = Dataspace(store="columnar")
        insts = ds.insert_many([("k", i) for i in range(4)])
        stranger = make_tuple(("k", 0), serial=999, owner=0)
        with pytest.raises(SDLError, match="not in the dataspace"):
            ds.retract_many([insts[0].tid, stranger.tid])
        with pytest.raises(SDLError, match="duplicate"):
            ds.retract_many([insts[0].tid, insts[0].tid])
        assert len(ds) == 4  # neither bad batch touched anything
        assert ds.retract_many([]) == []


class TestEngineWiring:
    def test_engine_rejects_dataspace_plus_store(self):
        with pytest.raises(EngineError, match="dataspace= and store="):
            Engine(dataspace=Dataspace(), store="columnar")

    def test_engine_rejects_bad_store(self):
        with pytest.raises(EngineError, match="unknown store backend"):
            Engine(store="frob")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("SDL_STORE", "columnar")
        assert Engine().dataspace.store_kind == "columnar"
        monkeypatch.delenv("SDL_STORE")
        assert Engine().dataspace.store_kind == "object"

    def test_explicit_dataspace_keeps_its_backend(self, monkeypatch):
        monkeypatch.setenv("SDL_STORE", "columnar")
        assert Engine(dataspace=Dataspace()).dataspace.store_kind == "object"

    def test_run_result_reports_backend_and_gauges(self):
        engine = Engine(store="columnar", obs=True)
        engine.assert_tuples([("k", i) for i in range(5)])
        result = engine.run()
        assert result.store == "columnar"
        assert engine.dataspace.store_kind == "columnar"
        assert result.metrics["sdl_columnar_rows"]["data"] == 5
        # pinned explicitly: the suite may run under SDL_STORE=columnar
        assert Engine(store="object").run().store == "object"
