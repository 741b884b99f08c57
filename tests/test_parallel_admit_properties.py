"""Parallel admission differential: ``admit="parallel"`` ≡ serial.

Admission dispatch (``repro.runtime.rounds._dispatch_admission`` over
``repro.runtime.parallel``'s snapshot machinery) claims to be a pure
scheduling knob: shipping Phase B match evaluation to workers over cached
shard snapshots must be *unobservable* — program state down to instance
serials and owners, and every admit-independent ``RunResult`` counter
(including plan-cache hits: the walk consults the real planner for every
worker verdict it accepts), bit-identical to serial admission per seed.
This module proves the claim three ways:

* **property-based** — random community programs under random seeds,
  across live/group commit, shard counts, both store backends, and fault
  plans (including the ``admit-dispatch`` site), plus delta-refresh vs
  full-reship equivalence when a tiny journal forces snapshot re-ships;
* **deterministic fault paths** — each injected ``admit-dispatch``
  action (``worker-crash``, ``stale-snapshot``, ``garbage-footprint``)
  is absorbed by retry or validation fallback, counted, and leaves the
  run identical to serial, including full quarantine-to-serial
  degradation when the pool disables itself;
* **unit regressions** — ``ship_shard`` reads the facade's identity
  table (derived columnar structure never reaches the wire; lazy indexes
  rebuild on demand), the shipper's per-shard deltas are the facade
  journal projected onto the shard and honour its window, the
  ``SnapshotShipper`` ships each blob once and re-ships after eviction,
  and ``prepare_match`` admits exactly the single-atom pure fragment.
"""

from __future__ import annotations

import pickle
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import dataspace as dataspace_module
from repro.core.actions import assert_tuple
from repro.core.dataspace import JOURNAL_DEPTH, Dataspace
from repro.core.expressions import Var
from repro.core.patterns import P
from repro.core.query import Membership, exists
from repro.core.storage import resolve_shards
from repro.core.transactions import delayed
from repro.runtime.engine import Engine
from repro.runtime.parallel import (
    SnapshotShipper,
    load_shard,
    prepare_match,
    ship_shard,
)
from tests.test_parallel_properties import (
    _counters,
    _signature,
    community_worker,
    pair_merger,
)

a = Var("a")
b = Var("b")
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _run(
    workers,
    admit,
    n_comm,
    n_work,
    seed,
    commit,
    shards=4,
    store=None,
    faults=None,
    worker_timeout=None,
    obs=None,
):
    """One community run; the admission knob is the only variable.

    The planner is pinned on: dispatch needs it (``_dispatch_admission``
    returns nothing without one), and the naive walk is swept by every
    other suite under ``SDL_PLAN=off``.
    """
    engine = Engine(
        definitions=[community_worker(), pair_merger()],
        seed=seed,
        commit=commit,
        plan="on",
        shards=shards,
        store=store,
        workers=workers,
        admit=admit,
        faults=faults,
        worker_timeout=worker_timeout,
        obs=obs,
        on_deadlock="return",
    )
    engine.assert_tuples(
        [(f"c{c}", i) for c in range(n_comm) for i in range(n_work + 2)]
    )
    for c in range(n_comm):
        for __ in range(n_work):
            engine.start("Worker", (f"c{c}",))
        engine.start("Merger", (f"c{c}",))
    result = engine.run()
    return engine, result


# ---------------------------------------------------------------------------
# property-based differential: admit="parallel" ≡ serial
# ---------------------------------------------------------------------------

class TestAdmitEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        n_comm=st.integers(min_value=1, max_value=4),
        n_work=st.integers(min_value=1, max_value=4),
        seed=seeds,
        commit=st.sampled_from(["live", "group"]),
        shards=st.sampled_from([2, 4]),
        store=st.sampled_from([None, "columnar"]),
    )
    def test_admit_parallel_is_bit_identical(
        self, n_comm, n_work, seed, commit, shards, store
    ):
        serial_engine, serial = _run(
            None, "serial", n_comm, n_work, seed, commit,
            shards=shards, store=store,
        )
        par_engine, par = _run(
            "thread:3", "parallel", n_comm, n_work, seed, commit,
            shards=shards, store=store,
        )
        assert _signature(par_engine) == _signature(serial_engine)
        assert _counters(par) == _counters(serial)

    @settings(max_examples=15, deadline=None)
    @given(
        n_comm=st.integers(min_value=2, max_value=4),
        seed=seeds,
        fault_seed=st.integers(min_value=0, max_value=99),
        site=st.sampled_from(
            [
                "pre-commit:crash:prob=0.2",
                "batch-admit:kill-round:prob=0.3",
                "post-match:abort:prob=0.2",
                "admit-dispatch:worker-crash:at=1",
                "admit-dispatch:stale-snapshot:prob=0.5",
                "admit-dispatch:garbage-footprint:at=1",
            ]
        ),
    )
    def test_equivalence_holds_under_faults(self, n_comm, seed, fault_seed, site):
        plan = f"seed={fault_seed}; {site}"
        serial_engine, serial = _run(
            None, "serial", n_comm, 3, seed, "group", faults=plan
        )
        par_engine, par = _run(
            "thread:3", "parallel", n_comm, 3, seed, "group", faults=plan
        )
        assert _signature(par_engine) == _signature(serial_engine)
        assert _counters(par) == _counters(serial)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_admit_run_is_deterministic_per_seed(self, seed):
        runs = [
            _run("thread:3", "parallel", 4, 3, seed, "group") for __ in range(2)
        ]
        (e1, r1), (e2, r2) = runs
        assert _signature(e1) == _signature(e2)
        assert _counters(r1) == _counters(r2)
        # Dispatch and snapshot bookkeeping are deterministic too.
        assert (
            r1.admit_rounds, r1.admit_tasks, r1.admit_candidates,
            r1.admit_fallbacks, r1.snapshot_ship_bytes,
            r1.snapshot_refreshes_delta, r1.snapshot_refreshes_full,
        ) == (
            r2.admit_rounds, r2.admit_tasks, r2.admit_candidates,
            r2.admit_fallbacks, r2.snapshot_ship_bytes,
            r2.snapshot_refreshes_delta, r2.snapshot_refreshes_full,
        )

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds, depth=st.sampled_from([1, 2, 4]))
    def test_delta_refresh_equals_full_reship(self, seed, depth):
        """Journal overflow forces full re-ships mid-run; the run must not
        notice.  Serial and parallel admission under the same tiny journal
        stay bit-identical, and the final state equals the default-depth
        state (journal depth is invisible to program semantics)."""
        baseline_engine, baseline = _run(
            "thread:3", "parallel", 4, 3, seed, "group"
        )
        # ``Dataspace.__init__`` sizes the journal from the module constant.
        old = dataspace_module.JOURNAL_DEPTH
        dataspace_module.JOURNAL_DEPTH = depth
        try:
            serial_engine, serial = _run(None, "serial", 4, 3, seed, "group")
            par_engine, par = _run(
                "thread:3", "parallel", 4, 3, seed, "group"
            )
        finally:
            dataspace_module.JOURNAL_DEPTH = old
        assert par_engine.dataspace._journal.maxlen == depth
        assert _signature(par_engine) == _signature(serial_engine)
        assert _counters(par) == _counters(serial)
        assert _signature(serial_engine) == _signature(baseline_engine)
        # Not vacuous: the tiny journal really did overflow past shipped
        # floors and force re-ships the default depth never needs.  (A
        # transaction is one version, and depths up to 4 overflowed on
        # every one of 151 seeds tried; 8 did not on 18 of them.)
        # Naive-path engines (the SDL_PLAN=off sweep) never dispatch.
        if par_engine.planner is not None:
            assert (
                par.snapshot_refreshes_full > baseline.snapshot_refreshes_full
            )


class TestAdmitDispatchIsLive:
    def test_dispatch_actually_fires(self):
        """The differential suite must not be vacuous: the canonical
        community shape really does ship admission tasks to workers."""
        __, result = _run("thread:3", "parallel", 4, 3, seed=7, commit="group")
        assert result.admit_rounds > 0
        assert result.admit_tasks > 0
        assert result.admit_candidates > 0
        assert result.snapshot_ship_bytes > 0

    def test_workers_one_is_inert(self):
        engine, result = _run(1, "parallel", 2, 2, seed=7, commit="group")
        assert engine.pool is None
        assert engine.snapshots is None
        assert result.admit_rounds == result.admit_tasks == 0

    def test_live_commit_never_dispatches(self):
        __, result = _run("thread:3", "parallel", 3, 3, seed=7, commit="live")
        assert result.admit_rounds == result.admit_tasks == 0

    @pytest.mark.slow
    def test_process_pool_admission_matches_serial(self):
        serial_engine, serial = _run(None, "serial", 4, 3, seed=11, commit="group")
        par_engine, par = _run(
            "process:2", "parallel", 4, 3, seed=11, commit="group"
        )
        assert _signature(par_engine) == _signature(serial_engine)
        assert _counters(par) == _counters(serial)
        assert par.admit_rounds > 0


# ---------------------------------------------------------------------------
# deterministic admit-dispatch fault paths (site "admit-dispatch")
# ---------------------------------------------------------------------------

class TestAdmitDispatchFaults:
    def _pair(self, faults, **kw):
        serial_engine, serial = _run(None, "serial", 4, 3, seed=5, commit="group")
        par_engine, par = _run(
            "thread:3", "parallel", 4, 3, seed=5, commit="group",
            faults=faults, **kw,
        )
        assert _signature(par_engine) == _signature(serial_engine)
        assert _counters(par) == _counters(serial)
        return par_engine, par

    def test_worker_crash_retries_clean_and_matches_serial(self):
        __, par = self._pair("seed=5; admit-dispatch:worker-crash:at=1")
        # The retry resubmits the clean evaluator, so the verdict still
        # arrives from a worker — a retry, not a fallback.
        assert par.worker_retries >= 1
        assert par.admit_rounds > 0

    def test_crash_storm_is_absorbed_by_retries(self):
        __, par = self._pair("seed=5; admit-dispatch:worker-crash:prob=1.0")
        assert par.worker_retries >= par.admit_tasks > 0

    def test_stale_snapshot_rejects_whole_task_to_serial(self):
        __, par = self._pair("seed=5; admit-dispatch:stale-snapshot:prob=1.0")
        # Version validation rejects every sabotaged task's candidates
        # before any RNG draw; they re-evaluate serially at their walk
        # position.
        assert par.admit_fallbacks > 0

    def test_garbage_footprint_rejects_per_row_to_serial(self):
        __, par = self._pair("seed=5; admit-dispatch:garbage-footprint:at=1")
        # Corrupted tuple serials fail per-candidate validation against
        # the live candidate list.
        assert par.admit_fallbacks > 0

    def test_fallbacks_are_counted_on_obs(self):
        engine, par = self._pair(
            "seed=5; admit-dispatch:stale-snapshot:prob=1.0", obs=True
        )
        data = par.metrics["sdl_parallel_admit_fallbacks_total"]["data"]
        assert sum(data.values()) == par.admit_fallbacks > 0

    def test_quarantined_pool_degrades_admission_to_serial(self):
        # An apply-phase garbage storm spends the shared quarantine
        # budget; once the pool disables itself, admission dispatch must
        # go fully serial — and still match the serial baseline.
        engine, par = self._pair(
            "seed=5; worker-exec:garbage-plan:prob=1.0"
        )
        assert engine.pool.disabled


# ---------------------------------------------------------------------------
# ship_shard regression: instances only, never derived structure
# ---------------------------------------------------------------------------

class TestShipShardExplicitState:
    def test_lazy_indexes_never_ship_and_rebuild_on_demand(self):
        ds = Dataspace(store="columnar")
        ds.insert_many([("k", i % 4, i) for i in range(30)])
        plain = ship_shard(ds, 0)
        # Build a lazy position-1 index on the live store.
        probed = ds.stores[0]
        assert probed.candidates_probed(3, [(1, 2)])
        assert probed.groups[3].pos_index
        # Derived structure is invisible on the wire: the bytes are the
        # store class, shard id, index flag and the instances...
        assert ship_shard(ds, 0) == plain
        cls, shard, indexed, instances = pickle.loads(plain)
        assert (cls, shard, indexed) == (type(probed), 0, True)
        assert [i.tid for i in instances] == [i.tid for i in ds.instances()]
        # ...and the receiving side rebuilds it lazily, with identical
        # contents.
        clone = load_shard(plain)
        assert not clone.groups[3].pos_index
        assert [i.tid for i in clone.candidates_probed(3, [(1, 2)])] == [
            i.tid for i in probed.candidates_probed(3, [(1, 2)])
        ]
        assert clone.groups[3].pos_index


# ---------------------------------------------------------------------------
# per-shard deltas: the facade journal, projected
# ---------------------------------------------------------------------------

class TestChangesSince:
    def _shipper(self, events):
        ds = Dataspace(shards=4)
        shard_of = ds.partitioner.shard_of_values
        home = shard_of(("c0", 0))
        away = next(f"c{i}" for i in range(1, 9) if shard_of((f"c{i}", 0)) != home)
        for here in events:
            ds.insert(("c0" if here else away, ds.version))
        return SnapshotShipper(ds), home

    def test_suffix_is_oldest_first(self):
        # versions 1..6; the home shard sees 1, 3, 4 and 6
        shipper, home = self._shipper([True, False, True, True, False, True])
        for floor, expected in ((0, [1, 3, 4, 6]), (3, [4, 6]), (6, [])):
            deltas = shipper._deltas_since(home, floor)
            assert [c.version for c in deltas] == expected

    def test_refuses_evicted_windows(self):
        shipper, home = self._shipper([True] * (JOURNAL_DEPTH + 5))
        assert shipper._deltas_since(home, 4) is None
        assert shipper._deltas_since(home, 5) is not None
        assert shipper._deltas_since(home, 5)[0].version == 6


# ---------------------------------------------------------------------------
# SnapshotShipper: blob-once, deltas-after, full re-ship past eviction
# ---------------------------------------------------------------------------

class TestSnapshotShipper:
    def _dataspace(self):
        ds = Dataspace(shards=4)
        ds.insert_many([(f"c{i % 4}", i) for i in range(20)])
        return ds

    def test_first_bundle_carries_the_blob_then_deltas_only(self):
        ds = self._dataspace()
        shipper = SnapshotShipper(ds)
        first = shipper.bundle(1, ds.version, ds.version, ())
        assert first[6] is not None  # blob on first ship
        after_blob = shipper.ship_bytes
        assert after_blob > 0
        ds.insert(("c1", 99), owner=0)
        second = shipper.bundle(1, ds.version, ds.version, ())
        assert second[6] is None  # cached: deltas only
        assert second[2] == ds.version
        delta_bytes = shipper.ship_bytes - after_blob
        assert 0 < delta_bytes < after_blob
        deltas = pickle.loads(second[5])
        assert [c.version for c in deltas] == [ds.version]

    def test_with_blob_forces_the_blob_back_on(self):
        ds = self._dataspace()
        shipper = SnapshotShipper(ds)
        shipper.bundle(1, ds.version, ds.version, ())
        again = shipper.bundle(1, ds.version, ds.version, (), with_blob=True)
        assert again[6] is not None

    def test_eviction_past_floor_rebuilds_the_blob(self):
        ds = self._dataspace()
        shipper = SnapshotShipper(ds)
        shipper.bundle(1, ds.version, ds.version, ())
        # Overflow the journal far past the shipped floor.
        for i in range(JOURNAL_DEPTH + 9):
            ds.insert(("c1", i))
        target = ds.version
        rebuilt = shipper.bundle(1, target, target, ())
        assert rebuilt[6] is not None  # full re-ship
        assert rebuilt[3] == target    # fresh floor: no deltas needed
        assert pickle.loads(rebuilt[5]) == []

    def test_note_reply_counts_refreshes_and_versions(self):
        shipper = SnapshotShipper(self._dataspace())
        shipper.note_reply("full", "w1", 20)
        shipper.note_reply("delta", "w1", 21)
        shipper.note_reply("delta", "w2", 21)
        assert shipper.refreshes == {"delta": 2, "full": 1}
        assert shipper.worker_versions == {"w1": 21, "w2": 21}


# ---------------------------------------------------------------------------
# prepare_match: the dispatchable single-atom pure fragment
# ---------------------------------------------------------------------------

def _process(scope=None, unrestricted=True):
    return types.SimpleNamespace(
        view=types.SimpleNamespace(unrestricted=unrestricted),
        scope=lambda: dict(scope or {}),
    )


def _query(builder):
    return delayed(builder).then(assert_tuple("out")).build().query


class TestPrepareMatch:
    partitioner = resolve_shards(4)

    def test_single_atom_head_probe_is_eligible(self):
        query = _query(exists(a).match(P["c", a].retract()))
        meta = prepare_match(query, _process(), self.partitioner)
        assert meta is not None
        assert meta.arity == 2
        assert meta.shard == self.partitioner.shard_of(2, "c")
        assert (0, "c") in meta.probes

    def test_bound_var_head_routes_by_scope(self):
        query = _query(exists(a).match(P[Var("k"), a].retract()))
        meta = prepare_match(query, _process({"k": "c7"}), self.partitioner)
        assert meta is not None
        assert meta.shard == self.partitioner.shard_of(2, "c7")

    def test_multi_atom_is_serial(self):
        query = _query(
            exists(a, b).match(P["c", a].retract(), P["c", b].retract())
        )
        assert prepare_match(query, _process(), self.partitioner) is None

    def test_membership_test_is_serial(self):
        query = _query(
            exists(a).match(P["c", a].retract()).such_that(
                Membership(P["flag", b])
            )
        )
        assert prepare_match(query, _process(), self.partitioner) is None

    def test_restricted_view_is_serial(self):
        query = _query(exists(a).match(P["c", a].retract()))
        assert (
            prepare_match(query, _process(unrestricted=False), self.partitioner)
            is None
        )

    def test_unbound_head_is_serial(self):
        # No position-0 probe: candidates would merge across every shard.
        query = _query(exists(a, b).match(P[b, a].retract()))
        assert prepare_match(query, _process(), self.partitioner) is None
