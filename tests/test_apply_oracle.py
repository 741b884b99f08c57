"""One transaction, one dataspace change: :func:`apply` against the
row-by-row oracle.

:func:`repro.core.transactions.apply` hands a transaction's whole effect
to the dataspace as one change (one version, one journal entry, one WAL
frame).  The oracle below is the form it replaced: every retraction, then
every assertion, each a change of its own.  A run with the oracle patched
in must equal a run without it in every observable that is not a count of
changes: commits, rounds, steps, the arbitration RNG's state, the final
instances (serials and owners included) and what the write-ahead log
reloads to.
"""

from __future__ import annotations

import pytest

import repro.core.transactions as transactions
import repro.runtime.commit as commit_module
import repro.runtime.executor as executor_module
from repro.programs import run_community_labeling, run_sort, run_sum2, run_sum3
from repro.runtime import DurableLog
from repro.workloads import random_blob_image, random_property_list


def apply_row_by_row(effects, dataspace):
    """The oracle: one dataspace change per retracted or asserted row."""
    for effect in effects:
        for inst in effect.retracted:
            dataspace.retract(inst.tid)
    asserted = []
    for effect in effects:
        for values in effect.assertions:
            asserted.append(dataspace.insert(values, effect.owner))
    return asserted


def _sum3(commit, wal_dir):
    return run_sum3(list(range(1, 65)), seed=3, commit=commit, wal_dir=wal_dir)


def _sum2(commit, wal_dir):
    return run_sum2(list(range(1, 65)), seed=5, commit=commit)


def _community(commit, wal_dir):
    return run_community_labeling(random_blob_image(8, 8, blobs=3, seed=1), seed=1, commit=commit)


def _sort(commit, wal_dir):
    return run_sort(random_property_list(64, seed=64), seed=2, commit=commit)


PROGRAMS = {"sum3_wal": _sum3, "sum2": _sum2, "community_8x8": _community, "sort_64": _sort}


def _observe(program, commit, wal_dir):
    out = PROGRAMS[program](commit, wal_dir)
    engine, result = out.engine, out.result
    assert result.completed
    observed = {
        "counts": (result.commits, result.rounds, result.steps),
        "rng": engine.rng.getstate(),
        "instances": [
            (inst.tid.serial, inst.tid.owner, inst.values)
            for inst in engine.dataspace.instances()
        ],
    }
    if wal_dir is not None:
        loaded, report = DurableLog.load(wal_dir)
        assert report.intact
        observed["reload"] = sorted(
            (repr(inst.values), inst.tid.owner) for inst in loaded.instances()
        )
        observed["wal_frames"] = result.wal_frames
    return observed


@pytest.mark.parametrize("commit", ["live", "group"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_one_change_per_transaction_equals_one_per_row(
    program, commit, tmp_path, monkeypatch
):
    durable = program == "sum3_wal"
    changed = _observe(program, commit, str(tmp_path / "change") if durable else None)
    for module in (transactions, executor_module, commit_module):
        monkeypatch.setattr(module, "apply", apply_row_by_row)
    oracle = _observe(program, commit, str(tmp_path / "oracle") if durable else None)
    if durable:
        # Sum3 retracts two rows and asserts one per transaction: one WAL
        # frame each instead of three, plus the load's frame either way.
        commits = changed["counts"][0]
        assert (changed.pop("wal_frames"), oracle.pop("wal_frames")) == (
            1 + commits,
            1 + 3 * commits,
        )
    assert changed == oracle
