"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs every workload at the ``smoke`` scale (N=64, 4x4 image, 8 takers x 2
bumps, one repetition): the numbers mean nothing, but every workload must
run, check its output, and emit every metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def smoke_run(name: str, trace: bool) -> dict:
    return run.run_workload(name, SEED, 0.0, trace, scale="smoke", min_reps=1)


@pytest.fixture(scope="module")
def smoke() -> dict:
    return {(name, trace): smoke_run(name, trace) for name in NAMES for trace in (False, True)}


def test_spec_names_the_eight_workloads():
    assert len(NAMES) == 8 and set(NAMES) == set(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(smoke, name, trace):
    out = smoke[(name, trace)]
    assert out["failed"] == 0 and out["correct"], out["errors"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        emitted = out["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float) and math.isfinite(emitted["value"])
    if not trace:
        assert out["metrics"]["failed_share"]["value"] == 0.0
        assert out["metrics"]["parallelism"]["value"] > 0
    line = json.loads(run.contract_line(out, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in wanted}


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(smoke, name):
    again = smoke_run(name, False)
    assert again["counts"] == smoke[(name, False)]["counts"]
    assert again["counts"] == smoke[(name, True)]["counts"]  # tracing changes no schedule
    assert again["counts"]["commits"] > 0 and again["counts"]["rounds"] > 0


def test_layer_metrics_land_where_the_workload_says(smoke):
    def layer(name: str, metric: str) -> float:
        return smoke[(name, True)]["metrics"][metric]["value"]

    assert layer("sum2_live", "runtime.wakeup.affected_calls") > 0
    assert layer("sum2_group", "runtime.commit.first_conflict_calls") > 0
    assert layer("sum3_live", "runtime.commit.first_conflict_calls") == 0
    assert layer("sum3_live", "runtime.executor.step_calls") > 0
    assert layer("sum3_scaled", "core.storage.merge_calls") > 0
    assert layer("sum3_live", "core.storage.merge_calls") == 0
    assert layer("sum3_wal", "runtime.recovery.append_calls") > 0
    assert layer("sum3_wal", "runtime.recovery.load_s") > 0
    assert layer("sum3_live", "runtime.recovery.append_calls") == 0
    assert layer("label_worker", "core.storage.probe_calls") > 0
    assert layer("label_community", "core.consensus.partition_calls") > 0
    assert layer("label_community", "core.views.footprint_calls") > 0
    assert layer("token_contended", "runtime.commit.conflict_rate") > 0.5


def test_span_self_times_add_up_to_the_traced_run(smoke):
    for name in NAMES:
        out = smoke[(name, True)]
        with open(run.REPO / out["trace_file"], encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["span_self_s_total"] == pytest.approx(trace["traced_run_s"], rel=0.02, abs=2e-4)
        assert all(span["self_s"] >= -1e-9 for span in trace["spans"])
        assert {span["parent"] for span in trace["spans"]} >= {None, "runtime.engine.run"}


def test_tracer_restores_every_patched_name(smoke):
    assert all(smoke[(name, True)]["patches_restored"] for name in NAMES)
    tracer = Tracer().install()
    try:
        assert len(tracer.patched) >= len({t[1:4] for t in TARGETS}) - 2  # inherited methods patch once
        assert all(vars(owner)[attr] is not original for owner, attr, original in tracer.patched)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in tracer.patched)


def test_wrong_expected_sum_is_a_failed_rep_not_an_exception(monkeypatch):
    workload = WORKLOADS["sum3_live"]
    honest = workload.inputs

    def off_by_one(seed, size):
        inputs = honest(seed, size)
        inputs["expected"] += 1
        return inputs

    monkeypatch.setattr(workload, "inputs", off_by_one)
    out = smoke_run("sum3_live", False)
    assert out["metrics"]["failed_share"]["value"] == 1.0
    assert out["correct"] is False and out["failed"] == out["attempted"] == 1
    assert json.loads(run.contract_line(out, SPEC))["correct"] is False


def test_sdl_variables_do_not_reach_the_children(monkeypatch):
    monkeypatch.setenv("SDL_COMMIT", "group")
    monkeypatch.setenv("SDL_STORE", "columnar")
    assert not [key for key in run._clean_env() if key.startswith("SDL_")]


def test_compare_two_runs_of_one_seed(tmp_path, capsys):
    reports = []
    for label in ("a", "b"):
        target = tmp_path / f"{label}.json"
        assert run.main(["--workload", "sum3_live", "--scale", "smoke",
                         "--seed", str(SEED), "--out", str(target)]) == 0
        reports.append(str(target))
    capsys.readouterr()
    verdict = run.compare(*reports)
    table = capsys.readouterr().out
    assert verdict in (0, 1, 2)  # smoke timings are too short to be steady
    for row in ("commits_per_s", "setup_s", "peak_rss_mb", "commits", "rounds", "steps", "parallelism"):
        assert re.search(rf"^sum3_live\s+{row}\s", table, re.M), row
    exact = [line for line in table.splitlines() if " exact " in line]
    assert len(exact) == 4 and all(line.endswith("ok") for line in exact)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        shutil.copy(source, target / source.name)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sum3_live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
