"""E15 — runtime observability: disabled overhead and per-site latency.

Two claims back the observability tentpole:

* **zero-overhead when disabled** — an engine without ``obs=`` holds no
  hook anywhere (``engine.obs is None``), so every instrumented site takes
  its original path behind a single ``is None`` check.  A disabled run
  must be bit-identical to an enabled one (the layer never consumes the
  engine RNG) and stay within a loose constant factor of the pre-PR cost.
* **enabled runs expose per-site latency histograms** — the E1 (Sum2),
  E5 (worker labeling), and E13 (group commit + validation + checkpoints)
  workloads must populate the ``sdl_<site>_seconds`` histograms for the
  sites they exercise: pattern match, wakeup delivery, group admit/apply/
  validate, and checkpoint capture.

The measured histograms are attached as ``extra_info`` so the E15 table
in ``benchmarks/report.py`` can print per-site p50/p95.
"""

import time

import pytest

from _helpers import attach, once
from repro.obs import load_jsonl
from repro.programs.labeling import run_worker_labeling
from repro.programs.summation import run_sum2
from repro.workloads import random_blob_image

N = 64  # array length for the Sum2 workloads


def _site_counts(metrics: dict) -> dict[str, int]:
    return {
        name: entry["data"]["count"]
        for name, entry in metrics.items()
        if entry.get("kind") == "histogram" and name.endswith("_seconds")
    }


@pytest.mark.parametrize("obs", [None, True], ids=["disabled", "enabled"])
def test_e15_sum2_overhead(benchmark, obs):
    def run():
        got = run_sum2(list(range(N)), seed=15, obs=obs)
        assert got.total == sum(range(N))
        return got

    got = once(benchmark, run)
    counts = _site_counts(got.result.metrics)
    attach(
        benchmark,
        obs="on" if obs else "off",
        rounds=got.result.rounds,
        commits=got.result.commits,
        match_count=counts.get("sdl_match_seconds", 0),
        wakeup_count=counts.get("sdl_wakeup_seconds", 0),
    )


def test_e15_shape_disabled_is_transparent(benchmark):
    def check():
        start = time.perf_counter()
        off = run_sum2(list(range(N)), seed=15)
        t_off = time.perf_counter() - start

        start = time.perf_counter()
        on = run_sum2(list(range(N)), seed=15, obs=True)
        t_on = time.perf_counter() - start

        # Bit-identical run: observability must never touch the engine RNG.
        assert off.engine.dataspace.multiset() == on.engine.dataspace.multiset()
        assert (off.result.rounds, off.result.steps, off.result.commits) == (
            on.result.rounds,
            on.result.steps,
            on.result.commits,
        )
        # Disabled path carries no hook and no snapshot.
        assert off.engine.obs is None
        assert off.result.metrics == {}
        # Loose constant-factor bound, as in E14's inert-injector check.
        assert t_on < max(t_off * 3.0, t_off + 0.05)
        return t_off, t_on

    t_off, t_on = once(benchmark, check)
    attach(
        benchmark,
        off_ms=round(t_off * 1000, 1),
        on_ms=round(t_on * 1000, 1),
        ratio=round(t_on / t_off, 2) if t_off else 0.0,
    )


def _histogram_rows(metrics: dict) -> dict[str, dict]:
    """``{site: {count, p50_us, p95_us, max_us}}`` for populated sites."""
    out = {}
    for name, entry in sorted(metrics.items()):
        if entry.get("kind") != "histogram" or not name.endswith("_seconds"):
            continue
        data = entry["data"]
        if not data["count"]:
            continue
        site = name[len("sdl_"):-len("_seconds")]
        out[site] = {
            "count": data["count"],
            "p50_us": round(data["p50"] * 1e6, 1),
            "p95_us": round(data["p95"] * 1e6, 1),
            "max_us": round(data["max"] * 1e6, 1),
        }
    return out


def test_e15_sites_e1_summation(benchmark):
    """E1 workload: delayed transactions exercise match + wakeup."""

    def run():
        got = run_sum2(list(range(N)), seed=15, obs=True)
        m = got.result.metrics
        assert m["sdl_match_seconds"]["data"]["count"] > 0
        assert m["sdl_wakeup_seconds"]["data"]["count"] > 0
        return got

    got = once(benchmark, run)
    attach(benchmark, workload="e1-sum2", **{
        f"{site}_{key}": value
        for site, row in _histogram_rows(got.result.metrics).items()
        for key, value in row.items()
    })


def test_e15_sites_e5_labeling(benchmark):
    """E5 workload: the worker model's replication grinds the match site."""
    image = random_blob_image(6, 6, blobs=2, seed=15)

    def run():
        got = run_worker_labeling(image, seed=2, obs=True)
        assert got.correct
        m = got.result.metrics
        assert m["sdl_match_seconds"]["data"]["count"] > 0
        return got

    got = once(benchmark, run)
    attach(benchmark, workload="e5-labeling", **{
        f"{site}_{key}": value
        for site, row in _histogram_rows(got.result.metrics).items()
        for key, value in row.items()
    })


def test_e15_sites_e13_group_commit(benchmark, tmp_path):
    """E13 workload: group commit + serial validation + checkpoints."""

    def run():
        got = run_sum2(
            list(range(N)),
            seed=15,
            obs=True,
            commit="group",
            validate="serial",
            checkpoint_interval=16,
            wal_dir=str(tmp_path),
        )
        assert got.total == sum(range(N))
        m = got.result.metrics
        for site in (
            "sdl_group_admit_seconds",
            "sdl_group_apply_seconds",
            "sdl_group_validate_seconds",
            "sdl_checkpoint_seconds",
        ):
            assert m[site]["data"]["count"] > 0, site
        return got

    got = once(benchmark, run)
    attach(benchmark, workload="e13-group", **{
        f"{site}_{key}": value
        for site, row in _histogram_rows(got.result.metrics).items()
        for key, value in row.items()
    })


def test_e15_shape_outputs_round_trip(benchmark, tmp_path):
    """The run's metrics/trace files parse back and agree with the snapshot."""

    def check():
        got = run_sum2(list(range(N)), seed=15, obs=True)
        obs = got.engine.obs
        metrics_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "trace.jsonl"
        obs.write_metrics(str(metrics_path))
        retained = obs.write_trace(str(trace_path))
        text = metrics_path.read_text()
        assert "sdl_match_seconds_bucket" in text
        meta, events = load_jsonl(str(trace_path))
        assert meta["retained"] == retained == len(events)
        assert meta["recorded"] == got.result.metrics["spans"]["data"]["recorded"]
        return got, len(events)

    got, retained = once(benchmark, check)
    attach(
        benchmark,
        spans_recorded=got.result.metrics["spans"]["data"]["recorded"],
        spans_retained=retained,
        dropped=got.result.metrics["spans"]["data"]["dropped"],
    )
