"""The runtime observability layer: metrics, spans, and engine wiring.

Covers the two zero-dependency primitives (``repro.obs.metrics``,
``repro.obs.spans``), the ``Observability`` facade and its resolution
rules (``SDL_OBS``), and the engine integration contract:

* disabled (the default) — no hook attached anywhere, ``RunResult.metrics``
  empty, and the run bit-identical to one with observability enabled
  (the layer never consumes the engine RNG);
* enabled — every exercised site shows up in the per-site latency
  histograms, the snapshot rides on ``RunResult.metrics``, and the CLI
  flags write the metrics/trace files.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    Observability,
    SITE_HISTOGRAMS,
    load_jsonl,
    resolve_obs,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.programs.summation import run_sum2, run_sum3


# ---------------------------------------------------------------------------
# metrics primitives
# ---------------------------------------------------------------------------


class TestCounter:
    def test_unlabelled_increments(self):
        c = Counter("hits")
        c.inc()
        c.inc(2)
        assert c.value == 3
        assert list(c.render()) == ["hits 3"]

    def test_labelled_children(self):
        c = Counter("fired")
        c.inc(site="a", action="x")
        c.inc(site="a", action="x")
        c.inc(action="y", site="b")  # kwarg order must not matter
        assert c.value == 3
        assert list(c.render()) == [
            'fired{action="x",site="a"} 2',
            'fired{action="y",site="b"} 1',
        ]

    def test_counter_is_monotone(self):
        with pytest.raises(ValueError):
            Counter("hits").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("size")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13


class TestHistogram:
    def test_bucketing_and_stats(self):
        h = Histogram("lat", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.005, 0.05, 5.0):
            h.observe(v)
        assert h.count == 5
        assert h.max == 5.0
        assert h.counts == [1, 2, 1, 1]  # last slot is the +Inf overflow
        assert h.quantile(0.5) == 0.01

    def test_boundary_value_falls_in_its_bucket(self):
        # Prometheus buckets are upper-inclusive: observe(le) counts in le.
        h = Histogram("lat", buckets=(0.001, 0.01))
        h.observe(0.001)
        assert h.counts == [1, 0, 0]

    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(0.1, 0.01))

    def test_default_buckets_are_the_latency_ladder(self):
        assert Histogram("lat").bounds == LATENCY_BUCKETS

    def test_to_dict_shape(self):
        h = Histogram("lat", buckets=(0.001, 0.01))
        h.observe(0.005)
        data = h.to_dict()
        assert data["count"] == 1
        assert data["sum"] == 0.005
        assert data["buckets"] == [[0.01, 1]]
        assert data["overflow"] == 0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_prometheus_exposition_golden(self):
        reg = MetricsRegistry()
        reg.counter("sdl_total", help="things")
        reg.counter("sdl_total").inc(2)
        reg.gauge("sdl_size").set(7)
        h = reg.histogram("sdl_lat_seconds", buckets=(0.001, 0.01))
        h.observe(0.0005)
        h.observe(0.5)
        assert reg.render_prometheus() == (
            "# TYPE sdl_lat_seconds histogram\n"
            'sdl_lat_seconds_bucket{le="0.001"} 1\n'
            'sdl_lat_seconds_bucket{le="0.01"} 1\n'
            'sdl_lat_seconds_bucket{le="+Inf"} 2\n'
            "sdl_lat_seconds_sum 0.5005\n"
            "sdl_lat_seconds_count 2\n"
            "# TYPE sdl_size gauge\n"
            "sdl_size 7\n"
            "# HELP sdl_total things\n"
            "# TYPE sdl_total counter\n"
            "sdl_total 2\n"
        )

    def test_write_json_vs_text(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        json_path = tmp_path / "m.json"
        text_path = tmp_path / "m.prom"
        reg.write(str(json_path))
        reg.write(str(text_path))
        assert json.loads(json_path.read_text()) == {
            "a": {"kind": "counter", "data": 1}
        }
        assert text_path.read_text().startswith("# TYPE a counter")


# ---------------------------------------------------------------------------
# span recorder
# ---------------------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.t = 1000

    def __call__(self):
        self.t += 10
        return self.t


class TestSpanRecorder:
    def test_records_relative_timestamps(self):
        rec = SpanRecorder(clock=_FakeClock())
        start = rec.now()
        rec.record("match", start, 25, {"arity": 2})
        (event,) = rec.events()
        assert event == {"seq": 0, "name": "match", "t": 10, "dur": 25, "arity": 2}

    def test_ring_bounds_and_counts_drops(self):
        rec = SpanRecorder(capacity=3, clock=_FakeClock())
        for i in range(5):
            rec.point("p", i=i)
        assert len(rec) == 3
        assert rec.recorded == 5
        assert rec.dropped == 2
        assert [e["i"] for e in rec.events()] == [2, 3, 4]

    def test_jsonl_round_trip(self, tmp_path):
        rec = SpanRecorder(capacity=2, clock=_FakeClock())
        rec.point("a")
        rec.point("b", pid=7)
        rec.point("c")
        path = tmp_path / "trace.jsonl"
        assert rec.flush(str(path)) == 2
        meta, events = load_jsonl(str(path))
        assert meta == {
            "meta": "sdl-trace",
            "recorded": 3,
            "retained": 2,
            "dropped": 1,
            "capacity": 2,
        }
        assert [e["name"] for e in events] == ["b", "c"]
        assert events[0]["pid"] == 7

    def test_load_rejects_non_trace(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"name": "no-meta"}\n')
        with pytest.raises(ValueError):
            load_jsonl(str(path))


# ---------------------------------------------------------------------------
# the Observability facade and resolve_obs
# ---------------------------------------------------------------------------


class TestObservability:
    def test_sites_are_preregistered(self):
        obs = Observability()
        for name in SITE_HISTOGRAMS.values():
            assert name in obs.registry

    def test_span_context_manager(self):
        obs = Observability()
        with obs.span("match", arity=3):
            pass
        hist = obs.registry.get("sdl_match_seconds")
        assert hist.count == 1
        (event,) = obs.spans.events()
        assert event["name"] == "match"
        assert event["arity"] == 3

    def test_unknown_site_auto_registers(self):
        obs = Observability()
        obs.observe_ns("my-phase", 0, 1500)
        assert obs.registry.get("sdl_my_phase_seconds").count == 1

    def test_snapshot_carries_span_stats(self):
        obs = Observability()
        obs.point("fault", site="pre-commit")
        snap = obs.snapshot()
        assert snap["spans"]["data"]["recorded"] == 1
        assert snap["sdl_match_seconds"]["kind"] == "histogram"


class TestResolveObs:
    def test_passthrough_and_bools(self):
        obs = Observability()
        assert resolve_obs(obs) is obs
        assert isinstance(resolve_obs(True), Observability)
        assert resolve_obs(False) is None

    @pytest.mark.parametrize("value", ["", "0", "off", "false", "no", "none", " OFF "])
    def test_falsey_strings_disable(self, value):
        assert resolve_obs(value) is None

    @pytest.mark.parametrize("value", ["1", "on", "true", "yes"])
    def test_truthy_strings_enable(self, value):
        assert isinstance(resolve_obs(value), Observability)

    def test_none_consults_env(self, monkeypatch):
        monkeypatch.delenv("SDL_OBS", raising=False)
        assert resolve_obs(None) is None
        monkeypatch.setenv("SDL_OBS", "1")
        assert isinstance(resolve_obs(None), Observability)
        monkeypatch.setenv("SDL_OBS", "0")
        assert resolve_obs(None) is None

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            resolve_obs(3.14)


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("SDL_OBS", raising=False)
        run = run_sum3([1, 2, 3, 4], seed=1)
        assert run.engine.obs is None
        assert run.engine.dataspace._obs is None
        assert run.engine.wakeups.obs is None
        assert run.result.metrics == {}

    def test_enabled_run_is_bit_identical(self):
        # The layer must never consume the engine RNG: same seed, same
        # schedule, same counters, with or without instrumentation.
        off = run_sum2(list(range(32)), seed=11)
        on = run_sum2(list(range(32)), seed=11, obs=True)
        assert on.total == off.total
        assert (on.result.rounds, on.result.steps, on.result.commits) == (
            off.result.rounds,
            off.result.steps,
            off.result.commits,
        )

    def test_site_histograms_populated(self):
        run = run_sum2(list(range(16)), seed=3, obs=True)
        m = run.result.metrics
        assert m["sdl_match_seconds"]["data"]["count"] > 0
        assert m["sdl_wakeup_seconds"]["data"]["count"] > 0
        assert m["spans"]["data"]["recorded"] > 0

    def test_group_mode_sites(self, tmp_path):
        run = run_sum2(
            list(range(16)),
            seed=3,
            obs=True,
            commit="group",
            validate="serial",
            checkpoint_interval=4,
            wal_dir=str(tmp_path),
        )
        m = run.result.metrics
        for site in (
            "sdl_group_admit_seconds",
            "sdl_group_apply_seconds",
            "sdl_group_validate_seconds",
            "sdl_checkpoint_seconds",
        ):
            assert m[site]["data"]["count"] > 0, site
        # Phase B spans: a candidate is either deferred on its read side
        # (a conflict) or evaluated; only evaluated ones can be admitted.
        admits = [e for e in run.engine.obs.spans.events() if e["name"] == "group-admit"]
        assert admits
        for span in admits:
            assert span["evaluated"] + span["conflicts"] == span["candidates"]
            assert span["admitted"] <= span["evaluated"]
        assert sum(span["conflicts"] for span in admits) > 0

    def test_consensus_site(self):
        from repro.programs.summation import run_sum1

        run = run_sum1(list(range(8)), seed=0, obs=True)
        assert run.result.metrics["sdl_consensus_seconds"]["data"]["count"] > 0

    def test_env_sweep_enables(self, monkeypatch):
        monkeypatch.setenv("SDL_OBS", "on")
        run = run_sum3([1, 2, 3, 4], seed=1)
        assert run.engine.obs is not None
        assert run.result.metrics

    def test_summary_gauges(self):
        run = run_sum3([1, 2, 3, 4], seed=1, obs=True)
        m = run.result.metrics
        assert m["sdl_dataspace_size"]["data"] == 1
        assert m["sdl_rounds_total"]["data"] == run.result.rounds
        assert m["sdl_commits_total"]["data"] == run.result.commits

    def test_shard_occupancy_gauges_reconcile_after_retracts(self):
        # Retract-heavy sharded run: every retract must pull its home
        # shard's gauge down with it, so at teardown each gauge equals
        # the shard's live instance count exactly (not just in total).
        from repro.core.expressions import Var
        from repro.core.patterns import P
        from repro.core.process import ProcessDefinition
        from repro.core.query import exists
        from repro.core.transactions import delayed
        from repro.runtime.engine import Engine

        a = Var("a")
        eater = ProcessDefinition(
            "Eater",
            params=("c",),
            body=[delayed(exists(a).match(P[Var("c"), a].retract())).then()],
        )
        engine = Engine(definitions=[eater], seed=3, shards=4, obs=True)
        engine.assert_tuples(
            [(f"c{c}", i) for c in range(6) for i in range(4)]
        )
        for c in range(6):
            for __ in range(3):
                engine.start("Eater", (f"c{c}",))
        result = engine.run()
        assert result.completed
        for shard, store in enumerate(engine.dataspace.stores):
            gauge = result.metrics[f"sdl_shard_occupancy_{shard}"]["data"]
            assert gauge == len(store), f"gauge drifted on shard {shard}"
        assert result.dataspace_size == sum(
            len(store) for store in engine.dataspace.stores
        )

    def test_run_metrics_surfaces_obs(self):
        from repro.viz.stats import run_metrics

        run = run_sum2(list(range(16)), seed=3, obs=True)
        metrics = run_metrics(run.result, run.trace)
        sites = metrics.obs_sites()
        assert sites["match"] > 0
        assert metrics.as_row()["obs_sites"] >= 2

        bare = run_sum2(list(range(16)), seed=3)
        assert run_metrics(bare.result, bare.trace).as_row()["obs_sites"] == 0


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------


PROGRAM = """
process Harvest()
behavior
  *[ exists a : <year, a>^ : a > 87 -> (found, a) ]
end
"""


class TestCli:
    def test_metrics_and_trace_out(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SDL_OBS", raising=False)
        from repro.__main__ import main

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        data = tmp_path / "data.txt"
        data.write_text("year, 85\nyear, 88\nyear, 90\n")
        program = str(tmp_path / "prog.sdl")
        with open(program, "w") as handle:
            handle.write(PROGRAM)
        code = main(
            [
                "run",
                program,
                "--start",
                "Harvest",
                "--data",
                str(data),
                "--metrics-out",
                str(metrics_path),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        snap = json.loads(metrics_path.read_text())
        assert snap["sdl_match_seconds"]["data"]["count"] > 0
        meta, events = load_jsonl(str(trace_path))
        assert meta["recorded"] == len(events) + meta["dropped"]
        assert any(e["name"] == "match" for e in events)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
