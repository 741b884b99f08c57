"""Runtime observability: metrics, spans, and hot-path timers.

The runtime's three interacting subsystems — delta reactivity, group
commit, and the crash-stop failure model — share one measurement substrate
built from two zero-dependency pieces:

* a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  histograms with explicit bucket bounds) with Prometheus-text and JSON
  expositions;
* a :class:`~repro.obs.spans.SpanRecorder` writing structured JSONL events
  into a bounded ring buffer.

:class:`Observability` bundles both behind the site API the runtime calls
(:meth:`~Observability.span`, :meth:`~Observability.observe_ns`,
:meth:`~Observability.count`, :meth:`~Observability.point`).  The engine
holds either a real instance or ``None`` — exactly the fault injector's
discipline — and the hottest sites (``Dataspace.candidates``,
``WakeupIndex.affected``) guard with one ``is None`` check, so a run with
observability disabled takes the original code path at original cost
(benchmark E15 measures the claim).

Enablement: ``Engine(obs=Observability())``, the ``SDL_OBS`` environment
variable (any of ``1``/``on``/``true``), or the CLI flags
``--metrics-out`` / ``--trace-out``.  Instrumented sites and the overhead
contract are documented in ``docs/SEMANTICS.md`` §11.
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import SpanRecorder, load_jsonl

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecorder",
    "load_jsonl",
    "Observability",
    "SITE_HISTOGRAMS",
    "resolve_obs",
]

#: Per-site latency histogram names (the instrumentation sites of §11).
SITE_HISTOGRAMS = {
    "match": "sdl_match_seconds",
    "plan": "sdl_plan_seconds",
    "wakeup": "sdl_wakeup_seconds",
    "group-admit": "sdl_group_admit_seconds",
    "group-apply": "sdl_group_apply_seconds",
    "parallel-apply": "sdl_parallel_apply_seconds",
    "parallel-admit": "sdl_parallel_admit_seconds",
    "group-validate": "sdl_group_validate_seconds",
    "consensus": "sdl_consensus_seconds",
    "checkpoint": "sdl_checkpoint_seconds",
    "wal-append": "sdl_wal_append_seconds",
    "checkpoint-write": "sdl_checkpoint_write_seconds",
    "segment-load": "sdl_segment_load_seconds",
}

_SITE_HELP = {
    "match": "Dataspace.candidates: index probe + snapshot build",
    "plan": "QueryPlanner: selectivity estimation + plan construction (cache misses only)",
    "wakeup": "WakeupIndex.affected: exact shape-keyed wake lookup + FIFO sort",
    "group-admit": "group round phase B: read-side probe, snapshot evaluation, conflict admission",
    "group-apply": "group round phase C: applying the admitted batch",
    "parallel-apply": "worker evaluation of one shard-disjoint admitted group",
    "parallel-admit": "worker match evaluation of one shard's admission candidates",
    "group-validate": "serial-equivalence replay of one admitted batch",
    "consensus": "consensus readiness check + firing",
    "checkpoint": "DurableLog checkpoint capture",
    "wal-append": "DurableLog WAL frame append (+fsync at the consistent-point marker)",
    "checkpoint-write": "DurableLog checkpoint segment commit (tmp+rename+fsync)",
    "segment-load": "DurableLog.load: checkpoint scan + WAL chain replay",
}


class _Span:
    """Context manager for one timed site occurrence."""

    __slots__ = ("_obs", "_site", "_fields", "_start")

    def __init__(self, obs: "Observability", site: str, fields: dict | None) -> None:
        self._obs = obs
        self._site = site
        self._fields = fields
        self._start = 0

    def __enter__(self) -> "_Span":
        self._start = self._obs.spans.now()
        return self

    def __exit__(self, *exc: Any) -> bool:
        obs = self._obs
        dur = obs.spans.now() - self._start
        obs.site_histogram(self._site).observe(dur / 1e9)
        obs.spans.record(self._site, self._start, dur, self._fields)
        return False


class Observability:
    """Live metrics + span recording behind the runtime's site API."""

    enabled = True

    __slots__ = ("registry", "spans", "_site_hists")

    def __init__(self, trace_capacity: int = 65536) -> None:
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(capacity=trace_capacity)
        # Site histograms are pre-registered so an enabled run always
        # exposes the full site schema (zero-count histograms included).
        self._site_hists: dict[str, Histogram] = {
            site: self.registry.histogram(name, _SITE_HELP.get(site, ""))
            for site, name in SITE_HISTOGRAMS.items()
        }

    # ------------------------------------------------------------------
    # the site API
    # ------------------------------------------------------------------
    def site_histogram(self, site: str) -> Histogram:
        hist = self._site_hists.get(site)
        if hist is None:
            hist = self.registry.histogram(f"sdl_{site.replace('-', '_')}_seconds")
            self._site_hists[site] = hist
        return hist

    def span(self, site: str, **fields: Any) -> _Span:
        """Time a ``with`` block at *site* (histogram + trace event)."""
        return _Span(self, site, fields or None)

    def observe_ns(self, site: str, start_ns: int, dur_ns: int, fields: dict | None = None) -> None:
        """Record an inline-timed occurrence (the hot-site fast path)."""
        self.site_histogram(site).observe(dur_ns / 1e9)
        self.spans.record(site, start_ns, dur_ns, fields)

    def count(self, name: str, amount: float = 1, **labels: Any) -> None:
        self.registry.counter(name).inc(amount, **labels)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def point(self, name: str, **fields: Any) -> None:
        """Record an instantaneous trace event (fault hits, checkpoints)."""
        self.spans.point(name, **fields)

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Per-run metrics snapshot (rides on ``RunResult.metrics``)."""
        out = self.registry.to_dict()
        out["spans"] = {
            "kind": "trace",
            "data": {
                "recorded": self.spans.recorded,
                "retained": len(self.spans),
                "dropped": self.spans.dropped,
                "capacity": self.spans.capacity,
            },
        }
        return out

    def write_metrics(self, path: str) -> None:
        self.registry.write(path)

    def write_trace(self, path: str) -> int:
        return self.spans.flush(path)

    def __repr__(self) -> str:
        return f"Observability(metrics={len(self.registry)}, {self.spans!r})"


_FALSEY = ("", "0", "off", "false", "no", "none")


def resolve_obs(obs: "Observability | bool | str | None") -> Observability | None:
    """Normalise an ``Engine(obs=...)`` argument (or ``SDL_OBS``) to an
    :class:`Observability` instance or ``None`` (disabled).

    ``None`` consults the ``SDL_OBS`` environment variable, so whole test
    suites can be swept with observability on — the same convention as
    ``SDL_COMMIT`` and ``SDL_FAULTS``.
    """
    if isinstance(obs, Observability):
        return obs
    if obs is None:
        obs = os.environ.get("SDL_OBS") or None
        if obs is None:
            return None
    if isinstance(obs, bool):
        return Observability() if obs else None
    if isinstance(obs, str):
        return None if obs.strip().lower() in _FALSEY else Observability()
    raise TypeError(f"cannot resolve obs={obs!r}")
