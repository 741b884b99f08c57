"""Deterministic crash-stop fault injection for the SDL runtime.

The engine assumes a **crash-stop** failure model: a process may halt at
any moment and never act again; it does not misbehave first.  This module
supplies the *moments*: a :class:`FaultInjector`, driven by a
:class:`FaultPlan`, fires at named **sites** inside the executor and
decides whether to crash a process, abort a transaction, drop or delay a
wakeup, or kill a whole group-commit round.

Sites (where the runtime asks):

* ``pre-commit`` — a transaction's query has matched and its effects are
  about to apply (in ``commit="group"`` mode: the candidate passed
  conflict admission).  Crashing here is the sharpest atomicity probe:
  the dataspace must stay exactly untouched.  Because the site fires only
  on *about-to-commit* attempts, its per-process occurrence count equals
  the process's commit index in **every** commit mode — which is what
  makes ``at=``-keyed crash plans comparable across ``group``/``serial``
  runs (the chaos equivalence property).
* ``post-match`` — a query verdict (success or failure) was just computed.
  In ``commit="group"`` mode only evaluated candidates reach it: a loser
  decided on its read side alone is never evaluated.
* ``batch-admit`` — a group-round candidate is about to be considered for
  admission (before its read-side probe); ``kill-round`` here defers the
  round's entire candidate set.
* ``wakeup-deliver`` — a wake is about to be delivered to a parked item.
* ``pump-spawn`` — a replication pump is being created.

Storage sites (the durable-log file layer, :mod:`repro.runtime.recovery`;
no process is involved, so ``pid``/``name`` filters never match):

* ``wal-append`` — a WAL frame is about to be appended to the live
  segment.  ``torn-write`` persists only a seeded prefix of the frame,
  ``bit-flip`` corrupts one seeded bit of the payload, ``lost-fsync``
  models a page-cache loss (the frame's bytes never become durable).
* ``checkpoint-write`` — a checkpoint segment is about to be committed;
  the same three actions corrupt it, and a corrupt checkpoint must make
  :meth:`~repro.runtime.recovery.DurableLog.load` fall back to an older
  intact one, never load garbage.
* ``segment-read`` — a segment file is about to be read back.
  ``short-read`` truncates the returned bytes at a seeded offset,
  ``bit-flip`` corrupts one seeded bit in flight.

Worker-pool site (:mod:`repro.runtime.parallel`; fired on the main
process, once per dispatched group, so schedules are deterministic):

* ``worker-exec`` — a shard-disjoint group is about to be shipped to a
  pool worker.  ``worker-crash`` kills the worker process mid-evaluation
  (breaking the pool), ``worker-hang`` makes it sleep past the engine's
  deadline, ``garbage-plan`` returns a corrupted staged effect
  (:class:`~repro.core.transactions.TransactionOutcome`) that main-side
  validation must reject before it is applied.
* ``admit-dispatch`` — an admission task (one shard's batch of match
  candidates, ``admit="parallel"``) is about to be shipped to a pool
  worker.  ``worker-crash`` is the apply-phase crash at admission time;
  ``stale-snapshot`` makes the worker report a snapshot one version
  behind the round target, which the walk's version check must reject to
  serial; ``garbage-footprint`` corrupts the reported match rows' tuple
  serials, which per-row validation against the live candidate list must
  reject before any RNG draw.

Determinism: the injector owns a private :class:`random.Random` seeded
from the plan, so probabilistic faults are reproducible per plan seed and
the engine's own arbitration stream is **never** consumed — a run with a
plan that happens not to fire is bit-identical to a run with no plan.
When no plan is configured the engine holds no injector at all; every
site is guarded by one ``is None`` check, so the disabled path costs
nothing measurable (benchmark E14).

Plan syntax (env ``SDL_FAULTS`` or ``Engine(faults=...)``)::

    seed=7; pre-commit:crash:name=W:at=2; wakeup-deliver:drop-wake:prob=0.05

``;``-separated clauses; ``seed=N`` seeds the injector RNG; every other
clause is ``site:action[:key=value]*`` with filters ``name=`` (definition
name) and ``pid=``, and triggers ``at=K`` (the K-th matching occurrence
*per process*, deterministic) or ``prob=P`` (seeded Bernoulli per
occurrence).  ``max=N`` caps total firings of a clause.  Omitting both
``at`` and ``prob`` means ``at=1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import FaultPlanError

__all__ = ["SITES", "ACTIONS", "FaultSpec", "FaultPlan", "FaultInjector"]

SITES = (
    "pre-commit", "post-match", "batch-admit", "wakeup-deliver", "pump-spawn",
    "wal-append", "checkpoint-write", "segment-read", "worker-exec",
    "admit-dispatch",
)
ACTIONS = (
    "crash", "abort-txn", "drop-wake", "delay-wake", "kill-round",
    "torn-write", "bit-flip", "short-read", "lost-fsync",
    "worker-crash", "worker-hang", "garbage-plan",
    "stale-snapshot", "garbage-footprint",
)

#: Which actions make sense at which site (validated at plan build time).
_SITE_ACTIONS = {
    "pre-commit": ("crash", "abort-txn"),
    "post-match": ("crash", "abort-txn"),
    "batch-admit": ("crash", "abort-txn", "kill-round"),
    "wakeup-deliver": ("drop-wake", "delay-wake"),
    "pump-spawn": ("crash",),
    "wal-append": ("torn-write", "bit-flip", "lost-fsync"),
    "checkpoint-write": ("torn-write", "bit-flip", "lost-fsync"),
    "segment-read": ("short-read", "bit-flip"),
    "worker-exec": ("worker-crash", "worker-hang", "garbage-plan"),
    "admit-dispatch": ("worker-crash", "stale-snapshot", "garbage-footprint"),
}

_ACTION_ALIASES = {"drop": "drop-wake", "delay": "delay-wake", "abort": "abort-txn"}

#: The option keys a fault clause accepts (anything else is an error —
#: a typoed filter must fail loudly, not silently never fire).
_CLAUSE_KEYS = ("name", "pid", "at", "prob", "max")


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One fault clause: where it fires, what it does, and when."""

    site: str
    action: str
    name: str | None = None   # only processes of this definition
    pid: int | None = None    # only this process instance
    at: int | None = None     # fire on the K-th matching occurrence per pid
    prob: float | None = None  # fire with this probability per occurrence
    max_fires: int | None = None  # total firing cap across the run

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r} (sites: {', '.join(SITES)})"
            )
        if self.action not in ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {self.action!r} (actions: {', '.join(ACTIONS)})"
            )
        if self.action not in _SITE_ACTIONS[self.site]:
            raise FaultPlanError(
                f"action {self.action!r} cannot fire at site {self.site!r} "
                f"(allowed: {', '.join(_SITE_ACTIONS[self.site])})"
            )
        if self.at is not None and self.at < 1:
            raise FaultPlanError(f"at= must be >= 1, got {self.at}")
        if self.prob is not None and not (0.0 <= self.prob <= 1.0):
            raise FaultPlanError(f"prob= must be in [0, 1], got {self.prob}")
        if self.at is not None and self.prob is not None:
            raise FaultPlanError("give either at= or prob=, not both")
        if self.at is None and self.prob is None:
            object.__setattr__(self, "at", 1)

    def __str__(self) -> str:
        parts = [self.site, self.action]
        if self.name is not None:
            parts.append(f"name={self.name}")
        if self.pid is not None:
            parts.append(f"pid={self.pid}")
        if self.prob is not None:
            parts.append(f"prob={self.prob}")
        elif self.at is not None:
            parts.append(f"at={self.at}")
        if self.max_fires is not None:
            parts.append(f"max={self.max_fires}")
        return ":".join(parts)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded schedule of fault clauses (the value of ``SDL_FAULTS``)."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``SDL_FAULTS`` clause syntax (see module docstring)."""
        specs: list[FaultSpec] = []
        seed = 0
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[5:])
                except ValueError:
                    raise FaultPlanError(f"bad seed clause {clause!r}") from None
                continue
            parts = clause.split(":")
            if len(parts) < 2:
                raise FaultPlanError(
                    f"fault clause {clause!r} needs at least site:action"
                )
            site, action = parts[0].strip(), parts[1].strip()
            action = _ACTION_ALIASES.get(action, action)
            kwargs: dict[str, Any] = {}
            for option in parts[2:]:
                if "=" not in option:
                    raise FaultPlanError(f"bad option {option!r} in {clause!r}")
                key, __, value = option.partition("=")
                key = key.strip()
                value = value.strip()
                # Validate the key *before* converting the value, so an
                # unknown key reports itself (and is never mistaken for a
                # bad value — FaultPlanError is a ValueError subclass).
                if key not in _CLAUSE_KEYS:
                    raise FaultPlanError(
                        f"unknown option {key!r} in fault clause {clause!r} "
                        f"(options: {', '.join(_CLAUSE_KEYS)})"
                    )
                field = "max_fires" if key == "max" else key
                if field in kwargs:
                    raise FaultPlanError(
                        f"duplicate option {key}= in fault clause {clause!r}"
                    )
                try:
                    if key == "name":
                        kwargs["name"] = value
                    elif key == "prob":
                        kwargs["prob"] = float(value)
                    else:  # pid / at / max
                        kwargs[field] = int(value)
                except ValueError:
                    raise FaultPlanError(
                        f"bad value {value!r} for {key}= in fault clause {clause!r}"
                    ) from None
            specs.append(FaultSpec(site=site, action=action, **kwargs))
        return cls(tuple(specs), seed)

    def __str__(self) -> str:
        clauses = [f"seed={self.seed}"] if self.seed else []
        clauses.extend(str(spec) for spec in self.specs)
        return ";".join(clauses)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One firing, recorded for tests and post-mortems."""

    site: str
    action: str
    pid: int | None
    name: str | None
    occurrence: int  # the per-(clause, pid) occurrence count that fired


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at runtime sites, deterministically."""

    __slots__ = ("plan", "rng", "fired", "obs", "_sites", "_counts", "_spent", "_delayed")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: Observability hook (``repro.obs.Observability`` or ``None``):
        #: every firing is counted (``sdl_faults_fired_total{site,action}``)
        #: and recorded as a trace point.  Set by the engine.
        self.obs = None
        self.fired: list[FaultEvent] = []
        self._sites: dict[str, list[int]] = {}
        for index, spec in enumerate(plan.specs):
            self._sites.setdefault(spec.site, []).append(index)
        self._counts: dict[tuple[int, int | None], int] = {}
        self._spent: dict[int, int] = {}
        self._delayed: list[Any] = []

    def wants(self, site: str) -> bool:
        """Does any clause listen at *site*?  (Cheap pre-filter for hot paths.)"""
        return site in self._sites

    def fire(self, site: str, pid: int | None = None, name: str | None = None) -> str | None:
        """Ask whether a fault fires at *site* for process *pid*/*name*.

        Returns the action of the first clause that triggers, or ``None``.
        Occurrences are counted per ``(clause, pid)`` only when the
        clause's filters match, so ``at=K`` means "the K-th time *this*
        process reaches this site under this clause".
        """
        indices = self._sites.get(site)
        if not indices:
            return None
        specs = self.plan.specs
        for index in indices:
            spec = specs[index]
            if spec.pid is not None and spec.pid != pid:
                continue
            if spec.name is not None and spec.name != name:
                continue
            key = (index, pid)
            occurrence = self._counts.get(key, 0) + 1
            self._counts[key] = occurrence
            if spec.max_fires is not None and self._spent.get(index, 0) >= spec.max_fires:
                continue
            if spec.at is not None:
                if occurrence != spec.at:
                    continue
            elif self.rng.random() >= spec.prob:
                continue
            self._spent[index] = self._spent.get(index, 0) + 1
            self.fired.append(FaultEvent(site, spec.action, pid, name, occurrence))
            if self.obs is not None:
                self.obs.count("sdl_faults_fired_total", site=site, action=spec.action)
                self.obs.point(
                    "fault", site=site, action=spec.action, pid=pid, occurrence=occurrence
                )
            return spec.action
        return None

    # ------------------------------------------------------------------
    # delayed wakeups (action "delay-wake")
    # ------------------------------------------------------------------
    def delay(self, item: Any) -> None:
        """Hold a wake delivery back until the engine's next flush point."""
        self._delayed.append(item)

    def take_delayed(self) -> list[Any]:
        """Drain the held-back wake deliveries (engine flushes per round)."""
        if not self._delayed:
            return []
        out, self._delayed = self._delayed, []
        return out

    @property
    def total_fired(self) -> int:
        return len(self.fired)

    def __repr__(self) -> str:
        return f"FaultInjector({self.plan!s}, fired={len(self.fired)})"


def resolve_plan(faults: "FaultPlan | str | Iterable[FaultSpec] | None") -> FaultPlan | None:
    """Normalise an ``Engine(faults=...)`` argument into a plan (or None)."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, str):
        return FaultPlan.parse(faults)
    return FaultPlan(tuple(faults))
