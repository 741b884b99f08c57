"""The eight whole-program workloads of the end-to-end benchmark.

Each workload is one of the paper's programs under one fixed, fully
explicit ``Engine`` configuration at a stated input size.  A workload
provides three things: ``inputs(seed, scale)`` (the generated program
inputs plus the expected output), ``build(inputs, workdir)`` (construct the
engine, load the dataspace, start the society — this is what ``setup_s``
times) and ``check(engine, result, inputs, workdir, notes)`` (the output check: a
list of problems, empty when the run is correct; a check may leave a
measurement of its own, such as the WAL reload time, in ``notes``).

The benchmark seed generates the *program inputs* only (array values, pixel
intensities, the token's start value).  The engine's arbitration seed and
the blob layout of the labeling image are fixed, so every repetition of a
workload does exactly the same work — same commits, rounds and steps — for
every benchmark seed.  That is what lets a run report a median over
repetitions, and lets two runs be compared count for count.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.actions import assert_tuple
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed
from repro.programs.labeling import (
    LABEL,
    default_threshold,
    label_definition,
    threshold_definition,
    worker_definition,
)
from repro.programs.summation import sum2_definition, sum3_definition
from repro.runtime.engine import Engine, RunResult
from repro.runtime.recovery import DurableLog
from repro.workloads.arrays import array_tuples, phase_tagged_tuples, random_array
from repro.workloads.images import Image, connected_regions, image_tuples, random_blob_image

__all__ = ["ENGINE_SEED", "LAYOUT_SEED", "SCALES", "WORKLOADS", "Workload", "resolved_config"]

Inputs = dict[str, Any]
Size = dict[str, int]

#: Arbitration seed of every engine the benchmark builds (see module docstring).
ENGINE_SEED = 1
#: Seed of the labeling image's blob layout (which pixels are bright).
LAYOUT_SEED = 1

#: Input sizes.  ``full`` is what the benchmark measures; ``smoke`` only
#: proves that every workload runs and every metric is emitted.
SCALES: dict[str, Size] = {
    "full": {"n": 2048, "side": 8, "takers": 64, "bumps": 8},
    "smoke": {"n": 64, "side": 4, "takers": 8, "bumps": 2},
}

#: Every performance knob ``Engine.__init__`` would otherwise read from an
#: ``SDL_*`` environment variable, pinned to its documented default; each
#: workload overrides only what it is about.
_DEFAULT_CONFIG: dict[str, Any] = {
    "commit": "live",
    "shards": "single",
    "store": "object",
    "workers": None,
    "admit": "serial",
    "plan": "on",
    "obs": False,
    "wake_filter": "keys",
}


def resolved_config(workload: "Workload", workdir: str | None = None) -> dict[str, Any]:
    """The explicit ``Engine`` keyword arguments *workload* runs under."""
    config = dict(_DEFAULT_CONFIG, **workload.config, seed=ENGINE_SEED)
    if workload.wal:
        config["wal_dir"] = workdir or "<fresh directory per rep>"
    return config


def _engine(workload: "Workload", definitions: list[ProcessDefinition], workdir: str | None) -> Engine:
    return Engine(definitions=definitions, **resolved_config(workload, workdir))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def _array_inputs(seed: int, size: Size) -> Inputs:
    values = random_array(size["n"], seed)
    return {"values": values, "expected": sum(values)}


def _image_inputs(seed: int, size: Size) -> Inputs:
    """The fixed blob layout with seed-drawn intensities.

    Where the blobs sit decides how far labels must propagate, i.e. the
    amount of work; the intensities within each threshold class do not.
    """
    side = size["side"]
    layout = random_blob_image(side, side, blobs=3, seed=LAYOUT_SEED)
    threshold = default_threshold()
    rng = random.Random(seed)
    pixels = {
        pos: (200 if threshold(value) else 40) + rng.randint(-10, 10)
        for pos, value in layout.pixels.items()
    }
    image = Image(side, side, pixels)
    return {"image": image, "expected": connected_regions(image.threshold(threshold))}


def _token_inputs(seed: int, size: Size) -> Inputs:
    start = random.Random(seed).randint(0, 1000)
    return {
        "start": start,
        "takers": size["takers"],
        "bumps": size["bumps"],
        "expected": start + size["takers"] * size["bumps"],
    }


# ----------------------------------------------------------------------
# builders (timed as set-up)
# ----------------------------------------------------------------------

def _build_sum2(workload: "Workload", inputs: Inputs, workdir: str | None) -> Engine:
    values = inputs["values"]
    engine = _engine(workload, [sum2_definition()], workdir)
    engine.assert_tuples(phase_tagged_tuples(values))
    n = len(values)
    for j in range(1, int(math.log2(n)) + 1):
        for k in range(2 ** j, n + 1, 2 ** j):
            engine.start("Sum2", (k, j))
    return engine


def _build_sum3(workload: "Workload", inputs: Inputs, workdir: str | None) -> Engine:
    engine = _engine(workload, [sum3_definition()], workdir)
    engine.assert_tuples(array_tuples(inputs["values"]))
    engine.start("Sum3")
    return engine


def _build_label_worker(workload: "Workload", inputs: Inputs, workdir: str | None) -> Engine:
    engine = _engine(workload, [worker_definition(default_threshold())], workdir)
    engine.assert_tuples(image_tuples(inputs["image"]))
    engine.start("Threshold_and_label")
    return engine


def _build_label_community(workload: "Workload", inputs: Inputs, workdir: str | None) -> Engine:
    definitions = [threshold_definition(default_threshold()), label_definition()]
    engine = _engine(workload, definitions, workdir)
    engine.assert_tuples(image_tuples(inputs["image"]))
    engine.start("Threshold")
    return engine


def _build_token(workload: "Workload", inputs: Inputs, workdir: str | None) -> Engine:
    """E13's contended engine, scaled: every taker bumps the one token."""
    a = Var("a")
    taker = ProcessDefinition(
        "Taker",
        body=[
            delayed(exists(a).match(P["tok", a].retract())).then(assert_tuple("tok", a + 1))
            for __ in range(inputs["bumps"])
        ],
    )
    engine = _engine(workload, [taker], workdir)
    engine.assert_tuples([("tok", inputs["start"])])
    for __ in range(inputs["takers"]):
        engine.start("Taker")
    return engine


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _check_completed(result: RunResult) -> list[str]:
    return [] if result.reason == "completed" else [f"reason={result.reason!r}"]


def _check_sum(
    engine: Engine, result: RunResult, inputs: Inputs, workdir: str | None, notes: dict[str, float]
) -> list[str]:
    problems = _check_completed(result)
    snapshot = engine.dataspace.snapshot()
    if len(snapshot) != 1:
        problems.append(f"{len(snapshot)} tuples left, expected 1")
    elif snapshot[0][1] != inputs["expected"]:
        problems.append(f"total {snapshot[0][1]} != {inputs['expected']}")
    return problems


def _check_sum_wal(
    engine: Engine, result: RunResult, inputs: Inputs, workdir: str | None, notes: dict[str, float]
) -> list[str]:
    problems = _check_sum(engine, result, inputs, workdir, notes)
    start = time.perf_counter()
    reloaded, report = DurableLog.load(workdir)
    notes["load_s"] = time.perf_counter() - start
    if not report.intact:
        problems.append(f"WAL reload needed repairs: {report.repairs!r}")
    if reloaded.multiset() != engine.dataspace.multiset():
        problems.append("WAL reload differs from the engine's final multiset")
    return problems


def _check_labels(
    engine: Engine, result: RunResult, inputs: Inputs, workdir: str | None, notes: dict[str, float]
) -> list[str]:
    problems = _check_completed(result)
    labels = {
        inst.values[1]: inst.values[2]
        for inst in engine.dataspace.find_matching(P[LABEL, ANY, ANY])
    }
    if labels != inputs["expected"]:
        wrong = sum(1 for pos, lab in inputs["expected"].items() if labels.get(pos) != lab)
        problems.append(f"{wrong} of {len(inputs['expected'])} pixels mislabeled")
    return problems


def _check_token(
    engine: Engine, result: RunResult, inputs: Inputs, workdir: str | None, notes: dict[str, float]
) -> list[str]:
    problems = _check_completed(result)
    snapshot = engine.dataspace.snapshot()
    if snapshot != [("tok", inputs["expected"])]:
        problems.append(f"dataspace {snapshot!r}, expected one <tok, {inputs['expected']}>")
    return problems


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    why: str
    program: str
    config: dict[str, Any]
    size: str  # format string over the SCALES entry, e.g. "N={n}"
    inputs: Callable[[int, Size], Inputs]
    builder: Callable[["Workload", Inputs, "str | None"], Engine]
    check: Callable[[Engine, RunResult, Inputs, "str | None", dict[str, float]], list[str]]
    wal: bool = False

    def build(self, inputs: Inputs, workdir: str | None = None) -> Engine:
        return self.builder(self, inputs, workdir)


_ARRAY = ("N={n}", _array_inputs)
_IMAGE = ("{side}x{side} image, 3 blobs", _image_inputs)
_TOKEN = ("{takers} takers x {bumps} bumps", _token_inputs)

_SCALED = {
    "commit": "group", "shards": 4, "store": "columnar",
    "workers": "process:2", "admit": "parallel",
}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sum2_live",
            "2047 parked delayed processes: time goes to runtime.wakeup (WakeupIndex.affected); the ROADMAP baseline row",
            "Sum2", {}, *_ARRAY, _build_sum2, _check_sum,
        ),
        Workload(
            "sum2_group",
            "large mostly-disjoint batches under group commit: the slowdown over sum2_live is runtime.commit.first_conflict, so the ratio isolates admission",
            "Sum2", {"commit": "group"}, *_ARRAY, _build_sum2, _check_sum,
        ),
        Workload(
            "sum3_live",
            "write-heavy (2 retracts + 1 assert per commit) through core.plan/core.storage with no watchers, consensus or group admission: the control",
            "Sum3", {}, *_ARRAY, _build_sum3, _check_sum,
        ),
        Workload(
            "sum3_scaled",
            "every scaling knob on (group, 4 shards, columnar, process:2 pool, parallel admit): the slowdown over sum3_live is core.storage.merge_serial_lists",
            "Sum3", _SCALED, *_ARRAY, _build_sum3, _check_sum,
        ),
        Workload(
            "sum3_wal",
            "Sum3 with a write-ahead log (sync=always) in a fresh directory per rep: isolates runtime.recovery append + fsync; reload is checked",
            "Sum3", {}, *_ARRAY, _build_sum3, _check_sum_wal, wal=True,
        ),
        Workload(
            "label_worker",
            "read-heavy: hundreds of thousands of index probes for a few hundred commits, all in core.plan join search + core.storage probes",
            "Threshold_and_label", {}, *_IMAGE, _build_label_worker, _check_labels,
        ),
        Workload(
            "label_community",
            "consensus over view-scoped communities: time goes to Executor.try_consensus, core.consensus.partition and Window.footprint",
            "Threshold + Label", {}, *_IMAGE, _build_label_community, _check_labels,
        ),
        Workload(
            "token_contended",
            "takers all bumping one <tok, n> tuple under group commit: every candidate conflicts with the first admitted, the opposite of sum2_group",
            "Taker", {"commit": "group"}, *_TOKEN, _build_token, _check_token,
        ),
    )
}
