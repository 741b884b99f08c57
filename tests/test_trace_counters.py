"""Counted, not built: recording events is invisible to the counters.

Every hot emitter (commits, failures, blocks, wakes, wake resolutions,
replicas, process creation and completion, conflicts) builds its event
only when ``Trace.recording``; otherwise it bumps the counter
``Trace.emit`` would have bumped (SEMANTICS §11).  So for every program
below — the eight programs of the end-to-end benchmark at its smoke
scale, a fault plan and a consensus program — a run with counters only
and a run with the full event history must agree on every
``TraceCounters`` field, and an observer attached mid-run must receive
exactly the events the detailed run recorded after that point.  A
counted-not-built emitter that forgets its bump fails here.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import pytest

from repro.core.actions import assert_tuple
from repro.core.expressions import Var
from repro.core.patterns import P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed
from repro.programs.labeling import (
    default_threshold,
    label_definition,
    threshold_definition,
    worker_definition,
)
from repro.programs.summation import sum1_definition, sum2_definition, sum3_definition
from repro.runtime.engine import Engine
from repro.runtime.events import Trace
from repro.workloads.arrays import array_tuples, phase_tagged_tuples, random_array
from repro.workloads.images import image_tuples, random_blob_image

N = 64
IMAGE = random_blob_image(4, 4, blobs=3, seed=1)
a = Var("a")


def sum2(trace, **config):
    engine = Engine(definitions=[sum2_definition()], seed=1, trace=trace, **config)
    engine.assert_tuples(phase_tagged_tuples(random_array(N, 5)))
    for j in range(1, int(math.log2(N)) + 1):
        for k in range(2 ** j, N + 1, 2 ** j):
            engine.start("Sum2", (k, j))
    return engine


def sum3(trace, **config):
    engine = Engine(definitions=[sum3_definition()], seed=1, trace=trace, **config)
    engine.assert_tuples(array_tuples(random_array(N, 5)))
    engine.start("Sum3")
    return engine


def label_worker(trace):
    engine = Engine(definitions=[worker_definition(default_threshold())], seed=1, trace=trace)
    engine.assert_tuples(image_tuples(IMAGE))
    engine.start("Threshold_and_label")
    return engine


def label_community(trace):
    definitions = [threshold_definition(default_threshold()), label_definition()]
    engine = Engine(definitions=definitions, seed=1, trace=trace)
    engine.assert_tuples(image_tuples(IMAGE))
    engine.start("Threshold")
    return engine


def tokens(trace, **config):
    taker = ProcessDefinition(
        "Taker",
        body=[
            delayed(exists(a).match(P["tok", a].retract())).then(assert_tuple("tok", a + 1))
            for __ in range(2)
        ],
    )
    engine = Engine(definitions=[taker], seed=1, trace=trace, on_deadlock="return", **config)
    engine.assert_tuples([("tok", 7)])
    for __ in range(8):
        engine.start("Taker")
    return engine


def sum1(trace):
    engine = Engine(definitions=[sum1_definition()], seed=1, trace=trace)
    engine.assert_tuples(array_tuples(random_array(16, 5)))
    for k in range(2, 17, 2):
        engine.start("Sum1", (k, 1))
    return engine


#: Faults that fail attempts, delay wakes to the round boundary and crash
#: a taker before it commits.
FAULTS = (
    "seed=2; post-match:abort-txn:prob=0.3; wakeup-deliver:delay-wake:prob=0.5; "
    "pre-commit:crash:name=Taker:prob=0.1:max=2"
)

#: name -> build(trace, workdir): the runs of one program get one fresh
#: directory each, which only the WAL program uses.
PROGRAMS = {
    "sum2_live": lambda trace, workdir: sum2(trace),
    "sum2_group": lambda trace, workdir: sum2(trace, commit="group"),
    "sum3_live": lambda trace, workdir: sum3(trace),
    "sum3_scaled": lambda trace, workdir: sum3(
        trace, commit="group", shards=4, store="columnar", workers="process:2", admit="parallel"
    ),
    "sum3_wal": lambda trace, workdir: sum3(trace, wal_dir=str(workdir)),
    "label_worker": lambda trace, workdir: label_worker(trace),
    "label_community": lambda trace, workdir: label_community(trace),
    "token_contended": lambda trace, workdir: tokens(trace, commit="group"),
    "faulted_tokens": lambda trace, workdir: tokens(trace, faults=FAULTS),
    "sum1_consensus": lambda trace, workdir: sum1(trace),
}


def fingerprint(engine, result):
    return (
        result.reason, result.commits, result.steps, result.rounds,
        astuple(engine.trace.counters), engine.dataspace.multiset(), engine.rng.random(),
    )


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_counters_are_the_same_whether_or_not_events_are_built(name, tmp_path):
    build = PROGRAMS[name]
    quiet = build(Trace(), tmp_path / "quiet")
    quiet_print = fingerprint(quiet, quiet.run())
    assert not quiet.trace.events

    detailed = build(Trace(detail=True), tmp_path / "detailed")
    detailed_print = fingerprint(detailed, detailed.run())
    events = detailed.trace.events
    assert events

    late = build(Trace(), tmp_path / "late")
    pause = 2
    first = late.run(max_rounds=pause)
    observed: list = []
    late.trace.observe(observed.append)
    result = first if first.reason != "round-limit" else late.run()
    late_print = fingerprint(late, result)

    assert quiet_print == detailed_print == late_print
    assert observed == [event for event in events if event.round > pause]
