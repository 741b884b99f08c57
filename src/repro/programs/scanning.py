"""Streaming region labeling — the airborne-platform scenario (§3.3).

The paper motivates the community model with a stream: "Waiting for all
regions to be labeled is often unreasonable, as in the case of an image
which results from continuous terrain scanning from an airborne platform."

Here the image is *not* in the dataspace at start: a ``Scanner`` process
converts one scan line per transaction from ``<scanline, y, pos, v>``
staging tuples into live ``<image, pos, v>`` pixels, while the community
model's ``Threshold``/``Label`` processes work concurrently on whatever
has arrived.  Regions whose pixels have all been scanned complete and
announce themselves **while scanning is still in progress**.

The Label processes must not decide on incomplete information — the paper:
"it must somehow ensure that all its neighbors exist.  Otherwise,
individual decisions based on incomplete information can undermine the
communal objective."  The streaming Label therefore imports its
neighbourhood's *staging* tuples too and waits until none remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.actions import EXIT, CallPython, assert_tuple, let, spawn
from repro.core.constructs import guarded, repeat, replicate
from repro.core.expressions import Var, fn, variables
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import Membership, exists, forall
from repro.core.transactions import consensus, delayed, immediate
from repro.core.values import Atom
from repro.core.views import import_rule
from repro.runtime.engine import Engine, RunResult
from repro.runtime.events import Trace
from repro.workloads.images import Image, connected_regions, is_pixel, neighbor, neighbors_of

from repro.programs.labeling import IMAGE, LABEL, THRESHOLD, default_threshold

__all__ = [
    "StreamingRun",
    "scanner_definition",
    "streaming_threshold_definition",
    "streaming_label_definition",
    "run_streaming_labeling",
]

SCANLINE = Atom("scanline")
SCAN_NEXT = Atom("scan_next")
SCAN_DONE = Atom("scan_done")

_neighbor = fn(neighbor, "neighbor", enumerator=neighbors_of, domain=is_pixel)


@dataclass(slots=True)
class StreamingRun:
    """Outcome of one streaming-labeling run."""

    labels: dict[tuple[int, int], tuple[int, int]]
    expected: dict[tuple[int, int], tuple[int, int]]
    result: RunResult
    trace: Trace
    engine: Engine
    completions: list[tuple[tuple[int, int], int]]
    #: the round at which the last scan line was converted
    scan_done_round: int

    @property
    def correct(self) -> bool:
        return self.labels == self.expected

    def regions_done_before_scan_end(self) -> int:
        return sum(1 for __, r in self.completions if r < self.scan_done_round)


def scanner_definition(height: int, on_line: Callable[[dict], None] | None = None) -> ProcessDefinition:
    """``PROCESS Scanner`` — convert one scan line per iteration.

    The scan cursor lives in the dataspace as ``<scan_next, y>`` so the
    scanner itself is stateless, in paradigm style.  Its view imports only
    the staging tuples, so a fully-scanned region's community no longer
    overlaps the Scanner and can reach consensus while scanning continues.
    """
    y = Var("y")
    pos, v = variables("pos v")
    convert_actions = [assert_tuple(IMAGE, pos, v)]
    line_actions = [let("Y", y), assert_tuple(SCAN_NEXT, y + 1)]
    if on_line is not None:
        line_actions.append(CallPython(on_line))
    return ProcessDefinition(
        "Scanner",
        imports=[
            import_rule(SCANLINE, ANY, ANY, ANY),
            import_rule(SCAN_NEXT, ANY),
        ],
        exports=[
            import_rule(IMAGE, ANY, ANY),
            import_rule(SCAN_NEXT, ANY),
            import_rule(SCAN_DONE),
        ],
        body=[
            repeat(
                guarded(
                    immediate(
                        exists(y)
                        .match(P[SCAN_NEXT, y].retract())
                        .such_that(y < height)
                    ).then(*line_actions).labeled("advance"),
                    immediate(
                        forall(pos, v).match(P[SCANLINE, Var("Y"), pos, v].retract())
                    ).then(*convert_actions).labeled("scanline"),
                ),
            ),
            # drop the cursor and announce the end of the stream
            immediate(exists(y).match(P[SCAN_NEXT, y].retract()))
            .then(assert_tuple(SCAN_DONE))
            .labeled("scan-done"),
        ],
    )


def streaming_threshold_definition(threshold_fn: Callable[[int], int]) -> ProcessDefinition:
    """``PROCESS Threshold`` for streaming input.

    Unlike the §3.3 batch version (whose all-immediate replication reaches
    a fixpoint and terminates between scan lines), the streaming version
    uses delayed guards: it sleeps while no pixel is available and exits
    when the scanner has finished and every pixel is thresholded.
    """
    t = fn(threshold_fn, "T")
    pos, v = variables("pos v")
    return ProcessDefinition(
        "Threshold",
        imports=[import_rule(IMAGE, ANY, ANY), import_rule(SCAN_DONE)],
        exports=[import_rule(THRESHOLD, ANY, ANY)],
        body=[
            replicate(
                guarded(
                    delayed(exists(pos, v).match(P[IMAGE, pos, v].retract()))
                    .then(
                        assert_tuple(THRESHOLD, pos, t(v)),
                        spawn("Label", pos, t(v)),
                    )
                    .labeled("threshold")
                ),
                guarded(
                    delayed(
                        exists()
                        .match(P[SCAN_DONE].retract())
                        .such_that(~Membership(P[IMAGE, ANY, ANY]))
                    )
                    .then(EXIT)
                    .labeled("stream-end")
                ),
            ),
        ],
    )


def streaming_label_definition(
    on_region_done: Callable[[dict[str, Any]], None] | None = None,
) -> ProcessDefinition:
    """``PROCESS Label(r, t)`` for streaming input.

    Identical to the §3.3 community Label, except the view also imports
    the neighbourhood's staging tuples, and the existence wait covers both
    raw images and unscanned lines.
    """
    r, t = Var("r"), Var("t")
    pi, lam, lr = variables("pi lam lr")
    pj, lam2 = variables("pj lam2")
    tau = Var("tau")

    same_region = (pi == r) | _neighbor(pi, r)
    imports = [
        import_rule(LABEL, pi, ANY, guard=same_region, where=[P[THRESHOLD, pi, t]]),
        import_rule(THRESHOLD, pi, t, guard=same_region),
        import_rule(IMAGE, pi, ANY, guard=same_region),
        # the streaming difference: unscanned neighbours are visible as
        # staging tuples and must be waited for
        import_rule(SCANLINE, ANY, pi, ANY, guard=same_region),
    ]
    exports = [import_rule(LABEL, r, ANY)]

    done_actions = [EXIT]
    if on_region_done is not None:
        done_actions = [CallPython(on_region_done), EXIT]

    return ProcessDefinition(
        "Label",
        params=("r", "t"),
        imports=imports,
        exports=exports,
        body=[
            immediate().then(assert_tuple(LABEL, r, r)).labeled("self-label"),
            delayed(
                exists().such_that(
                    ~Membership(P[IMAGE, ANY, ANY])
                    & ~Membership(P[SCANLINE, ANY, ANY, ANY])
                )
            ).labeled("neighbors-exist"),
            repeat(
                guarded(
                    immediate(
                        exists(lr, pi, lam)
                        .match(P[LABEL, r, lr].retract(), P[LABEL, pi, lam])
                        .such_that(lam > lr)
                    )
                    .then(assert_tuple(LABEL, r, lam))
                    .labeled("adopt")
                ),
                guarded(
                    consensus(
                        exists(lr)
                        .match(P[LABEL, r, lr])
                        .such_that(~Membership(P[LABEL, pj, lam2], test=(lam2 > lr)))
                    )
                    .then(*done_actions)
                    .labeled("region-done")
                ),
            ),
            immediate(exists(tau).match(P[THRESHOLD, r, tau].retract())).labeled("cleanup"),
        ],
    )


def run_streaming_labeling(
    image: Image,
    threshold_fn: Callable[[int], int] | None = None,
    seed: int = 0,
    detail: bool = False,
) -> StreamingRun:
    """Label *image* while it arrives one scan line at a time."""
    threshold_fn = threshold_fn or default_threshold()
    completions: list[tuple[tuple[int, int], int]] = []
    seen: set[tuple[int, int]] = set()
    scan_rounds: list[int] = []
    engine_box: list[Engine] = []

    def on_region_done(bindings: dict[str, Any]) -> None:
        label = bindings["lr"]
        if label not in seen:
            seen.add(label)
            completions.append((label, engine_box[0].round_count))

    def on_line(bindings: dict[str, Any]) -> None:
        scan_rounds.append(engine_box[0].round_count)

    engine = Engine(
        definitions=[
            scanner_definition(image.height, on_line),
            streaming_threshold_definition(threshold_fn),
            streaming_label_definition(on_region_done),
        ],
        seed=seed,
        trace=Trace(detail),
    )
    engine_box.append(engine)
    engine.assert_tuples(
        [(SCANLINE, y, (x, y), image.pixels[(x, y)]) for (x, y) in image.positions()]
    )
    engine.assert_tuples([(SCAN_NEXT, 0)])
    engine.start("Scanner")
    engine.start("Threshold")
    result = engine.run()

    labels = {
        inst.values[1]: inst.values[2]
        for inst in engine.dataspace.find_matching(P[LABEL, ANY, ANY])
    }
    expected = connected_regions(image.threshold(threshold_fn))
    return StreamingRun(
        labels=labels,
        expected=expected,
        result=result,
        trace=engine.trace,
        engine=engine,
        completions=completions,
        scan_done_round=scan_rounds[-1] if scan_rounds else 0,
    )
