"""Section 3.3 — region labeling: the worker model and the community model.

Both programs threshold a digitized image and label its 4-connected
equal-threshold regions with the largest xy-coordinate covered by the
region.

* **Worker model** (``Threshold_and_label``): a single process issuing many
  parallel transactions via one replication — one branch thresholds pixels,
  the other propagates labels between neighbouring same-threshold pixels.
  "The labeled regions are not available for further processing until the
  entire program completes execution."

* **Community model** (``Threshold`` + one ``Label(r, t)`` per pixel): each
  Label process carries a *configuration-dependent view* importing exactly
  its own pixel and its same-threshold 4-neighbours.  Import-set overlap
  then partitions the Label processes into one closed community per region,
  and each community detects its own completion with a consensus
  transaction — regions become available incrementally, which is the
  paper's motivation for views (the airborne-scanning scenario).

The labels, thresholds and images live in the dataspace as
``<threshold, pos, t>``, ``<label, pos, lab>``, ``<image, pos, v>`` with
``pos``/``lab`` being ``(x, y)`` value tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.actions import EXIT, CallPython, assert_tuple, spawn
from repro.core.constructs import guarded, repeat, replicate
from repro.core.expressions import Var, fn, variables
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import Membership, exists, no
from repro.core.transactions import consensus, delayed, immediate
from repro.core.values import Atom
from repro.core.views import import_rule
from repro.runtime.engine import Engine, RunResult
from repro.runtime.events import Trace
from repro.workloads.images import (
    Image, connected_regions, image_tuples, is_pixel, neighbor, neighbors_of,
)

__all__ = [
    "LabelingRun",
    "default_threshold",
    "worker_definition",
    "threshold_definition",
    "label_definition",
    "run_worker_labeling",
    "run_community_labeling",
]

IMAGE = Atom("image")
THRESHOLD = Atom("threshold")
LABEL = Atom("label")

_neighbor = fn(neighbor, "neighbor", enumerator=neighbors_of, domain=is_pixel)


def default_threshold(cutoff: int = 128) -> Callable[[int], int]:
    """The paper's threshold operator T: binary quantisation at *cutoff*."""

    def t(value: int) -> int:
        return 1 if value >= cutoff else 0

    return t


@dataclass(slots=True)
class LabelingRun:
    """Outcome of one labeling run."""

    labels: dict[tuple[int, int], tuple[int, int]]
    expected: dict[tuple[int, int], tuple[int, int]]
    result: RunResult
    trace: Trace
    engine: Engine
    #: community model only: (region_label_pixel, completion_round) pairs in
    #: the order regions completed.
    completions: list[tuple[tuple[int, int], int]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.labels == self.expected

    def region_count(self) -> int:
        return len(set(self.expected.values()))


# ----------------------------------------------------------------------
# worker model
# ----------------------------------------------------------------------

def worker_definition(threshold_fn: Callable[[int], int]) -> ProcessDefinition:
    """``PROCESS Threshold_and_label`` — one process, many transactions."""
    t = fn(threshold_fn, "T")
    pos, v = variables("pos v")
    p1, p2, tau, l1, l2 = variables("p1 p2 tau l1 l2")
    return ProcessDefinition(
        "Threshold_and_label",
        body=[
            replicate(
                # threshold a pixel and give it its own position as label
                guarded(
                    immediate(exists(pos, v).match(P[IMAGE, pos, v].retract()))
                    .then(
                        assert_tuple(THRESHOLD, pos, t(v)),
                        assert_tuple(LABEL, pos, pos),
                    )
                    .labeled("threshold")
                ),
                # propagate the larger label across a same-threshold edge
                guarded(
                    immediate(
                        exists(p1, l1, p2, l2, tau)
                        .match(
                            P[LABEL, p1, l1].retract(),
                            P[LABEL, p2, l2],
                            P[THRESHOLD, p1, tau],
                            P[THRESHOLD, p2, tau],
                        )
                        .such_that(_neighbor(p1, p2) & (l2 > l1))
                    )
                    .then(assert_tuple(LABEL, p1, l2))
                    .labeled("propagate")
                ),
            ),
        ],
    )


def run_worker_labeling(
    image: Image,
    threshold_fn: Callable[[int], int] | None = None,
    seed: int = 0,
    detail: bool = False,
    **engine_kwargs,
) -> LabelingRun:
    """Threshold and label *image* with the single worker process.

    Extra keyword arguments go straight to :class:`Engine` — e.g.
    ``commit="group"`` or ``obs=True``.
    """
    threshold_fn = threshold_fn or default_threshold()
    engine = Engine(
        definitions=[worker_definition(threshold_fn)],
        seed=seed,
        trace=Trace(detail),
        **engine_kwargs,
    )
    engine.assert_tuples(image_tuples(image))
    engine.start("Threshold_and_label")
    result = engine.run()
    return _collect(image, threshold_fn, engine, result, [])


# ----------------------------------------------------------------------
# community model
# ----------------------------------------------------------------------

def threshold_definition(threshold_fn: Callable[[int], int]) -> ProcessDefinition:
    """``PROCESS Threshold`` — thresholds pixels and spawns Label processes.

    Its view imports only raw image tuples, so once a neighbourhood's
    pixels are thresholded the Threshold process no longer overlaps that
    region's community and per-region consensus can fire early.
    """
    t = fn(threshold_fn, "T")
    pos, v = variables("pos v")
    return ProcessDefinition(
        "Threshold",
        imports=[import_rule(IMAGE, ANY, ANY)],
        exports=[import_rule(THRESHOLD, ANY, ANY)],
        body=[
            replicate(
                guarded(
                    immediate(exists(pos, v).match(P[IMAGE, pos, v].retract()))
                    .then(
                        assert_tuple(THRESHOLD, pos, t(v)),
                        spawn("Label", pos, t(v)),
                    )
                    .labeled("threshold")
                ),
            ),
        ],
    )


def label_definition(
    on_region_done: Callable[[dict[str, Any]], None] | None = None,
) -> ProcessDefinition:
    """``PROCESS Label(r, t)`` with its configuration-dependent view.

    The import set covers the pixel's own tuples plus the label/threshold
    tuples of 4-neighbours *currently carrying the same threshold value* —
    "SDL allows the view to depend upon the current configuration of the
    dataspace".  The optional *on_region_done* callback fires once per
    region when its consensus commits (bindings include the process
    parameters), which E5 uses to timestamp incremental completion.
    """
    r, t = Var("r"), Var("t")
    pi, lam, lr = variables("pi lam lr")
    pj, lam2 = variables("pj lam2")
    tau = Var("tau")

    same_region = (pi == r) | _neighbor(pi, r)
    imports = [
        # labels of own pixel and same-threshold neighbours; the `where`
        # clause is the configuration dependence
        import_rule(LABEL, pi, ANY, guard=same_region, where=[P[THRESHOLD, pi, t]]),
        # thresholds of the same pixels (only same-t tuples match)
        import_rule(THRESHOLD, pi, t, guard=same_region),
        # raw images of the neighbourhood — lets the process wait for all
        # of its neighbours to be thresholded before deciding anything
        import_rule(IMAGE, pi, ANY, guard=same_region),
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
            # "the labeling process first assigns a label r (its own location)"
            immediate().then(assert_tuple(LABEL, r, r)).labeled("self-label"),
            # wait until every neighbour has been thresholded (no raw image
            # tuples remain in the window) — "it must somehow ensure that
            # all its neighbors exist"
            delayed(no(P[IMAGE, ANY, ANY])).labeled("neighbors-exist"),
            repeat(
                # adopt the largest visible label
                guarded(
                    immediate(
                        exists(lr, pi, lam)
                        .match(P[LABEL, r, lr].retract(), P[LABEL, pi, lam])
                        .such_that(lam > lr)
                    )
                    .then(assert_tuple(LABEL, r, lam))
                    .labeled("adopt")
                ),
                # the region is done when nobody in the window has a larger
                # label than ours — detected region-wide by consensus
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
            # "when the labeling is complete in a given region, the
            # threshold values are discarded"
            immediate(exists(tau).match(P[THRESHOLD, r, tau].retract())).labeled("cleanup"),
        ],
    )


def run_community_labeling(
    image: Image,
    threshold_fn: Callable[[int], int] | None = None,
    seed: int = 0,
    detail: bool = False,
    **engine_kwargs,
) -> LabelingRun:
    """Threshold and label *image* with the community model."""
    threshold_fn = threshold_fn or default_threshold()
    completions: list[tuple[tuple[int, int], int]] = []
    seen_regions: set[tuple[int, int]] = set()

    engine_box: list[Engine] = []

    def on_region_done(bindings: dict[str, Any]) -> None:
        label = bindings["lr"]
        if label not in seen_regions:
            seen_regions.add(label)
            completions.append((label, engine_box[0].round_count))

    engine = Engine(
        definitions=[
            threshold_definition(threshold_fn),
            label_definition(on_region_done),
        ],
        seed=seed,
        trace=Trace(detail),
        **engine_kwargs,
    )
    engine_box.append(engine)
    engine.assert_tuples(image_tuples(image))
    engine.start("Threshold")
    result = engine.run()
    return _collect(image, threshold_fn, engine, result, completions)


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def _collect(
    image: Image,
    threshold_fn: Callable[[int], int],
    engine: Engine,
    result: RunResult,
    completions: list[tuple[tuple[int, int], int]],
) -> LabelingRun:
    labels = {
        inst.values[1]: inst.values[2]
        for inst in engine.dataspace.find_matching(P[LABEL, ANY, ANY])
    }
    expected = connected_regions(image.threshold(threshold_fn))
    return LabelingRun(
        labels=labels,
        expected=expected,
        result=result,
        trace=engine.trace,
        engine=engine,
        completions=completions,
    )
