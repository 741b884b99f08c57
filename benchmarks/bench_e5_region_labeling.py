"""E5 — Section 3.3: region labeling, worker model vs community model.

Paper claims: both programs label correctly; in the worker model "the
labeled regions are not available for further processing until the entire
program completes execution", while the community model's per-region
consensus makes regions available incrementally (the airborne-scanning
motivation).  The worker model's image sizes stay small: its propagation
join still enumerates label pairs, now without probing for the
non-neighbours, and this is an interpreter.  The community
model's ``Label`` windows are delta-maintained, so it goes on to 16x16
(256 processes with configuration-dependent views).
"""

import pytest

from _helpers import attach, once
from repro.programs import run_community_labeling, run_worker_labeling
from repro.workloads import random_blob_image, stripe_image

WORKER_SIZES = [4, 6, 8, 12]
COMMUNITY_SIZES = [4, 6, 8, 12, 16]


@pytest.mark.parametrize("size", WORKER_SIZES)
def test_e5_worker_model(benchmark, size):
    image = random_blob_image(size, size, blobs=2, seed=size)
    out = once(benchmark, run_worker_labeling, image, seed=2)
    assert out.correct
    attach(
        benchmark,
        pixels=size * size,
        regions=out.region_count(),
        commits=out.result.commits,
        rounds=out.result.rounds,
        consensus=out.result.consensus_rounds,
    )
    assert out.result.consensus_rounds == 0  # no incremental signal at all


@pytest.mark.parametrize("size", COMMUNITY_SIZES)
def test_e5_community_model(benchmark, size):
    image = random_blob_image(size, size, blobs=2, seed=size)
    out = once(benchmark, run_community_labeling, image, seed=2)
    assert out.correct
    attach(
        benchmark,
        pixels=size * size,
        regions=out.region_count(),
        commits=out.result.commits,
        rounds=out.result.rounds,
        consensus=out.result.consensus_rounds,
        completion_rounds=[r for __, r in out.completions],
    )
    # one consensus per region, each announcing that region's completion
    assert out.result.consensus_rounds == out.region_count()
    assert len(out.completions) == out.region_count()


def _shape_e5_incremental_availability():
    """With several regions, at least one completes strictly before the
    run's final round — regions become available incrementally."""
    image = stripe_image(6, 6, stripe=2)  # 3 stripes = 3 regions
    out = run_community_labeling(image, seed=3)
    assert out.correct
    first_completion = min(r for __, r in out.completions)
    assert first_completion < out.result.rounds


def _shape_e5_models_agree_on_labels():
    image = random_blob_image(6, 6, blobs=2, seed=11)
    worker = run_worker_labeling(image, seed=1)
    community = run_community_labeling(image, seed=1)
    assert worker.labels == community.labels == worker.expected


def test_e5_incremental_availability(benchmark):
    """Timed wrapper so the shape check runs under --benchmark-only."""
    from _helpers import once

    once(benchmark, _shape_e5_incremental_availability)


def test_e5_models_agree_on_labels(benchmark):
    """Timed wrapper so the shape check runs under --benchmark-only."""
    from _helpers import once

    once(benchmark, _shape_e5_models_agree_on_labels)
