"""Integration tests: the Section 3.3 region-labeling programs.

Image sizes are kept small — the worker model's label-propagation join
still enumerates every pair of labels and this is an interpreter, not a
Connection Machine.
"""

import pytest

from repro.programs import (
    default_threshold,
    run_community_labeling,
    run_worker_labeling,
)
from repro.workloads import checkerboard_image, random_blob_image, stripe_image


class TestGroundTruth:
    def test_default_threshold_binary(self):
        t = default_threshold(128)
        assert t(200) == 1 and t(100) == 0


class TestWorkerModel:
    @pytest.mark.parametrize(
        "image",
        [
            stripe_image(4, 4, stripe=2),
            checkerboard_image(4, 4, square=2),
            random_blob_image(5, 5, blobs=2, seed=3),
        ],
        ids=["stripes", "checkerboard", "blobs"],
    )
    def test_labels_match_ground_truth(self, image):
        out = run_worker_labeling(image, seed=2)
        assert out.correct

    def test_single_process_society(self):
        out = run_worker_labeling(stripe_image(4, 4), seed=1)
        assert out.trace.counters.processes_created == 1

    def test_all_pixels_labeled(self):
        image = stripe_image(5, 3)
        out = run_worker_labeling(image, seed=1)
        assert len(out.labels) == 15

    def test_images_consumed(self):
        from repro.core.patterns import ANY, P
        from repro.programs.labeling import IMAGE

        out = run_worker_labeling(stripe_image(4, 4), seed=1)
        assert out.engine.dataspace.count_matching(P[IMAGE, ANY, ANY]) == 0

    def test_uniform_image_single_region(self):
        image = stripe_image(4, 4, stripe=4)  # one stripe = whole image
        out = run_worker_labeling(image, seed=1)
        assert out.correct
        assert out.region_count() == 1
        assert set(out.labels.values()) == {(3, 3)}

    @pytest.mark.parametrize(
        "options",
        [{"plan": "on"},
         {"plan": "on", "commit": "group", "shards": 4, "store": "columnar"}],
        ids=["live", "group-sharded-columnar"],
    )
    def test_propagation_probes_only_for_neighbours(self, options, monkeypatch):
        # ``propagate`` joins two labels and two thresholds under
        # ``neighbor(p1, p2) & l2 > l1``.  Tested only at the leaf, each of
        # the 64 x 63 label pairs paid both threshold probes before
        # ``neighbor`` was asked: 270 347 fetches on this image.  As a join
        # filter at the depth that binds p2 it leaves 4 757, on the same
        # schedule.
        from repro.core.dataspace import Dataspace

        fetches = []
        real = Dataspace.candidates_probed

        def counting(self, arity, probes):
            fetches.append(arity)
            return real(self, arity, probes)

        monkeypatch.setattr(Dataspace, "candidates_probed", counting)
        image = random_blob_image(8, 8, blobs=2, seed=8)
        out = run_worker_labeling(image, seed=2, **options)
        assert out.correct
        result = out.result
        assert (result.commits, result.rounds, result.steps) == (340, 18, 358)
        assert len(fetches) <= 6000

    def test_neighbor_is_asked_after_the_cheaper_filter(self, monkeypatch):
        # Within the depth that binds p2, ``l2 > l1`` runs before the
        # lifted ``neighbor`` (cheapest conjunct first), so ``neighbor``
        # is asked only of the pairs whose labels can still propagate:
        # 401.7 calls per commit when it ran first, 86.8 with every outer
        # row searched on every replica attempt, 34.3 now that a batch
        # skips the rows it has ruled out (SEMANTICS §12).
        out, calls = _counting_neighbor(monkeypatch, 8)
        result = out.result
        assert (result.commits, result.rounds, result.steps) == (335, 18, 353)
        assert calls / result.commits <= 45

    def test_a_batch_does_not_search_a_ruled_out_row_again(self, monkeypatch):
        # 16x16: 1 206 neighbor calls per commit when every replica
        # attempt searched every outer row again, 215.5 with the memo.
        out, calls = _counting_neighbor(monkeypatch, 16)
        result = out.result
        assert (result.commits, result.rounds, result.steps) == (2139, 34, 2173)
        assert calls / result.commits <= 300


def _counting_neighbor(monkeypatch, side):
    """Worker labeling of the ``side`` x ``side`` 3-blob image (layout and
    engine seed 1) on the planner path, checked, and the number of
    ``neighbor`` calls."""
    from repro.core.expressions import fn
    from repro.programs import labeling
    from repro.workloads.images import neighbor

    calls = [0]

    def counting(p1, p2):
        calls[0] += 1
        return neighbor(p1, p2)

    monkeypatch.setattr(labeling, "_neighbor", fn(counting, "neighbor"))
    out = run_worker_labeling(
        random_blob_image(side, side, blobs=3, seed=1), seed=1, plan="on"
    )
    assert out.correct
    return out, calls[0]


def _counting_community(monkeypatch, side):
    """Community labeling of the ``side`` x ``side`` 3-blob image (layout
    and engine seed 1) on the planner path, checked, with the number of
    ``neighbor`` calls and of ``Window.footprint`` reads."""
    from repro.core.expressions import fn
    from repro.core.views import Window
    from repro.programs import labeling
    from repro.workloads.images import is_pixel, neighbor, neighbors_of

    calls, reads = [0], [0]

    def counting(p1, p2):
        calls[0] += 1
        return neighbor(p1, p2)

    footprint = Window.footprint

    def reading(window):
        reads[0] += 1
        return footprint(window)

    monkeypatch.setattr(
        labeling, "_neighbor",
        fn(counting, "neighbor", enumerator=neighbors_of, domain=is_pixel),
    )
    monkeypatch.setattr(Window, "footprint", reading)
    out = run_community_labeling(
        random_blob_image(side, side, blobs=3, seed=1), seed=1, plan="on"
    )
    assert out.correct
    return out, calls[0], reads[0]


class TestCommunityModel:
    @pytest.mark.parametrize(
        "side,expected", [(8, (530, 15, 810)), (16, (2732, 22, 4780))]
    )
    def test_views_and_consensus_pay_for_what_changed(self, monkeypatch, side, expected):
        # The Label view guard names its keys, so routing and
        # materialisation probe {r} and r's four neighbours instead of
        # asking ``neighbor``: 20.9 calls per commit at 8x8 and 57.8 at
        # 16x16 before.  Consensus folds the windows the router filed
        # into and reads footprints only to confirm a set before firing:
        # 16.1 and 83.7 reads per commit before (SEMANTICS §5, §7).
        out, calls, reads = _counting_community(monkeypatch, side)
        result = out.result
        assert (result.commits, result.rounds, result.steps) == expected
        assert calls / result.commits <= 5
        assert reads / result.commits <= 3

    @pytest.mark.parametrize(
        "image",
        [
            stripe_image(4, 4, stripe=2),
            checkerboard_image(4, 4, square=2),
            random_blob_image(5, 5, blobs=2, seed=3),
        ],
        ids=["stripes", "checkerboard", "blobs"],
    )
    def test_labels_match_ground_truth(self, image):
        out = run_community_labeling(image, seed=2)
        assert out.correct

    def test_one_label_process_per_pixel(self):
        image = stripe_image(4, 3)
        out = run_community_labeling(image, seed=1)
        # 1 Threshold + 12 Label processes
        assert out.trace.counters.processes_created == 13

    def test_one_consensus_per_region(self):
        image = stripe_image(4, 4, stripe=2)  # 2 regions
        out = run_community_labeling(image, seed=1)
        assert out.result.consensus_rounds == out.region_count() == 2

    def test_completions_reported_per_region(self):
        image = stripe_image(6, 6, stripe=2)  # 3 regions
        out = run_community_labeling(image, seed=1)
        assert len(out.completions) == 3
        reported = {label for label, __ in out.completions}
        assert reported == set(out.expected.values())

    def test_thresholds_discarded_after_completion(self):
        from repro.core.patterns import ANY, P
        from repro.programs.labeling import THRESHOLD

        out = run_community_labeling(stripe_image(4, 4), seed=1)
        # "when the labeling is complete ... the threshold values are discarded"
        assert out.engine.dataspace.count_matching(P[THRESHOLD, ANY, ANY]) == 0

    @pytest.mark.parametrize("commit, hit_rate", [("live", 0.9), ("group", 0.85)])
    def test_where_views_are_delta_maintained(self, commit, hit_rate):
        # The Label view is configuration-dependent (``where`` atom); its
        # windows used to be thrown away on every dataspace version: 7 413
        # full invalidations and a hit rate of 0.25 on this image (6 729
        # and 0.24 under group commit; now 0.93 and 0.88).  Every window
        # is a footprint from its first refresh, so no lookup of a live
        # instance asks a rule (896 and 4 160 did while lazy windows kept
        # a memo).
        image = random_blob_image(8, 8, blobs=2, seed=8)
        out = run_community_labeling(image, seed=2, commit=commit)
        assert out.correct
        assert out.result.window_full_invalidations == 0
        assert out.result.window_hit_rate >= hit_rate
        assert out.result.window_misses == 0

    def test_checkerboard_many_singleton_communities(self):
        image = checkerboard_image(4, 2, square=1)
        out = run_community_labeling(image, seed=1)
        assert out.correct
        assert out.result.consensus_rounds == 8  # every pixel its own region


class TestModelsAgree:
    @pytest.mark.parametrize("seed", [1, 9])
    def test_both_models_identical_labels(self, seed):
        image = random_blob_image(5, 5, blobs=2, seed=seed)
        worker = run_worker_labeling(image, seed=3)
        community = run_community_labeling(image, seed=3)
        assert worker.labels == community.labels == worker.expected


class TestPushdownKeepsSchedules:
    """On the labeling programs every fetch below a pruned binding has at
    most one candidate, so skipping it skips no RNG draw: a run with the
    test withheld from the planner (leaf-only, the previous engine) and a
    run with pushdown agree down to the next draw of the engine RNG."""

    @staticmethod
    def fingerprint(run, image, seed):
        out = run(image, seed=seed, plan="on")
        result = out.result
        return (
            result.commits, result.rounds, result.steps,
            out.engine.dataspace.multiset(), out.engine.rng.random(),
        )

    @pytest.mark.parametrize("run", [run_worker_labeling, run_community_labeling])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_run_with_the_test_withheld(self, run, seed, monkeypatch):
        from repro.core.plan import QueryPlanner

        image = random_blob_image(6, 6, blobs=2, seed=seed)
        pushed = self.fingerprint(run, image, seed)
        monkeypatch.setattr(QueryPlanner, "join_filters", lambda self, plan, test: None)
        assert self.fingerprint(run, image, seed) == pushed
