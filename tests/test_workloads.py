"""Unit tests for the workload generators (repro.workloads)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.values import NIL
from repro.workloads import (
    array_tuples,
    chain_order,
    checkerboard_image,
    connected_regions,
    image_tuples,
    phase_tagged_tuples,
    property_list_rows,
    random_array,
    random_blob_image,
    random_property_list,
    soup_rows,
    stripe_image,
)
from repro.workloads.images import neighbor

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestArrays:
    def test_reproducible(self):
        assert random_array(16, seed=3) == random_array(16, seed=3)
        assert random_array(16, seed=3) != random_array(16, seed=4)

    def test_bounds(self):
        values = random_array(100, seed=1, low=0, high=5)
        assert all(0 <= v <= 5 for v in values)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            random_array(0)

    def test_tuple_forms(self):
        assert array_tuples([10, 20]) == [(1, 10), (2, 20)]
        assert phase_tagged_tuples([10, 20]) == [(1, 10, 1), (2, 20, 1)]


class TestPropertyLists:
    def test_chain_is_well_formed(self):
        rows = random_property_list(10, seed=2)
        order = chain_order(rows)
        assert len(order) == 10
        assert rows[-1][3] == NIL

    def test_names_distinct(self):
        rows = random_property_list(50, seed=2)
        names = [r[1] for r in rows]
        assert len(set(names)) == 50

    def test_explicit_rows(self):
        rows = property_list_rows([("b", 1), ("a", 2)])
        assert chain_order(rows) == ["b", "a"]

    def test_broken_chain_detected(self):
        rows = random_property_list(5, seed=1)
        rows[2] = (rows[2][0], rows[2][1], rows[2][2], 99)  # dangling next
        with pytest.raises(ValueError):
            chain_order(rows)

    def test_cycle_detected(self):
        rows = property_list_rows([("a", 1), ("b", 2)])
        rows[1] = (1, rows[1][1], rows[1][2], 0)  # cycle back
        with pytest.raises(ValueError):
            chain_order(rows)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            random_property_list(0)

    def test_a_function_of_its_seed_alone(self):
        # names were once drawn into a set, so the list followed the string
        # hash seed of the interpreter
        script = (
            "from repro.workloads import random_property_list as r; "
            "print([str(row[1]) for row in r(12, seed=7)])"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        lists = {
            subprocess.run(
                [sys.executable, "-c", script], env={**env, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(lists) == 1
        assert lists == {repr([str(row[1]) for row in random_property_list(12, seed=7)]) + "\n"}


class TestImages:
    def test_neighbor_is_4_connectedness(self):
        assert neighbor((0, 0), (0, 1))
        assert neighbor((0, 0), (1, 0))
        assert not neighbor((0, 0), (1, 1))
        assert not neighbor((0, 0), (0, 0))
        assert not neighbor((0, 0), (0, 2))

    def test_blob_image_reproducible(self):
        a = random_blob_image(8, 8, seed=1)
        b = random_blob_image(8, 8, seed=1)
        assert a.pixels == b.pixels
        assert len(a) == 64

    def test_checkerboard_region_count(self):
        img = checkerboard_image(4, 4, square=2)
        regions = connected_regions(img.threshold(lambda v: 1 if v > 100 else 0))
        assert len(set(regions.values())) == 4  # 2x2 squares

    def test_stripe_region_count(self):
        img = stripe_image(6, 6, stripe=2)
        regions = connected_regions(img.threshold(lambda v: 1 if v > 100 else 0))
        assert len(set(regions.values())) == 3  # three stripes

    def test_image_tuples_tagged(self):
        img = stripe_image(2, 2)
        rows = image_tuples(img)
        assert len(rows) == 4
        assert all(r[0] == "image" for r in rows)

    def test_ground_truth_labels_are_region_maxima(self):
        img = stripe_image(4, 2, stripe=1)
        labels = connected_regions(img.threshold(lambda v: 1 if v > 100 else 0))
        # top stripe y=0, max position (3,0); bottom stripe (3,1)
        assert labels[(0, 0)] == (3, 0)
        assert labels[(0, 1)] == (3, 1)


class TestSoup:
    def test_relevant_fraction(self):
        rows, target = soup_rows(1000, relevant_fraction=0.2, seed=3)
        relevant = [r for r in rows if r[0] == target]
        assert len(rows) == 1000
        assert len(relevant) == 200

    def test_same_arity_everywhere(self):
        rows, __ = soup_rows(100, seed=1)
        assert {len(r) for r in rows} == {3}

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            soup_rows(10, relevant_fraction=1.5)

    def test_reproducible(self):
        assert soup_rows(50, seed=9) == soup_rows(50, seed=9)
