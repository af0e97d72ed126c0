"""Tests for the metric spaces."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metric import GridSpace, HammingSpace, point_tuples


class TestHammingSpace:
    def test_distance_basic(self):
        space = HammingSpace(4)
        assert space.distance((0, 0, 0, 0), (1, 1, 1, 1)) == 4
        assert space.distance((0, 1, 0, 1), (0, 1, 0, 1)) == 0
        assert space.distance((0, 1, 0, 1), (0, 1, 1, 1)) == 1

    def test_diameter(self):
        assert HammingSpace(17).diameter == 17

    def test_contains(self):
        space = HammingSpace(3)
        assert space.contains((0, 1, 1))
        assert not space.contains((0, 1))
        assert not space.contains((0, 1, 2))

    def test_validate_rejects(self):
        with pytest.raises(ValueError):
            HammingSpace(3).validate((0, 2, 0))

    def test_distance_matrix_matches_loop(self, rng):
        space = HammingSpace(16)
        xs = space.sample(rng, 6)
        ys = space.sample(rng, 5)
        matrix = space.distance_matrix(xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert matrix[i, j] == space.distance(x, y)

    def test_distance_matrix_empty(self):
        space = HammingSpace(4)
        assert space.distance_matrix([], [(0, 0, 0, 0)]).shape == (0, 1)

    def test_sample_in_space(self, rng):
        space = HammingSpace(8)
        for point in space.sample(rng, 20):
            assert space.contains(point)

    def test_clamp(self):
        space = HammingSpace(3)
        assert space.clamp((1.6, -0.4, 0.4)) == (1, 0, 0)

    def test_dimension_mismatch_raises(self):
        space = HammingSpace(3)
        with pytest.raises(ValueError):
            space.distance((0, 1), (1, 0, 1))


class TestGridSpace:
    def test_l1_distance(self):
        space = GridSpace(side=10, dim=3, p=1.0)
        assert space.distance((0, 0, 0), (1, 2, 3)) == 6

    def test_l2_distance(self):
        space = GridSpace(side=10, dim=2, p=2.0)
        assert space.distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_linf_distance(self):
        space = GridSpace(side=10, dim=3, p=math.inf)
        assert space.distance((0, 0, 0), (1, 5, 3)) == 5

    def test_diameters(self):
        assert GridSpace(side=11, dim=3, p=1.0).diameter == 30
        assert GridSpace(side=11, dim=4, p=2.0).diameter == pytest.approx(20.0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            GridSpace(side=10, dim=2, p=0.5)

    def test_rejects_tiny_side(self):
        with pytest.raises(ValueError):
            GridSpace(side=1, dim=2)

    def test_clamp_rounds_and_bounds(self):
        space = GridSpace(side=8, dim=3, p=1.0)
        assert space.clamp((-3.0, 7.6, 3.4)) == (0, 7, 3)

    def test_point_array_roundtrip(self, rng):
        space = GridSpace(side=50, dim=5, p=2.0)
        points = space.sample(rng, 7)
        matrix = space.point_array(points)
        assert matrix.dtype == np.int64 and matrix.shape == (7, 5)
        assert point_tuples(matrix) == points

    def test_point_array_empty(self):
        space = GridSpace(side=50, dim=5)
        assert space.point_array([]).shape == (0, 5)

    def test_distance_matrix_matches_loop(self, rng):
        for p in (1.0, 2.0):
            space = GridSpace(side=30, dim=3, p=p)
            xs = space.sample(rng, 4)
            ys = space.sample(rng, 6)
            matrix = space.distance_matrix(xs, ys)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    assert matrix[i, j] == pytest.approx(space.distance(x, y))

    def test_equality(self):
        assert GridSpace(10, 3, 2.0) == GridSpace(10, 3, 2.0)
        assert GridSpace(10, 3, 2.0) != GridSpace(10, 3, 1.0)
        assert GridSpace(10, 3, 1.0) != HammingSpace(3)


@given(
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_metric_axioms_hamming(dim, seed):
    """Symmetry, identity and triangle inequality on random triples."""
    space = HammingSpace(dim)
    rng = np.random.default_rng(seed)
    x, y, z = space.sample(rng, 3)
    assert space.distance(x, y) == space.distance(y, x)
    assert space.distance(x, x) == 0
    assert space.distance(x, z) <= space.distance(x, y) + space.distance(y, z)


@given(
    p=st.sampled_from([1.0, 2.0]),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_metric_axioms_grid(p, seed):
    space = GridSpace(side=20, dim=4, p=p)
    rng = np.random.default_rng(seed)
    x, y, z = space.sample(rng, 3)
    assert space.distance(x, y) == pytest.approx(space.distance(y, x))
    assert space.distance(x, x) == 0
    assert space.distance(x, z) <= space.distance(x, y) + space.distance(y, z) + 1e-9
