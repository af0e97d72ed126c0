"""Tests for the synthetic workload generators."""

from __future__ import annotations

import pytest

from repro.metric import GridSpace, HammingSpace
from repro.workloads import generators
from repro.workloads import (
    noisy_replica_pair,
    perturb_point,
    random_far_point,
)


class TestPerturbPoint:
    def test_hamming_within_radius(self, rng):
        space = HammingSpace(24)
        point = space.sample(rng, 1)[0]
        for _ in range(50):
            moved = perturb_point(space, point, 3, rng)
            assert space.contains(moved)
            assert space.distance(point, moved) <= 3

    def test_hamming_zero_radius(self, rng):
        space = HammingSpace(8)
        point = space.sample(rng, 1)[0]
        assert perturb_point(space, point, 0, rng) == point

    def test_grid_within_radius(self, rng):
        for p in (1.0, 2.0):
            space = GridSpace(side=200, dim=3, p=p)
            point = (100, 100, 100)
            for _ in range(50):
                moved = perturb_point(space, point, 9.0, rng)
                assert space.contains(moved)
                assert space.distance(point, moved) <= 9.0 + 1e-9

    def test_grid_tiny_radius_single_coordinate(self, rng):
        space = GridSpace(side=200, dim=8, p=1.0)
        point = tuple([100] * 8)
        for _ in range(30):
            moved = perturb_point(space, point, 1.0, rng)
            assert space.distance(point, moved) <= 1.0

    def test_rejects_negative_radius(self, rng):
        with pytest.raises(ValueError):
            perturb_point(HammingSpace(4), (0, 0, 0, 0), -1, rng)


class TestRandomFarPoint:
    def test_respects_distance(self, rng):
        space = HammingSpace(64)
        anchors = space.sample(rng, 10)
        point = random_far_point(space, anchors, 20.0, rng)
        distances = space.distance_matrix([point], anchors)
        assert distances.min() >= 20.0

    def test_no_anchors(self, rng):
        space = HammingSpace(8)
        point = random_far_point(space, [], 5.0, rng)
        assert space.contains(point)

    def test_impossible_raises(self, rng, monkeypatch):
        monkeypatch.setattr(generators, "FAR_POINT_TRIES", 50)
        space = HammingSpace(4)
        anchors = space.sample(rng, 16)  # every point of {0,1}^4... nearly
        with pytest.raises(RuntimeError):
            random_far_point(space, anchors, 5.0, rng)


class TestNoisyReplicaPair:
    def test_structure(self, rng):
        space = HammingSpace(64)
        wl = noisy_replica_pair(space, n=20, k=3, close_radius=2, far_radius=24, rng=rng)
        assert wl.n == 20
        assert wl.k == 3
        assert len(wl.bob) == 20
        assert wl.far_indices == (17, 18, 19)

    def test_close_points_close(self, rng):
        space = HammingSpace(64)
        wl = noisy_replica_pair(space, n=20, k=3, close_radius=2, far_radius=24, rng=rng)
        for index in range(20 - 3):
            assert space.distance(wl.alice[index], wl.bob[index]) <= 2

    def test_far_points_far(self, rng):
        space = HammingSpace(64)
        wl = noisy_replica_pair(space, n=20, k=3, close_radius=2, far_radius=24, rng=rng)
        matrix = space.distance_matrix(wl.alice_far_points, wl.bob)
        assert matrix.min() >= 24

    def test_far_points_mutually_far(self, rng):
        space = HammingSpace(64)
        wl = noisy_replica_pair(space, n=20, k=3, close_radius=2, far_radius=24, rng=rng)
        fars = wl.alice_far_points
        for i in range(len(fars)):
            for j in range(i + 1, len(fars)):
                assert space.distance(fars[i], fars[j]) >= 24

    def test_grid_space(self, rng):
        space = GridSpace(side=512, dim=2, p=2.0)
        wl = noisy_replica_pair(space, n=16, k=2, close_radius=3, far_radius=100, rng=rng)
        for index in range(14):
            assert space.distance(wl.alice[index], wl.bob[index]) <= 3

    def test_k_zero(self, rng):
        space = HammingSpace(32)
        wl = noisy_replica_pair(space, n=10, k=0, close_radius=1, far_radius=10, rng=rng)
        assert wl.far_indices == ()

    def test_invalid_parameters(self, rng):
        space = HammingSpace(32)
        with pytest.raises(ValueError):
            noisy_replica_pair(space, n=5, k=6, close_radius=1, far_radius=10, rng=rng)
        with pytest.raises(ValueError):
            noisy_replica_pair(space, n=5, k=1, close_radius=10, far_radius=5, rng=rng)
