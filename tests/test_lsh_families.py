"""Tests for LSH / MLSH families (Definitions 2.1, 2.2; Lemmas 2.3–2.5)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.hashing import PublicCoins
from repro.lsh import (
    BitSamplingMLSH,
    GridMLSH,
    LSHParams,
    OneSidedGridLSH,
    PStableMLSH,
    batches_for_p2_half,
    fold_cells,
    pstable_collision_probability,
)
from repro.metric import GridSpace, HammingSpace


class TestLSHParams:
    def test_rho(self):
        params = LSHParams(r1=1, r2=4, p1=0.9, p2=0.5)
        assert params.rho == pytest.approx(math.log(0.9) / math.log(0.5))

    def test_rho_one_sided(self):
        assert LSHParams(r1=1, r2=4, p1=0.9, p2=0.0).rho == 0.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            LSHParams(r1=4, r2=1, p1=0.9, p2=0.5)
        with pytest.raises(ValueError):
            LSHParams(r1=1, r2=4, p1=0.5, p2=0.9)


class TestBatchesForP2Half:
    def test_half_needs_one(self):
        assert batches_for_p2_half(0.5) == 1

    def test_larger_p2_needs_more(self):
        assert batches_for_p2_half(0.9) == math.ceil(math.log(0.5) / math.log(0.9))

    def test_small_p2_one(self):
        assert batches_for_p2_half(0.1) == 1

    def test_rejects_bounds(self):
        with pytest.raises(ValueError):
            batches_for_p2_half(0.0)
        with pytest.raises(ValueError):
            batches_for_p2_half(1.0)


def _empirical_collision_rate(family, coins, x, y, count=4000):
    batch = family.sample_batch(coins, "emp", count)
    values = batch.evaluate([x, y])
    return float((values[0] == values[1]).mean())


class TestBitSamplingMLSH:
    def test_parameters(self):
        space = HammingSpace(16)
        family = BitSamplingMLSH(space, w=32)
        assert family.r == pytest.approx(0.79 * 32)
        assert family.p == pytest.approx(math.exp(-2 / 32))
        assert family.alpha == 0.5

    def test_requires_w_at_least_d(self):
        with pytest.raises(ValueError):
            BitSamplingMLSH(HammingSpace(16), w=8)

    def test_requires_hamming(self):
        with pytest.raises(TypeError):
            BitSamplingMLSH(GridSpace(4, 4, 1.0), w=8)

    def test_exact_collision_probability(self):
        family = BitSamplingMLSH(HammingSpace(16), w=32)
        assert family.collision_probability(0) == 1.0
        assert family.collision_probability(8) == pytest.approx(1 - 8 / 32)

    def test_collision_within_mlsh_bounds(self, coins):
        space = HammingSpace(24)
        family = BitSamplingMLSH(space, w=48)
        x = tuple([0] * 24)
        for distance in (1, 4, 10):
            y = tuple([1] * distance + [0] * (24 - distance))
            rate = _empirical_collision_rate(family, coins, x, y)
            assert rate <= family.collision_upper_bound(distance) + 0.03
            assert rate >= family.collision_lower_bound(distance) - 0.03

    def test_batch_shared_between_parties(self):
        space = HammingSpace(12)
        family = BitSamplingMLSH(space, w=24)
        rng = np.random.default_rng(0)
        points = space.sample(rng, 5)
        a = family.sample_batch(PublicCoins(9), "x", 30).evaluate(points)
        b = family.sample_batch(PublicCoins(9), "x", 30).evaluate(points)
        assert (a == b).all()

    def test_batch_empty_points(self, coins):
        family = BitSamplingMLSH(HammingSpace(8), w=16)
        assert family.sample_batch(coins, "e", 7).evaluate([]).shape == (0, 7)

    def test_batch_dimension_check(self, coins):
        family = BitSamplingMLSH(HammingSpace(8), w=16)
        batch = family.sample_batch(coins, "d", 3)
        with pytest.raises(ValueError):
            batch.evaluate([(0, 1)])

    def test_derived_lsh_params(self):
        family = BitSamplingMLSH(HammingSpace(16), w=64)
        params = family.derived_lsh_params(r1=2, r2=16)
        assert params.p1 == pytest.approx(family.p**2)
        assert params.p2 == pytest.approx(family.p ** (0.5 * 16))
        assert params.rho == pytest.approx(2 / (0.5 * 16))

    def test_derived_lsh_params_r1_cap(self):
        family = BitSamplingMLSH(HammingSpace(16), w=16)
        with pytest.raises(ValueError):
            family.derived_lsh_params(r1=100, r2=200)


class TestGridMLSH:
    def test_parameters(self):
        space = GridSpace(side=64, dim=3, p=1.0)
        family = GridMLSH(space, w=8.0)
        assert family.r == pytest.approx(0.79 * 8)
        assert family.p == pytest.approx(math.exp(-2 / 8))
        assert family.alpha == 0.5

    def test_requires_l1(self):
        with pytest.raises(TypeError):
            GridMLSH(GridSpace(64, 3, 2.0), w=8.0)
        with pytest.raises(TypeError):
            GridMLSH(HammingSpace(8), w=8.0)

    def test_identical_points_always_collide(self, coins):
        space = GridSpace(side=64, dim=3, p=1.0)
        family = GridMLSH(space, w=8.0)
        batch = family.sample_batch(coins, "i", 50)
        rng = np.random.default_rng(1)
        point = space.sample(rng, 1)[0]
        values = batch.evaluate([point, point])
        assert (values[0] == values[1]).all()

    def test_collision_within_mlsh_bounds(self, coins):
        space = GridSpace(side=256, dim=2, p=1.0)
        family = GridMLSH(space, w=16.0)
        x = (100, 100)
        for offset in (1, 4, 10):
            y = (100 + offset, 100)
            rate = _empirical_collision_rate(family, coins, x, y)
            assert rate <= family.collision_upper_bound(offset) + 0.03
            assert rate >= family.collision_lower_bound(offset) - 0.03

    def test_far_points_rarely_collide(self, coins):
        space = GridSpace(side=256, dim=2, p=1.0)
        family = GridMLSH(space, w=4.0)
        rate = _empirical_collision_rate(family, coins, (0, 0), (200, 200))
        assert rate < 0.02


class TestPStableMLSH:
    def test_parameters(self):
        space = GridSpace(side=64, dim=3, p=2.0)
        family = PStableMLSH(space, w=8.0)
        assert family.r == pytest.approx(0.99 * 8)
        assert family.p == pytest.approx(math.exp(-2 * math.sqrt(2 / math.pi) / 8))
        assert family.alpha == pytest.approx(1 / (4 * math.sqrt(2)))

    def test_requires_l2(self):
        with pytest.raises(TypeError):
            PStableMLSH(GridSpace(64, 3, 1.0), w=8.0)

    def test_exact_formula_limits(self):
        assert pstable_collision_probability(0.0, 4.0) == 1.0
        # Distance >> w: collision probability tends to 0.
        assert pstable_collision_probability(1000.0, 1.0) < 0.01

    def test_empirical_matches_formula(self, coins):
        space = GridSpace(side=256, dim=4, p=2.0)
        family = PStableMLSH(space, w=12.0)
        x = (100, 100, 100, 100)
        y = (104, 100, 100, 103)
        distance = space.distance(x, y)
        rate = _empirical_collision_rate(family, coins, x, y, count=6000)
        assert rate == pytest.approx(family.collision_probability(distance), abs=0.03)

    def test_collision_within_mlsh_bounds(self, coins):
        space = GridSpace(side=256, dim=3, p=2.0)
        family = PStableMLSH(space, w=16.0)
        points = space.sample(np.random.default_rng(0), 256)
        assert family.sample_batch(coins, "shape", 512).evaluate(points).shape == (256, 512)
        x = (100, 100, 100)
        for offset in (2, 6):
            y = (100 + offset, 100, 100)
            rate = _empirical_collision_rate(family, coins, x, y, count=6000)
            assert rate <= family.collision_upper_bound(offset) + 0.03
            assert rate >= family.collision_lower_bound(offset) - 0.03


class TestOneSidedGridLSH:
    def test_p2_is_zero(self):
        space = GridSpace(side=1024, dim=2, p=1.0)
        family = OneSidedGridLSH(space, r1=2.0, r2=64.0)
        assert family.params.p2 == 0.0
        assert family.params.rho == 0.0

    def test_p1_formula(self):
        space = GridSpace(side=1024, dim=2, p=1.0)
        family = OneSidedGridLSH(space, r1=2.0, r2=64.0)
        assert family.params.p1 == pytest.approx(1 - 2.0 * 2 / 64)

    def test_far_points_never_collide(self, coins):
        """p2 = 0 is structural: cell diameter is exactly r2."""
        space = GridSpace(side=1024, dim=2, p=2.0)
        r2 = 50.0
        family = OneSidedGridLSH(space, r1=1.0, r2=r2)
        batch = family.sample_batch(coins, "far", 200)
        rng = np.random.default_rng(3)
        for _ in range(30):
            x, y = space.sample(rng, 2)
            if space.distance(x, y) > r2:
                values = batch.evaluate([x, y])
                assert not (values[0] == values[1]).any()

    def test_close_points_collide_often(self, coins):
        space = GridSpace(side=1024, dim=2, p=1.0)
        family = OneSidedGridLSH(space, r1=2.0, r2=64.0)
        rate = _empirical_collision_rate(family, coins, (500, 500), (501, 500))
        assert rate >= family.params.p1 - 0.05

    def test_rejects_high_dimension(self):
        space = GridSpace(side=1024, dim=64, p=1.0)
        with pytest.raises(ValueError):
            OneSidedGridLSH(space, r1=2.0, r2=64.0)

    def test_rejects_bad_radii(self):
        space = GridSpace(side=1024, dim=2, p=1.0)
        with pytest.raises(ValueError):
            OneSidedGridLSH(space, r1=5.0, r2=5.0)


class TestFoldCells:
    def test_deterministic_and_injective_enough(self):
        rng = np.random.default_rng(0)
        cells = rng.integers(0, 1000, size=(4, 50, 3))
        coeffs_1 = rng.integers(1, (1 << 31) - 1, size=(4, 3), dtype=np.int64)
        coeffs_2 = rng.integers(1, (1 << 29) - 3, size=(4, 3), dtype=np.int64)
        a = fold_cells(cells, coeffs_1, coeffs_2)
        b = fold_cells(cells, coeffs_1, coeffs_2)
        assert (a == b).all()

    def test_equal_cells_equal_folds(self):
        rng = np.random.default_rng(1)
        coeffs_1 = rng.integers(1, (1 << 31) - 1, size=(1, 4), dtype=np.int64)
        coeffs_2 = rng.integers(1, (1 << 29) - 3, size=(1, 4), dtype=np.int64)
        cells = np.array([[[5, 6, 7, 8], [5, 6, 7, 8]]])
        folded = fold_cells(cells, coeffs_1, coeffs_2)
        assert folded[0, 0] == folded[1, 0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fold_cells(
                np.array([[[-1, 0]]]),
                np.ones((1, 2), dtype=np.int64),
                np.ones((1, 2), dtype=np.int64),
            )

    def test_rejects_huge_cells(self):
        with pytest.raises(ValueError):
            fold_cells(
                np.array([[[1 << 30, 0]]]),
                np.ones((1, 2), dtype=np.int64),
                np.ones((1, 2), dtype=np.int64),
            )
