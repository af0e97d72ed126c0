"""Tests for the from-scratch Hungarian algorithm, with scipy as oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.metric import greedy_matching, hungarian


def _cost(cost: np.ndarray, assignment: list[int]) -> float:
    """Total cost of an assignment under ``cost``."""
    return float(sum(cost[row][col] for row, col in enumerate(assignment)))


def _oracle_cost(cost: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


class TestHungarian:
    def test_identity_matrix(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert hungarian(cost) == [0, 1]

    def test_anti_identity(self):
        cost = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert hungarian(cost) == [1, 0]

    def test_empty(self):
        assert hungarian(np.zeros((0, 3))) == []

    def test_single_row(self):
        cost = np.array([[5.0, 2.0, 9.0]])
        assert hungarian(cost) == [1]

    def test_rectangular_requires_wide(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((3, 2)))

    def test_rejects_nan(self):
        cost = np.array([[np.nan, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            hungarian(cost)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros(4))

    def test_assignment_is_injection(self):
        rng = np.random.default_rng(2)
        cost = rng.random((6, 9))
        assignment = hungarian(cost)
        assert len(set(assignment)) == 6
        assert all(0 <= col < 9 for col in assignment)

    def test_matches_scipy_square(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(1, 12))
            cost = rng.random((n, n)) * 100
            total = _cost(cost, hungarian(cost))
            assert total == pytest.approx(_oracle_cost(cost), abs=1e-9)

    def test_matches_scipy_rectangular(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            rows = int(rng.integers(1, 9))
            cols = rows + int(rng.integers(0, 8))
            cost = rng.random((rows, cols)) * 10
            total = _cost(cost, hungarian(cost))
            assert total == pytest.approx(_oracle_cost(cost), abs=1e-9)

    def test_matches_scipy_integer_costs(self):
        rng = np.random.default_rng(5)
        cost = rng.integers(0, 50, size=(10, 10)).astype(float)
        total = _cost(cost, hungarian(cost))
        assert total == pytest.approx(_oracle_cost(cost))

    def test_negative_costs(self):
        rng = np.random.default_rng(6)
        cost = rng.random((5, 7)) - 0.5
        total = _cost(cost, hungarian(cost))
        assert total == pytest.approx(_oracle_cost(cost), abs=1e-9)

    def test_with_ties(self):
        cost = np.ones((4, 4))
        total = _cost(cost, hungarian(cost))
        assert total == pytest.approx(4.0)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_property(self, seed, rows, extra):
        rng = np.random.default_rng(seed)
        cost = rng.random((rows, rows + extra))
        total = _cost(cost, hungarian(cost))
        assert total == pytest.approx(_oracle_cost(cost), abs=1e-9)


class TestGreedyMatching:
    def test_is_valid_injection(self):
        rng = np.random.default_rng(3)
        cost = rng.random((5, 8))
        assignment, total = greedy_matching(cost)
        assert len(set(assignment)) == 5
        assert total == pytest.approx(_cost(cost, assignment))

    def test_never_beats_hungarian(self):
        rng = np.random.default_rng(4)
        for trial in range(15):
            cost = rng.random((6, 6))
            optimal = _cost(cost, hungarian(cost))
            _, greedy = greedy_matching(cost)
            assert greedy >= optimal - 1e-12

    def test_rejects_tall(self):
        with pytest.raises(ValueError):
            greedy_matching(np.zeros((3, 2)))
