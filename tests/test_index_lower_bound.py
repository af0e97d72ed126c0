"""Tests for the Theorem 4.6 lower-bound construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    greedy_binary_code,
    make_index_instance,
    one_round_subset_protocol,
    required_dimension,
    solve_index_via_gap,
)
from repro.core import index_lower_bound
from repro.hashing import PublicCoins


class TestBinaryCode:
    def test_pairwise_distance(self, rng):
        words = greedy_binary_code(10, 120, 30, rng)
        assert len(words) == 10
        for i in range(10):
            for j in range(i + 1, 10):
                distance = sum(a != b for a, b in zip(words[i], words[j]))
                assert distance >= 30

    def test_rejects_impossible(self, rng):
        with pytest.raises(ValueError):
            greedy_binary_code(4, 10, 20, rng)

    def test_gives_up_when_too_dense(self, rng, monkeypatch):
        monkeypatch.setattr(index_lower_bound, "CODE_TRIES", 200)
        with pytest.raises(RuntimeError):
            greedy_binary_code(100, 12, 6, rng)

    def test_required_dimension_grows(self):
        assert required_dimension(10, 4) < required_dimension(10, 40)
        assert required_dimension(10, 4) < required_dimension(10_000, 4)


class TestIndexInstance:
    def test_structure(self, rng):
        x = [1, 0, 1, 1, 0, 0]
        instance = make_index_instance(x, i=2, r2=8, rng=rng)
        assert len(instance.alice_points) == 6
        assert len(instance.bob_points) == 6  # n+1 codewords minus c_i
        assert instance.answer == 1
        # Alice's j-th point ends with x_j.
        for j, point in enumerate(instance.alice_points):
            assert point[-1] == x[j]
        # Bob's points all end in 0.
        for point in instance.bob_points:
            assert point[-1] == 0

    def test_only_target_is_far(self, rng):
        x = [0, 1, 0, 1]
        instance = make_index_instance(x, i=1, r2=8, rng=rng)
        space = instance.space
        distances = space.distance_matrix(instance.alice_points, instance.bob_points)
        minima = distances.min(axis=1)
        for j in range(len(x)):
            if j == instance.i:
                assert minima[j] >= instance.r2
            else:
                assert minima[j] <= 1  # c_j || x_j vs c_j || 0

    def test_rejects_bad_index(self, rng):
        with pytest.raises(ValueError):
            make_index_instance([0, 1], i=5, r2=4, rng=rng)


class TestReductionViaGap:
    def test_multi_round_protocol_solves_index(self):
        correct = 0
        runs = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            x = [int(b) for b in rng.integers(0, 2, size=8)]
            i = int(rng.integers(0, 8))
            instance = make_index_instance(x, i=i, r2=10, rng=rng)
            answer, bits, rounds = solve_index_via_gap(
                instance, PublicCoins(seed)
            )
            assert answer in (0, 1, None)
            if answer is None:
                continue
            runs += 1
            assert rounds == 4
            if answer == instance.answer:
                correct += 1
        assert runs >= 3
        assert correct == runs


class TestOneRoundStrawman:
    def test_full_budget_always_succeeds(self):
        x = [0, 1, 1, 0, 1]
        coins = PublicCoins(0)
        assert all(
            one_round_subset_protocol(x, i, budget_bits=5, coins=coins, trial=t)
            for i in range(5)
            for t in range(3)
        )

    def test_zero_budget_is_coin_flip(self):
        rng = np.random.default_rng(0)
        x = [int(b) for b in rng.integers(0, 2, size=64)]
        coins = PublicCoins(1)
        outcomes = [
            one_round_subset_protocol(x, int(rng.integers(0, 64)), 0, coins, trial=t)
            for t in range(400)
        ]
        rate = np.mean(outcomes)
        assert 0.4 < rate < 0.6

    def test_success_grows_with_budget(self):
        """Sweeping the budget shows the Omega(n) wall of Theorem 4.6."""
        rng = np.random.default_rng(2)
        n = 60
        x = [int(b) for b in rng.integers(0, 2, size=n)]
        coins = PublicCoins(2)

        def rate(budget):
            outcomes = [
                one_round_subset_protocol(
                    x, int(rng.integers(0, n)), budget, coins, trial=t
                )
                for t in range(300)
            ]
            return float(np.mean(outcomes))

        low = rate(n // 10)
        high = rate(n)
        assert high == 1.0
        assert low < 0.75
        # 2/3 success requires budget >= ~n/3 in expectation.
        assert rate(n // 20) < 2 / 3
