"""Tests for the strata estimator and auto-sized exact reconciliation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing import PublicCoins
from repro.metric import HammingSpace
from repro.protocol import Channel
from repro.reconcile import StrataEstimator, exact_iblt_reconcile_auto


def _estimator(coins, label="s", **kwargs):
    return StrataEstimator(coins, label, key_bits=40, **kwargs)


class TestStrataEstimator:
    def test_identical_sets_estimate_zero(self, coins, rng):
        keys = [int(v) for v in rng.choice(1 << 39, size=300, replace=False)]
        a = _estimator(coins)
        b = _estimator(coins)
        a.insert_batch(keys)
        b.insert_batch(keys)
        assert a.subtract(b).estimate() == 0

    @pytest.mark.parametrize("true_delta", [4, 16, 64, 256])
    def test_estimate_within_factor(self, true_delta):
        rng = np.random.default_rng(true_delta)
        coins = PublicCoins(true_delta)
        shared = [int(v) for v in rng.choice(1 << 38, size=500, replace=False)]
        a = _estimator(coins)
        b = _estimator(coins)
        a.insert_batch(shared)
        b.insert_batch(shared)
        for index in range(true_delta):
            a.insert((1 << 39) + 2 * index)
            b.insert((1 << 39) + 2 * index + 1)
        estimate = a.subtract(b).estimate()
        # Estimator returns ~2x the truth by design (safety factor); it
        # must never *under*estimate by more than sampling noise and
        # never overshoot absurdly.
        assert estimate >= true_delta
        assert estimate <= 16 * true_delta + 32

    def test_stratum_distribution_geometric(self, coins, rng):
        estimator = _estimator(coins)
        strata = [
            estimator._stratum_of(int(v))
            for v in rng.integers(0, 1 << 39, size=4000)
        ]
        counts = np.bincount(strata, minlength=4)
        # Stratum 0 holds about half, stratum 1 a quarter, ...
        assert counts[0] == pytest.approx(2000, rel=0.15)
        assert counts[1] == pytest.approx(1000, rel=0.2)

    def test_incompatible_subtraction_rejected(self, coins):
        with pytest.raises(ValueError):
            _estimator(coins).subtract(_estimator(coins, strata=8))

    def test_serialization_roundtrip(self, coins, rng):
        estimator = _estimator(coins)
        estimator.insert_batch(int(v) for v in rng.integers(0, 1 << 39, size=50))
        payload, bits = estimator.to_payload()
        assert bits <= 8 * len(payload)
        shell = _estimator(coins)
        loaded = shell.from_payload(payload)
        for mine, loaded_table in zip(estimator.tables, loaded.tables):
            assert list(mine.counts) == list(loaded_table.counts)
            assert list(mine.key_xor) == list(loaded_table.key_xor)

    def test_rejects_bad_strata(self, coins):
        with pytest.raises(ValueError):
            StrataEstimator(coins, "x", strata=0)


class TestAutoReconcile:
    def test_reconciles_without_bound(self, rng):
        space = HammingSpace(24)
        shared = space.sample(rng, 150)
        alice = shared + space.sample(rng, 6)
        bob = shared + space.sample(rng, 4)
        channel = Channel()
        result = exact_iblt_reconcile_auto(
            space, alice, bob, PublicCoins(3), channel
        )
        assert result.success
        assert set(result.bob_final) == set(alice) | set(bob)
        assert channel.rounds == 3

    def test_identical_sets(self, rng):
        space = HammingSpace(24)
        points = space.sample(rng, 100)
        result = exact_iblt_reconcile_auto(space, points, points, PublicCoins(4))
        assert result.success
        assert result.alice_only == []

    def test_large_difference_still_works(self, rng):
        """Auto-sizing must adapt to big differences without a hint."""
        space = HammingSpace(24)
        alice = space.sample(rng, 120)
        bob = space.sample(rng, 120)
        result = exact_iblt_reconcile_auto(space, alice, bob, PublicCoins(5))
        assert result.success
        assert set(result.bob_final) >= set(alice) | set(bob) - {None}
