"""Tests for the branching-process analysis (Appendices B and D)."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.branching import (
    branching_factor,
    error_propagation_trials,
    expected_unconditioned_size,
    poisson_tail,
    propagate_error,
    simulate_survival,
    simulate_tree_size,
    survival_recurrence,
)
from repro.branching import poisson
from repro.iblt import peel_order, random_hypergraph, riblt_sparsity_threshold, two_core


class TestPoissonTail:
    def test_zero_mean(self):
        assert poisson_tail(0.0, 1) == 0.0
        assert poisson_tail(0.0, 0) == 1.0

    def test_at_least_one(self):
        assert poisson_tail(1.0, 1) == pytest.approx(1 - np.exp(-1))

    def test_at_least_two(self):
        assert poisson_tail(1.0, 2) == pytest.approx(1 - 2 * np.exp(-1))

    def test_general_matches_scipy(self):
        from scipy.stats import poisson as sp_poisson

        for mean in (0.5, 1.7, 4.0):
            for k in (1, 2, 3, 5):
                assert poisson_tail(mean, k) == pytest.approx(
                    1 - sp_poisson.cdf(k - 1, mean), abs=1e-12
                )

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            poisson_tail(-1.0, 1)


class TestSurvivalRecurrence:
    def test_monotone_decreasing(self):
        curve = survival_recurrence(c=0.15, q=3, rounds=20)
        assert curve.rounds == 20
        assert all(a >= b for a, b in zip(curve.lam, curve.lam[1:]))
        assert all(a >= b for a, b in zip(curve.rho, curve.rho[1:]))

    def test_subcritical_extinction(self):
        """Below 1/(q(q-1)) the survival probability vanishes."""
        c = 0.8 * riblt_sparsity_threshold(3)
        curve = survival_recurrence(c=c, q=3, rounds=60)
        assert curve.lam[-1] < 1e-12

    def test_supercritical_survival(self):
        """Above the peeling threshold c*_q, survival persists."""
        curve = survival_recurrence(c=0.9, q=3, rounds=200)
        assert curve.lam[-1] > 0.1

    def test_doubly_exponential_decay_below_threshold(self):
        """[15]: below threshold, lambda eventually squares each round
        (up to constants); check the log-log decay accelerates."""
        c = 0.5 * riblt_sparsity_threshold(3)
        curve = survival_recurrence(c=c, q=3, rounds=12)
        lam = [v for v in curve.lam if v > 1e-300]
        # Ratios of consecutive log-values should grow (super-geometric).
        logs = [abs(np.log(v)) for v in lam[2:]]
        ratios = [b / a for a, b in zip(logs, logs[1:])]
        assert ratios[-1] > 1.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            survival_recurrence(c=0.0, q=3, rounds=5)
        with pytest.raises(ValueError):
            survival_recurrence(c=0.1, q=2, rounds=5)
        with pytest.raises(ValueError):
            survival_recurrence(c=0.1, q=3, rounds=0)

    def test_simulation_matches_recurrence(self):
        rng = np.random.default_rng(0)
        c, q, rounds = 0.12, 3, 4
        curve = survival_recurrence(c, q, rounds)
        estimate = simulate_survival(c, q, rounds, trials=4000, rng=rng)
        assert estimate == pytest.approx(curve.lam[rounds - 1], abs=0.02)


class TestTreeSize:
    def test_branching_factor(self):
        assert branching_factor(0.1, 3) == pytest.approx(0.6)

    def test_expected_size_formula(self):
        # factor 0.5: 1 + 0.5 + 0.25 = 1.75 at depth 2.
        c = 0.5 / 6
        assert expected_unconditioned_size(c, 3, 2) == pytest.approx(1.75)

    def test_simulation_matches_expectation(self):
        rng = np.random.default_rng(1)
        c, q, depth = 0.1, 3, 6
        expected = expected_unconditioned_size(c, q, depth)
        samples = [simulate_tree_size(c, q, depth, rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(expected, rel=0.1)

    def test_truncation(self, monkeypatch):
        monkeypatch.setattr(poisson, "MAX_TREE_VERTICES", 100)
        rng = np.random.default_rng(2)
        assert simulate_tree_size(5.0, 3, 50, rng) == 100


class TestErrorPropagation:
    def test_deterministic_small_graph(self):
        # Chain 0-1-2, 2-3-4: vertex 0 seeded; edge (0,1,2) peels first via
        # vertex 0 or 1 (degree 1), error flows along the chain.
        edges = [(0, 1, 2), (2, 3, 4)]
        result = propagate_error(5, edges, seed_vertex=0, order="bfs")
        assert result.fully_peeled
        assert result.total_error >= 1

    def test_error_conserved_when_seed_isolated(self):
        edges = [(1, 2, 3)]
        result = propagate_error(5, edges, seed_vertex=0)
        assert result.total_error == 1
        assert result.touched_vertices == 1

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            propagate_error(5, [(0, 1, 2)], 0, order="random")

    def test_subcritical_error_is_constant(self):
        """Lemma 3.10: below 1/(q(q-1)), total error stays O(1)."""
        rng = np.random.default_rng(3)
        q = 3
        c = 0.8 * riblt_sparsity_threshold(q)
        results = error_propagation_trials(600, c, q, trials=40, rng=rng)
        totals = [result.total_error for result in results]
        assert np.mean(totals) < 4.0
        assert np.median(totals) <= 2.0

    def test_supercritical_error_grows(self):
        """Well above the threshold the propagation is much larger."""
        rng = np.random.default_rng(4)
        q = 3
        below = error_propagation_trials(
            600, 0.5 * riblt_sparsity_threshold(q), q, trials=30, rng=rng
        )
        above = error_propagation_trials(600, 0.75, q, trials=30, rng=rng)
        mean_below = np.mean([r.total_error for r in below])
        mean_above = np.mean([r.total_error for r in above])
        assert mean_above > 3 * mean_below

    def test_trials_count(self, rng):
        results = error_propagation_trials(100, 0.1, 3, trials=7, rng=rng)
        assert len(results) == 7

    def test_rejects_zero_trials(self, rng):
        with pytest.raises(ValueError):
            error_propagation_trials(100, 0.1, 3, trials=0, rng=rng)


class TestPeelParity:
    """``propagate_error`` in both orders, ``peel_order`` and ``two_core``
    over 240 random hypergraphs around and above the peeling thresholds,
    pinned by one digest of every output."""

    def test_outputs_match_pinned_digest(self):
        rng = np.random.default_rng(2024)
        records = []
        for trial in range(240):
            q = 3 + trial % 2
            m = 40 + trial % 7 * 10
            edges = random_hypergraph(m, round((0.1 + trial % 9 * 0.1) * m), q, rng)
            seed_vertex = int(rng.integers(0, m))
            records.append(
                [
                    list(dataclasses.astuple(propagate_error(m, edges, seed_vertex, order)))
                    for order in ("bfs", "dfs")
                ]
                + [peel_order(m, edges), two_core(m, edges)]
            )
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "b9f76d1523ac3002d926be11e365b653b3fe3b2cfc22d6a031ec1ecd0456bd46"
