"""E9 — the one-round lower bound (Theorem 4.6).

Claim: on the index-problem instances (``r1 = 1``, ``k = 1``,
``d = Ω(log n + r2)``), no one-round ``O(n)``-bit protocol succeeds with
probability 2/3, while the 4-round Gap protocol solves the instance.  We
sweep the one-round strawman's bit budget to exhibit the ``Ω(n)`` wall,
and run the full reduction through the real Gap protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    make_index_instance,
    one_round_subset_protocol,
    solve_index_via_gap,
)
from repro.hashing import PublicCoins

from conftest import record_table

N = 60
R2 = 10
ONE_ROUND_TRIALS = 300
BUDGET_FRACTIONS = (0.0, 0.1, 1 / 3, 0.6, 1.0)


@pytest.fixture(scope="module")
def strawman_sweep():
    rng = np.random.default_rng(1)
    x = [int(b) for b in rng.integers(0, 2, size=N)]
    coins = PublicCoins(11)
    rows = []
    data = {}
    for fraction in BUDGET_FRACTIONS:
        budget = round(fraction * N)
        outcomes = [
            one_round_subset_protocol(
                x, int(rng.integers(0, N)), budget, coins, trial=trial
            )
            for trial in range(ONE_ROUND_TRIALS)
        ]
        rate = float(np.mean(outcomes))
        predicted = fraction + (1 - fraction) / 2
        rows.append((budget, f"{fraction:.2f}n", rate, predicted))
        data[fraction] = rate
    record_table(
        f"E9a (Theorem 4.6) — one-round subset protocol on the index instance, "
        f"n={N}; success 2/3 requires budget >= n/3",
        ["budget bits", "fraction of n", "measured success", "predicted b/n + (1-b/n)/2"],
        rows,
    )
    return data


@pytest.fixture(scope="module")
def reduction_runs():
    rows = []
    outcomes = []
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        x = [int(b) for b in rng.integers(0, 2, size=8)]
        i = int(rng.integers(0, 8))
        instance = make_index_instance(x, i=i, r2=R2, rng=rng)
        answer, bits, rounds = solve_index_via_gap(instance, PublicCoins(seed))
        correct = answer == instance.answer
        outcomes.append((answer is not None, correct))
        rows.append((seed, instance.space.dim, rounds, bits, answer, instance.answer, correct))
    record_table(
        "E9b (Theorem 4.6) — solving the index problem via the 4-round Gap "
        "protocol (the separation: multi-round succeeds where one-round cannot)",
        ["seed", "dim", "rounds", "bits", "recovered x_i", "true x_i", "correct"],
        rows,
    )
    return outcomes


def test_strawman_matches_prediction(strawman_sweep):
    for fraction, rate in strawman_sweep.items():
        predicted = fraction + (1 - fraction) / 2
        assert rate == pytest.approx(predicted, abs=0.08)


def test_two_thirds_needs_linear_budget(strawman_sweep):
    assert strawman_sweep[0.1] < 2 / 3
    assert strawman_sweep[0.6] > 2 / 3


def test_gap_reduction_correct(reduction_runs):
    answered = [c for a, c in reduction_runs if a]
    assert len(answered) >= 2
    assert all(answered)
