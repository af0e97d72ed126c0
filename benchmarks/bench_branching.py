"""E10 — Poisson branching process behaviour (Appendix B, [15]).

Claims: below the sparsity threshold ``1/(q(q-1))`` the survival
probability ``λ_t`` of the idealized deletion procedure decays *doubly
exponentially* while the unconditioned neighbourhood grows only singly
exponentially — the combination that makes the error-propagation sum
``O(1)`` (Lemma 3.10).  We tabulate ``λ_t`` below and above the
threshold and check the Monte-Carlo estimate against the recurrence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.branching import (
    expected_unconditioned_size,
    simulate_survival,
    survival_recurrence,
)
from repro.iblt import molloy_threshold, riblt_sparsity_threshold

from conftest import record_table

Q = 3
ROUNDS = 10


@pytest.fixture(scope="module")
def curves():
    threshold = riblt_sparsity_threshold(Q)
    peel_threshold = molloy_threshold(Q)
    below = survival_recurrence(0.8 * threshold, Q, ROUNDS)
    above = survival_recurrence(1.2 * peel_threshold, Q, ROUNDS)
    rows = []
    for t in range(ROUNDS):
        rows.append(
            (
                t + 1,
                below.lam[t],
                above.lam[t],
                expected_unconditioned_size(0.8 * threshold, Q, t + 1),
            )
        )
    record_table(
        f"E10 (Appendix B) — survival probability lambda_t, q={Q}, "
        f"RIBLT threshold 1/(q(q-1)) = {threshold:.4f}, "
        f"peelability threshold c*_q = {peel_threshold:.4f}; "
        "claim: doubly-exponential decay below, persistence above c*_q",
        [
            "round t",
            f"lambda_t at c=0.8/(q(q-1))",
            "lambda_t at c=1.2*c*_q",
            "E[tree size] below",
        ],
        rows,
    )
    return below, above


def test_below_threshold_extinct(curves):
    below, _ = curves
    assert below.lam[-1] < 1e-6


def test_above_threshold_survives(curves):
    _, above = curves
    assert above.lam[-1] > 0.05


def test_decay_is_super_geometric(curves):
    below, _ = curves
    lam = [v for v in below.lam if v > 1e-200]
    logs = [-np.log(v) for v in lam[1:]]
    ratios = [b / a for a, b in zip(logs, logs[1:])]
    assert ratios[-1] > 1.4  # accelerating decay (approaching squaring)


def test_tree_growth_is_single_exponential(curves):
    threshold = riblt_sparsity_threshold(Q)
    sizes = [expected_unconditioned_size(0.8 * threshold, Q, t) for t in range(1, 8)]
    growth = [b / a for a, b in zip(sizes, sizes[1:])]
    # Growth factor bounded by q-1 = 2 per level.
    assert all(g < Q - 1 + 0.1 for g in growth)


def test_monte_carlo_matches_recurrence(curves):
    below, _ = curves
    rng = np.random.default_rng(3)
    estimate = simulate_survival(below.c, Q, 3, trials=6000, rng=rng)
    assert estimate == pytest.approx(below.lam[2], abs=0.02)
