"""E2 — RIBLT error propagation (Figure 1, Lemma 3.10).

Claim: with breadth-first peeling of ``G^q_{m,cm}`` and a single seeded
unit error, the final total error ``Σ_v C_v`` is ``O(1)`` whenever
``c < 1/(q(q-1))`` and blows up as ``c`` approaches the peelability
threshold.  We sweep ``c`` across ``1/(q(q-1))`` for q = 3 and 4, and
ablate the breadth-first order against depth-first (LIFO) peeling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.branching import error_propagation_trials
from repro.iblt import molloy_threshold, riblt_sparsity_threshold

from conftest import record_table

M_VERTICES = 800
TRIALS = 30


def _mean_error(c: float, q: int, order: str, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    results = error_propagation_trials(
        M_VERTICES, c, q, trials=TRIALS, rng=rng, order=order
    )
    return float(np.mean([result.total_error for result in results]))


@pytest.fixture(scope="module")
def sweep():
    rows = []
    data = {}
    for q in (3, 4):
        threshold = riblt_sparsity_threshold(q)
        densities = [
            ("0.5x", 0.5 * threshold),
            ("0.8x", 0.8 * threshold),
            ("1.0x", 1.0 * threshold),
            ("2.0x", 2.0 * threshold),
            ("0.9c*", 0.9 * molloy_threshold(q)),
        ]
        for label, c in densities:
            bfs = _mean_error(c, q, "bfs")
            dfs = _mean_error(c, q, "dfs")
            rows.append((q, round(c, 4), label, bfs, dfs))
            data[(q, label)] = (bfs, dfs)
    record_table(
        "E2 (Fig. 1 / Lemma 3.10) — mean total error sum(C_v) after peeling, "
        f"m={M_VERTICES}, one seeded unit error; threshold = 1/(q(q-1))",
        ["q", "c", "c vs 1/(q(q-1))", "BFS mean error", "DFS mean error"],
        rows,
    )
    return data


def test_subthreshold_error_constant(sweep):
    """Lemma 3.10: below the threshold the expected error sum is O(1)."""
    for q in (3, 4):
        assert sweep[(q, "0.5x")][0] < 3.0
        assert sweep[(q, "0.8x")][0] < 4.0


def test_error_grows_near_peeling_threshold(sweep):
    for q in (3, 4):
        below = sweep[(q, "0.5x")][0]
        near_core = sweep[(q, "0.9c*")][0]
        assert near_core > 2 * below


def test_bfs_comparable_or_better_in_tail(sweep):
    """The ablation: at sub-threshold densities both orders give small
    error (the paper requires BFS for the *analysis*; empirically the
    orders are close in the tree regime)."""
    for q in (3, 4):
        bfs, dfs = sweep[(q, "0.8x")]
        assert bfs < 4.0 and dfs < 8.0
