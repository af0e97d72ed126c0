"""E11 — ablations of three of the paper's design choices.

(a) RIBLT hash count ``q``: the paper fixes ``q >= 3`` and sizes tables
    at ``m = 4q²k``; sweeping ``q`` shows the cells-vs-robustness
    tradeoff (bigger q = more cells for the same pair budget but deeper
    sub-threshold margin).
(b) Gap far-key threshold ``τ``: the paper's ``h(1/2 + ε/6)`` balances
    false positives (extra transmission) against false negatives
    (guarantee violations); the sweep shows the safe plateau.
(c) Exact-reconciliation baselines head-to-head: IBLT [10] vs
    characteristic polynomials [21] vs strata-auto-sized IBLT — bits and
    decode behaviour for the same instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GapProtocol, verify_gap_guarantee
from repro.hashing import PublicCoins
from repro.iblt import RIBLT, riblt_cells_for_pairs
from repro.metric import HammingSpace
from repro.reconcile import (
    cpi_reconcile,
    exact_iblt_reconcile,
    exact_iblt_reconcile_auto,
)
from repro.workloads import noisy_replica_pair

from conftest import record_table


# ---------------------------------------------------------------------------
# (a) RIBLT q sweep
# ---------------------------------------------------------------------------

def _riblt_decode_rate(q: int, pairs: int, trials: int = 20) -> tuple[int, float]:
    cells = riblt_cells_for_pairs(pairs, q=q)
    successes = 0
    for seed in range(trials):
        coins = PublicCoins(1000 * q + seed)
        table = RIBLT(coins, "abl", cells=cells, q=q, key_bits=40, dim=2, side=64)
        rng = np.random.default_rng(seed)
        for key in rng.choice(1 << 39, size=pairs, replace=False):
            table.insert(int(key), tuple(int(v) for v in rng.integers(0, 64, 2)))
        if table.decode().success:
            successes += 1
    return cells, successes / trials


@pytest.fixture(scope="module")
def riblt_q_sweep():
    pairs = 40
    rows = []
    data = {}
    for q in (3, 4, 5):
        cells, rate = _riblt_decode_rate(q, pairs)
        rows.append((q, cells, pairs / cells, f"{1/(q*(q-1)):.4f}", rate))
        data[q] = (cells, rate)
    record_table(
        "E11a — RIBLT q ablation at the paper's m = q^2 * (4k) sizing, "
        f"{pairs} pairs",
        ["q", "cells", "load", "tree threshold 1/(q(q-1))", "decode rate"],
        rows,
    )
    return data


def test_all_q_decode_reliably(riblt_q_sweep):
    for q, (_, rate) in riblt_q_sweep.items():
        assert rate >= 0.95, q


def test_larger_q_costs_cells(riblt_q_sweep):
    assert riblt_q_sweep[3][0] < riblt_q_sweep[4][0] < riblt_q_sweep[5][0]


# ---------------------------------------------------------------------------
# (b) Gap threshold sweep
# ---------------------------------------------------------------------------

def _gap_with_threshold(threshold_fraction: float, seed: int):
    rng = np.random.default_rng(seed)
    space = HammingSpace(128)
    n, k, r2 = 32, 2, 32.0
    workload = noisy_replica_pair(
        space, n=n, k=k, close_radius=2, far_radius=r2 + 8, rng=rng
    )
    probe = GapProtocol.for_instance(space, n=n, k=k, r1=2.0, r2=r2)
    threshold = max(1, round(threshold_fraction * probe.entries))
    protocol = GapProtocol.for_instance(
        space, n=n, k=k, r1=2.0, r2=r2, match_threshold=threshold
    )
    result = protocol.run(workload.alice, workload.bob, PublicCoins(seed))
    if not result.success:
        return None
    return {
        "holds": verify_gap_guarantee(space, workload.alice, result.bob_final, r2),
        "transmitted": len(result.transmitted),
    }


@pytest.fixture(scope="module")
def threshold_sweep():
    rows = []
    data = {}
    for fraction in (0.3, 0.5, 0.66, 0.8, 0.95):
        outcomes = [
            o
            for o in (_gap_with_threshold(fraction, 10 + t) for t in range(3))
            if o is not None
        ]
        holds = sum(o["holds"] for o in outcomes)
        transmitted = float(np.mean([o["transmitted"] for o in outcomes]))
        rows.append((fraction, f"{holds}/{len(outcomes)}", transmitted))
        data[fraction] = (holds, len(outcomes), transmitted)
    record_table(
        "E11b — Gap far-key threshold ablation (paper: tau = h(1/2 + eps/6) "
        "~ 0.64h here); low tau risks missed far points, high tau ships more",
        ["tau / h", "guarantee holds", "mean transmitted (k=2)"],
        rows,
    )
    return data


def test_paper_threshold_region_safe(threshold_sweep):
    for fraction in (0.5, 0.66, 0.8):
        holds, runs, _ = threshold_sweep[fraction]
        assert holds == runs, fraction


def test_transmission_grows_with_threshold(threshold_sweep):
    low = threshold_sweep[0.3][2]
    high = threshold_sweep[0.95][2]
    assert high >= low


# ---------------------------------------------------------------------------
# (c) Exact baselines head-to-head
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exact_baselines():
    rng = np.random.default_rng(0)
    space = HammingSpace(40)
    shared = space.sample(rng, 150)
    alice = shared + space.sample(rng, 4)
    bob = shared + space.sample(rng, 4)
    delta = 8

    iblt = exact_iblt_reconcile(space, alice, bob, delta_bound=delta, coins=PublicCoins(1))
    cpi = cpi_reconcile(space, alice, bob, delta_bound=delta, coins=PublicCoins(1))
    auto = exact_iblt_reconcile_auto(space, alice, bob, coins=PublicCoins(1))

    rows = [
        ("IBLT [10], known bound", iblt.success, iblt.rounds, iblt.total_bits),
        ("char. polynomial [21]", cpi.success, cpi.rounds, cpi.total_bits),
        ("IBLT + strata auto-size [10]", auto.success, auto.rounds, auto.total_bits),
    ]
    record_table(
        "E11c — exact set reconciliation baselines, n=154, true difference 8",
        ["method", "success", "rounds", "measured bits"],
        rows,
    )
    return {"iblt": iblt, "cpi": cpi, "auto": auto, "alice": alice, "bob": bob}


def test_all_baselines_reconcile(exact_baselines):
    union = set(exact_baselines["alice"]) | set(exact_baselines["bob"])
    for name in ("iblt", "cpi", "auto"):
        result = exact_baselines[name]
        assert result.success, name
        assert set(result.bob_final) == union, name


def test_cpi_is_most_communication_efficient(exact_baselines):
    assert (
        exact_baselines["cpi"].total_bits
        < exact_baselines["iblt"].total_bits
        < exact_baselines["auto"].total_bits
    )
