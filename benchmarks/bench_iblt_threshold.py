"""E1 — IBLT decoding threshold (Theorem 2.6).

Claim: an IBLT with ``m`` cells decodes ``cm`` keys w.h.p. for ``c``
below a constant threshold (``c*_3 ≈ 0.818`` for q = 3) and fails sharply
above it.  We sweep the load factor across the threshold and report
empirical decode rates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing import PublicCoins
from repro.iblt import IBLT, molloy_threshold

from conftest import record_table

M_CELLS = 300
Q = 3
TRIALS = 25
LOADS = (0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.1)


def _decode_rate(load: float, trials: int = TRIALS) -> float:
    successes = 0
    for seed in range(trials):
        coins = PublicCoins(hash((load, seed)) & 0xFFFFFFFF)
        table = IBLT(coins, "e1", cells=M_CELLS, q=Q, key_bits=40)
        rng = np.random.default_rng(seed)
        keys = rng.choice(1 << 39, size=round(load * M_CELLS), replace=False)
        table.insert_batch(int(key) for key in keys)
        if table.decode().success:
            successes += 1
    return successes / trials


@pytest.fixture(scope="module")
def sweep():
    threshold = molloy_threshold(Q)
    rows = []
    for load in LOADS:
        rate = _decode_rate(load)
        rows.append((load, rate, "below" if load < threshold else "above"))
    record_table(
        f"E1 (Theorem 2.6) — IBLT decode rate vs load, m={M_CELLS}, q={Q}, "
        f"threshold c*_3 = {threshold:.3f}",
        ["load c", "decode rate", "vs threshold"],
        rows,
    )
    return {load: rate for load, rate, _ in rows}


def test_below_threshold_decodes(sweep):
    assert sweep[0.3] >= 0.95
    assert sweep[0.5] >= 0.9
    assert sweep[0.7] >= 0.85


def test_above_threshold_fails(sweep):
    assert sweep[1.0] <= 0.3
    assert sweep[1.1] <= 0.1


def test_transition_is_monotone(sweep):
    rates = [sweep[load] for load in LOADS]
    # Allow small non-monotonic noise but require the overall cliff.
    assert rates[0] - rates[-1] >= 0.9


def test_decode_speed(benchmark, sweep):
    """Time one insert+decode cycle at a healthy load."""

    def run():
        coins = PublicCoins(1)
        table = IBLT(coins, "bench", cells=M_CELLS, q=Q, key_bits=40)
        table.insert_batch(range(10_000, 10_150))
        return table.decode().success

    assert benchmark(run)
