"""E3 — MLSH collision-probability bracketing (Lemmas 2.3, 2.4, 2.5).

Claim (Definition 2.2): for each family with parameters ``(r, p, α)``,
``p^{f(x,y)} <= Pr[h(x) = h(y)] <= p^{α·f(x,y)}`` for ``f(x,y) <= r``.
We sweep pair distances and report the empirical collision rate next to
both bounds for the bit-sampling, grid (ℓ1) and p-stable (ℓ2) families.
"""

from __future__ import annotations

import pytest

from repro.hashing import PublicCoins
from repro.lsh import BitSamplingMLSH, GridMLSH, PStableMLSH
from repro.metric import GridSpace, HammingSpace

from conftest import record_table

SAMPLES = 6000
DISTANCES = (1, 2, 4, 8, 12)


def _rate(family, x, y) -> float:
    batch = family.sample_batch(PublicCoins(7), "e3", SAMPLES)
    values = batch.evaluate([x, y])
    return float((values[0] == values[1]).mean())


@pytest.fixture(scope="module")
def sweep():
    rows = []
    data = []

    hamming = HammingSpace(64)
    bit_family = BitSamplingMLSH(hamming, w=96)
    zero = tuple([0] * 64)
    for distance in DISTANCES:
        y = tuple([1] * distance + [0] * (64 - distance))
        rate = _rate(bit_family, zero, y)
        low = bit_family.collision_lower_bound(distance)
        high = bit_family.collision_upper_bound(distance)
        rows.append(("bit-sampling (L2.3)", distance, low, rate, high))
        data.append((low, rate, high))

    l1 = GridSpace(side=512, dim=3, p=1.0)
    grid_family = GridMLSH(l1, w=24.0)
    base = (256, 256, 256)
    for distance in DISTANCES:
        y = (256 + distance, 256, 256)
        rate = _rate(grid_family, base, y)
        low = grid_family.collision_lower_bound(distance)
        high = grid_family.collision_upper_bound(distance)
        rows.append(("grid l1 (L2.4)", distance, low, rate, high))
        data.append((low, rate, high))

    l2 = GridSpace(side=512, dim=3, p=2.0)
    pstable_family = PStableMLSH(l2, w=24.0)
    for distance in DISTANCES:
        y = (256 + distance, 256, 256)
        rate = _rate(pstable_family, base, y)
        low = pstable_family.collision_lower_bound(distance)
        high = pstable_family.collision_upper_bound(distance)
        rows.append(("p-stable l2 (L2.5)", distance, low, rate, high))
        data.append((low, rate, high))

    record_table(
        "E3 (Lemmas 2.3-2.5) — empirical collision rate vs MLSH bounds "
        f"(lower = p^f, upper = p^(a*f); {SAMPLES} functions per pair)",
        ["family", "distance", "lower bound", "measured", "upper bound"],
        rows,
    )
    return data


def test_all_rates_bracketed(sweep):
    slack = 0.02  # Monte-Carlo noise at 6000 samples
    for low, rate, high in sweep:
        assert rate >= low - slack, (low, rate, high)
        assert rate <= high + slack, (low, rate, high)


def test_rates_decay_with_distance(sweep):
    # Within each family the measured rates decrease along the sweep.
    per_family = [sweep[i : i + len(DISTANCES)] for i in range(0, len(sweep), len(DISTANCES))]
    for family_rows in per_family:
        rates = [rate for _, rate, _ in family_rows]
        assert rates[0] > rates[-1]
