"""E8 — the low-dimensional Gap protocol (Theorem 4.5).

Claim: in constant-dimensional ``ℓ_p`` spaces the one-sided grid LSH
(``p2 = 0``, ``m = 1``, ``h = Θ(log n / log(1/ρ̂))``) improves over the
general protocol by roughly a ``log(r2/r1)`` factor in communication
while keeping the same guarantee.  We run both protocols on identical
ℓ1 workloads in d = 2 and 3.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GapProtocol,
    low_dimensional_gap_protocol,
    verify_gap_guarantee,
)
from repro.hashing import PublicCoins
from repro.metric import GridSpace
from repro.workloads import noisy_replica_pair

from conftest import record_table

N, K = 32, 2
TRIALS = 3
#: (dim, side, r1, r2, far_radius)
CONFIGS = ((2, 4096, 4.0, 512.0, 700.0), (3, 1024, 4.0, 384.0, 500.0))


def _run_pair(dim: int, side: int, r1: float, r2: float, far: float, seed: int):
    rng = np.random.default_rng(seed)
    space = GridSpace(side=side, dim=dim, p=1.0)
    workload = noisy_replica_pair(
        space, n=N, k=K, close_radius=int(r1), far_radius=far, rng=rng
    )
    coins = PublicCoins(seed)

    general = GapProtocol.for_instance(space, n=N, k=K, r1=r1, r2=r2)
    general_result = general.run(workload.alice, workload.bob, coins.child("gen"))

    lowdim = low_dimensional_gap_protocol(space, n=N, k=K, r1=r1, r2=r2)
    lowdim_result = lowdim.run(workload.alice, workload.bob, coins.child("low"))

    def stats(result):
        if not result.success:
            return None
        return {
            "holds": verify_gap_guarantee(space, workload.alice, result.bob_final, r2),
            "bits": result.total_bits,
        }

    return stats(general_result), stats(lowdim_result), general, lowdim


@pytest.fixture(scope="module")
def sweep():
    rows = []
    data = {}
    for dim, side, r1, r2, far in CONFIGS:
        general_bits, lowdim_bits = [], []
        general_holds = lowdim_holds = general_runs = lowdim_runs = 0
        entries = (None, None)
        for trial in range(TRIALS):
            general, lowdim, gp, lp = _run_pair(dim, side, r1, r2, far, 17 * dim + trial)
            entries = (gp.entries * gp.per_entry, lp.entries)
            if general is not None:
                general_runs += 1
                general_holds += general["holds"]
                general_bits.append(general["bits"])
            if lowdim is not None:
                lowdim_runs += 1
                lowdim_holds += lowdim["holds"]
                lowdim_bits.append(lowdim["bits"])
        rows.append(
            (
                dim,
                f"{general_holds}/{general_runs}",
                f"{lowdim_holds}/{lowdim_runs}",
                round(float(np.mean(general_bits))) if general_bits else 0,
                round(float(np.mean(lowdim_bits))) if lowdim_bits else 0,
                entries[0],
                entries[1],
            )
        )
        data[dim] = {
            "general_bits": general_bits,
            "lowdim_bits": lowdim_bits,
            "general_holds": general_holds,
            "lowdim_holds": lowdim_holds,
            "general_runs": general_runs,
            "lowdim_runs": lowdim_runs,
        }
    record_table(
        f"E8 (Theorem 4.5) — general vs one-sided low-dim Gap protocol on l1 grids, "
        f"n={N}, k={K}; claim: fewer LSH evaluations and bits in low dimension",
        [
            "dim",
            "general guarantee",
            "lowdim guarantee",
            "general bits",
            "lowdim bits",
            "general LSH/point",
            "lowdim LSH/point",
        ],
        rows,
    )
    return data


def test_guarantees_hold(sweep):
    for dim, stats in sweep.items():
        assert stats["general_holds"] == stats["general_runs"], dim
        assert stats["lowdim_holds"] == stats["lowdim_runs"], dim
        assert stats["lowdim_runs"] >= TRIALS - 1


def test_lowdim_cheaper(sweep):
    """The headline of Theorem 4.5: the one-sided construction reduces
    communication in low dimension."""
    for dim, stats in sweep.items():
        if stats["general_bits"] and stats["lowdim_bits"]:
            assert np.mean(stats["lowdim_bits"]) < np.mean(stats["general_bits"]), dim


def test_lowdim_speed(benchmark, sweep):
    rng = np.random.default_rng(10)
    space = GridSpace(side=4096, dim=2, p=1.0)
    workload = noisy_replica_pair(
        space, n=N, k=K, close_radius=4, far_radius=700.0, rng=rng
    )
    protocol = low_dimensional_gap_protocol(space, n=N, k=K, r1=4.0, r2=512.0)
    result = benchmark.pedantic(
        protocol.run,
        args=(workload.alice, workload.bob, PublicCoins(6)),
        rounds=1,
        iterations=1,
    )
    assert result.rounds == 4
