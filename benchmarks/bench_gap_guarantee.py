"""E7 — the Gap Guarantee protocol (Theorem 4.2, Corollaries 4.3 / 4.4).

Claims: 4 rounds; every point of ``S_A`` ends within ``r2`` of Bob's
final set; communication ``O((k + ρn)·polylog n + k·log|U|)``, beating
the naive ``n·log|U|`` transfer when ``ρ`` is small and ``d`` is large.
We sweep ``n`` and ``k`` on Hamming workloads (Cor. 4.3 regime) and run
an ℓ1 configuration (Cor. 4.4 regime).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GapProtocol, verify_gap_guarantee
from repro.hashing import PublicCoins
from repro.metric import GridSpace, HammingSpace
from repro.workloads import noisy_replica_pair

from conftest import record_table

D = 128
R1, R2 = 2.0, 32.0
TRIALS = 3
SETTINGS = ((32, 2), (64, 2), (64, 4))


def _run_hamming(n: int, k: int, seed: int):
    rng = np.random.default_rng(seed)
    space = HammingSpace(D)
    workload = noisy_replica_pair(
        space, n=n, k=k, close_radius=int(R1), far_radius=R2 + 8, rng=rng
    )
    protocol = GapProtocol.for_instance(space, n=n, k=k, r1=R1, r2=R2)
    result = protocol.run(workload.alice, workload.bob, PublicCoins(seed))
    if not result.success:
        return {"success": False}
    return {
        "success": True,
        "holds": verify_gap_guarantee(space, workload.alice, result.bob_final, R2),
        "transmitted": len(result.transmitted),
        "bits": result.total_bits,
        "rho": protocol.rho,
    }


@pytest.fixture(scope="module")
def sweep():
    rows = []
    data = {}
    for n, k in SETTINGS:
        outcomes = [_run_hamming(n, k, 7 * n + 13 * k + t) for t in range(TRIALS)]
        successes = [o for o in outcomes if o["success"]]
        holds = [o for o in successes if o["holds"]]
        bits = float(np.mean([o["bits"] for o in successes])) if successes else 0.0
        transmitted = (
            float(np.mean([o["transmitted"] for o in successes])) if successes else 0.0
        )
        naive = n * D
        rows.append(
            (
                n,
                k,
                len(successes) / TRIALS,
                len(holds) / max(1, len(successes)),
                transmitted,
                round(bits),
                naive,
            )
        )
        data[(n, k)] = {
            "successes": len(successes),
            "holds": len(holds),
            "bits": bits,
            "transmitted": transmitted,
        }
    record_table(
        f"E7 (Theorem 4.2 / Cor 4.3) — Gap protocol on ({{0,1}}^{D}, Hamming), "
        f"r1={R1}, r2={R2}; claim: guarantee always holds on success, 4 rounds",
        ["n", "k", "success rate", "guarantee rate", "mean transmitted", "bits", "naive bits"],
        rows,
    )
    return data


def test_guarantee_always_holds_on_success(sweep):
    for setting, stats in sweep.items():
        assert stats["holds"] == stats["successes"], setting


def test_mostly_successful(sweep):
    total = sum(stats["successes"] for stats in sweep.values())
    assert total >= 0.8 * len(SETTINGS) * TRIALS


def test_transmission_near_k(sweep):
    """T_A must cover the k far points; extra close points are allowed
    but should stay a small multiple of k + unresolved noise."""
    for (n, k), stats in sweep.items():
        assert stats["transmitted"] >= k
        assert stats["transmitted"] <= k + 0.5 * n


def test_l1_configuration_cor44():
    """Corollary 4.4's regime: ℓ1 grid with a constant r2/r1 gap."""
    rng = np.random.default_rng(0)
    space = GridSpace(side=4096, dim=2, p=1.0)
    n, k = 32, 2
    workload = noisy_replica_pair(
        space, n=n, k=k, close_radius=4, far_radius=700.0, rng=rng
    )
    protocol = GapProtocol.for_instance(space, n=n, k=k, r1=4.0, r2=512.0)
    result = protocol.run(workload.alice, workload.bob, PublicCoins(4))
    assert result.success
    assert verify_gap_guarantee(space, workload.alice, result.bob_final, 512.0)


def test_gap_speed(benchmark, sweep):
    rng = np.random.default_rng(9)
    space = HammingSpace(D)
    workload = noisy_replica_pair(
        space, n=32, k=2, close_radius=int(R1), far_radius=R2 + 8, rng=rng
    )
    protocol = GapProtocol.for_instance(space, n=32, k=2, r1=R1, r2=R2)
    result = benchmark.pedantic(
        protocol.run,
        args=(workload.alice, workload.bob, PublicCoins(5)),
        rounds=1,
        iterations=1,
    )
    assert result.rounds == 4
