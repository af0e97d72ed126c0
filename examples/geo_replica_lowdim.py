"""Low-dimensional replica repair with the one-sided LSH (Theorem 4.5).

A geo-distributed database stores 2-D coordinates (point-of-interest
locations).  Replicas drift: GPS refinements move shared entries a few
metres; some entries exist on one replica only.  In constant dimension
the one-sided grid LSH (far points *never* collide) needs only
``h = Θ(log n / log(1/ρ̂))`` hash evaluations per point and beats the
general Gap protocol's communication — this example runs both.

Run:  python examples/geo_replica_lowdim.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    GapProtocol,
    GridSpace,
    PublicCoins,
    low_dimensional_gap_protocol,
    noisy_replica_pair,
    verify_gap_guarantee,
)


def main() -> None:
    space = GridSpace(side=4096, dim=2, p=1.0)
    n, k = 64, 4
    r1, r2 = 4.0, 512.0
    rng = np.random.default_rng(77)
    workload = noisy_replica_pair(
        space, n=n, k=k, close_radius=int(r1), far_radius=700.0, rng=rng
    )
    print(f"geo replicas: {n} points on a {space.side}^2 grid, {k} replica-A-only")

    # --- Theorem 4.5: one-sided grid LSH ---------------------------------
    lowdim = low_dimensional_gap_protocol(space, n=n, k=k, r1=r1, r2=r2)
    print(f"\none-sided protocol: rho_hat = r1*d/r2 = "
          f"{lowdim.lsh.rho_hat:.4f}, h = {lowdim.entries} grids/point, "
          f"match threshold {lowdim.match_threshold}")
    low_result = lowdim.run(workload.alice, workload.bob, PublicCoins(3))
    assert low_result.success
    low_ok = verify_gap_guarantee(space, workload.alice, low_result.bob_final, r2)
    print(f"  {low_result.total_bits} bits over {low_result.rounds} rounds; "
          f"guarantee {'HOLDS' if low_ok else 'VIOLATED'}; "
          f"{len(low_result.transmitted)} points shipped")

    # --- Theorem 4.2: the general protocol on the same instance ----------
    general = GapProtocol.for_instance(space, n=n, k=k, r1=r1, r2=r2)
    print(f"\ngeneral protocol: h x m = {general.entries} x {general.per_entry} "
          f"= {general.entries * general.per_entry} LSH evaluations/point")
    general_result = general.run(workload.alice, workload.bob, PublicCoins(3))
    assert general_result.success
    general_ok = verify_gap_guarantee(
        space, workload.alice, general_result.bob_final, r2
    )
    print(f"  {general_result.total_bits} bits over {general_result.rounds} rounds; "
          f"guarantee {'HOLDS' if general_ok else 'VIOLATED'}; "
          f"{len(general_result.transmitted)} points shipped")

    saving = general_result.total_bits / max(low_result.total_bits, 1)
    print(f"\none-sided construction is {saving:.1f}x cheaper here — "
          "Theorem 4.5's ~log(r2/r1) factor in constant dimension")


if __name__ == "__main__":
    main()
