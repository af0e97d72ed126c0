"""Sensor-network synchronisation in the Gap Guarantee model.

The paper's motivating scenario (Section 1): two sensors observe the same
objects with measurement noise.  Readings of the same object differ by at
most r1; distinct objects are at least r2 apart.  After the 4-round Gap
protocol, *every* object either sensor saw is represented within r2 in
Bob's final database — including objects only Alice observed — at a
fraction of the cost of shipping Alice's readings wholesale.

Run:  python examples/sensor_network_sync.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    GapProtocol,
    GridSpace,
    PublicCoins,
    naive_union_transfer,
    noisy_replica_pair,
    verify_gap_guarantee,
)


def main() -> None:
    # 2-D positions on a 4096 x 4096 grid under l1 ("taxicab") distance.
    space = GridSpace(side=4096, dim=2, p=1.0)
    n, k = 48, 3
    r1, r2 = 4.0, 512.0
    rng = np.random.default_rng(7)

    workload = noisy_replica_pair(
        space, n=n, k=k, close_radius=int(r1), far_radius=700.0, rng=rng
    )
    print(f"two sensors, {n} readings each; {k} objects only sensor A saw")
    print(f"noise radius r1={r1}, object separation r2={r2} (l1)")

    # On an l1 grid the protocol's LSH is grid MLSH of width r2
    # (Corollary 4.4's regime: constant r2/r1 gap, large universe).
    protocol = GapProtocol.for_instance(space, n=n, k=k, r1=r1, r2=r2)
    print(f"LSH quality rho = {protocol.rho:.3f}; key vectors: "
          f"h={protocol.entries} entries x m={protocol.per_entry} hashes, "
          f"match threshold tau={protocol.match_threshold}")

    result = protocol.run(workload.alice, workload.bob, PublicCoins(99))
    if not result.success:
        print("reconciliation failed (undersized sketch) — rerun with new coins")
        return

    ok = verify_gap_guarantee(space, workload.alice, result.bob_final, r2)
    print(f"\n4 rounds, {result.total_bits} bits total")
    print(f"sensor A transmitted {len(result.transmitted)} full readings "
          f"(the {k} new objects plus {len(result.transmitted) - k} safety extras)")
    print(f"gap guarantee (every reading within r2 of B's final set): "
          f"{'HOLDS' if ok else 'VIOLATED'}")

    recovered = [p for p in workload.alice_far_points if p in set(result.bob_final)]
    print(f"all {len(recovered)}/{k} new objects delivered exactly")

    naive = naive_union_transfer(space, workload.alice, workload.bob)
    print(f"\nnaive transfer of all readings: {naive.total_bits} bits")
    print(f"protocol / naive = {result.total_bits / naive.total_bits:.1f}x — "
          "at this demo scale the naive transfer wins on bits; the")
    print("protocol's cost is O((k + rho*n) polylog n + k log|U|), so its")
    print("advantage appears once log|U| (here 24 bits/point) dwarfs the")
    print("polylog-n sketch overhead — e.g. high-dimensional readings.")


if __name__ == "__main__":
    main()
