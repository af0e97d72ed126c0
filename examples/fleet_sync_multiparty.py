"""Multi-party fleet synchronisation (extension; cf. [23]).

Three sensors observe the same scene with noise; each also saw one
object the others missed.  A star of two-party Gap-protocol runs through
a coordinator leaves *every* sensor with a point within 2*r2 of every
observation anyone made — the natural multi-party lift the paper's
related work ([23]) gestures at.

Run:  python examples/fleet_sync_multiparty.py
"""

from __future__ import annotations

import numpy as np

from repro import GapProtocol, HammingSpace, PublicCoins
from repro.core.multiparty import multi_party_gap, verify_multi_party_guarantee
from repro.workloads import perturb_point, random_far_point


def main() -> None:
    space = HammingSpace(96)
    r1, r2 = 2.0, 32.0
    n, parties = 20, 3
    rng = np.random.default_rng(11)

    base = space.sample(rng, n)
    party_sets = []
    anchors = list(base)
    for index in range(parties):
        observations = [perturb_point(space, point, int(r1), rng) for point in base]
        private = random_far_point(space, anchors, r2 + 8, rng)
        observations.append(private)
        anchors.append(private)
        party_sets.append(observations)
        print(f"sensor {index}: {len(observations)} observations "
              f"(1 object only it saw)")

    protocol = GapProtocol.for_instance(
        space, n=n + parties, k=parties, r1=r1, r2=r2, sos_size_multiplier=6.0
    )

    result = multi_party_gap(protocol, party_sets, PublicCoins(2024))
    print(f"\nstar reconciliation: {result.protocol_runs} two-party runs, "
          f"{result.total_bits} bits total")
    ok = verify_multi_party_guarantee(space, party_sets, result, r2)
    print(f"multi-party guarantee (everything within r2 of the hub, "
          f"2*r2 of everyone): {'HOLDS' if ok else 'VIOLATED'}")

    for index in range(parties):
        final = result.final_sets[index]
        gained = len(final) - len(party_sets[index])
        print(f"sensor {index} final set: {len(final)} points (+{gained})")


if __name__ == "__main__":
    main()
