"""Tests for multi-party robust reconciliation (extension, cf. [23])."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GapProtocol, multi_party_gap, verify_gap_guarantee
from repro.core.multiparty import verify_multi_party_guarantee
from repro.hashing import PublicCoins
from repro.metric import HammingSpace
from repro.protocol import Channel
from repro.workloads import perturb_point, random_far_point


def _setup(parties=3, n=16, k=1, seed=0):
    """Each party holds a noisy replica of a base cloud plus k private
    far points of its own."""
    rng = np.random.default_rng(seed)
    space = HammingSpace(96)
    r1, r2 = 2.0, 32.0
    base = space.sample(rng, n)
    party_sets = []
    anchors = list(base)
    for _ in range(parties):
        points = [perturb_point(space, point, int(r1), rng) for point in base]
        for _ in range(k):
            outlier = random_far_point(space, anchors, r2 + 8, rng)
            points.append(outlier)
            anchors.append(outlier)
        party_sets.append(points)
    protocol = GapProtocol.for_instance(
        space, n=n + parties * k, k=parties * k, r1=r1, r2=r2, sos_size_multiplier=6.0
    )
    return space, party_sets, protocol, r2


class TestMultiPartyGap:
    def test_three_parties_guarantee(self):
        space, party_sets, protocol, r2 = _setup(parties=3)
        result = multi_party_gap(protocol, party_sets, PublicCoins(1))
        assert result.success
        assert result.protocol_runs == 4  # 2 * (P - 1)
        assert verify_multi_party_guarantee(space, party_sets, result, r2)

    def test_coordinator_sees_everything_within_r2(self):
        space, party_sets, protocol, r2 = _setup(parties=3, seed=2)
        result = multi_party_gap(protocol, party_sets, PublicCoins(2))
        assert result.success
        hub = result.final_sets[result.coordinator]
        for points in party_sets:
            assert verify_gap_guarantee(space, points, hub, r2)

    def test_private_points_propagate(self):
        """A point only party 2 held must reach party 1 (within 2*r2;
        in practice the exact point travels via the coordinator)."""
        space, party_sets, protocol, r2 = _setup(parties=3, seed=3)
        result = multi_party_gap(protocol, party_sets, PublicCoins(3))
        assert result.success
        private = party_sets[2][-1]  # party 2's planted far point
        final_1 = result.final_sets[1]
        assert min(space.distance(private, q) for q in final_1) <= 2 * r2

    def test_two_parties_degenerates_to_pairwise(self):
        space, party_sets, protocol, r2 = _setup(parties=2, seed=4)
        channel = Channel()
        result = multi_party_gap(
            protocol, party_sets, PublicCoins(4), channel=channel
        )
        assert result.success
        assert result.protocol_runs == 2
        assert result.total_bits == channel.total_bits

    def test_edge_bits_itemise_the_star(self):
        space, party_sets, protocol, r2 = _setup(parties=4, seed=5)
        result = multi_party_gap(protocol, party_sets, PublicCoins(5))
        assert [(u, v) for u, v, _ in result.edge_bits] == [(0, 1), (0, 2), (0, 3)]
        assert all(bits > 0 for _, _, bits in result.edge_bits)
        assert sum(bits for _, _, bits in result.edge_bits) == result.total_bits

    def test_rejects_single_party(self):
        _, party_sets, protocol, _ = _setup(parties=2)
        with pytest.raises(ValueError):
            multi_party_gap(protocol, party_sets[:1], PublicCoins(6))
