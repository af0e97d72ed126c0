"""Tests for the topology-general gossip layer in core/multiparty."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GapProtocol, Topology, multi_party_gap
from repro.core.multiparty import verify_multi_party_guarantee
from repro.hashing import PublicCoins
from repro.metric import HammingSpace
from repro.protocol import Channel
from repro.workloads import perturb_point, random_far_point


def _setup(parties=3, n=12, seed=0):
    rng = np.random.default_rng(seed)
    space = HammingSpace(96)
    r1, r2 = 2.0, 32.0
    base = space.sample(rng, n)
    party_sets = []
    anchors = list(base)
    for _ in range(parties):
        points = [perturb_point(space, point, int(r1), rng) for point in base]
        outlier = random_far_point(space, anchors, r2 + 8, rng)
        points.append(outlier)
        anchors.append(outlier)
        party_sets.append(points)
    protocol = GapProtocol.for_instance(
        space, n=n + parties, k=parties, r1=r1, r2=r2, sos_size_multiplier=6.0
    )
    return space, party_sets, protocol, r2


class TestConstructors:
    def test_star_shape(self):
        topo = Topology.star(5)
        assert topo.kind == "star"
        assert topo.edges == ((0, 1), (0, 2), (0, 3), (0, 4))
        assert topo.depth(0) == 1

    def test_ring_shape(self):
        topo = Topology.ring(5)
        assert topo.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        assert all(len(topo.neighbors(node)) == 2 for node in range(5))
        assert topo.depth(0) == 2

    def test_tree_shape(self):
        topo = Topology.tree(7, branching=2)
        assert topo.edges == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6))
        assert topo.depth(0) == 2

    def test_random_k_regular_is_regular_and_deterministic(self):
        coins = PublicCoins(99)
        topo = Topology.random_k_regular(8, 3, coins)
        assert topo.kind == "random"
        assert all(len(topo.neighbors(node)) == 3 for node in range(8))
        again = Topology.random_k_regular(8, 3, PublicCoins(99))
        assert again.edges == topo.edges
        other = Topology.random_k_regular(8, 3, PublicCoins(100))
        assert isinstance(other, Topology)  # different coins still converge

    def test_build_dispatch(self):
        assert Topology.build("star", 4).edges == Topology.star(4).edges
        assert Topology.build("ring", 4).edges == Topology.ring(4).edges
        assert Topology.build("tree", 4).edges == Topology.tree(4).edges
        coins = PublicCoins(5)
        assert (
            Topology.build("random", 6, coins=coins).edges
            == Topology.random_k_regular(6, 2, coins).edges
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology("star", 1, ())
        with pytest.raises(ValueError):
            Topology("star", 3, ((1, 0), (0, 2)))  # not canonical u < v
        with pytest.raises(ValueError):
            Topology("star", 3, ((0, 1), (0, 1), (0, 2)))  # duplicate
        with pytest.raises(ValueError):
            Topology("star", 3, ((0, 1),))  # disconnected
        with pytest.raises(ValueError):
            Topology.build("moebius", 4)
        with pytest.raises(ValueError):
            Topology.build("random", 4)  # random needs coins
        with pytest.raises(ValueError):
            Topology.random_k_regular(5, 3, PublicCoins(0))  # odd stubs

    def test_gossip_schedule_star_is_legacy_order(self):
        up, down = Topology.star(4).gossip_schedule(0)
        assert up == [1, 2, 3]
        assert down == [1, 2, 3]

    def test_gossip_schedule_tree_orders_by_depth(self):
        topo = Topology.tree(7, branching=2)
        up, down = topo.gossip_schedule(0)
        assert up == [3, 4, 5, 6, 1, 2]  # deepest first
        assert down == [1, 2, 3, 4, 5, 6]  # shallowest first


class TestMultiPartyOverTopologies:
    def test_explicit_star_matches_default(self):
        space, party_sets, protocol, r2 = _setup(parties=3)
        default = multi_party_gap(protocol, party_sets, PublicCoins(1))
        explicit = multi_party_gap(
            protocol, party_sets, PublicCoins(1), topology=Topology.star(3)
        )
        assert explicit.total_bits == default.total_bits
        assert explicit.protocol_runs == default.protocol_runs
        assert explicit.final_sets == default.final_sets
        assert explicit.edge_bits == default.edge_bits

    def test_edge_bits_sum_to_total(self):
        space, party_sets, protocol, r2 = _setup(parties=4, seed=3)
        topo = Topology.ring(4)
        result = multi_party_gap(protocol, party_sets, PublicCoins(3), topology=topo)
        assert result.success
        assert result.topology == "ring"
        assert sum(bits for _, _, bits in result.edge_bits) == result.total_bits
        assert [(u, v) for u, v, _ in result.edge_bits] == list(topo.edges)

    def test_non_tree_edges_carry_zero_bits(self):
        space, party_sets, protocol, r2 = _setup(parties=4, seed=4)
        topo = Topology.ring(4)  # edge (2, 3) is not in the BFS tree from 0
        result = multi_party_gap(protocol, party_sets, PublicCoins(4), topology=topo)
        edge_bits = {(u, v): bits for u, v, bits in result.edge_bits}
        assert edge_bits[(2, 3)] == 0
        used = [edge for edge, bits in edge_bits.items() if bits > 0]
        assert len(used) == 3  # spanning tree of 4 nodes

    @pytest.mark.parametrize("kind", ["ring", "tree", "random"])
    def test_guarantee_holds_off_star(self, kind):
        space, party_sets, protocol, r2 = _setup(parties=4, seed=5)
        topo = Topology.build(kind, 4, coins=PublicCoins(55).child("topo"))
        result = multi_party_gap(protocol, party_sets, PublicCoins(5), topology=topo)
        assert result.success
        assert result.depth == topo.depth(0)
        assert verify_multi_party_guarantee(space, party_sets, result, r2)

    def test_topology_party_count_must_match(self):
        space, party_sets, protocol, r2 = _setup(parties=3)
        with pytest.raises(ValueError):
            multi_party_gap(
                protocol, party_sets, PublicCoins(1), topology=Topology.ring(4)
            )

    def test_channel_totals_match_edge_accounting(self):
        space, party_sets, protocol, r2 = _setup(parties=3, seed=6)
        channel = Channel()
        result = multi_party_gap(
            protocol,
            party_sets,
            PublicCoins(6),
            channel=channel,
            topology=Topology.tree(3),
        )
        assert channel.total_bits == result.total_bits
