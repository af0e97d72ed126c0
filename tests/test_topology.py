"""Tests for the gossip topologies in core/multiparty."""

from __future__ import annotations

import pytest

from repro.core import Topology
from repro.hashing import PublicCoins


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
