"""Multi-party robust reconciliation over a star, and gossip topologies.

The paper's related work cites simple multi-party set reconciliation
(Mitzenmacher & Pagh [23]).  :func:`multi_party_gap` lifts the *robust*
Gap Guarantee model to ``P >= 2`` parties over a star whose hub is party
``COORDINATOR`` (0), running the two-party protocol once per leaf in
each direction:

1. **Convergecast** (leaves in ascending order): every leaf runs the
   two-party Gap protocol *toward* the hub (the hub plays Bob), so the
   hub ends with a set within ``r2`` of every point any party holds.
2. **Broadcast** (ascending order): the hub runs the protocol once
   *back* toward each leaf (the leaf plays Bob), delivering everything
   the leaf missed.

Every pairwise run reuses the measured channel and the transcript is
itemised *per star edge* (:attr:`MultiPartyGapResult.edge_bits`).  The
resulting guarantee: every input point of every party is within
``2 * r2`` of every party's final set (one hop in, one hop out) and
within ``r2`` of the hub's.

:class:`Topology` (star, ring, tree, random regular) is the gossip graph
:class:`~repro.stream.StreamReplayer` reconciles event IDs over; its
BFS spanning tree and convergecast/broadcast schedule follow the same
two-wave shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..hashing import PublicCoins
from ..metric.spaces import MetricSpace, Point
from ..protocol.channel import Channel
from .gap_protocol import GapProtocol, verify_gap_guarantee

__all__ = [
    "MultiPartyGapResult",
    "Topology",
    "multi_party_gap",
    "verify_multi_party_guarantee",
]

#: The topology kinds :meth:`Topology.build` accepts.
TOPOLOGY_KINDS = ("star", "ring", "tree", "random")

#: Pairing-model draws :meth:`Topology.random_k_regular` tries.
K_REGULAR_TRIES = 256

#: The spanning-tree root of every multi-party run (the star's hub).
COORDINATOR = 0


def _edge(u: int, v: int) -> tuple[int, int]:
    """The canonical (sorted) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Topology:
    """A connected undirected gossip graph over ``parties`` nodes.

    ``edges`` is canonical: each edge is ``(u, v)`` with ``u < v``, the
    tuple is sorted, and duplicates are rejected — so two topologies
    compare equal iff they are the same graph, regardless of how their
    edges were produced.
    """

    kind: str
    parties: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.parties < 2:
            raise ValueError(f"need at least 2 parties, got {self.parties}")
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            u, v = edge
            if not (0 <= u < self.parties and 0 <= v < self.parties):
                raise ValueError(f"edge {edge} out of range for {self.parties} parties")
            if u >= v:
                raise ValueError(f"edge {edge} is not canonical (need u < v)")
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)
        if tuple(sorted(self.edges)) != self.edges:
            raise ValueError("edges must be sorted")
        if not self._connected():
            raise ValueError(f"{self.kind} topology on {self.parties} parties is not connected")

    # -- constructors --------------------------------------------------------
    @classmethod
    def star(cls, parties: int) -> "Topology":
        """Every party linked to party 0, the hub (the legacy construction)."""
        return cls("star", parties, tuple((0, i) for i in range(1, parties)))

    @classmethod
    def ring(cls, parties: int) -> "Topology":
        """Party ``i`` linked to ``(i + 1) mod parties``."""
        edges = {_edge(i, (i + 1) % parties) for i in range(parties)}
        return cls("ring", parties, tuple(sorted(edges)))

    @classmethod
    def tree(cls, parties: int, branching: int = 2) -> "Topology":
        """A complete ``branching``-ary tree (node ``i``'s parent is
        ``(i - 1) // branching``)."""
        if branching < 1:
            raise ValueError(f"branching must be >= 1, got {branching}")
        edges = tuple(sorted(_edge((i - 1) // branching, i) for i in range(1, parties)))
        return cls("tree", parties, edges)

    @classmethod
    def random_k_regular(cls, parties: int, k: int, coins: PublicCoins) -> "Topology":
        """A connected ``k``-regular graph, deterministic from ``coins``.

        Uses the pairing (configuration) model: ``k`` stubs per node are
        shuffled by a coins-derived generator and paired off; draws with
        self-loops, parallel edges or a disconnected result are rejected
        and redrawn under a new sub-label, so the same coins always
        yield the same graph.
        """
        if k < 1 or k >= parties:
            raise ValueError(f"need 1 <= k < parties, got k={k}, parties={parties}")
        if (parties * k) % 2 != 0:
            raise ValueError(f"parties * k must be even, got {parties} * {k}")
        for attempt in range(K_REGULAR_TRIES):
            rng = coins.numpy_rng("topology-k-regular", parties, k, attempt)
            stubs = [node for node in range(parties) for _ in range(k)]
            order = rng.permutation(len(stubs))
            edges: set[tuple[int, int]] = set()
            ok = True
            for index in range(0, len(stubs), 2):
                u = stubs[int(order[index])]
                v = stubs[int(order[index + 1])]
                if u == v or _edge(u, v) in edges:
                    ok = False
                    break
                edges.add(_edge(u, v))
            if not ok:
                continue
            try:
                return cls("random", parties, tuple(sorted(edges)))
            except ValueError:
                continue  # disconnected draw: reject and redraw
        raise RuntimeError(
            f"no connected {k}-regular graph on {parties} nodes after {K_REGULAR_TRIES} draws"
        )

    @classmethod
    def build(
        cls,
        kind: str,
        parties: int,
        coins: PublicCoins | None = None,
        branching: int = 2,
        k: int = 2,
    ) -> "Topology":
        """Construct a topology by kind name (the CLI/scenario surface)."""
        if kind == "star":
            return cls.star(parties)
        if kind == "ring":
            return cls.ring(parties)
        if kind == "tree":
            return cls.tree(parties, branching=branching)
        if kind == "random":
            if coins is None:
                raise ValueError("random topology needs PublicCoins for its edge draw")
            return cls.random_k_regular(parties, k, coins)
        raise ValueError(f"unknown topology kind {kind!r} (expected one of {TOPOLOGY_KINDS})")

    # -- structure -----------------------------------------------------------
    def neighbors(self, node: int) -> tuple[int, ...]:
        """The node's neighbours in ascending order."""
        out = [v for u, v in self.edges if u == node]
        out += [u for u, v in self.edges if v == node]
        return tuple(sorted(out))

    def _connected(self) -> bool:
        parents, _ = self._bfs(0)
        return all(parents[node] is not None or node == 0 for node in range(self.parties))

    def _bfs(self, root: int) -> tuple[list, list]:
        """BFS parents and depths (sorted-neighbour visit order)."""
        parents: list = [None] * self.parties
        depths: list = [None] * self.parties
        depths[root] = 0
        frontier = [root]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in self.neighbors(node):
                    if depths[neighbor] is None:
                        depths[neighbor] = depths[node] + 1
                        parents[neighbor] = node
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return parents, depths

    def spanning_tree(self, root: int) -> tuple[dict[int, int], dict[int, int]]:
        """BFS spanning tree: ``(parent_of, depth_of)`` maps.

        Deterministic — neighbours are visited in ascending order — so
        every party derives the identical tree from the shared topology.
        """
        if not 0 <= root < self.parties:
            raise ValueError(f"root index {root} out of range")
        parents, depths = self._bfs(root)
        parent_of = {node: parents[node] for node in range(self.parties) if node != root}
        depth_of = {node: depths[node] for node in range(self.parties)}
        return parent_of, depth_of

    def gossip_schedule(self, root: int) -> tuple[list[int], list[int]]:
        """Convergecast and broadcast node orders for the tree wave.

        Convergecast runs deepest-first (ascending index within a
        level); broadcast runs shallowest-first.  For a star rooted at
        the hub both reduce to ascending party index — the legacy order.
        """
        parent_of, depth_of = self.spanning_tree(root)
        nodes = sorted(parent_of)
        up = sorted(nodes, key=lambda node: (-depth_of[node], node))
        down = sorted(nodes, key=lambda node: (depth_of[node], node))
        return up, down


@dataclass(frozen=True)
class MultiPartyGapResult:
    """Outcome of a multi-party reconciliation over the star.

    ``edge_bits`` itemises the transcript per star edge as ``(0, leaf,
    bits)`` triples, in leaf order; they sum to ``total_bits``.
    """

    success: bool
    final_sets: list[list[Point]]
    coordinator: int
    total_bits: int
    protocol_runs: int
    edge_bits: tuple[tuple[int, int, int], ...] = ()


def multi_party_gap(
    protocol: GapProtocol,
    party_sets: Sequence[Sequence[Point]],
    coins: PublicCoins,
    channel: Channel | None = None,
) -> MultiPartyGapResult:
    """Reconcile ``P`` parties' point sets over a star rooted at party 0.

    Parameters
    ----------
    protocol:
        A configured two-party :class:`GapProtocol`; its ``n`` should be
        sized for the largest party set (it is only used for sketch
        sizing, so a generous value is safe).
    party_sets:
        One point sequence per party.

    Notes
    -----
    Convergecast phase: each leaf's set flows into the hub's growing
    set.  Broadcast phase: each leaf receives the points it missed from
    the hub.  Each hop is a faithful two-party protocol run over the
    shared channel, with coin labels ``("in", leaf)`` / ``("out", leaf)``.
    """
    parties = [list(points) for points in party_sets]
    if len(parties) < 2:
        raise ValueError(f"need at least 2 parties, got {len(parties)}")
    channel = channel if channel is not None else Channel()
    leaves = range(1, len(parties))
    edge_bits = dict.fromkeys(leaves, 0)
    runs = 0
    all_success = True

    # ---- convergecast: leaves -> hub ---------------------------------------
    hub = parties[COORDINATOR]
    for leaf in leaves:
        before = channel.total_bits
        result = protocol.run(parties[leaf], hub, coins.child("in", leaf), channel)
        runs += 1
        edge_bits[leaf] += channel.total_bits - before
        if not result.success:
            all_success = False
            continue
        hub = result.bob_final

    # ---- broadcast: hub -> leaves ------------------------------------------
    finals = [list(points) for points in parties]
    finals[COORDINATOR] = hub
    for leaf in leaves:
        before = channel.total_bits
        result = protocol.run(hub, parties[leaf], coins.child("out", leaf), channel)
        runs += 1
        edge_bits[leaf] += channel.total_bits - before
        if not result.success:
            all_success = False
            continue
        finals[leaf] = result.bob_final

    return MultiPartyGapResult(
        success=all_success,
        final_sets=finals,
        coordinator=COORDINATOR,
        total_bits=channel.total_bits,
        protocol_runs=runs,
        edge_bits=tuple((COORDINATOR, leaf, bits) for leaf, bits in edge_bits.items()),
    )


def verify_multi_party_guarantee(
    space: MetricSpace,
    party_sets: Sequence[Sequence[Point]],
    result: MultiPartyGapResult,
    r2: float,
) -> bool:
    """Check the multi-party postcondition of the star.

    Every input point of every party must be within ``r2`` of the hub's
    final set and within ``2 * r2`` of every party's final set (one hop
    in, one hop out).
    """
    hub_final = result.final_sets[result.coordinator]
    for points in party_sets:
        if not verify_gap_guarantee(space, list(points), hub_final, r2):
            return False
    for final in result.final_sets:
        for points in party_sets:
            if not verify_gap_guarantee(space, list(points), final, 2.0 * r2):
                return False
    return True
