"""Random hypergraph model underlying IBLT peeling.

An IBLT with ``m`` cells and ``q`` hash functions storing ``cm`` keys is a
random ``q``-uniform hypergraph ``G^q_{m,cm}``: cells are vertices, keys
are hyperedges (Section 2.2).  Peeling succeeds iff the 2-core is empty
(Theorem 2.6), and the RIBLT analysis additionally needs the hypergraph to
consist of only *trees and unicyclic components* when
``c < 1/(q(q-1))`` (Lemma B.3, citing [28, 17]).

This module provides the model and the structural analyses the
peeling experiments use: 2-core computation by peeling, component
extraction and classification, and the sub-threshold density ``c*_q`` of
Molloy [26] quoted in Lemma B.4.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "random_hypergraph",
    "two_core",
    "peel_order",
    "peel_steps",
    "components",
    "classify_component",
    "component_census",
    "molloy_threshold",
    "riblt_sparsity_threshold",
    "Component",
]


def random_hypergraph(
    m: int, edges: int, q: int, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """Draw ``edges`` hyperedges of ``G^q_{m, edges}``.

    Each edge is a uniformly random set of ``q`` distinct vertices from
    ``[m]`` (matching the partitioned-IBLT guarantee that a key's cells are
    distinct).
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if m < q:
        raise ValueError(f"need m >= q, got m={m}, q={q}")
    result = []
    for _ in range(edges):
        result.append(tuple(int(v) for v in rng.choice(m, size=q, replace=False)))
    return result


def two_core(m: int, edges: list[tuple[int, ...]]) -> list[int]:
    """Indices of the edges remaining in the 2-core after peeling.

    Peeling repeatedly removes an edge incident to a degree-1 vertex --
    exactly the IBLT peel.  The surviving edges form the 2-core; an empty
    result means the IBLT would decode.
    """
    peeled = {edge_index for _, edge_index in peel_steps(m, edges)}
    return [index for index in range(len(edges)) if index not in peeled]


def peel_order(m: int, edges: list[tuple[int, ...]]) -> list[int]:
    """The breadth-first (FIFO) order in which edges get peeled.

    Returns edge indices in peel order; edges stuck in the 2-core are not
    listed.  This is the order the RIBLT decoder uses (Section 2.2 item 1).
    """
    return [edge_index for _, edge_index in peel_steps(m, edges)]


def peel_steps(
    m: int, edges: list[tuple[int, ...]], lifo: bool = False
) -> Iterator[tuple[int, int]]:
    """Peel the hypergraph, yielding ``(vertex, edge_index)`` per peeled edge.

    ``vertex`` is the degree-1 vertex that freed ``edges[edge_index]``.
    Vertices whose degree reaches 1 wait in a queue served first come,
    first served (breadth first, the RIBLT decoder's order), or last in,
    first out with ``lifo`` (depth first).  Edges left in the 2-core are
    never yielded.
    """
    incident: list[list[int]] = [[] for _ in range(m)]
    for edge_index, edge in enumerate(edges):
        for vertex in edge:
            incident[vertex].append(edge_index)
    degree = [len(edge_list) for edge_list in incident]
    alive = [True] * len(edges)

    queue: deque[int] = deque(
        vertex for vertex in range(m) if degree[vertex] == 1
    )
    while queue:
        vertex = queue.pop() if lifo else queue.popleft()
        if degree[vertex] != 1:
            continue
        edge_index = next(
            (candidate for candidate in incident[vertex] if alive[candidate]), None
        )
        if edge_index is None:
            continue
        alive[edge_index] = False
        yield vertex, edge_index
        for other in edges[edge_index]:
            degree[other] -= 1
            if degree[other] == 1:
                queue.append(other)


@dataclass(frozen=True)
class Component:
    """A connected component of a hypergraph."""

    vertices: frozenset[int]
    edge_indices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def size(self) -> int:
        return len(self.edge_indices)


def components(m: int, edges: list[tuple[int, ...]]) -> list[Component]:
    """Connected components (isolated vertices omitted)."""
    incident: list[list[int]] = [[] for _ in range(m)]
    for edge_index, edge in enumerate(edges):
        for vertex in edge:
            incident[vertex].append(edge_index)
    visited_vertex = [False] * m
    visited_edge = [False] * len(edges)
    result: list[Component] = []
    for start in range(m):
        if visited_vertex[start] or not incident[start]:
            continue
        stack = [start]
        visited_vertex[start] = True
        component_vertices = {start}
        component_edges: list[int] = []
        while stack:
            vertex = stack.pop()
            for edge_index in incident[vertex]:
                if visited_edge[edge_index]:
                    continue
                visited_edge[edge_index] = True
                component_edges.append(edge_index)
                for other in edges[edge_index]:
                    if not visited_vertex[other]:
                        visited_vertex[other] = True
                        component_vertices.add(other)
                        stack.append(other)
        result.append(
            Component(frozenset(component_vertices), tuple(sorted(component_edges)))
        )
    return result


def classify_component(component: Component, q: int) -> str:
    """Classify as ``"tree"``, ``"unicyclic"`` or ``"complex"``.

    Following the hypertree conventions of [11]: a component with ``e``
    ``q``-edges and ``v`` vertices has excess ``e·(q-1) - (v-1)``;
    excess 0 is a (hyper)tree, excess 1 unicyclic, more is complex.
    """
    excess = component.size * (q - 1) - (component.order - 1)
    if excess < 0:
        raise ValueError("component excess cannot be negative for connected graphs")
    if excess == 0:
        return "tree"
    if excess == 1:
        return "unicyclic"
    return "complex"


def component_census(m: int, edges: list[tuple[int, ...]], q: int) -> dict[str, int]:
    """Counts of tree / unicyclic / complex components (Lemma B.3 check)."""
    census = {"tree": 0, "unicyclic": 0, "complex": 0}
    for component in components(m, edges):
        census[classify_component(component, q)] += 1
    return census


def molloy_threshold(q: int) -> float:
    """Molloy's peelability threshold ``c*_q = min_{x>0} x / (q(1-e^{-x})^{q-1})``.

    Below this edge density the 2-core is empty w.h.p. (quoted after
    Lemma B.4).  Computed by a fine 1-D minimisation; accurate to ~1e-4,
    e.g. ``c*_3 ≈ 0.818``.
    """
    if q < 3:
        raise ValueError(f"threshold defined for q >= 3, got {q}")
    xs = np.linspace(1e-4, 10.0, 4096)
    values = xs / (q * (1.0 - np.exp(-xs)) ** (q - 1))
    return float(values.min())


def riblt_sparsity_threshold(q: int) -> float:
    """The RIBLT's tree/unicyclic density bound ``1/(q(q-1))`` (item 2)."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    return 1.0 / (q * (q - 1))
