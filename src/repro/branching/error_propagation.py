"""Error propagation during breadth-first peeling (Lemma 3.10 / Figure 1).

The paper models RIBLT value noise as follows: one random vertex of
``G^q_{m,cm}`` starts with an error count of 1; peeling proceeds breadth
first (a vertex whose degree reaches 1 earlier is peeled earlier); when a
vertex ``v`` is peeled, its error count ``C_v`` is *added to every
adjacent vertex* (the cells of the peeled key absorb the residue, exactly
as :meth:`repro.iblt.riblt.RIBLT.decode` does with value snapshots).

Lemma 3.10: for ``c < 1/(q(q-1))``, after peeling, ``Σ_v C_v = O(1)``
with probability at least 7/8.  Above the tree/unicyclic threshold the
sum blows up -- experiment E2 sweeps ``c`` across ``1/(q(q-1))`` to show
the transition, and ablates the breadth-first order against LIFO
(depth-first) peeling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..iblt.hypergraph import peel_steps, random_hypergraph

__all__ = ["ErrorPropagationResult", "propagate_error", "error_propagation_trials"]


@dataclass(frozen=True)
class ErrorPropagationResult:
    """Outcome of one error-propagation experiment.

    Attributes
    ----------
    total_error:
        ``Σ_v C_v`` over all vertices after peeling completes (the
        quantity Lemma 3.10 bounds).
    touched_vertices:
        Number of vertices that ended with a non-zero error count.
    peeled_edges:
        How many hyperedges were peeled (un-peeled 2-core edges stop
        propagation).
    fully_peeled:
        Whether every edge was peeled (empty 2-core).
    """

    total_error: int
    touched_vertices: int
    peeled_edges: int
    fully_peeled: bool


def propagate_error(
    m: int,
    edges: list[tuple[int, ...]],
    seed_vertex: int,
    order: str = "bfs",
) -> ErrorPropagationResult:
    """Run the Lemma 3.10 process on a given hypergraph.

    Parameters
    ----------
    m, edges:
        The hypergraph (vertices ``0..m-1``).
    seed_vertex:
        The vertex initially carrying error count 1.
    order:
        ``"bfs"`` for the paper's first-come-first-served order, ``"dfs"``
        for the LIFO ablation (see :func:`~repro.iblt.hypergraph.peel_steps`).
    """
    if order not in ("bfs", "dfs"):
        raise ValueError(f"order must be 'bfs' or 'dfs', got {order!r}")
    error = [0] * m
    error[seed_vertex] = 1
    peeled = 0
    for vertex, edge_index in peel_steps(m, edges, lifo=order == "dfs"):
        peeled += 1
        for other in edges[edge_index]:
            if other != vertex:
                error[other] += error[vertex]
    return ErrorPropagationResult(
        total_error=sum(error),
        touched_vertices=sum(1 for count in error if count != 0),
        peeled_edges=peeled,
        fully_peeled=peeled == len(edges),
    )


def error_propagation_trials(
    m: int,
    c: float,
    q: int,
    trials: int,
    rng: np.random.Generator,
    order: str = "bfs",
) -> list[ErrorPropagationResult]:
    """Repeat :func:`propagate_error` on fresh ``G^q_{m, round(c·m)}`` draws."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    edge_count = max(1, round(c * m))
    results = []
    for _ in range(trials):
        edges = random_hypergraph(m, edge_count, q, rng)
        seed_vertex = int(rng.integers(0, m))
        results.append(propagate_error(m, edges, seed_vertex, order=order))
    return results
