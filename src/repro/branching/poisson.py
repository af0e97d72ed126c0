"""Poisson (Galton–Watson) branching processes from Appendices B and D.

The RIBLT peeling analysis models the breadth-first neighbourhood of a
cell as an idealized branching process: every vertex has
``Poisson(c·q)`` child *edges*, each connecting to ``q-1`` child vertices.
Two recurrences drive Lemma 3.10:

* ``ρ_j`` — the probability a vertex at distance ``t-j`` from the root
  survives ``j`` rounds of the deletion procedure:
  ``ρ_0 = 1``, ``ρ_j = Pr[Poisson(ρ_{j-1}^{q-1}·c·q) >= 1]``;
* ``λ_j`` — the probability the *root* survives ``j`` rounds:
  ``λ_j = Pr[Poisson(ρ_{j-1}^{q-1}·c·q) >= 2]``.

Below the sparsity threshold ``c < 1/(q(q-1))`` these vanish, and [15]
shows ``λ_{I+t} <= τ^{2^{(q-1)t}}`` for constants ``I, τ`` -- doubly
exponential decay, which is the engine of the error-propagation bound.
The neighbourhood growth is only singly exponential:
``E[V_{v,t}] = Σ_{j<=t} (cq(q-1))^j`` (Wald), and conditioned on survival
``E[V_{v,j} | K_{v,j-1}] = O((q-1)^j)`` (Lemma D.3).

This module computes the recurrences exactly and also *simulates* the
idealized process, for experiment E10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "poisson_tail",
    "survival_recurrence",
    "SurvivalCurve",
    "expected_unconditioned_size",
    "branching_factor",
    "simulate_tree_size",
    "simulate_survival",
]

#: :func:`simulate_tree_size` stops counting past this many vertices.
MAX_TREE_VERTICES = 500_000


def poisson_tail(mean: float, at_least: int) -> float:
    """``Pr[Poisson(mean) >= at_least]`` for small ``at_least`` (1 or 2)."""
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if at_least <= 0:
        return 1.0
    if at_least == 1:
        return -math.expm1(-mean)
    if at_least == 2:
        return -math.expm1(-mean) - mean * math.exp(-mean)
    # General fall-back via the complement of the CDF.
    cumulative = 0.0
    term = math.exp(-mean)
    for k in range(at_least):
        cumulative += term
        term *= mean / (k + 1)
    return max(0.0, 1.0 - cumulative)


@dataclass(frozen=True)
class SurvivalCurve:
    """The ``(ρ_j, λ_j)`` sequences of the idealized deletion procedure."""

    c: float
    q: int
    rho: tuple[float, ...]
    lam: tuple[float, ...]

    @property
    def rounds(self) -> int:
        return len(self.lam)


def survival_recurrence(c: float, q: int, rounds: int) -> SurvivalCurve:
    """Compute ``ρ_j`` and ``λ_j`` for ``j = 1..rounds`` (Appendix B).

    ``ρ_0 = 1``; ``ρ_j = Pr[Poisson(ρ_{j-1}^{q-1} c q) >= 1]``;
    ``λ_j = Pr[Poisson(ρ_{j-1}^{q-1} c q) >= 2]``.
    """
    if c <= 0:
        raise ValueError(f"c must be > 0, got {c}")
    if q < 3:
        raise ValueError(f"q must be >= 3, got {q}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    rho = [1.0]
    lam = []
    for _ in range(rounds):
        mean = rho[-1] ** (q - 1) * c * q
        rho.append(poisson_tail(mean, 1))
        lam.append(poisson_tail(mean, 2))
    return SurvivalCurve(c=c, q=q, rho=tuple(rho[1:]), lam=tuple(lam))


def branching_factor(c: float, q: int) -> float:
    """Mean offspring per vertex, ``c·q·(q-1)``; < 1 is subcritical."""
    return c * q * (q - 1)


def expected_unconditioned_size(c: float, q: int, depth: int) -> float:
    """``E[Σ_{j<=depth} Z_j] = Σ_j (cq(q-1))^j`` (Wald, Appendix B)."""
    factor = branching_factor(c, q)
    if math.isclose(factor, 1.0):
        return float(depth + 1)
    return (factor ** (depth + 1) - 1.0) / (factor - 1.0)


def simulate_tree_size(c: float, q: int, depth: int, rng: np.random.Generator) -> int:
    """Sample the vertex count of one idealized branching tree to ``depth``.

    Each vertex draws ``Poisson(c·q)`` child edges; each edge contributes
    ``q-1`` child vertices.  Truncated at ``MAX_TREE_VERTICES``
    (supercritical trees can explode).
    """
    total = 1
    frontier = 1
    mean = c * q
    for _ in range(depth):
        if frontier == 0:
            break
        child_edges = int(rng.poisson(mean * frontier))
        frontier = child_edges * (q - 1)
        total += frontier
        if total > MAX_TREE_VERTICES:
            return MAX_TREE_VERTICES
    return total


def simulate_survival(
    c: float, q: int, rounds: int, trials: int, rng: np.random.Generator
) -> float:
    """Empirical ``λ_rounds``: fraction of roots surviving the procedure.

    Simulates the deletion procedure bottom-up by sampling, per trial,
    whether the root retains >= 2 surviving child edges after ``rounds``
    rounds, using the exact recurrence for subtree survival (each subtree
    is i.i.d., so only the top level needs sampling; this keeps the
    estimator cheap while still being a true Monte-Carlo check of the
    recurrence's top step).
    """
    curve = survival_recurrence(c, q, max(1, rounds - 1))
    subtree_survival = curve.rho[-1] if rounds > 1 else 1.0
    mean = subtree_survival ** (q - 1) * c * q
    survived = 0
    for _ in range(trials):
        if rng.poisson(mean) >= 2:
            survived += 1
    return survived / trials
