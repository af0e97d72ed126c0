"""p-stable (Gaussian) MLSH for ``([Δ]^d, ℓ2)`` (Lemma 2.5, Datar et al. [8]).

Each function projects the input onto a random Gaussian direction and
rounds to a randomly shifted 1-D lattice of width ``w``:

``h(x) = floor((r · x + a) / w)``, ``r_i ~ N(0, 1)``, ``a ~ U[0, w)``.

Because the Gaussian is 2-stable, ``r·(x-y)`` is distributed as
``||x-y||_2 · N(0,1)``, and Appendix A brackets the collision probability to
obtain an MLSH family with parameters

``(r, p, α) = (.99·w, e^{-2·sqrt(2/π)/w}, 1/(4·sqrt(2)))``.
"""

from __future__ import annotations

import math

import numpy as np

from ..hashing import PublicCoins
from ..metric.spaces import GridSpace
from .base import LSHBatch, LSHParams, MLSHFamily

__all__ = ["PStableMLSH", "PStableBatch", "pstable_collision_probability"]


def pstable_collision_probability(distance: float, w: float) -> float:
    """Exact collision probability of the p-stable scheme (Appendix A).

    ``Pr = 2Φ(-w/c) + sqrt(2/π)·(c/w)·(e^{-w²/(2c²)} - 1) + 1`` where
    ``c = ||x-y||_2`` — equal to the paper's expression
    ``2Φ(-w/c) - sqrt(2)c/(sqrt(π)w)·(1 - e^{-w²/2c²})`` shifted to the
    standard CDF convention (the paper's ``Φ`` is the CDF minus 1/2).
    """
    if distance <= 0:
        return 1.0
    ratio = w / distance
    # Standard normal CDF at -ratio via erfc.
    cdf_tail = 0.5 * math.erfc(ratio / math.sqrt(2.0))
    term = (
        math.sqrt(2.0 / math.pi)
        / ratio
        * (1.0 - math.exp(-(ratio**2) / 2.0))
    )
    return max(0.0, min(1.0, 1.0 - 2.0 * cdf_tail - term))


class PStableBatch(LSHBatch):
    """A batch of Gaussian-projection lattice hashes."""

    def __init__(self, space: GridSpace, directions: np.ndarray, shifts: np.ndarray, w: float):
        super().__init__(space, count=directions.shape[0])
        self.directions = directions  # (count, d)
        self.shifts = shifts  # (count,)
        self.w = w

    def _evaluate(self, matrix: np.ndarray) -> np.ndarray:
        projections = matrix.astype(np.float64) @ self.directions.T  # (n, count)
        return np.floor((projections + self.shifts[None, :]) / self.w).astype(np.int64)


class PStableMLSH(MLSHFamily):
    """Lemma 2.5: MLSH on ``([Δ]^d, ℓ2)``.

    Parameters ``(r, p, α) = (.99w, e^{-2√(2/π)/w}, 1/(4√2))``.
    """

    def __init__(self, space: GridSpace, w: float):
        if not isinstance(space, GridSpace) or space.p != 2.0:
            raise TypeError(f"PStableMLSH requires a GridSpace with p=2, got {space!r}")
        if w <= 0:
            raise ValueError(f"w must be > 0, got {w}")
        super().__init__(
            space,
            r=0.99 * w,
            p=float(np.exp(-2.0 * math.sqrt(2.0 / math.pi) / w)),
            alpha=1.0 / (4.0 * math.sqrt(2.0)),
        )
        self.w = float(w)

    def __repr__(self) -> str:
        return f"PStableMLSH(side={self.space.side}, dim={self.space.dim}, w={self.w})"

    @property
    def params(self) -> LSHParams:
        return self.derived_lsh_params(r1=min(1.0, self.r / 2), r2=self.r)

    def collision_probability(self, distance: float) -> float:
        """Exact collision probability at a given ``ℓ2`` distance."""
        return pstable_collision_probability(distance, self.w)

    def sample_batch(self, coins: PublicCoins, label: object, count: int) -> PStableBatch:
        rng = coins.numpy_rng("pstable", label)
        d = self.space.dim
        directions = rng.standard_normal(size=(count, d))
        shifts = rng.uniform(0.0, self.w, size=count)
        return PStableBatch(self.space, directions, shifts, self.w)
