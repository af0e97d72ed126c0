"""One-sided grid LSH for low-dimensional ``ℓ_p`` spaces (Appendix E.1).

Theorem 4.5's protocol uses an LSH with the special property ``p2 = 0``:
*far* points (distance > ``r2``) can **never** collide.  The construction
is a randomly shifted axis-aligned grid of cell width ``r2 / d^{1/p}``; the
cell diameter under ``ℓ_p`` is then exactly ``r2``, so two points sharing a
cell are within ``r2``.  For *close* points (distance <= ``r1``) a union
bound over dimensions (Appendix E.1) gives

``p1 >= 1 - r1·d / r2 = 1 - ρ̂``,

where ``ρ̂ = r1·d/r2`` is the quantity that drives Theorem 4.5's bounds.
"""

from __future__ import annotations

import numpy as np

from ..hashing import PublicCoins
from ..metric.spaces import GridSpace
from .base import LSHFamily, LSHParams
from .grid import _FOLD_PRIME_1, _FOLD_PRIME_2, GridBatch

__all__ = ["OneSidedGridLSH"]


class OneSidedGridLSH(LSHFamily):
    """Appendix E.1's grid LSH with ``p2 = 0``.

    Parameters
    ----------
    space:
        Grid space under any ``ℓ_p``, ``p >= 1``.
    r1, r2:
        The Gap model's distance scales; cells have width ``r2 / d^{1/p}``.
    """

    def __init__(self, space: GridSpace, r1: float, r2: float):
        if not isinstance(space, GridSpace):
            raise TypeError(f"OneSidedGridLSH requires a GridSpace, got {space!r}")
        if not 0 < r1 < r2:
            raise ValueError(f"need 0 < r1 < r2, got r1={r1}, r2={r2}")
        super().__init__(space)
        self.r1 = float(r1)
        self.r2 = float(r2)
        self.cell_width = r2 / space.dim ** (1.0 / space.p)
        self.rho_hat = r1 * space.dim / r2
        if self.rho_hat >= 1.0:
            raise ValueError(
                f"one-sided LSH needs r1*d/r2 < 1 (got {self.rho_hat:.3f}); "
                "the construction is only useful in low dimensions"
            )

    def __repr__(self) -> str:
        return (
            f"OneSidedGridLSH(side={self.space.side}, dim={self.space.dim}, "
            f"p={self.space.p}, r1={self.r1}, r2={self.r2})"
        )

    @property
    def params(self) -> LSHParams:
        return LSHParams(r1=self.r1, r2=self.r2, p1=1.0 - self.rho_hat, p2=0.0)

    def sample_batch(self, coins: PublicCoins, label: object, count: int) -> GridBatch:
        rng = coins.numpy_rng("one-sided-grid", label)
        d = self.space.dim
        offsets = rng.uniform(0.0, self.cell_width, size=(count, d))
        coeffs_1 = rng.integers(1, _FOLD_PRIME_1, size=(count, d), dtype=np.int64)
        coeffs_2 = rng.integers(1, _FOLD_PRIME_2, size=(count, d), dtype=np.int64)
        return GridBatch(self.space, offsets, self.cell_width, coeffs_1, coeffs_2)
