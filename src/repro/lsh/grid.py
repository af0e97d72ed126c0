"""Randomly-shifted grid MLSH for ``([Δ]^d, ℓ1)`` (Lemma 2.4).

Each function rounds the input to a randomly shifted orthogonal lattice of
width ``w``: coordinate ``j`` maps to ``floor((x_j + a_j) / w)`` with
``a_j ~ U[0, w)``.  Two points collide iff they share every lattice cell
coordinate, so (Appendix A)

``1 - ||x-y||_1 / w <= Pr[h(x)=h(y)] <= (1 - ||x-y||_1/(dw))^d <= e^{-||x-y||_1/w}``

which yields an MLSH family with parameters ``(.79·w, e^{-2/w}, 1/2)``.

The ``d`` cell coordinates are folded into a single integer with two
independent modular linear hashes (62 output bits total) so downstream key
builders see one value per function; the fold's false-collision rate is
``~2^{-62}`` per pair, negligible against the probabilities being measured.
"""

from __future__ import annotations

import numpy as np

from ..hashing import PublicCoins
from ..metric.spaces import GridSpace
from .base import LSHBatch, LSHParams, MLSHFamily

__all__ = ["GridMLSH", "GridBatch", "fold_cells"]

_FOLD_PRIME_1 = (1 << 31) - 1  # Mersenne prime 2^31 - 1
_FOLD_PRIME_2 = (1 << 29) - 3  # prime below 2^29
_MAX_CELL = 1 << 29


def fold_cells(cells: np.ndarray, coeffs_1: np.ndarray, coeffs_2: np.ndarray) -> np.ndarray:
    """Fold per-dimension lattice cells into one int per (function, point).

    Parameters
    ----------
    cells:
        ``(count, n, d)`` non-negative int64 cell coordinates.
    coeffs_1, coeffs_2:
        ``(count, d)`` random coefficients for the two modular hashes.

    Returns
    -------
    ``(n, count)`` int64 values ``h1 + (h2 << 31)``.

    Notes
    -----
    The accumulation reduces modulo a sub-``2^31`` prime after every
    dimension so that every intermediate fits comfortably in int64
    (``acc < 2^31``, ``product < 2^60``).
    """
    if cells.min(initial=0) < 0:
        raise ValueError("cells must be non-negative before folding")
    if cells.max(initial=0) >= _MAX_CELL:
        raise ValueError(
            f"cell coordinates must be < 2^29 for exact folding, got {cells.max()}"
        )
    count, n, d = cells.shape
    acc_1 = np.zeros((count, n), dtype=np.int64)
    acc_2 = np.zeros((count, n), dtype=np.int64)
    for j in range(d):
        acc_1 = (acc_1 + cells[:, :, j] * coeffs_1[:, j, None]) % _FOLD_PRIME_1
        acc_2 = (acc_2 + cells[:, :, j] * coeffs_2[:, j, None]) % _FOLD_PRIME_2
    return (acc_1 + (acc_2 << 31)).T.copy()


class GridBatch(LSHBatch):
    """A batch of randomly shifted lattice hashes of width ``w``."""

    def __init__(
        self,
        space: GridSpace,
        offsets: np.ndarray,
        w: float,
        coeffs_1: np.ndarray,
        coeffs_2: np.ndarray,
    ):
        super().__init__(space, count=offsets.shape[0])
        self.offsets = offsets  # (count, d) uniform in [0, w)
        self.w = w
        self.coeffs_1 = coeffs_1
        self.coeffs_2 = coeffs_2

    def _evaluate(self, matrix: np.ndarray) -> np.ndarray:
        shifted = matrix[None, :, :] + self.offsets[:, None, :]  # (count, n, d)
        cells = np.floor(shifted / self.w).astype(np.int64)
        return fold_cells(cells, self.coeffs_1, self.coeffs_2)


class GridMLSH(MLSHFamily):
    """Lemma 2.4: MLSH on ``([Δ]^d, ℓ1)`` with ``(.79w, e^{-2/w}, 1/2)``."""

    def __init__(self, space: GridSpace, w: float):
        if not isinstance(space, GridSpace) or space.p != 1.0:
            raise TypeError(f"GridMLSH requires a GridSpace with p=1, got {space!r}")
        if w <= 0:
            raise ValueError(f"w must be > 0, got {w}")
        super().__init__(space, r=0.79 * w, p=float(np.exp(-2.0 / w)), alpha=0.5)
        self.w = float(w)
        if (space.side + w) / w >= _MAX_CELL:
            raise ValueError("grid too fine: cell ids would overflow exact folding")

    def __repr__(self) -> str:
        return f"GridMLSH(side={self.space.side}, dim={self.space.dim}, w={self.w})"

    @property
    def params(self) -> LSHParams:
        return self.derived_lsh_params(r1=min(1.0, self.r / 2), r2=self.r)

    def sample_batch(self, coins: PublicCoins, label: object, count: int) -> GridBatch:
        rng = coins.numpy_rng("grid", label)
        d = self.space.dim
        offsets = rng.uniform(0.0, self.w, size=(count, d))
        coeffs_1 = rng.integers(1, _FOLD_PRIME_1, size=(count, d), dtype=np.int64)
        coeffs_2 = rng.integers(1, _FOLD_PRIME_2, size=(count, d), dtype=np.int64)
        return GridBatch(self.space, offsets, self.w, coeffs_1, coeffs_2)
