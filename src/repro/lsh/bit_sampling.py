"""Bit-sampling MLSH for Hamming space (Lemma 2.3).

The standard Hamming LSH samples one coordinate of the input.  The paper
pads points to ``w >= d`` dimensions with zeros before sampling, which is
equivalent to the more efficient realisation used here (footnote 3): with
probability ``d/w`` the function samples a uniformly random real bit, and
with probability ``1 - d/w`` it is the constant-0 function.

Collision probability between ``x, y`` is exactly ``1 - f_H(x, y)/w``,
which Lemma 2.3 brackets as

``e^{-2·f_H(x,y)/w} <= 1 - f_H(x,y)/w <= e^{-f_H(x,y)/w}``   (``f_H <= .79w``)

giving an MLSH family with parameters ``(r, p, α) = (.79·w, e^{-2/w}, 1/2)``.
"""

from __future__ import annotations

import numpy as np

from ..hashing import PublicCoins
from ..metric.spaces import HammingSpace
from .base import LSHBatch, LSHParams, MLSHFamily

__all__ = ["BitSamplingMLSH", "BitSamplingBatch"]


class BitSamplingBatch(LSHBatch):
    """A batch of bit-sampling functions, held as sampled indices.

    ``indices[j] >= 0`` means function ``j`` returns coordinate
    ``indices[j]``; ``indices[j] == -1`` means the constant-0 function.
    """

    def __init__(self, space: HammingSpace, indices: np.ndarray):
        super().__init__(space, count=len(indices))
        self.indices = np.asarray(indices, dtype=np.int64)

    def _evaluate(self, matrix: np.ndarray) -> np.ndarray:
        out = np.zeros((matrix.shape[0], self.count), dtype=np.int64)
        real = self.indices >= 0
        if real.any():
            out[:, real] = matrix[:, self.indices[real]]
        return out


class BitSamplingMLSH(MLSHFamily):
    """Lemma 2.3: MLSH on ``({0,1}^d, f_H)`` with ``(.79w, e^{-2/w}, 1/2)``.

    Parameters
    ----------
    space:
        The Hamming space.
    w:
        The padding width ``w >= d``.  Larger ``w`` raises ``p = e^{-2/w}``
        toward 1 (footnote 4's "add constant functions" mechanism), which
        Algorithm 1 needs to satisfy ``p >= e^{-k/(24·D2)}``.
    """

    def __init__(self, space: HammingSpace, w: float):
        if not isinstance(space, HammingSpace):
            raise TypeError(f"BitSamplingMLSH requires a HammingSpace, got {space!r}")
        if w < space.dim:
            raise ValueError(f"w must be >= d = {space.dim}, got {w}")
        super().__init__(
            space, r=0.79 * w, p=float(np.exp(-2.0 / w)), alpha=0.5
        )
        self.w = float(w)

    def __repr__(self) -> str:
        return f"BitSamplingMLSH(dim={self.space.dim}, w={self.w})"

    @property
    def params(self) -> LSHParams:
        """Plain-LSH view at the canonical scales ``r1 = 1, r2 = r``."""
        return self.derived_lsh_params(r1=1.0, r2=self.r)

    def collision_probability(self, distance: float) -> float:
        """The *exact* collision probability ``1 - f_H/w`` of this family."""
        return max(0.0, 1.0 - distance / self.w)

    def sample_batch(
        self, coins: PublicCoins, label: object, count: int
    ) -> BitSamplingBatch:
        rng = coins.numpy_rng("bit-sampling", label)
        d = self.space.dim
        # With probability d/w sample a real coordinate, else constant 0.
        real = rng.random(count) < d / self.w
        indices = np.full(count, -1, dtype=np.int64)
        indices[real] = rng.integers(0, d, size=int(real.sum()))
        return BitSamplingBatch(self.space, indices)
