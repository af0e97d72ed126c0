"""LSH and multi-scale LSH interfaces (Definitions 2.1 and 2.2).

Two abstractions:

* :class:`LSHFamily` — the classic Indyk–Motwani locality sensitive hash
  family with parameters ``(r1, r2, p1, p2)``: points within ``r1`` collide
  with probability at least ``p1``, points beyond ``r2`` with probability
  at most ``p2``.  The meta-parameter ``ρ = log p1 / log p2`` governs the
  Gap Guarantee protocol's communication (Theorem 4.2).
* :class:`MLSHFamily` — the paper's *multi-scale* strengthening
  (Definition 2.2) with parameters ``(r, p, α)``: for every pair,
  ``Pr[h(x)=h(y)] ≤ p^{α·f(x,y)}``, and for pairs within ``r``,
  ``Pr[h(x)=h(y)] ≥ p^{f(x,y)}``.  Collision probability degrades
  *gracefully* with distance, which is what lets Algorithm 1 hash at many
  resolutions with one family.

Every family evaluates in *batches*: ``sample_batch(coins, label, count)``
returns a :class:`LSHBatch` that maps a list of ``n`` points to an
``(n, count)`` integer matrix of hash values, one column per independent
function from the family.  Batch evaluation is the unit both protocols
consume (Algorithm 1 needs prefixes of a long stream of functions; the Gap
protocol needs ``h·m`` functions per point), and it is where numpy
vectorisation lives.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..hashing import PublicCoins
from ..metric.spaces import MetricSpace, Point

__all__ = ["LSHParams", "LSHBatch", "LSHFamily", "MLSHFamily", "batches_for_p2_half"]


@dataclass(frozen=True)
class LSHParams:
    """The ``(r1, r2, p1, p2)`` parameters of Definition 2.1."""

    r1: float
    r2: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        if not self.r1 < self.r2:
            raise ValueError(f"need r1 < r2, got r1={self.r1}, r2={self.r2}")
        if not self.p1 > self.p2:
            raise ValueError(f"need p1 > p2, got p1={self.p1}, p2={self.p2}")
        if not (0 <= self.p2 and self.p1 <= 1):
            raise ValueError("probabilities must lie in [0, 1]")

    @property
    def rho(self) -> float:
        """``ρ = log(p1) / log(p2)``; 0 when ``p2 = 0`` (one-sided families)."""
        if self.p2 == 0.0:
            return 0.0
        if self.p1 >= 1.0:
            return 0.0
        return math.log(self.p1) / math.log(self.p2)


class LSHBatch(ABC):
    """A concrete batch of ``count`` independently-drawn hash functions."""

    def __init__(self, space: MetricSpace, count: int):
        if count < 1:
            raise ValueError(f"batch size must be >= 1, got {count}")
        self.space = space
        self.count = count

    def evaluate(self, points: "Sequence[Point] | np.ndarray") -> np.ndarray:
        """Hash every point with every function.

        ``points`` pass :meth:`~repro.metric.MetricSpace.point_array`.
        Returns an ``(len(points), count)`` int64 matrix; column ``j`` holds
        the values of the ``j``-th function.  Values are opaque integers --
        equality is the only meaningful operation.
        """
        matrix = self.space.point_array(points)
        if not len(matrix):
            return np.empty((0, self.count), dtype=np.int64)
        return self._evaluate(matrix)

    @abstractmethod
    def _evaluate(self, matrix: np.ndarray) -> np.ndarray:
        """:meth:`evaluate` on a validated, non-empty ``(n, d)`` int64 matrix."""


class LSHFamily(ABC):
    """A locality sensitive hash family over a metric space."""

    def __init__(self, space: MetricSpace):
        self.space = space

    @property
    @abstractmethod
    def params(self) -> LSHParams:
        """The family's ``(r1, r2, p1, p2)`` guarantee."""

    @abstractmethod
    def sample_batch(self, coins: PublicCoins, label: object, count: int) -> LSHBatch:
        """Draw ``count`` i.i.d. functions using shared randomness.

        Both parties calling with equal ``coins``/``label``/``count`` get
        the *same* batch -- this is the public-coin model.
        """

    @property
    def rho(self) -> float:
        """Convenience accessor for ``params.rho``."""
        return self.params.rho


class MLSHFamily(LSHFamily):
    """A multi-scale LSH family (Definition 2.2) with parameters ``(r, p, α)``."""

    def __init__(self, space: MetricSpace, r: float, p: float, alpha: float):
        super().__init__(space)
        if r <= 0:
            raise ValueError(f"r must be > 0, got {r}")
        if not 0 < p < 1:
            raise ValueError(f"p must be in (0, 1), got {p}")
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.r = float(r)
        self.p = float(p)
        self.alpha = float(alpha)

    def collision_upper_bound(self, distance: float) -> float:
        """Definition 2.2 upper bound ``p^{α·f(x,y)}`` (all distances)."""
        return self.p ** (self.alpha * distance)

    def collision_lower_bound(self, distance: float) -> float:
        """Definition 2.2 lower bound ``p^{f(x,y)}`` (distances <= r)."""
        if distance > self.r:
            return 0.0
        return self.p**distance

    def derived_lsh_params(self, r1: float, r2: float) -> LSHParams:
        """View the MLSH as a plain LSH at scales ``(r1, r2)``.

        ``p1 = p^{r1}`` (needs ``r1 <= r``) and ``p2 = p^{α·r2}`` follow
        directly from Definition 2.2.
        """
        if r1 > self.r:
            raise ValueError(
                f"MLSH lower bound only holds up to r={self.r}, asked for r1={r1}"
            )
        return LSHParams(r1=r1, r2=r2, p1=self.p**r1, p2=self.p ** (self.alpha * r2))


def batches_for_p2_half(p2: float) -> int:
    """``m = log_{p2}(1/2)``: functions per batch in the Gap protocol.

    Section 4.1 concatenates ``m`` LSH values so two *far* points agree on
    a whole batch with probability at most ``p2^m <= 1/2``.  The paper
    assumes ``p2 >= 1/2`` so ``m >= 1``; for smaller ``p2`` a single
    function already suffices.
    """
    if not 0 < p2 < 1:
        raise ValueError(f"p2 must be in (0, 1), got {p2}")
    return max(1, math.ceil(math.log(0.5) / math.log(p2)))
