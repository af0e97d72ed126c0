"""Metric spaces used by the paper's protocols.

The paper works in discretised metric spaces ``(U, f)`` of two flavours:

* ``({0,1}^d, f_H)`` — binary vectors under Hamming distance (Lemma 2.3,
  Corollaries 3.5 and 4.3, Theorem 4.6);
* ``([Δ]^d, ℓ_p)`` — integer grids under an ``ℓ_p`` norm (Lemmas 2.4/2.5,
  Corollaries 3.6 and 4.4, Theorem 4.5).

Points are plain tuples of Python ints: hashable, exact, and directly
summable inside RIBLT cells.  Inside a protocol run a point set travels
as an ``(n, d)`` int64 matrix, and there is one way in and one way out:

* :meth:`MetricSpace.point_array` is the only inbound rule.  It takes
  an integer ndarray or any sequence of point tuples and raises
  ``ValueError`` for a wrong dimension, a non-integer dtype (float,
  bool, object) or a coordinate outside ``[0, side)``.  Every encoder,
  serializer, LSH family and protocol coerces through it, once per set.
* :func:`point_tuples` is the only outbound conversion, one ``tolist``
  per matrix, wherever points are handed back to a caller.

Each space also knows how to clamp and measure points, how big its
universe is (``log2|U|`` drives the communication accounting of every
protocol), and how to draw uniform points for workloads and tests.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

__all__ = ["Point", "MetricSpace", "HammingSpace", "GridSpace", "point_tuples"]

#: A point is an immutable tuple of integer coordinates.
Point = tuple[int, ...]


def point_tuples(matrix: np.ndarray) -> list[Point]:
    """An ``(n, d)`` integer matrix as a list of point tuples of Python ints."""
    return [tuple(row) for row in matrix.tolist()]


class MetricSpace(ABC):
    """Abstract base for the discretised metric spaces ``(U, f)``.

    Attributes
    ----------
    dim:
        Dimension ``d`` of the space.
    side:
        Number of distinct values per coordinate (2 for Hamming, ``Δ`` for
        grids); coordinates live in ``{0, ..., side - 1}``.
    """

    def __init__(self, dim: int, side: int):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if side < 2:
            raise ValueError(f"side must be >= 2, got {side}")
        self.dim = dim
        self.side = side

    # -- distances ---------------------------------------------------------
    @abstractmethod
    def distance(self, x: Point, y: Point) -> float:
        """The metric ``f(x, y)``."""

    def distance_matrix(self, xs: Sequence[Point], ys: Sequence[Point]) -> np.ndarray:
        """All pairwise distances between two point sequences.

        The default implementation loops over :meth:`distance`; subclasses
        vectorise it.
        """
        out = np.empty((len(xs), len(ys)), dtype=float)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i, j] = self.distance(x, y)
        return out

    @property
    @abstractmethod
    def diameter(self) -> float:
        """The largest distance between two points of the space."""

    # -- point handling ------------------------------------------------------
    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies in the space (passes :meth:`point_array`)."""
        try:
            self.point_array([point])
        except ValueError:
            return False
        return True

    def point_array(self, points: "Sequence[Point] | np.ndarray") -> np.ndarray:
        """The one inbound point rule: ``points`` as an ``(n, d)`` int64 matrix.

        Accepts an integer ndarray or any sequence of point tuples; an
        empty input gives ``(0, d)``.  Raises ``ValueError`` for a wrong
        dimension, a non-integer dtype (float, bool, object) or any
        coordinate outside ``[0, side)``.
        """
        matrix = np.asarray(points)
        if matrix.shape == (0,):
            return np.empty((0, self.dim), dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(
                f"expected (n, {self.dim}) points for {self!r}, got shape {matrix.shape}"
            )
        if matrix.dtype.kind not in "iu":
            raise ValueError(f"point coordinates must be integers, got dtype {matrix.dtype}")
        if matrix.size and (matrix.min() < 0 or matrix.max() >= self.side):
            raise ValueError(f"point coordinate outside [0, {self.side}) for {self!r}")
        return matrix.astype(np.int64, copy=False)

    def validate(self, point: Point) -> Point:
        """Return ``point`` as a canonical tuple, or raise ``ValueError``."""
        return point_tuples(self.point_array([point]))[0]

    def clamp(self, values: "Sequence[float] | np.ndarray") -> "Point | np.ndarray":
        """Round and clamp real coordinates into the space.

        This is the "shift the result into [0, Δ]" operation the RIBLT
        extraction step uses (Section 2.2, item 5) after averaging values.
        Rounding is half-to-even, like :func:`round`.  An ``(n, d)``
        matrix gives an ``(n, d)`` int64 matrix; one point gives a tuple.
        """
        matrix = np.asarray(values, dtype=np.float64)
        clamped = np.clip(np.rint(matrix), 0, self.side - 1).astype(np.int64)
        return clamped if matrix.ndim == 2 else tuple(clamped.tolist())

    def sample(self, rng: np.random.Generator, count: int) -> list[Point]:
        """Draw ``count`` uniform points from the space."""
        return point_tuples(rng.integers(0, self.side, size=(count, self.dim)))

    # -- identity ------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.__dict__ == other.__dict__  # type: ignore[union-attr]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class HammingSpace(MetricSpace):
    """``({0,1}^d, f_H)`` — bit vectors under Hamming distance."""

    def __init__(self, dim: int):
        super().__init__(dim=dim, side=2)

    def __repr__(self) -> str:
        return f"HammingSpace(dim={self.dim})"

    def distance(self, x: Point, y: Point) -> float:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("points must have the space's dimension")
        return float(sum(a != b for a, b in zip(x, y)))

    def distance_matrix(self, xs: Sequence[Point], ys: Sequence[Point]) -> np.ndarray:
        xs_arr = self.point_array(xs)
        ys_arr = self.point_array(ys)
        if xs_arr.size == 0 or ys_arr.size == 0:
            return np.zeros((len(xs), len(ys)))
        return (xs_arr[:, None, :] != ys_arr[None, :, :]).sum(axis=2).astype(float)

    @property
    def diameter(self) -> float:
        return float(self.dim)


class GridSpace(MetricSpace):
    """``([Δ]^d, ℓ_p)`` — integer grid points under an ``ℓ_p`` norm.

    Parameters
    ----------
    side:
        ``Δ``: coordinates range over ``{0, ..., Δ - 1}``.
    dim:
        ``d``.
    p:
        Norm exponent; the paper uses ``p ∈ {1, 2}`` (and ``p ∈ [1, 2)``
        for Theorem 4.5).
    """

    def __init__(self, side: int, dim: int, p: float = 2.0):
        super().__init__(dim=dim, side=side)
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        self.p = float(p)

    def __repr__(self) -> str:
        return f"GridSpace(side={self.side}, dim={self.dim}, p={self.p})"

    def distance(self, x: Point, y: Point) -> float:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("points must have the space's dimension")
        diffs = [abs(a - b) for a, b in zip(x, y)]
        if self.p == 1.0:
            return float(sum(diffs))
        if math.isinf(self.p):
            return float(max(diffs))
        return float(sum(diff**self.p for diff in diffs) ** (1.0 / self.p))

    def distance_matrix(self, xs: Sequence[Point], ys: Sequence[Point]) -> np.ndarray:
        xs_arr = self.point_array(xs).astype(float)
        ys_arr = self.point_array(ys).astype(float)
        if xs_arr.size == 0 or ys_arr.size == 0:
            return np.zeros((len(xs), len(ys)))
        diffs = np.abs(xs_arr[:, None, :] - ys_arr[None, :, :])
        if self.p == 1.0:
            return diffs.sum(axis=2)
        if math.isinf(self.p):
            return diffs.max(axis=2)
        return (diffs**self.p).sum(axis=2) ** (1.0 / self.p)

    @property
    def diameter(self) -> float:
        extent = self.side - 1
        if self.p == 1.0:
            return float(self.dim * extent)
        if math.isinf(self.p):
            return float(extent)
        return float((self.dim * extent**self.p) ** (1.0 / self.p))
