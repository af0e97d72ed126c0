"""Synthetic workload generators.

The paper motivates robust reconciliation with sensor networks observing
the same objects with measurement noise, plus genuinely new objects
(outliers) that must be recovered (Section 1).  These generators produce
exactly that structure for every supported space:

* :func:`noisy_replica_pair` — ``S_B`` is a base cloud; ``S_A`` replays
  it with per-point noise of magnitude at most ``close_radius`` and
  replaces ``k`` points with *far* outliers at distance at least
  ``far_radius`` from everything.
* :func:`perturb_point` — the per-space noise model itself.
* :func:`split_difference_arrays` — the exact-reconciliation workload:
  shared points plus a bounded symmetric difference, as two ``(n, d)``
  int64 matrices; :func:`split_difference_pair` is the same draw as
  point tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metric.spaces import GridSpace, HammingSpace, MetricSpace, Point, point_tuples

__all__ = [
    "ReconciliationWorkload",
    "perturb_point",
    "noisy_replica_pair",
    "random_far_point",
    "split_difference_arrays",
    "split_difference_pair",
]

#: Uniform draws :func:`random_far_point` tries before it gives up.
FAR_POINT_TRIES = 10_000


@dataclass(frozen=True)
class ReconciliationWorkload:
    """A two-party instance with ground truth.

    ``far_indices`` are positions in ``alice`` holding the planted
    outliers (the points a Gap-model protocol must deliver and the
    natural ``k`` exclusions of ``EMD_k``).
    """

    space: MetricSpace
    alice: list[Point]
    bob: list[Point]
    far_indices: tuple[int, ...]
    close_radius: float
    far_radius: float

    @property
    def n(self) -> int:
        return len(self.alice)

    @property
    def k(self) -> int:
        return len(self.far_indices)

    @property
    def alice_far_points(self) -> list[Point]:
        return [self.alice[index] for index in self.far_indices]


def perturb_point(
    space: MetricSpace, point: Point, radius: float, rng: np.random.Generator
) -> Point:
    """Move ``point`` by at most ``radius`` in the space's metric.

    Hamming: flips a uniform number (0..radius) of distinct coordinates.
    Grids: adds per-coordinate integer offsets bounded so the ``ℓ_p``
    norm of the displacement cannot exceed ``radius``, then clamps into
    the grid (clamping can only shrink the displacement).
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if isinstance(space, HammingSpace):
        budget = min(int(radius), space.dim)
        flips = int(rng.integers(0, budget + 1))
        if flips == 0:
            return point
        coordinates = list(point)
        for index in rng.choice(space.dim, size=flips, replace=False):
            coordinates[int(index)] ^= 1
        return tuple(coordinates)
    if isinstance(space, GridSpace):
        per_coordinate = int(radius / space.dim ** (1.0 / space.p))
        if per_coordinate == 0:
            # Fall back to perturbing a single coordinate by <= radius.
            coordinates = list(point)
            index = int(rng.integers(0, space.dim))
            offset = int(rng.integers(-int(radius), int(radius) + 1))
            coordinates[index] += offset
            return space.clamp(coordinates)
        offsets = rng.integers(-per_coordinate, per_coordinate + 1, size=space.dim)
        return space.clamp([c + int(o) for c, o in zip(point, offsets)])
    raise TypeError(f"no perturbation model for {space!r}")


def random_far_point(
    space: MetricSpace,
    anchors: list[Point],
    far_radius: float,
    rng: np.random.Generator,
) -> Point:
    """Sample a uniform point at distance >= ``far_radius`` from all anchors."""
    for _ in range(FAR_POINT_TRIES):
        candidate = space.sample(rng, 1)[0]
        if not anchors:
            return candidate
        distances = space.distance_matrix([candidate], anchors)
        if float(distances.min()) >= far_radius:
            return candidate
    raise RuntimeError(
        f"could not place a point at distance >= {far_radius} "
        f"after {FAR_POINT_TRIES} tries; the space may be too crowded"
    )


def split_difference_arrays(
    space: MetricSpace, rng: np.random.Generator, n_shared: int, delta: int
) -> "tuple[np.ndarray, np.ndarray]":
    """``(alice, bob)`` as ``(n, d)`` int64 matrices: ``n_shared`` common
    rows first, then each party's extras.

    Alice gets ``delta // 2`` extra uniform points and Bob the other
    ``delta - delta // 2``, so the true symmetric difference is at most
    ``delta`` (sampling collisions can only shrink it).  ``rng`` draws
    the shared points, then Alice's extras, then Bob's, each as one
    ``rng.integers`` call, the draw :meth:`~repro.metric.MetricSpace.sample`
    makes.
    """

    def draw(count: int) -> np.ndarray:
        return rng.integers(0, space.side, size=(count, space.dim))

    alice = np.concatenate((draw(n_shared), draw(delta // 2)))
    bob = np.concatenate((alice[:n_shared], draw(delta - delta // 2)))
    return alice, bob


def split_difference_pair(
    space: MetricSpace, rng: np.random.Generator, n_shared: int, delta: int
) -> "tuple[list[Point], list[Point]]":
    """:func:`split_difference_arrays` as lists of point tuples."""
    alice, bob = split_difference_arrays(space, rng, n_shared, delta)
    return point_tuples(alice), point_tuples(bob)


def noisy_replica_pair(
    space: MetricSpace,
    n: int,
    k: int,
    close_radius: float,
    far_radius: float,
    rng: np.random.Generator,
) -> ReconciliationWorkload:
    """The paper's sensor workload.

    ``S_B`` is a cloud of ``n`` uniform points; ``S_A`` perturbs each by
    at most ``close_radius`` and replaces the last ``k`` with outliers at
    distance >= ``far_radius`` from every point of ``S_B`` and from each
    other.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if close_radius >= far_radius:
        raise ValueError(
            f"need close_radius < far_radius, got {close_radius} >= {far_radius}"
        )
    base = [space.sample(rng, 1)[0] for _ in range(n)]

    alice: list[Point] = []
    far_indices: list[int] = []
    anchors = list(base)
    for index in range(n):
        if index < n - k:
            alice.append(perturb_point(space, base[index], close_radius, rng))
        else:
            outlier = random_far_point(space, anchors, far_radius, rng)
            alice.append(outlier)
            anchors.append(outlier)
            far_indices.append(index)
    return ReconciliationWorkload(
        space=space,
        alice=alice,
        bob=base,
        far_indices=tuple(far_indices),
        close_radius=close_radius,
        far_radius=far_radius,
    )
