"""Distance-sensitive Bloom filters (Kirsch & Mitzenmacher [18]).

The paper credits [18] with the idea of building hash data structures
from locality sensitive hashes: a Bloom-filter-like sketch that answers
"is the query *close* to some set element?" instead of exact membership.
We include it both as the historical precursor and as a practical
utility: a party can broadcast a small sketch letting peers cheaply test
whether a point is worth reconciling at all.

Construction: ``groups`` independent rows; row ``j`` applies a
concatenation of ``per_group`` LSH functions (an AND) and sets the
bucket that the hashed value selects in a ``row_bits``-wide bit array.
A query is *positive* when at least ``threshold`` rows hit set buckets
(an OR with counting).  With an ``(r1, r2, p1, p2)`` family, a close
pair hits a given row w.p. ``>= p1^per_group`` and a far pair w.p.
``<= p2^per_group + fill`` (bucket collisions add the fill rate), so
thresholding between the two expectations separates close from far
w.h.p. for suitably many groups — the same Chernoff argument as the Gap
protocol's key threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..hashing import PairwiseHash, PublicCoins
from ..metric.spaces import MetricSpace, Point
from .base import LSHBatch, LSHFamily, LSHParams

__all__ = ["DistanceSensitiveBloomFilter", "DSBFParameters"]


@dataclass(frozen=True)
class DSBFParameters:
    """Derived operating characteristics of a filter instance."""

    groups: int
    per_group: int
    row_bits: int
    threshold: int
    close_row_probability: float
    far_row_probability: float


class DistanceSensitiveBloomFilter:
    """A Bloom filter that answers *proximity* queries.

    Parameters
    ----------
    space, family, params:
        The metric space and the LSH family with its ``(r1, r2, p1, p2)``
        guarantee.
    coins, label:
        Shared randomness (sketches built from equal coins are comparable
        and mergeable).
    groups:
        Number of independent rows (defaults to ``Θ(log(1/δ))`` for a
        1e-3-ish error target).
    per_group:
        AND-concatenation width; larger drives the far-hit rate down.
        The default also grows with ``expected_items`` so that families
        with *small output support* (bit sampling yields binary values,
        so a width-``g`` AND has only ``2^g`` possible patterns) do not
        saturate their rows.
    row_bits:
        Buckets per row.
    expected_items:
        Sizing hint: roughly how many points will be added.  Drives the
        default ``per_group`` and the decision threshold's fill
        correction.
    """

    def __init__(
        self,
        space: MetricSpace,
        family: LSHFamily,
        params: LSHParams,
        coins: PublicCoins,
        label: object = "dsbf",
        groups: int = 32,
        per_group: int | None = None,
        row_bits: int = 1024,
        expected_items: int = 64,
    ):
        if groups < 1:
            raise ValueError(f"groups must be >= 1, got {groups}")
        if row_bits < 2:
            raise ValueError(f"row_bits must be >= 2, got {row_bits}")
        if expected_items < 1:
            raise ValueError(f"expected_items must be >= 1, got {expected_items}")
        self.space = space
        self.family = family
        self.params = params
        if per_group is None:
            # Drive a far pair's row-hit probability under ~1/4, and keep
            # the AND's pattern space well above the stored set size.
            if params.p2 <= 0.0:
                per_group = 1
            else:
                per_group = max(
                    1,
                    math.ceil(math.log(0.25) / math.log(params.p2)),
                    math.ceil(math.log2(expected_items)) + 3,
                )
        self.groups = groups
        self.per_group = per_group
        self.row_bits = row_bits
        self.expected_items = expected_items
        self._batch: LSHBatch = family.sample_batch(
            coins, ("dsbf-lsh", label), groups * per_group
        )
        self._bucket_hashes = [
            PairwiseHash(coins, ("dsbf-bucket", label, j), bits=61)
            for j in range(groups)
        ]
        self._rows = [0] * groups  # bitmask per row
        self._count = 0

        close_row = params.p1**per_group
        # A far query hits a row via a true LSH collision *or* a bucket
        # already filled by another element.
        fill_estimate = min(0.5, expected_items / row_bits)
        far_row = min(1.0, params.p2**per_group + fill_estimate)
        if far_row >= close_row:
            raise ValueError(
                "filter cannot separate close from far with these parameters: "
                f"close row-hit {close_row:.3f} <= far row-hit {far_row:.3f}; "
                "increase row_bits or groups, or use a better LSH"
            )
        self.threshold = max(1, math.ceil(groups * (close_row + far_row) / 2))
        self.derived = DSBFParameters(
            groups=groups,
            per_group=per_group,
            row_bits=row_bits,
            threshold=self.threshold,
            close_row_probability=close_row,
            far_row_probability=far_row,
        )

    # -- construction --------------------------------------------------------
    def _buckets_of(self, points: Sequence[Point]) -> list[list[int]]:
        """Row-bucket indices for each point: ``result[i][j]``."""
        values = self._batch.evaluate(points)  # (n, groups*per_group)
        all_buckets = []
        for row_values in values.tolist():
            buckets = []
            for j in range(self.groups):
                start = j * self.per_group
                combined = 0
                for value in row_values[start : start + self.per_group]:
                    combined = combined * 0x9E3779B97F4A7C15 + int(value) + 1
                    combined &= (1 << 61) - 1
                buckets.append(self._bucket_hashes[j](combined) % self.row_bits)
            all_buckets.append(buckets)
        return all_buckets

    def add(self, point: Point) -> None:
        """Insert one point into the sketch."""
        self.add_all([point])

    def add_all(self, points: Sequence[Point]) -> None:
        for buckets in self._buckets_of(list(points)):
            for j, bucket in enumerate(buckets):
                self._rows[j] |= 1 << bucket
        self._count += len(points)

    def merge(self, other: "DistanceSensitiveBloomFilter") -> None:
        """Union with a sketch built from the same coins/label."""
        if (
            self.groups != other.groups
            or self.per_group != other.per_group
            or self.row_bits != other.row_bits
        ):
            raise ValueError("filters are structurally incompatible")
        self._rows = [a | b for a, b in zip(self._rows, other._rows)]
        self._count += other._count

    # -- queries ---------------------------------------------------------------
    def hits(self, point: Point) -> int:
        """How many rows report the query's bucket set."""
        buckets = self._buckets_of([point])[0]
        return sum(
            1 for j, bucket in enumerate(buckets) if (self._rows[j] >> bucket) & 1
        )

    def query(self, point: Point) -> bool:
        """True when the query is (probably) within ``r1`` of some element.

        One-sided-ish: close points pass w.h.p.; far points fail w.h.p.
        as long as the rows are not saturated (monitor :meth:`fill_rate`).
        """
        return self.hits(point) >= self.threshold

    @property
    def fill_rate(self) -> float:
        """Mean fraction of set buckets per row (saturation indicator)."""
        total = sum(bin(row).count("1") for row in self._rows)
        return total / (self.groups * self.row_bits)

    @property
    def size_bits(self) -> int:
        """Sketch size if transmitted."""
        return self.groups * self.row_bits

    def __len__(self) -> int:
        return self._count
