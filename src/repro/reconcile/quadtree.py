"""Randomly-offset quadtree baseline (Chen, Konrad, Yi, Yu, Zhang [7]).

The prior-work comparator for the EMD model.  Chen et al. round every
point to the centre of its cell in a randomly shifted quadtree and
reconcile the rounded points with IBLTs, one table per tree level; the
finest decodable level determines the precision of the recovered points.
Their approximation factor is ``O(d)`` — the gap to this paper's
``O(log n)`` is experiment E6.

Implementation notes
--------------------
* Levels ``i = 0, 1, ...`` use cell width ``Δ / 2^i`` with one shared
  random offset vector per level (nested offsets are not required for the
  guarantee; independent offsets match the analysis in [7] up to
  constants).
* Keys are folded cell ids; the stored value is the *cell centre*, a
  deterministic function of the key, so duplicate keys average without
  error and the RIBLT machinery can be reused as a faithful counting
  layer.  What distinguishes this baseline from Algorithm 1 is exactly
  what [7] differs in: points are *rounded* (value = centre) rather than
  carried exactly (value = point), so recovered points are off by up to a
  cell diameter — which scales with ``d`` under ``ℓ1``.
* The level ladder is Algorithm 1's own
  (:func:`~repro.core.emd_protocol.send_levels`,
  :func:`~repro.core.emd_protocol.decode_levels` and Bob's repair step),
  keeping the comparison apples-to-apples.  What this baseline changes is
  the key source (folded cell ids of a shifted grid per level, with cell
  centres as values), its own coins and table label, the ``4k`` accept
  budget at every level, levels counted from 0, and Bob's decode coins
  (each level's peel uses the RIBLT's fixed seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.emd_protocol import EMDResult, decode_levels, send_levels
from ..hashing import PublicCoins
from ..iblt.riblt import RIBLT, riblt_cells_for_pairs
from ..lsh.grid import _FOLD_PRIME_1, _FOLD_PRIME_2, fold_cells
from ..metric.spaces import GridSpace, Point
from ..protocol.channel import ALICE, Channel
from ..protocol.serialize import BitReader, BitWriter

__all__ = ["QuadtreeResult", "QuadtreeEMDProtocol"]

#: RIBLT hash count at every level.
Q = 3


@dataclass(frozen=True)
class QuadtreeResult(EMDResult):
    """Outcome of the quadtree baseline run (``decoded_level`` counts the
    coarsest level as 0)."""


class _Level:
    """One quadtree level: width, offset, and fold coefficients."""

    def __init__(self, space: GridSpace, width: float, rng: np.random.Generator):
        self.space = space
        self.width = width
        self.offset = rng.uniform(0.0, width, size=space.dim)
        self.coeffs_1 = rng.integers(
            1, _FOLD_PRIME_1, size=(1, space.dim), dtype=np.int64
        )
        self.coeffs_2 = rng.integers(
            1, _FOLD_PRIME_2, size=(1, space.dim), dtype=np.int64
        )

    def keys_and_centres(
        self, points: "Sequence[Point] | np.ndarray"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Folded cell keys plus each point's cell-centre value, as the
        ``(n,)`` keys and ``(n, d)`` values a RIBLT batch takes."""
        matrix = self.space.point_array(points)
        cells = np.floor((matrix + self.offset[None, :]) / self.width).astype(np.int64)
        keys = fold_cells(cells[None, :, :], self.coeffs_1, self.coeffs_2)[:, 0]
        raw = (cells.astype(np.float64) + 0.5) * self.width - self.offset[None, :]
        return keys, self.space.clamp(raw)


class QuadtreeEMDProtocol:
    """One-round EMD-model reconciliation via quadtree rounding ([7]).

    Parameters
    ----------
    space:
        Grid space (``ℓ1`` or ``ℓ2``); Hamming is out of scope for the
        quadtree construction, which is one of the paper's motivations.
    k:
        Outlier budget; tables accept up to ``4k`` decoded pairs.

    The tree has one level per halving of the side, down to unit cells;
    every level's RIBLT uses ``Q`` hashes.
    """

    def __init__(self, space: GridSpace, n: int, k: int):
        if not isinstance(space, GridSpace):
            raise TypeError(f"quadtree baseline requires a GridSpace, got {space!r}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.space = space
        self.n = n
        self.k = k
        self.levels_count = max(1, math.ceil(math.log2(space.side)) + 1)
        self.cells = riblt_cells_for_pairs(4 * k, q=Q)
        self.key_bits = 61

    def _levels(self, coins: PublicCoins) -> list[_Level]:
        rng = coins.numpy_rng("quadtree-levels")
        return [
            _Level(self.space, self.space.side / (1 << i), rng)
            for i in range(self.levels_count)
        ]

    def _table(self, coins: PublicCoins, level: int) -> RIBLT:
        return RIBLT(
            coins,
            ("quadtree", level),
            cells=self.cells,
            q=Q,
            key_bits=self.key_bits,
            dim=self.space.dim,
            side=self.space.side,
        )

    def run(
        self,
        alice_points: Sequence[Point],
        bob_points: Sequence[Point],
        coins: PublicCoins,
        channel: Channel | None = None,
        matcher: str = "hungarian",
    ) -> QuadtreeResult:
        """Execute the one-round protocol and Bob's repair step."""
        channel = channel if channel is not None else Channel()
        levels = self._levels(coins)
        alice = self.space.point_array(alice_points)
        bob = self.space.point_array(bob_points)
        writer = BitWriter()
        send_levels(
            writer,
            len(levels),
            lambda index: self._table(coins, index),
            lambda index: levels[index].keys_and_centres(alice),
        )
        payload = channel.send(
            ALICE, "quadtree-riblts", writer.getvalue(), writer.bit_length
        )
        found = decode_levels(
            BitReader(payload),
            len(levels),
            lambda index: self._table(coins, index),
            lambda index: levels[index].keys_and_centres(bob),
            accept_pairs=4 * self.k,
            decode_rng=None,
        )
        return QuadtreeResult.from_ladder(
            self.space, bob, found, channel, matcher, first_level=0
        )
