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
* Bob's repair step is the same as Algorithm 1's, keeping the comparison
  apples-to-apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.repair import repair_point_set
from ..hashing import PublicCoins
from ..iblt.riblt import RIBLT, riblt_cells_for_pairs
from ..lsh.grid import _FOLD_PRIME_1, _FOLD_PRIME_2, fold_cells
from ..metric.spaces import GridSpace, Point
from ..protocol.channel import ALICE, Channel
from ..protocol.serialize import BitReader, BitWriter
from ..protocol.tables import read_riblt_cells, write_riblt_cells

__all__ = ["QuadtreeResult", "QuadtreeEMDProtocol"]


@dataclass(frozen=True)
class QuadtreeResult:
    """Outcome of the quadtree baseline run."""

    success: bool
    bob_final: list[Point]
    decoded_level: int | None
    total_bits: int
    rounds: int
    decoded_pairs: int


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

    def cells_of(self, points: Sequence[Point]) -> np.ndarray:
        matrix = np.asarray(points, dtype=np.float64)
        return np.floor((matrix + self.offset[None, :]) / self.width).astype(np.int64)

    def keys_and_centres(self, points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
        """Folded cell keys plus each point's cell-centre value, as the
        ``(n,)`` keys and ``(n, d)`` values a RIBLT batch takes."""
        if not points:
            return np.empty(0, dtype=np.int64), np.empty((0, self.space.dim), dtype=np.int64)
        cells = self.cells_of(points)  # (n, d)
        keys = fold_cells(cells[None, :, :], self.coeffs_1, self.coeffs_2)[:, 0]
        raw = (cells.astype(np.float64) + 0.5) * self.width - self.offset[None, :]
        centres = np.array([self.space.clamp(row) for row in raw], dtype=np.int64)
        return keys, centres


class QuadtreeEMDProtocol:
    """One-round EMD-model reconciliation via quadtree rounding ([7]).

    Parameters
    ----------
    space:
        Grid space (``ℓ1`` or ``ℓ2``); Hamming is out of scope for the
        quadtree construction, which is one of the paper's motivations.
    k:
        Outlier budget; tables accept up to ``4k`` decoded pairs.
    q:
        RIBLT hash count.
    max_levels:
        Number of tree levels (default: down to unit cells).
    """

    def __init__(
        self,
        space: GridSpace,
        n: int,
        k: int,
        q: int = 3,
        max_levels: int | None = None,
    ):
        if not isinstance(space, GridSpace):
            raise TypeError(f"quadtree baseline requires a GridSpace, got {space!r}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.space = space
        self.n = n
        self.k = k
        self.q = q
        natural_levels = max(1, math.ceil(math.log2(space.side)) + 1)
        self.levels_count = (
            natural_levels if max_levels is None else min(max_levels, natural_levels)
        )
        self.cells = riblt_cells_for_pairs(4 * k, q=q)
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
            q=self.q,
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

        # --- Alice: build and send one RIBLT per level -------------------
        writer = BitWriter()
        for index, level in enumerate(levels):
            table = self._table(coins, index)
            table.insert_batch(*level.keys_and_centres(alice_points))
            write_riblt_cells(writer, table)
        payload = channel.send(
            ALICE, "quadtree-riblts", writer.getvalue(), writer.bit_length
        )

        # --- Bob: load, delete, decode finest possible level -------------
        reader = BitReader(payload)
        loaded = []
        for index in range(len(levels)):
            loaded.append(read_riblt_cells(reader, self._table(coins, index)))
        decoded_level = None
        decoded_alice: list[Point] = []
        decoded_bob: list[Point] = []
        decoded_pairs = 0
        for index in range(len(levels) - 1, -1, -1):
            table = loaded[index]
            table.delete_batch(*levels[index].keys_and_centres(bob_points))
            outcome = table.decode()
            if outcome.success and outcome.pair_count <= 4 * self.k:
                decoded_level = index
                decoded_alice = [value for _, value in outcome.inserted]
                decoded_bob = [value for _, value in outcome.deleted]
                decoded_pairs = outcome.pair_count
                break
        if decoded_level is None:
            return QuadtreeResult(
                success=False,
                bob_final=list(bob_points),
                decoded_level=None,
                total_bits=channel.total_bits,
                rounds=channel.rounds,
                decoded_pairs=0,
            )
        bob_final = repair_point_set(
            self.space, bob_points, decoded_alice, decoded_bob, matcher=matcher
        )
        return QuadtreeResult(
            success=True,
            bob_final=bob_final,
            decoded_level=decoded_level,
            total_bits=channel.total_bits,
            rounds=channel.rounds,
            decoded_pairs=decoded_pairs,
        )
