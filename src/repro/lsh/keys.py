"""Key construction on top of raw LSH values.

Both protocols turn a point's vector of LSH values into compact *keys*:

* **Algorithm 1 (EMD)** keys level ``i`` by a pairwise-independent hash of
  the first ``c_i`` MLSH values, with ``c_1 < c_2 < ... < c_t`` doubling
  per level (``key_i(a) = h(g_1(a), ..., g_{c_i}(a))``).
  :class:`PrefixKeyBuilder` computes all ``t`` keys for every point from
  one closed-form prefix sum of the rolling
  :class:`~repro.hashing.PrefixHasher`.
* **The Gap protocol (Section 4.1)** gives each point a key *vector* of
  ``h`` entries, each entry a pairwise-independent hash of a batch of ``m``
  LSH values.  :class:`BatchKeyBuilder` produces these vectors.

Key widths are ``Θ(log n)`` bits; both parties construct builders from the
same public coins so keys agree without communication.

:class:`PrefixKeyBuilder` is the *single* EMD key stream: its rolling hash
runs over the Mersenne-61 field, evaluated in closed form by
:meth:`~repro.hashing.PrefixHasher.prefix_digests_many`, and every caller
(:class:`~repro.core.emd_protocol.EMDProtocol`, its interval-scaled
wrapper, experiments, benchmarks) keys all resolution levels through it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..hashing import PrefixHasher, PublicCoins, VectorHash
from ..hashing.mersenne import add_mod_p, fold_bits, row_products, sum_mod_p
from ..metric.spaces import Point
from .base import LSHBatch

__all__ = ["PrefixKeyBuilder", "BatchKeyBuilder", "key_bits_for"]


def key_bits_for(n: int, slack_bits: int = 20) -> int:
    """``Θ(log n)`` key width with enough slack to avoid collisions w.h.p.

    With ``B = 2·log2(n) + slack_bits`` bits, the expected number of
    colliding pairs among ``O(n)`` keys is ``O(2^{-slack_bits})``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return min(61, max(16, 2 * math.ceil(math.log2(max(n, 2))) + slack_bits))


class PrefixKeyBuilder:
    """Multi-resolution keys for Algorithm 1.

    Parameters
    ----------
    batch:
        The ``s_max`` sampled MLSH functions (``s_max = c_t``, the largest
        prefix any level needs).
    prefix_lengths:
        ``c_1 <= c_2 <= ... <= c_t``: how many MLSH values each level hashes.
    coins, label:
        Shared randomness for the compressing hash.
    key_bits:
        Output key width (``Θ(log n)``).
    """

    def __init__(
        self,
        batch: LSHBatch,
        prefix_lengths: Sequence[int],
        coins: PublicCoins,
        label: object,
        key_bits: int,
    ):
        if not prefix_lengths:
            raise ValueError("at least one prefix length is required")
        lengths = [int(length) for length in prefix_lengths]
        if any(length < 1 for length in lengths):
            raise ValueError(f"prefix lengths must be >= 1, got {lengths}")
        if any(b < a for a, b in zip(lengths, lengths[1:])):
            raise ValueError(f"prefix lengths must be non-decreasing, got {lengths}")
        if lengths[-1] > batch.count:
            raise ValueError(
                f"largest prefix {lengths[-1]} exceeds batch size {batch.count}"
            )
        self.batch = batch
        self.prefix_lengths = lengths
        self.levels = len(lengths)
        self.hasher = PrefixHasher(coins, ("prefix-key", label), bits=key_bits)
        self.key_bits = key_bits

    def keys_for(self, points: "Sequence[Point] | np.ndarray") -> np.ndarray:
        """Return the ``(len(points), levels)`` ``uint64`` matrix of level keys.

        Row ``i`` column ``j`` is ``key_{j+1}(points[i])``: the hash of the
        first ``c_{j+1}`` MLSH values of the point.  The whole point set is
        hashed with :meth:`~repro.hashing.PrefixHasher.prefix_digests_many`
        — one broadcast field multiply and one limb-split prefix sum over
        the ``(n, c_t)`` MLSH matrix, then one multiply per level.
        """
        values = self.batch.evaluate(points)  # (n, s_max)
        return self.hasher.prefix_digests_many(values, self.prefix_lengths)


class BatchKeyBuilder:
    """Gap-protocol key vectors (Section 4.1).

    A key is a vector of ``h`` entries; entry ``j`` is a pairwise-independent
    hash of LSH values ``j·m .. (j+1)·m - 1``.  Two *far* points disagree on
    (almost) every entry w.h.p.; two *close* points agree on most entries.
    """

    def __init__(
        self,
        batch: LSHBatch,
        entries: int,
        per_entry: int,
        coins: PublicCoins,
        label: object,
        key_bits: int,
    ):
        if entries < 1 or per_entry < 1:
            raise ValueError(
                f"entries and per_entry must be >= 1, got {entries}, {per_entry}"
            )
        if entries * per_entry != batch.count:
            raise ValueError(
                f"batch has {batch.count} functions, need entries*per_entry = "
                f"{entries * per_entry}"
            )
        self.batch = batch
        self.entries = entries
        self.per_entry = per_entry
        self.key_bits = key_bits
        self.entry_hashes = [
            VectorHash(coins, ("batch-key", label, j), arity=per_entry, bits=key_bits)
            for j in range(entries)
        ]
        # Entry j's coefficients sit over columns j·m .. (j+1)·m - 1.
        self._coeffs = np.concatenate([h.coeff_row for h in self.entry_hashes])
        self._offsets = np.array([h.b for h in self.entry_hashes], dtype=np.uint64)

    def key_matrix_for(self, points: "Sequence[Point] | np.ndarray") -> np.ndarray:
        """The ``(len(points), entries)`` ``uint64`` matrix of key vectors.

        Column ``j`` equals ``entry_hashes[j].hash_rows`` over LSH values
        ``j·m .. (j+1)·m - 1``, computed for every entry at once: one
        blockwise field multiply of the ``(n, h·m)`` value matrix by the
        stacked entry coefficients
        (:func:`~repro.hashing.mersenne.row_products`), then an exact
        limb-split sum over each entry's ``m`` columns.
        """
        values = self.batch.evaluate(points)  # (n, h*m)
        sums = np.empty((len(values), self.entries), dtype=np.uint64)
        for rows, products in row_products(values, self._coeffs):
            sums[rows] = sum_mod_p(products.reshape(len(products), self.entries, self.per_entry))
        return fold_bits(add_mod_p(sums, self._offsets), self.key_bits)

    def keys_for(self, points: Sequence[Point]) -> list[tuple[int, ...]]:
        """Return one ``h``-entry key vector per point (tuple view)."""
        return [tuple(row) for row in self.key_matrix_for(points).tolist()]

    @staticmethod
    def matches(key_a: Sequence[int], key_b: Sequence[int]) -> int:
        """Number of agreeing entries between two key vectors."""
        if len(key_a) != len(key_b):
            raise ValueError("key vectors must have equal length")
        return sum(a == b for a, b in zip(key_a, key_b))

    @staticmethod
    def best_matches(keys: np.ndarray, candidates: np.ndarray, chunk: int = 256) -> np.ndarray:
        """For each row of ``keys``, the max :meth:`matches` over ``candidates``.

        Vectorised pairwise entry comparison, chunked over the key rows to
        bound the ``chunk × len(candidates) × entries`` broadcast buffer.
        Returns zeros when there are no candidates.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        candidates = np.asarray(candidates, dtype=np.uint64)
        if keys.ndim != 2 or candidates.ndim != 2 or (
            candidates.size and candidates.shape[1] != keys.shape[1]
        ):
            raise ValueError(
                f"key matrices disagree: {keys.shape} vs {candidates.shape}"
            )
        best = np.zeros(keys.shape[0], dtype=np.int64)
        if not candidates.size or not keys.size:
            return best
        for start in range(0, keys.shape[0], chunk):
            block = keys[start : start + chunk]
            agreement = (block[:, None, :] == candidates[None, :, :]).sum(axis=2)
            best[start : start + block.shape[0]] = agreement.max(axis=1)
        return best
