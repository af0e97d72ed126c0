"""Robust Invertible Bloom Lookup Tables (Section 2.2 of the paper).

The RIBLT is the paper's main data-structure contribution.  It differs
from a classic IBLT in five ways (numbered as in the paper):

1. Peeling is *breadth-first* (FIFO): a cell that became peelable earlier
   is peeled earlier.  The error-propagation analysis (Lemma 3.10) depends
   on this order.
2. The table is *sparser*: callers size it so the load ``c = pairs/m``
   satisfies ``c < 1/(q(q-1))``, making the underlying hypergraph all trees
   and unicyclic components w.h.p. (Lemma B.3).
3. Cells hold a *sum* of keys (not an XOR) so duplicate keys can be
   recognised and so insert/delete are exact inverses over the integers.
4. Cells hold a *sum* of values: a ``d``-vector of integers in
   ``{-nΔ, ..., nΔ}``.  The table keeps them as one ``(m, d)`` matrix,
   ``int64`` while a tracked bound (``Σ max|coordinate|·n`` over every
   update) stays below ``2^62``, and ``object`` (exact Python ints) past
   it, so the paper's widened cell representation stays exact; the
   serializer accounts for the extra ``O(d log(nΔ))`` bits per cell.
5. A cell containing ``C`` copies of the *same* key is recognised by
   divisibility plus the checksum test ``checksum(K/C)·C == S`` and peeled
   in one step: each extracted pair's value is the clamped average ``V/C``
   with independent randomized rounding of fractional coordinates.

Because two *different* points with the same key don't cancel exactly,
peeling leaves residual "error" in the value sums which is swept along to
later extractions -- exactly the propagation of Figure 1 that Lemma 3.10
bounds.  The ``decode`` here implements those semantics faithfully:
peeling a cell subtracts the *entire cell snapshot* (count, key sum,
checksum sum, value sum) from every cell the key hashes to.

Items 1, 3 and 5 are :class:`~repro.iblt.iblt.SumCellTable`'s, shared
with the counting IBLT; this module adds the value columns (item 4) and
value extraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..hashing import PublicCoins, exact_int
from ..metric.spaces import Point
from .backend import MAX_NUMPY_KEY_BITS
from .iblt import SumCellTable, check_key, coerce_key_array, key_list

__all__ = ["RIBLT", "RIBLTDecodeResult", "riblt_cells_for_pairs"]

#: Value bound at which the value matrix leaves ``int64``: below it
#: every cell, and every batch's ``int64`` delta accumulator, is exact.
_VALUE_LIMIT = 1 << 62


def riblt_cells_for_pairs(pairs: int, q: int = 3) -> int:
    """Paper sizing: ``m = 4·q²·k`` cells for up to ``4k`` decoded pairs.

    Algorithm 1 uses ``m = 4q²k`` and accepts decodes of at most ``4k``
    pairs, giving load ``c <= 4k / (4q²k) = 1/q² < 1/(q(q-1))`` as item 2
    requires.  ``pairs`` here is the *acceptance cap* (``4k``), so
    ``m = q² · pairs``.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    if q < 3:
        raise ValueError(f"RIBLT requires q >= 3, got {q}")
    return q * q * pairs


@dataclass
class RIBLTDecodeResult:
    """Signed key-value pairs recovered from a subtracted RIBLT.

    ``inserted`` holds pairs contributed (net) by the inserting party
    (Alice in Algorithm 1); ``deleted`` pairs by the deleting party (Bob).
    Values are points of the space and may carry accumulated error relative
    to what was originally inserted -- that is the point of the analysis.
    """

    success: bool
    inserted: list[tuple[int, Point]] = field(default_factory=list)
    deleted: list[tuple[int, Point]] = field(default_factory=list)
    #: Cells peeled (one per pure cell, whatever its copy count); not the
    #: number of breadth-first rounds.
    peel_rounds: int = 0

    @property
    def pair_count(self) -> int:
        return len(self.inserted) + len(self.deleted)


class RIBLT(SumCellTable):
    """A robust IBLT over (key, point-value) pairs.

    Parameters
    ----------
    coins, label:
        Shared randomness; Alice's and Bob's tables must agree structurally.
    cells:
        Total cell count ``m`` (rounded up to a multiple of ``q``).
    q:
        Hash-function count; the paper requires ``q >= 3`` for the sparse
        hypergraph regime.
    key_bits:
        Key width; keys lie in ``[0, 2^key_bits)``.
    dim:
        Value dimension ``d``.
    side:
        Per-coordinate range ``Δ``: extracted values are clamped into
        ``[0, side-1]``.
    """

    _TAG = "riblt"
    # ``value_sum`` is the ``(m, dim)`` value matrix, outside ``_CELLS``:
    # :meth:`copy` and :meth:`subtract` handle it themselves.
    # ``_value_bound`` bounds every value the matrix has held, so while it
    # is below ``_VALUE_LIMIT`` the ``int64`` matrix is exact.
    _SHAPE = SumCellTable._SHAPE + ("dim", "side")

    def __init__(
        self,
        coins: PublicCoins,
        label: object,
        cells: int,
        q: int,
        key_bits: int,
        dim: int,
        side: int,
    ):
        if q < 3:
            raise ValueError(f"RIBLT requires q >= 3, got {q}")
        self.dim = dim
        self.side = side
        super().__init__(coins, label, cells, q, key_bits)

    def _alloc_cells(self) -> None:
        super()._alloc_cells()
        self.value_sum = np.zeros((self.m, self.dim), dtype=np.int64)
        self._value_bound = 0

    def _grow_bound(self, amount: int) -> None:
        """Raise the value bound by ``amount``; once it reaches
        ``_VALUE_LIMIT`` the matrix is ``object`` (exact Python ints)."""
        self._value_bound += amount
        if self._value_bound >= _VALUE_LIMIT and self.value_sum.dtype != object:
            self.value_sum = self.value_sum.astype(object)

    def _set_values(self, values: "np.ndarray | list[list[int]]") -> None:
        """Adopt an ``(m, dim)`` integer matrix (or its rows as lists) as
        the cell values; the bound restarts at its largest magnitude."""
        try:
            values = np.asarray(values, dtype=np.int64)
        except OverflowError:
            values = np.asarray(values, dtype=object)
        self.value_sum = values.reshape(self.m, self.dim)
        self._value_bound = 0
        if values.size:
            self._grow_bound(max(int(values.max()), -int(values.min())))

    def _check_pair(self, key: int, value: Point) -> tuple[int, tuple[int, ...]]:
        key = check_key(key, self.key_bits)
        value = tuple(exact_int(v) for v in value)
        if len(value) != self.dim:
            raise ValueError(f"value has dimension {len(value)}, expected {self.dim}")
        return key, value

    # -- updates -----------------------------------------------------------
    def insert(self, key: int, value: Point) -> None:
        """Add a key-value pair (Alice's operation in Algorithm 1)."""
        self._update(key, value, +1)

    def delete(self, key: int, value: Point) -> None:
        """Subtract a key-value pair (Bob's operation)."""
        self._update(key, value, -1)

    def _update(self, key: int, value: Point, sign: int) -> None:
        key, value = self._check_pair(key, value)
        self._grow_bound(max(map(abs, value), default=0))
        cells = self._add_key(key, sign)
        self.value_sum[cells] += np.array([sign * v for v in value], dtype=self.value_sum.dtype)

    def insert_batch(
        self, keys: "np.ndarray | Iterable[int]", values: "np.ndarray | Sequence[Point]"
    ) -> None:
        """Add a batch of pairs: any key sequence, ``(n, dim)`` integer values.

        The whole batch is validated before any cell changes; the result
        is bit-identical to an :meth:`insert` loop over the same pairs.
        """
        self._update_batch(keys, values, +1)

    def delete_batch(
        self, keys: "np.ndarray | Iterable[int]", values: "np.ndarray | Sequence[Point]"
    ) -> None:
        """Subtract a batch of pairs (same inputs as :meth:`insert_batch`)."""
        self._update_batch(keys, values, -1)

    def _update_batch(
        self,
        keys: "np.ndarray | Iterable[int]",
        values: "np.ndarray | Sequence[Point]",
        sign: int,
    ) -> None:
        """Batched update without per-pair Python tuples on the hot path.

        ``keys`` is any key sequence (e.g. one ``uint64`` column of
        :meth:`~repro.lsh.keys.PrefixKeyBuilder.keys_for`), validated like
        every other table's batch keys; ``values`` an ``(n, dim)`` integer
        matrix of point coordinates.  Keys within
        :data:`~repro.iblt.backend.MAX_NUMPY_KEY_BITS` take the vector
        route: checksums and cell indices come from the vectorised
        Mersenne hashes, and the per-cell deltas are accumulated with
        ``np.add.at`` — keys and checksums split into 32-bit limbs so
        every int64 accumulator stays exact.  The value lanes join the
        value matrix in one array addition; the count, key and checksum
        lanes merge into the unbounded Python-int cell sums once per
        *touched cell* instead of once per pair.  Wider keys, and batches
        whose int64 accumulators could overflow, go through
        :meth:`_update` pair by pair.
        """
        vector = self.key_bits <= MAX_NUMPY_KEY_BITS
        if vector:
            keys = coerce_key_array(keys, self.key_bits)
        else:
            keys = key_list(keys, self.key_bits)
        values = np.asarray(values)
        if values.shape != (len(keys), self.dim):
            raise ValueError(
                f"values must have shape {(len(keys), self.dim)}, got {values.shape}"
            )
        if values.dtype.kind not in ("i", "u", "O"):
            raise ValueError(f"expected integer values, got dtype {values.dtype}")
        if values.dtype.kind == "O":
            for value in values.ravel().tolist():
                exact_int(value)
        if not len(keys):
            return
        max_coordinate = max(int(values.max()), -int(values.min())) if values.size else 0
        if not vector or len(keys) >= (1 << 31) or max_coordinate * len(keys) >= (1 << 62):
            # Too wide for uint64 hashing, or int64 delta accumulators
            # could overflow: stay exact per pair.
            for key, value in zip(keys.tolist() if vector else keys, values.tolist()):
                self._update(key, value, sign)
            return
        self._grow_bound(max_coordinate * len(keys))
        values = np.ascontiguousarray(values, dtype=np.int64)
        checks = self.checksum.hash_array(keys)
        indices = self.cell_index_matrix(keys)  # (q, n)
        low_mask = np.uint64(0xFFFFFFFF)
        shift = np.uint64(32)
        # One flat int64 accumulator holding `lanes` slots per cell (4
        # key/checksum limbs + dim value coordinates), so every scatter
        # is a single fast-path 1-d np.add.at — a 2-d `.at` on the value
        # matrix falls off numpy's unbuffered fast path and dominated
        # this function's profile.
        lanes = 4 + self.dim
        lane_values = np.concatenate(
            [
                (keys & low_mask).astype(np.int64)[None, :],
                (keys >> shift).astype(np.int64)[None, :],
                (checks & low_mask).astype(np.int64)[None, :],
                (checks >> shift).astype(np.int64)[None, :],
                values.T,
            ],
            axis=0,
        )  # (lanes, n)
        lane_offsets = np.arange(lanes, dtype=np.int64)[:, None]
        delta = np.zeros(self.m * lanes, dtype=np.int64)
        for j in range(self.q):
            flat = (indices[j] * lanes)[None, :] + lane_offsets
            np.add.at(delta, flat.ravel(), lane_values.ravel())
        delta = delta.reshape(self.m, lanes)
        value_delta = delta[:, 4:] if sign > 0 else -delta[:, 4:]
        self.value_sum += value_delta.astype(self.value_sum.dtype, copy=False)
        count_delta = np.bincount(indices.reshape(-1), minlength=self.m)
        touched = np.flatnonzero(count_delta)
        # Merge once per touched cell, through plain Python lists — the
        # limb recombination shifts must run on Python ints (a cell's
        # int64 lane sums can exceed 2^31 in the high limb, and the
        # unbounded cell sums are exact by contract), and list indexing
        # beats ndarray scalar extraction several-fold in this loop.
        counts, key_sum, check_sum = self.counts, self.key_sum, self.check_sum
        count_list = count_delta[touched].tolist()
        lane_rows = delta[touched, :4].tolist()
        for position, index in enumerate(touched.tolist()):
            row = lane_rows[position]
            counts[index] += sign * count_list[position]
            key_sum[index] += sign * (row[0] + (row[1] << 32))
            check_sum[index] += sign * (row[2] + (row[3] << 32))

    # -- combination ---------------------------------------------------------
    def subtract(self, other: "RIBLT") -> "RIBLT":
        """Cell-wise ``self - other`` for two structurally identical tables."""
        result = self._difference(other)
        result._grow_bound(self._value_bound + other._value_bound)
        dtype = result.value_sum.dtype
        result.value_sum = self.value_sum.astype(dtype, copy=False) - other.value_sum.astype(
            dtype, copy=False
        )
        return result

    def copy(self) -> "RIBLT":
        clone = super().copy()
        clone.value_sum = self.value_sum.copy()
        return clone

    def to_payload(self) -> tuple[bytes, int]:
        """Serialize this sketch; returns ``(payload, exact_bit_count)``.

        Part of the uniform sketch wire surface shared with
        :meth:`IBLT.to_payload <repro.iblt.iblt.IBLT.to_payload>`.
        """
        from ..protocol.tables import riblt_payload

        return riblt_payload(self)

    def from_payload(self, payload: bytes) -> "RIBLT":
        """Load a :meth:`to_payload` buffer into this (empty) shell.

        The payload is untrusted; damage raises the typed
        :class:`~repro.errors.DecodeError` hierarchy.
        """
        from ..protocol.serialize import BitReader
        from ..protocol.tables import read_riblt_cells

        return read_riblt_cells(BitReader(payload), self)

    # -- extraction helpers ----------------------------------------------------
    def _extract_values(
        self, value_total: Sequence[int], copies: int, rng: random.Random
    ) -> list[Point]:
        """Materialise ``copies`` values from a value sum (item 5 semantics).

        Each coordinate of ``value_total / copies`` is clamped into
        ``[0, side-1]`` and fractional coordinates are independently
        randomly rounded, once per extracted copy, with probability equal
        to the fractional remainder of rounding up.
        """
        top = self.side - 1
        points: list[Point] = []
        for _ in range(copies):
            coordinates: list[int] = []
            for total in value_total:
                if total <= 0:
                    coordinates.append(0)
                    continue
                if total >= top * copies:
                    coordinates.append(top)
                    continue
                floor_value, remainder = divmod(total, copies)
                if remainder and rng.random() < remainder / copies:
                    floor_value += 1
                coordinates.append(floor_value)
            points.append(tuple(coordinates))
        return points

    # -- decoding ------------------------------------------------------------
    def decode(self, rng: random.Random | None = None) -> RIBLTDecodeResult:
        """Breadth-first peeling of the (subtracted) table.

        Destructive.  ``rng`` drives the randomized rounding of averaged
        values (the decoder's private randomness; defaults to a fixed
        seed for reproducibility).

        The peel is :meth:`SumCellTable._peel
        <repro.iblt.iblt.SumCellTable._peel>` (item 1's FIFO order) through
        the shared :class:`~repro.iblt.frontier.KeyHashCache`, whose values
        are pure functions of the key, so the peel sequence is the one
        :class:`~repro.iblt.frontier.ScalarHashes` gives; tests pin this.
        Each peeled cell yields ``|count|`` pairs whose values are
        extracted from its value sum, and its value snapshot is then
        subtracted from the key's cells along with its count, key and
        checksum snapshot (Figure 1's error propagation).

        ``success`` requires every cell to end with zero count, key sum and
        checksum sum; *value* residue may remain -- that is the error the
        protocol's analysis charges to the in-bucket matching.
        """
        if rng is None:
            rng = random.Random(0x5EED)
        result = RIBLTDecodeResult(success=False)
        # Peel on exact Python ints: a snapshot subtraction can push a
        # value past any bound the matrix tracked.
        value_sum = self.value_sum.tolist()

        def on_peel(index: int, key: int, cells: list[int]) -> None:
            result.peel_rounds += 1
            count = self.counts[index]
            sign = 1 if count > 0 else -1
            snapshot = value_sum[index]
            # Normalise sums to the positive orientation for extraction.
            value_total = [sign * coordinate for coordinate in snapshot]
            values = self._extract_values(value_total, abs(count), rng)
            target = result.inserted if sign > 0 else result.deleted
            target.extend((key, value) for value in values)
            for cell in cells:  # new lists, so ``snapshot`` stays intact
                value_sum[cell] = [a - b for a, b in zip(value_sum[cell], snapshot)]

        result.success = self._peel(self._hash_cache, on_peel)
        if result.peel_rounds:
            self._set_values(value_sum)
        return result

    # -- introspection ---------------------------------------------------------
    def residual_value_mass(self) -> int:
        """Total absolute value residue left in cells (post-decode noise)."""
        return sum(abs(coordinate) for coordinate in self.value_sum.ravel().tolist())
