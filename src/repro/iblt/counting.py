"""Counting (multiset) IBLT: sum-based cells without values.

The sets-of-sets reconciliation behind the Gap protocol needs to reconcile
*multisets* of key entries: the same (vector-index, hash-value) pair can
occur in many keys, and cancellation must respect multiplicity.  XOR-based
IBLTs cannot represent multiplicity, so this table uses the RIBLT's
sum-cell idea (Section 2.2 items 3 and 5) restricted to keys: a cell with
count ``C`` whose key sum is ``C`` times a single key -- verified via the
checksum -- peels all ``C`` copies at once.

Decoding returns *signed multiplicities*: positive for net insertions,
negative for net deletions, which is exactly the view a subtracted table
of two multisets gives.

The cells, their update, subtraction, purity test and FIFO peel are
:class:`~repro.iblt.iblt.SumCellTable`'s, shared with the RIBLT; this
module adds the multiplicity bookkeeping.  Multiplicities follow the key
rule: exact integers within int64, else ``ValueError`` (floats and bools
are rejected, never truncated), checked for a whole batch before any
cell changes.

No backend: cell *sums* here are unbounded integers (a pre-subtraction
cell accumulates ``Θ(n·q/m)`` 61-bit items), so unlike the XOR-based
:class:`~repro.iblt.iblt.IBLT` they are exact Python ints, as in the
:class:`~repro.iblt.riblt.RIBLT`.  Batch ingest computes cell indices
and checksums — nearly all of the insert cost — with the vectorised
Mersenne hashes when ``key_bits <= MAX_NUMPY_KEY_BITS`` and adds wider
keys one at a time.  Decode peels through the shared
:class:`~repro.iblt.frontier.KeyHashCache`, batch-primed by the seeding
scan; the tests pin it against :class:`~repro.iblt.frontier.ScalarHashes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..hashing import PublicCoins, check_integers, exact_int
from .backend import MAX_NUMPY_KEY_BITS
from .iblt import SumCellTable, check_key, coerce_key_array, key_list

__all__ = ["MultisetIBLT", "MultisetDecodeResult"]

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _check_multiplicity(multiplicity: object) -> int:
    """One multiplicity through :func:`exact_int` and the int64 range."""
    multiplicity = exact_int(multiplicity)
    if not _INT64_MIN <= multiplicity <= _INT64_MAX:
        raise ValueError(f"multiplicity {multiplicity} outside int64")
    return multiplicity


def _multiplicity_array(
    multiplicities: "np.ndarray | Iterable[int] | int", size: int
) -> np.ndarray:
    """Validate per-key (or one shared) multiplicities into ``size`` int64s.

    The batch twin of :func:`_check_multiplicity`: an integer ndarray
    (dtype kind ``i``, ``u`` or ``O``), a sequence of ints or one int.
    Floats and bools raise ``ValueError`` instead of being truncated, and
    so does a value outside int64 or a length other than ``size``.
    """
    if not (isinstance(multiplicities, np.ndarray) and multiplicities.dtype.kind in ("i", "u")):
        # ``object`` keeps each element's type, so a bool or float is
        # rejected here rather than folded into an integer array.
        multiplicities = np.asarray(multiplicities, dtype=object)
        check_integers(multiplicities.ravel().tolist())
    if multiplicities.size:
        for bound in (multiplicities.min(), multiplicities.max()):
            _check_multiplicity(int(bound))
    return np.broadcast_to(multiplicities.astype(np.int64, copy=False), (size,))


@dataclass
class MultisetDecodeResult:
    """Signed multiplicities recovered from a subtracted multiset table."""

    success: bool
    #: key -> net signed multiplicity (never zero).
    multiplicities: dict[int, int] = field(default_factory=dict)

    @property
    def positive(self) -> dict[int, int]:
        """Keys with net positive multiplicity (inserting side's surplus)."""
        return {k: c for k, c in self.multiplicities.items() if c > 0}

    @property
    def negative(self) -> dict[int, int]:
        """Keys with net negative multiplicity, as positive counts."""
        return {k: -c for k, c in self.multiplicities.items() if c < 0}

    @property
    def total_difference(self) -> int:
        return sum(abs(c) for c in self.multiplicities.values())


class MultisetIBLT(SumCellTable):
    """A sum-cell IBLT over integer keys with multiplicities."""

    _TAG = "mset"

    def __init__(
        self,
        coins: PublicCoins,
        label: object,
        cells: int,
        q: int = 3,
        key_bits: int = 61,
    ):
        super().__init__(coins, label, cells, q, key_bits)

    def insert(self, key: int, multiplicity: int = 1) -> None:
        self._update(key, _check_multiplicity(multiplicity))

    def delete(self, key: int, multiplicity: int = 1) -> None:
        self._update(key, -_check_multiplicity(multiplicity))

    def _update(self, key: int, signed_multiplicity: int) -> None:
        key = check_key(key, self.key_bits)
        if signed_multiplicity:
            self._add_key(key, signed_multiplicity)

    def insert_batch(
        self,
        keys: "np.ndarray | Iterable[int]",
        multiplicities: np.ndarray | int = 1,
    ) -> None:
        """Insert a batch of keys (any ndarray or iterable of ints) with
        per-key (or scalar) multiplicities.

        The whole batch is validated before any cell changes.  Keys of
        at most ``MAX_NUMPY_KEY_BITS`` bits get their cell indices and
        checksums in one vectorised pass; the cell sums stay exact.
        """
        self._update_batch(keys, multiplicities, +1)

    def delete_batch(
        self,
        keys: "np.ndarray | Iterable[int]",
        multiplicities: np.ndarray | int = 1,
    ) -> None:
        """Delete a batch of keys with per-key (or scalar) multiplicities."""
        self._update_batch(keys, multiplicities, -1)

    # Kept only because e2ebench/tracer.py wraps these names.
    insert_all = insert_batch
    delete_all = delete_batch

    def _update_batch(
        self,
        keys: "np.ndarray | Iterable[int]",
        multiplicities: np.ndarray | int,
        sign: int,
    ) -> None:
        if self.key_bits > MAX_NUMPY_KEY_BITS:
            # Keys stay Python ints, so widths beyond uint64 remain exact.
            keys = key_list(keys, self.key_bits)
            mults = _multiplicity_array(multiplicities, len(keys)).tolist()
            for key, mult in zip(keys, mults):
                self._update(key, sign * mult)
            return
        keys = coerce_key_array(keys, self.key_bits)
        mults = _multiplicity_array(multiplicities, keys.size)
        if keys.size == 0:
            return
        checks = self.checksum.hash_array(keys)
        indices = self.cell_index_matrix(keys)
        key_values = keys.tolist()
        check_list = checks.tolist()
        mult_list = [sign * mult for mult in mults.tolist()]
        counts, key_sum, check_sum = self.counts, self.key_sum, self.check_sum
        for j in range(self.q):
            for index, key, check, mult in zip(
                indices[j].tolist(), key_values, check_list, mult_list
            ):
                counts[index] += mult
                key_sum[index] += mult * key
                check_sum[index] += mult * check

    def subtract(self, other: "MultisetIBLT") -> "MultisetIBLT":
        """Cell-wise ``self - other`` for two structurally identical tables."""
        return self._difference(other)

    def to_payload(self) -> tuple[bytes, int]:
        """Serialize this sketch; returns ``(payload, exact_bit_count)``.

        Part of the uniform sketch wire surface shared with
        :meth:`IBLT.to_payload <repro.iblt.iblt.IBLT.to_payload>`.
        """
        from ..protocol.tables import multiset_payload

        return multiset_payload(self)

    def from_payload(self, payload: bytes) -> "MultisetIBLT":
        """Load a :meth:`to_payload` buffer into this (empty) shell.

        The payload is untrusted; damage raises the typed
        :class:`~repro.errors.DecodeError` hierarchy.
        """
        from ..protocol.serialize import BitReader
        from ..protocol.tables import read_multiset_cells

        return read_multiset_cells(BitReader(payload), self)

    def decode(self) -> MultisetDecodeResult:
        """Breadth-first peel (:meth:`SumCellTable._peel
        <repro.iblt.iblt.SumCellTable._peel>`); destructive.

        Each peeled cell adds its count to its key's signed multiplicity.
        Hashes come from the shared hash cache.
        """
        result = MultisetDecodeResult(success=False)
        multiplicities = result.multiplicities

        def on_peel(index: int, key: int, cells: list[int]) -> None:
            total = multiplicities.get(key, 0) + self.counts[index]
            if total:
                multiplicities[key] = total
            else:
                del multiplicities[key]

        result.success = self._peel(self._hash_cache, on_peel)
        return result
