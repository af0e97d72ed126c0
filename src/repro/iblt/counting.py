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

Backends: cell *sums* here are unbounded integers (a pre-subtraction cell
accumulates ``Θ(n·q/m)`` 61-bit items), so unlike the XOR-based
:class:`~repro.iblt.iblt.IBLT` they cannot live in fixed-width numpy
arrays without overflow.  The ``"numpy"`` backend therefore keeps exact
Python-int cells but batch-computes the expensive part — cell indices and
checksums — with the vectorised Mersenne hashes, which is where nearly
all of the insert cost goes; decode likewise batch-primes a shared
:class:`~repro.iblt.frontier.KeyHashCache` over the seeding scan while
preserving the exact FIFO peel sequence.  Both backends are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..hashing import PublicCoins
from .backend import resolve_backend
from .frontier import KeyHashCache, PeelQueue, divisible_key, seed_sum_cell_queue
from .iblt import CellTable, check_key, coerce_key_array, key_list

__all__ = ["MultisetIBLT", "MultisetDecodeResult"]


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


class MultisetIBLT(CellTable):
    """A sum-cell IBLT over integer keys with multiplicities."""

    _TAG = "mset"
    _CELLS = ("counts", "key_sum", "check_sum")

    def __init__(
        self,
        coins: PublicCoins,
        label: object,
        cells: int,
        q: int = 3,
        key_bits: int = 61,
        backend: str | None = None,
    ):
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        self.backend = resolve_backend(backend, key_bits)
        super().__init__(coins, label, cells, q, key_bits)

    def _alloc_cells(self) -> None:
        self.counts = [0] * self.m
        self.key_sum = [0] * self.m
        self.check_sum = [0] * self.m

    def insert(self, key: int, multiplicity: int = 1) -> None:
        self._update(key, multiplicity)

    def delete(self, key: int, multiplicity: int = 1) -> None:
        self._update(key, -multiplicity)

    def _update(self, key: int, signed_multiplicity: int) -> None:
        key = check_key(key, self.key_bits)
        if signed_multiplicity == 0:
            return
        check = self.checksum(key)
        for index in self.cell_indices(key):
            self.counts[index] += signed_multiplicity
            self.key_sum[index] += signed_multiplicity * key
            self.check_sum[index] += signed_multiplicity * check

    def insert_batch(
        self,
        keys: "np.ndarray | Iterable[int]",
        multiplicities: np.ndarray | int = 1,
    ) -> None:
        """Insert a batch of keys (any ndarray or iterable of ints) with
        per-key (or scalar) multiplicities.

        The whole batch is validated before any cell changes.  On the
        numpy backend the cell indices and checksums — the dominant
        insert cost — are computed in one vectorised pass; the unbounded
        cell sums are then updated exactly.
        """
        self._update_batch(keys, multiplicities, +1)

    def delete_batch(
        self,
        keys: "np.ndarray | Iterable[int]",
        multiplicities: np.ndarray | int = 1,
    ) -> None:
        """Delete a batch of keys with per-key (or scalar) multiplicities."""
        self._update_batch(keys, multiplicities, -1)

    insert_all = insert_batch
    delete_all = delete_batch

    def _update_batch(
        self,
        keys: "np.ndarray | Iterable[int]",
        multiplicities: np.ndarray | int,
        sign: int,
    ) -> None:
        if self.backend != "numpy":
            # Keys stay Python ints, so widths beyond uint64 remain exact.
            keys = key_list(keys, self.key_bits)
            mult_list = np.broadcast_to(
                np.asarray(multiplicities, dtype=np.int64), (len(keys),)
            ).tolist()
            for key, mult in zip(keys, mult_list):
                self._update(key, sign * mult)
            return
        keys = coerce_key_array(keys, self.key_bits)
        if keys.size == 0:
            return
        mults = np.broadcast_to(
            np.asarray(multiplicities, dtype=np.int64), keys.shape
        )
        checks = self.checksum.hash_array(keys)
        indices = self.cell_index_matrix(keys)
        key_values = keys.tolist()
        check_list = checks.tolist()
        mult_list = (sign * mults).tolist()
        counts, key_sum, check_sum = self.counts, self.key_sum, self.check_sum
        for j in range(self.q):
            for index, key, check, mult in zip(
                indices[j].tolist(), key_values, check_list, mult_list
            ):
                counts[index] += mult
                key_sum[index] += mult * key
                check_sum[index] += mult * check

    def subtract(self, other: "MultisetIBLT") -> "MultisetIBLT":
        self._check_compatible(other)
        result = self._empty_clone()
        for index in range(self.m):
            result.counts[index] = self.counts[index] - other.counts[index]
            result.key_sum[index] = self.key_sum[index] - other.key_sum[index]
            result.check_sum[index] = self.check_sum[index] - other.check_sum[index]
        return result

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

    def _pure_key(self, index: int, cache: KeyHashCache | None = None) -> int | None:
        key = divisible_key(self.counts[index], self.key_sum[index], 1 << self.key_bits)
        if key is None:
            return None
        check = self.checksum(key) if cache is None else cache.check(key)
        if check * self.counts[index] != self.check_sum[index]:
            return None
        return key

    def decode(self) -> MultisetDecodeResult:
        """Breadth-first peel; destructive.

        The candidate frontier is seeded with one pure scan; afterwards
        only the cells a peel touches can change purity, so only those
        are pushed (see :mod:`repro.iblt.frontier`).  The numpy backend
        batch-primes the shared hash cache; the python backend hashes
        scalar-per-step as the reference.  Both run the same FIFO peel
        and produce bit-identical results.
        """
        result = MultisetDecodeResult(success=False)
        cache = self._hash_cache if self.backend == "numpy" else None
        queue = PeelQueue(self.m, fifo=True)
        seed_sum_cell_queue(
            self.counts, self.key_sum, self.check_sum, self.key_bits,
            queue, cache, self.checksum,
        )
        while queue:
            index = queue.pop()
            key = self._pure_key(index, cache)
            if key is None:
                continue
            count = self.counts[index]
            result.multiplicities[key] = result.multiplicities.get(key, 0) + count
            if result.multiplicities[key] == 0:
                del result.multiplicities[key]
            # Remove all `count` copies and test each neighbour in one
            # pass (each of the q partitioned cells is distinct, so a
            # neighbour's purity only depends on its own, already
            # subtracted, state — identical to updating all cells first).
            check = self.checksum(key) if cache is None else cache.check(key)
            neighbors = (
                self.cell_indices(key) if cache is None else cache.indices(key)
            )
            key_delta = count * key
            check_delta = count * check
            for neighbor in neighbors:
                self.counts[neighbor] -= count
                self.key_sum[neighbor] -= key_delta
                self.check_sum[neighbor] -= check_delta
                if (
                    not queue.pending(neighbor)
                    and self._pure_key(neighbor, cache) is not None
                ):
                    queue.push(neighbor)
        result.success = self.is_empty() and all(
            check == 0 for check in self.check_sum
        )
        return result
