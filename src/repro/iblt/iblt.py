"""Classic Invertible Bloom Lookup Tables (Goodrich & Mitzenmacher [13]).

An IBLT stores keys in ``m`` cells using ``q`` hash functions; each cell
keeps a signed count, an XOR of the keys hashed to it, and an XOR of their
checksums.  Insertions and deletions are symmetric, so the table of
``S_B`` minus the table of ``S_A`` contains exactly the symmetric
difference, which a peeling process recovers in ``O(m)`` time whenever the
number of differences is below ``c·m`` for a constant ``c`` (Theorem 2.6).

This is the standard-set-reconciliation workhorse the paper builds on; the
robust variant for noisy values lives in :mod:`repro.iblt.riblt`.  All
three tables share one cell geometry, :class:`CellTable`; the two sum-cell
tables (:class:`~repro.iblt.counting.MultisetIBLT` and
:class:`~repro.iblt.riblt.RIBLT`) also share one update, subtraction,
purity test and FIFO peel, :class:`SumCellTable`.

Two backends are available (see :mod:`repro.iblt.backend`): the default
``"numpy"`` backend keeps ``counts``/``key_xor``/``check_xor`` in flat
arrays and runs inserts and subtraction as vectorised ``uint64``
operations; the ``"python"`` backend is the list-of-int reference path.
Both produce bit-identical tables and, peeling in the same rounds,
return the same decode output in the same order for the same public
coins.

:meth:`IBLT.decode` peels the table in *rounds*: every pure cell of the
current frontier is removed in one round, each distinct key once, in
ascending key order.  All XOR/add cell updates commute, so this recovers
exactly the key set sequential peeling does (the unpeelable 2-core of
the hypergraph is order-independent).  The frontier is tracked
*incrementally*: peeling a key can only change the cells that key
hashes to, so after the one seeding scan each round re-tests purity only
on the cells touched by the previous round — ``O(q)`` cells per peeled
key instead of a full ``m``-cell scan per round.  A cell that stays pure
across a round was itself peeled (its key maps to it), hence touched, so
the candidate set always contains every pure cell of the table.  The
python backend runs every round in scalar arithmetic.  The numpy backend
is *adaptive* (see :mod:`repro.iblt.frontier`): a round over more than
``PEEL_TAIL_THRESHOLD`` candidates is one batched scatter, with touched
cells deduped through a preallocated flag array shared across rounds and
repeated ``decode()`` calls, and a smaller round runs in the same scalar
arithmetic as the python backend — the peel frontier shrinks
geometrically, so the tail of every decode is dominated by fixed numpy
call overhead unless the decoder switches gears.

That argument assumes every cell passing the purity test holds a real
key.  A 61-bit checksum *collision* (a cell whose garbage ``key_xor``
happens to satisfy the checksum test without hashing to that cell) is
peeled once as garbage; the decode still reports ``success=False``.
Under random coins this happens with probability ``~2^-61`` per cell.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

import numpy as np

from ..hashing import Checksum, PairwiseHash, PublicCoins, check_integers, exact_int
from ..hashing.mersenne import affine_mod_p, fold_bits, to_field
from .backend import MAX_NUMPY_KEY_BITS, resolve_backend
from .frontier import (
    PEEL_TAIL_THRESHOLD,
    KeyHashCache,
    PeelQueue,
    PeelScratch,
    ScalarHashes,
    divisible_key,
)

__all__ = [
    "CellTable",
    "IBLT",
    "IBLTDecodeResult",
    "SumCellTable",
    "cells_for_differences",
    "check_key",
    "coerce_key_array",
    "key_list",
    "key_membership",
    "partitioned_cell_indices",
]


_Table = TypeVar("_Table", bound="CellTable")

#: Conservative cells-per-difference ratio; q=3 peeling succeeds w.h.p.
#: below load ~0.81, so 2x headroom keeps the failure probability tiny
#: at the small table sizes experiments use.
DEFAULT_HEADROOM = 2.0


def check_key(key: object, key_bits: int) -> int:
    """One key through :func:`exact_int` and the ``[0, 2^key_bits)`` range."""
    key = exact_int(key)
    if not 0 <= key < (1 << key_bits):
        raise ValueError(f"key {key} outside [0, 2^{key_bits})")
    return key


def key_list(keys: "np.ndarray | Iterable[int]", key_bits: int) -> list[int]:
    """Validate keys into a list of exact Python ints; ``ValueError`` otherwise.

    The python-backend twin of :func:`coerce_key_array`: it takes the same
    inputs — a flat integer (or ``object``) ndarray, or any iterable of
    ints — at every key width, and checks the whole batch up front (the
    :func:`check_key` rules) so a bad key rejects it before any cell
    changes.
    """
    if isinstance(keys, np.ndarray):
        if keys.ndim != 1:
            raise ValueError(f"expected a flat key array, got shape {keys.shape}")
        if keys.dtype.kind not in ("i", "u", "O"):
            raise ValueError(f"expected an integer key array, got dtype {keys.dtype}")
        keys = keys.tolist()
    else:
        keys = list(keys)
    check_integers(keys)
    values = [int(key) for key in keys]
    limit = 1 << key_bits
    for value in values:
        if not 0 <= value < limit:
            raise ValueError(f"key {value} outside [0, 2^{key_bits})")
    return values


def coerce_key_array(keys: "np.ndarray | Iterable[int]", key_bits: int) -> np.ndarray:
    """Validate keys into a flat ``uint64`` array; ``ValueError`` otherwise.

    Accepts integer ndarrays or iterables of ints.  Negative keys and keys
    at or above ``2^key_bits`` raise the same ``ValueError`` the scalar
    insert path raises — batch and scalar inserts must reject identically
    (a silent two's-complement wrap would corrupt the table instead).
    """
    if isinstance(keys, np.ndarray):
        arr = keys
    else:
        items = list(keys)
        check_integers(items)  # before ``np.asarray`` folds a ``True`` into 1
        arr = np.asarray(items)
    if arr.ndim != 1:
        raise ValueError(f"expected a flat key array, got shape {arr.shape}")
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    if arr.dtype.kind == "O":  # oversized Python ints; validate element-wise
        return np.array(key_list(arr, key_bits), dtype=np.uint64)
    if arr.dtype.kind not in ("i", "u"):
        raise ValueError(f"expected an integer key array, got dtype {arr.dtype}")
    if arr.dtype.kind == "i" and int(arr.min()) < 0:
        raise ValueError(f"key {int(arr.min())} outside [0, 2^{key_bits})")
    arr = np.ascontiguousarray(arr, dtype=np.uint64)
    if key_bits < 64 and int(arr.max()) >= (1 << key_bits):
        raise ValueError(f"key {int(arr.max())} outside [0, 2^{key_bits})")
    return arr


def key_membership(keys: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Elementwise ``key in pool`` for key arrays of any width.

    One sort of ``pool`` and one ``searchsorted``: O(n log n) on the
    ``object`` arrays of keys wider than 64 bits too, and without the
    ``numpy.ma`` import ``np.isin`` makes on its first call (2 MB of
    resident memory).
    """
    if not len(pool):
        return np.zeros(np.shape(keys), dtype=bool)
    pool = np.sort(pool)
    return pool[np.minimum(np.searchsorted(pool, keys), len(pool) - 1)] == keys


def partitioned_cell_indices(
    cell_hashes: list[PairwiseHash], block_size: int, keys: np.ndarray
) -> np.ndarray:
    """Vectorised partitioned-table cell indexing: the ``(q, n)`` matrix.

    Hash ``j`` maps each key into the ``j``-th block of ``block_size``
    cells — the shared indexing scheme of every IBLT variant here.  The
    hashes share one output width (every :class:`CellTable` draws them
    at ``bits=61``), so the ``q`` Carter–Wegman evaluations run as one
    broadcast ``(q, n)`` affine pass, which matters for the decoder where
    ``n`` is a small peel frontier and per-call overhead would dominate.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    a = np.array([cell_hash.a for cell_hash in cell_hashes], dtype=np.uint64)
    b = np.array([cell_hash.b for cell_hash in cell_hashes], dtype=np.uint64)
    hashed = fold_bits(
        affine_mod_p(a[:, None], b[:, None], to_field(keys)[None, :]),
        cell_hashes[0].bits,
    )
    indices = (hashed % np.uint64(block_size)).astype(np.int64)
    indices += (np.arange(len(cell_hashes), dtype=np.int64) * block_size)[:, None]
    return indices


def cells_for_differences(expected_differences: int, q: int = 3, headroom: float = DEFAULT_HEADROOM) -> int:
    """A table size ``m`` (multiple of ``q``) for an expected difference count."""
    if expected_differences < 0:
        raise ValueError("expected_differences must be >= 0")
    raw = max(q, int(headroom * max(1, expected_differences)) + q)
    return ((raw + q - 1) // q) * q


@dataclass
class IBLTDecodeResult:
    """Outcome of peeling an IBLT difference table.

    Attributes
    ----------
    success:
        True iff the table fully emptied (no 2-core remained).
    inserted:
        Keys recovered with positive sign (present in the *inserting*
        party's set only).
    deleted:
        Keys recovered with negative sign.
    """

    success: bool
    inserted: list[int] = field(default_factory=list)
    deleted: list[int] = field(default_factory=list)

    @property
    def difference_count(self) -> int:
        return len(self.inserted) + len(self.deleted)


class CellTable:
    """The cell geometry shared by :class:`IBLT`,
    :class:`~repro.iblt.counting.MultisetIBLT` and
    :class:`~repro.iblt.riblt.RIBLT`.

    The table is *partitioned*: hash function ``j`` maps into the ``j``-th
    block of ``m/q`` cells, guaranteeing the ``q`` cell indices of a key are
    distinct (Section 2.2).  The cell hashes and the checksum are drawn
    from the public coins under the table's ``_TAG`` and ``label``, so two
    parties that agree on those build identical geometry.

    A subclass names its count, key and checksum columns in ``_CELLS``
    and the attributes two tables must share to be combined in
    ``_SHAPE``.  Its ``_alloc_cells`` builds zeroed cells; any attribute
    that method reads must be set before this constructor is called.
    """

    _TAG: str
    _CELLS: tuple[str, ...]
    _SHAPE: tuple[str, ...] = ("m", "q", "key_bits", "label")

    def __init__(self, coins: PublicCoins, label: object, cells: int, q: int, key_bits: int):
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        if cells < q:
            raise ValueError(f"cells must be >= q, got {cells}")
        self.q = q
        self.block_size = (cells + q - 1) // q
        self.m = self.block_size * q
        self.key_bits = key_bits
        self.label = label
        self._cell_hashes = [
            PairwiseHash(coins, (f"{self._TAG}-cell", label, j), bits=61) for j in range(q)
        ]
        self.checksum = Checksum(coins, (f"{self._TAG}-checksum", label), bits=61)
        # Decode hash cache, shared with every clone (`subtract` hands a
        # fresh clone to each reconciliation; the cached values are pure
        # functions of the key under the shared coins).
        self._hash_cache = KeyHashCache(self.checksum, self._cell_hashes, self.block_size)
        self._alloc_cells()

    def cell_indices(self, key: int) -> list[int]:
        """The ``q`` distinct cells ``key`` maps to (one per block)."""
        return [
            j * self.block_size + self._cell_hashes[j](key) % self.block_size
            for j in range(self.q)
        ]

    def cell_index_matrix(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`cell_indices`: the ``(q, n)`` index matrix."""
        return partitioned_cell_indices(self._cell_hashes, self.block_size, keys)

    def _check_compatible(self, other: "CellTable") -> None:
        """``ValueError`` unless ``other`` matches this table on ``_SHAPE``."""
        for name in self._SHAPE:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise ValueError(
                    f"{type(self).__name__}s are structurally incompatible: "
                    f"{name} {mine!r} != {theirs!r}"
                )

    def _empty_clone(self: _Table) -> _Table:
        """A zeroed table sharing everything but the cells with this one."""
        clone = shallow_copy(self)
        clone._alloc_cells()
        return clone

    def copy(self: _Table) -> _Table:
        """A table with its own copy of every cell."""
        clone = shallow_copy(self)
        for name in self._CELLS:
            setattr(clone, name, getattr(self, name).copy())
        return clone

    def is_empty(self) -> bool:
        """True iff every count, key and checksum cell is zero: also the
        one rule by which every decoder reports ``success``."""
        columns = [getattr(self, name) for name in self._CELLS]
        if isinstance(columns[0], np.ndarray):
            return not any(column.any() for column in columns)
        return not any(any(column) for column in columns)


class SumCellTable(CellTable):
    """The sum cells shared by :class:`~repro.iblt.counting.MultisetIBLT`
    and :class:`~repro.iblt.riblt.RIBLT` (Section 2.2 items 1, 3 and 5).

    Each cell holds exact Python-int sums of counts, keys and checksums,
    so insert and delete are inverses over the integers and a cell
    holding ``C`` copies of one key is recognised and peeled in one step.
    Peeling is breadth-first: a cell that became pure earlier is peeled
    earlier, the order Lemma 3.10's error propagation depends on.  A
    subclass adds what differs: its per-peel hook (the multiset's
    multiplicities, RIBLT's value extraction) and, for RIBLT, the value
    columns.

    ``hashes`` below is a :class:`~repro.iblt.frontier.KeyHashCache` or
    its unmemoised twin :class:`~repro.iblt.frontier.ScalarHashes`; both
    return the same values, so the choice changes only the cost.
    """

    _CELLS = ("counts", "key_sum", "check_sum")

    def _alloc_cells(self) -> None:
        self.counts = [0] * self.m
        self.key_sum = [0] * self.m
        self.check_sum = [0] * self.m

    def _add_key(self, key: int, weight: int) -> list[int]:
        """Add ``weight`` copies of a checked ``key``; returns its cells."""
        check = self.checksum(key)
        cells = self.cell_indices(key)
        for index in cells:
            self.counts[index] += weight
            self.key_sum[index] += weight * key
            self.check_sum[index] += weight * check
        return cells

    def _difference(self: _Table, other: _Table) -> _Table:
        """Shape check, then ``self - other`` column by column."""
        self._check_compatible(other)
        result = self._empty_clone()
        for name in self._CELLS:
            mine, theirs = getattr(self, name), getattr(other, name)
            setattr(result, name, [a - b for a, b in zip(mine, theirs)])
        return result

    def _pure_key(self, index: int, hashes: KeyHashCache | ScalarHashes) -> int | None:
        """The key if cell ``index`` passes the multi-copy purity test.

        Section 2.2 item 5: the cell holds ``C`` copies of one key when
        the key sum is divisible by the count, the quotient is a valid
        key, and ``checksum(K/C) · C == S``.
        """
        count = self.counts[index]
        key = divisible_key(count, self.key_sum[index], 1 << self.key_bits)
        if key is None or hashes.check(key) * count != self.check_sum[index]:
            return None
        return key

    def _peel(
        self,
        hashes: KeyHashCache | ScalarHashes,
        on_peel: Callable[[int, int, list[int]], None],
    ) -> bool:
        """FIFO-peel every pure cell; True iff the table ends all zero.

        ``on_peel(index, key, cells)`` runs once per peeled cell, before
        the cell's snapshot is subtracted from the key's ``cells``.

        One scan seeds the queue with the pure cells in ascending index
        order.  A cache is batch-primed there: checksums for every cell
        passing the integer half of the test, cell indices only for the
        keys that pass the checksum half too.  After that, only the cells
        a peel touches can change purity, so only they are re-tested.

        Peeling a cell subtracts its whole count, key and checksum
        snapshot from every cell of its key.  For a real pure cell that
        is exactly ``C·key`` and ``C·checksum(key)``; for a checksum fluke
        it also sweeps the residue along, as Figure 1 describes.
        """
        counts, key_sum, check_sum = self.counts, self.key_sum, self.check_sum
        key_limit = 1 << self.key_bits
        prime = self.key_bits <= MAX_NUMPY_KEY_BITS  # uint64 batch hashes only
        seeds = [
            (index, key)
            for index in range(self.m)
            if (key := divisible_key(counts[index], key_sum[index], key_limit)) is not None
        ]
        if prime:
            hashes.prime([key for _, key in seeds], want_indices=False)
        queue = PeelQueue(self.m)
        survivors = []
        for index, key in seeds:
            if hashes.check(key) * counts[index] == check_sum[index]:
                queue.push(index)
                survivors.append(key)
        if prime:
            hashes.prime(survivors, want_indices=True)
        while queue:
            index = queue.pop()
            key = self._pure_key(index, hashes)
            if key is None:
                continue
            cells = hashes.indices(key)
            on_peel(index, key, cells)
            count, key_total, check_total = counts[index], key_sum[index], check_sum[index]
            # The q cells are distinct, so testing each one right after
            # its own subtraction equals testing after all of them.
            for cell in cells:
                counts[cell] -= count
                key_sum[cell] -= key_total
                check_sum[cell] -= check_total
                if not queue.pending(cell) and self._pure_key(cell, hashes) is not None:
                    queue.push(cell)
        return self.is_empty()


class IBLT(CellTable):
    """An invertible Bloom lookup table over integer keys.

    Parameters
    ----------
    coins, label:
        Shared randomness: both parties must build structurally identical
        tables (same cell hashes, same checksum function) to subtract them.
    cells:
        Total cell count ``m`` (rounded up to a multiple of ``q``).
    q:
        Number of hash functions / blocks.
    key_bits:
        Width of stored keys; keys must lie in ``[0, 2^key_bits)``.
    backend:
        ``"numpy"`` or ``"python"``: the one per-object override of
        ``REPRO_BACKEND`` (see :mod:`repro.iblt.backend`, which also
        routes keys too wide for ``uint64`` cells to ``"python"``).
    """

    _TAG = "iblt"
    _CELLS = ("counts", "key_xor", "check_xor")
    _SHAPE = CellTable._SHAPE + ("backend",)

    def __init__(
        self,
        coins: PublicCoins,
        label: object,
        cells: int,
        q: int = 3,
        key_bits: int = 61,
        backend: str | None = None,
    ):
        self.backend = resolve_backend(backend, key_bits)
        # Decode work state, shared with every clone this table spawns
        # (the buffers are pure functions of the shared geometry), so
        # repeated decodes reuse one allocation.  Not thread-safe.
        self._scratch = PeelScratch()
        super().__init__(coins, label, cells, q, key_bits)

    def _alloc_cells(self) -> None:
        if self.backend == "numpy":
            self.counts: np.ndarray | list[int] = np.zeros(self.m, dtype=np.int64)
            self.key_xor: np.ndarray | list[int] = np.zeros(self.m, dtype=np.uint64)
            self.check_xor: np.ndarray | list[int] = np.zeros(self.m, dtype=np.uint64)
        else:
            self.counts = [0] * self.m
            self.key_xor = [0] * self.m
            self.check_xor = [0] * self.m

    # -- updates -----------------------------------------------------------
    def insert(self, key: int) -> None:
        """Add a key (count +1 in each of its cells)."""
        self._update(key, +1)

    def delete(self, key: int) -> None:
        """Remove a key (count -1); valid even if the key was never added."""
        self._update(key, -1)

    def _update(self, key: int, sign: int) -> None:
        key = check_key(key, self.key_bits)
        check = self.checksum(key)
        for index in self.cell_indices(key):
            self.counts[index] += sign
            self.key_xor[index] ^= key
            self.check_xor[index] ^= check

    def insert_batch(self, keys: "np.ndarray | Iterable[int]") -> None:
        """Add a batch of keys: any ndarray or iterable of ints.

        The whole batch is validated before any cell changes.  The numpy
        backend updates every cell in one vectorised pass; the python
        backend inserts the keys one by one.
        """
        self._update_batch(keys, +1)

    def delete_batch(self, keys: "np.ndarray | Iterable[int]") -> None:
        """Remove a batch of keys (same inputs as :meth:`insert_batch`)."""
        self._update_batch(keys, -1)

    # Kept only because e2ebench/tracer.py wraps these names.
    insert_all = insert_batch
    delete_all = delete_batch

    def _update_batch(self, keys: "np.ndarray | Iterable[int]", sign: int) -> None:
        if self.backend != "numpy":
            for key in key_list(keys, self.key_bits):
                self._update(key, sign)
            return
        keys = coerce_key_array(keys, self.key_bits)
        if keys.size:
            self._scatter(keys, sign)

    def _scatter(self, keys: np.ndarray, signed_counts: int | np.ndarray) -> None:
        """Apply one ±1-signed update per key to its cells (numpy)."""
        self._scatter_at(
            self.cell_index_matrix(keys),
            keys,
            self.checksum.hash_array(keys),
            signed_counts,
        )

    def _scatter_at(
        self,
        indices: np.ndarray,
        keys: np.ndarray,
        checks: np.ndarray,
        signed_counts: int | np.ndarray,
    ) -> None:
        """Scatter updates through precomputed indices and checksums.

        ``signed_counts`` entries must be ±1: counts are scaled by them
        but the key/checksum XORs flip exactly once per key regardless,
        so larger magnitudes would desynchronise counts from XORs.  The
        decoder reuses ``indices`` as the touched-cell frontier and
        reads ``checks`` straight out of the pure cells it peels, which
        is why both are parameters rather than recomputed here.
        """
        assert np.all(np.abs(signed_counts) == 1), "scatter updates must be ±1"
        for j in range(self.q):
            row = indices[j]
            np.add.at(self.counts, row, signed_counts)
            np.bitwise_xor.at(self.key_xor, row, keys)
            np.bitwise_xor.at(self.check_xor, row, checks)

    def apply_mutations(
        self,
        inserts: "np.ndarray | Iterable[int]" = (),
        deletes: "np.ndarray | Iterable[int]" = (),
    ) -> None:
        """Apply an insert/delete delta in one combined signed pass.

        Cell updates are commuting exact integer/XOR operations, so the
        result is pinned bit-identical to ``insert_batch(inserts)``
        followed by ``delete_batch(deletes)`` — warm-snapshot
        maintainers (the sketch store) rely on that.  On the numpy
        backend both deltas share a single scatter; either side may be
        empty.  Invalid keys in either delta leave the table untouched.
        """
        if self.backend != "numpy":
            ins = key_list(inserts, self.key_bits)
            dels = key_list(deletes, self.key_bits)
            for key in ins:
                self._update(key, +1)
            for key in dels:
                self._update(key, -1)
            return
        ins = coerce_key_array(inserts, self.key_bits)
        dels = coerce_key_array(deletes, self.key_bits)
        if ins.size == 0 and dels.size == 0:
            return
        keys = np.concatenate([ins, dels])
        signs = np.concatenate(
            [
                np.ones(ins.size, dtype=np.int64),
                -np.ones(dels.size, dtype=np.int64),
            ]
        )
        self._scatter(keys, signs)

    # -- combination ---------------------------------------------------------
    def subtract(self, other: "IBLT") -> "IBLT":
        """Cell-wise difference ``self - other`` (for reconciliation).

        Both tables must have been built from the same coins/label/shape.
        After subtraction the table holds the symmetric difference of the
        two key multisets, inserted keys positive and the other side's
        negative.
        """
        self._check_compatible(other)
        result = self._empty_clone()
        if self.backend == "numpy":
            result.counts = self.counts - other.counts
            result.key_xor = self.key_xor ^ other.key_xor
            result.check_xor = self.check_xor ^ other.check_xor
            return result
        for index in range(self.m):
            result.counts[index] = self.counts[index] - other.counts[index]
            result.key_xor[index] = self.key_xor[index] ^ other.key_xor[index]
            result.check_xor[index] = self.check_xor[index] ^ other.check_xor[index]
        return result

    def to_payload(self) -> tuple[bytes, int]:
        """Serialize this sketch; returns ``(payload, exact_bit_count)``.

        The uniform sketch wire surface: every sketch type
        (:class:`IBLT`, :class:`~repro.iblt.riblt.RIBLT`,
        :class:`~repro.iblt.counting.MultisetIBLT`,
        :class:`~repro.reconcile.strata.StrataEstimator`) exposes the
        same ``to_payload``/:meth:`from_payload` pair, so the wire layer
        and snapshot stores can treat them interchangeably.
        """
        from ..protocol.tables import iblt_payload

        return iblt_payload(self)

    def from_payload(self, payload: bytes) -> "IBLT":
        """Load a :meth:`to_payload` buffer into this (empty) shell.

        The payload is untrusted; damage raises the typed
        :class:`~repro.errors.DecodeError` hierarchy.
        """
        from ..protocol.serialize import BitReader
        from ..protocol.tables import read_iblt_cells

        return read_iblt_cells(BitReader(payload), self)

    # -- decoding ------------------------------------------------------------
    def _pure_with_keys(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pure cells among ``cells`` plus the keys they hold.

        The vectorised rounds always pass deduplicated, ascending
        candidate arrays (see
        :meth:`~repro.iblt.frontier.PeelScratch.unique_cells`); the keys
        gathered for the checksum test are returned alongside so the
        peel round does not gather them a second time.
        """
        cells = cells[np.abs(self.counts[cells]) == 1]
        keys = self.key_xor[cells]
        mask = self.check_xor[cells] == self.checksum.hash_array(keys)
        return cells[mask], keys[mask]

    def decode(self) -> IBLTDecodeResult:
        """Peel the table, recovering the signed symmetric difference.

        Destructive: the table is emptied of whatever could be peeled.
        ``success`` is True iff every cell ended at count 0 with zero key
        and checksum XORs (i.e. the hypergraph had an empty 2-core and no
        checksum anomalies).

        Both backends peel in the same rounds, so they return the same
        lists in the same order.  The candidates are seeded with the
        ``|count| == 1`` cells in ascending order; thereafter each round
        re-tests only the cells touched by the previous round.  Every
        cell that is pure at round ``r+1`` was touched at round ``r`` (a
        cell pure in both rounds had its own key peeled, and that key
        maps to it), so each round peels exactly the cells a whole-table
        purity scan would find.

        The numpy backend runs a round through :meth:`_peel_round` while
        it has more than :data:`~repro.iblt.frontier.PEEL_TAIL_THRESHOLD`
        candidates, deduplicating the touched cells through the shared
        :class:`~repro.iblt.frontier.PeelScratch` flag array, and through
        :meth:`_peel_round_scalar` at or below it (returning to
        vectorised rounds if the frontier regrows), so the geometric
        tail of the peel pays scalar constants instead of array-call
        overhead.  The python backend runs every round through
        :meth:`_peel_round_scalar`, hashing one key at a time.
        """
        result = IBLTDecodeResult(success=False)
        vector = self.backend == "numpy"
        if vector:
            candidates = self._scratch.ones_candidates(self.counts)
            hashes = self._hash_cache
        else:
            candidates = [index for index, count in enumerate(self.counts) if count in (1, -1)]
            hashes = ScalarHashes(self)
        # Round cap: peeling depth is O(log m) w.h.p.; the cap only guards
        # against checksum-fluke cycles (the success check below still
        # decides the outcome).
        rounds_left = 2 * self.m + 64
        while rounds_left > 0 and len(candidates):
            rounds_left -= 1
            if vector and len(candidates) > PEEL_TAIL_THRESHOLD:
                cells = np.asarray(candidates, dtype=np.int64)
                pure_cells, pure_keys = self._pure_with_keys(cells)
                if pure_cells.size == 0:
                    break
                touched = self._peel_round(result, pure_cells, pure_keys)
                candidates = self._scratch.unique_cells(touched, self.m)
            else:
                if isinstance(candidates, np.ndarray):
                    candidates = candidates.tolist()
                candidates = self._peel_round_scalar(result, candidates, hashes)
        result.success = self.is_empty()
        return result

    def _peel_round(
        self,
        result: IBLTDecodeResult,
        pure_cells: np.ndarray,
        pure_keys: np.ndarray,
    ) -> np.ndarray:
        """Peel one round's pure cells; returns the touched-cell matrix.

        A key with count ±1 is simultaneously pure in up to q cells; each
        *distinct* signed key is peeled exactly once per round, appended
        in ``np.unique`` (sorted) order.  Batched removal is
        order-independent (XOR/add updates commute), and the returned
        ``(q, n)`` index matrix of the peeled keys is exactly the set of
        cells whose purity can have changed.  The checksums to scatter
        are read straight out of the pure cells — the purity test just
        proved ``check_xor == checksum(key)`` there — saving a hash pass.
        ``pure_keys`` is ``key_xor[pure_cells]``, already gathered for
        the purity test.
        """
        keys, first = np.unique(pure_keys, return_index=True)
        picked = pure_cells[first]
        signs = self.counts[picked]
        checks = self.check_xor[picked]
        result.inserted.extend(keys[signs > 0].tolist())
        result.deleted.extend(keys[signs < 0].tolist())
        indices = self.cell_index_matrix(keys)
        self._scatter_at(indices, keys, checks, -signs)
        return indices

    def _peel_round_scalar(
        self,
        result: IBLTDecodeResult,
        candidates: list[int],
        hashes: KeyHashCache | ScalarHashes,
    ) -> list[int]:
        """One round of :meth:`_peel_round`'s discipline in scalar
        arithmetic, on numpy or list cells; returns the touched cells in
        ascending order.

        ``candidates`` must be sorted ascending (the vectorised round's
        candidate order): the first candidate cell that passes the purity
        test for a key is the cell its sign and checksum are read from,
        exactly as ``np.unique``'s first-occurrence pick over the
        ascending pure array.  Distinct keys are then peeled in ascending
        key order (``sorted`` over Python ints == ``np.unique`` over
        ``uint64``), so the appended output and the cell mutations are
        bit-identical to a vectorised round.  Only the constant factor
        changes: at tail frontier sizes the fixed per-call overhead of
        each array operation exceeds the round's useful work.
        """
        counts, key_xor, check_xor = self.counts, self.key_xor, self.check_xor
        peeled: dict[int, tuple[int, int]] = {}
        for index in candidates:
            count = int(counts[index])
            if count != 1 and count != -1:
                continue
            key = int(key_xor[index])
            if key in peeled:  # sign already fixed by an earlier pure cell
                continue
            check = hashes.check(key)
            if int(check_xor[index]) != check:
                continue
            peeled[key] = (count, check)
        touched: set[int] = set()
        for key in sorted(peeled):
            sign, check = peeled[key]
            if sign > 0:
                result.inserted.append(key)
            else:
                result.deleted.append(key)
            for cell in hashes.indices(key):
                counts[cell] -= sign
                key_xor[cell] = int(key_xor[cell]) ^ key
                check_xor[cell] = int(check_xor[cell]) ^ check
                touched.add(cell)
        return sorted(touched)

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        """Net number of (signed) items currently in the table."""
        if self.backend == "numpy":
            return abs(int(self.counts.sum())) // self.q
        return abs(sum(self.counts)) // self.q
