"""Shared peeling-frontier machinery for the IBLT family.

Peeling is the core-emergence process of XORSAT / cuckoo-hashing
threshold analyses: decode succeeds by repeatedly stripping degree-1
(pure) cells, and each strip can only change the cells its key hashes
to.  The process is therefore inherently *incremental* — after the
initial pure scan, the only cells whose purity can have changed are the
ones actually touched by a peel.  Every decoder in this package tracks
that frontier instead of scanning the whole table again, and they all
share the engine pieces defined here:

* :class:`PeelQueue` — the deduplicated candidate queue the scalar
  decoders drive (FIFO for the breadth-first sum-cell peel,
  :meth:`SumCellTable._peel <repro.iblt.iblt.SumCellTable._peel>`, whose
  error-propagation analysis depends on peel order, RIBLT Lemma 3.10;
  LIFO for the classic IBLT's stack-based python reference).
* :class:`PeelScratch` — preallocated round work buffers for the
  vectorised numpy decoder (``IBLT._decode_numpy_frontier``): a flag
  array that dedupes the touched-cell stream in ``O(m + touched)``
  without any sort, plus reusable purity-scan scratch.  One scratch is
  shared by a table and every clone ``subtract``/``copy`` derive from
  it, so repeated ``decode()`` calls never reallocate.
* :class:`KeyHashCache` — memoised ``key -> (checksum, cell indices)``
  evaluations, batch-filled with the vectorised Mersenne hashes and
  consulted by the sum-cell decoders (:class:`~repro.iblt.riblt.RIBLT`,
  :class:`~repro.iblt.counting.MultisetIBLT`) *inside* their exact
  sequential FIFO loops.  The cached values are pure functions of the
  key, so the peel sequence — hence the decode output, including the
  value-error propagation the RIBLT analysis charges — is bit-identical
  to uncached scalar evaluation.
* :class:`ScalarHashes` — the same interface with no memo: the uncached
  scalar evaluation itself.  The multiset's python backend peels through
  it, and the tests pin :class:`KeyHashCache` against it.

The peel frontier shrinks geometrically (the supercritical branching
process dies out), so a fixed-cost vectorised round is exactly wrong at
the tail: the numpy decoder *adapts*, processing any round whose
candidate set is at most :data:`PEEL_TAIL_THRESHOLD` cells with plain
scalar arithmetic (cached hashes, no array round-trips), and the cache
only batch-primes when at least :data:`CACHE_PRIME_THRESHOLD` keys are
missing.  Both thresholds are behaviour-preserving knobs: any value
produces bit-identical output, only the crossover cost changes.  In the
sparse regime (small difference sets, the common reconciliation case)
the scalar tail roughly halves decode time; ``benchmarks/run_perf.py``'s
``iblt_decode_tail`` kernel tracks it.

Within a vectorised round the numpy decoder tests counts before
checksums (the cheap half first), reads the checksums to scatter
straight out of the pure cells, and evaluates the purity test's
``((a2·x + a1)·x + b) mod P`` with the fused in-place
:func:`~repro.hashing.mersenne.quadratic_mod_p`, a third fewer memory
passes than composing the field operations.

``tests/test_frontier_decoder.py`` pins the frontier decoder bit-identical
(output order and residual cells) to a test-local decoder that re-derives
the whole table's pure mask every round, across duplicate insertions,
multiset counts, undecodable overloads and tail thresholds on both sides
of the vector/scalar switch; ``tests/test_peel_engine.py`` pins
:class:`KeyHashCache` against :class:`ScalarHashes`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..hashing import Checksum, PairwiseHash
    from .iblt import CellTable

__all__ = [
    "CACHE_PRIME_THRESHOLD",
    "PEEL_TAIL_THRESHOLD",
    "KeyHashCache",
    "PeelQueue",
    "PeelScratch",
    "ScalarHashes",
    "divisible_key",
]

#: Candidate-set size at or below which the adaptive numpy decoder runs a
#: round with scalar arithmetic instead of vectorised array passes.  At
#: tail sizes the fixed per-call overhead of each numpy operation (~µs)
#: exceeds the whole round's useful work; measured on CPython 3.11 the
#: crossover sits near ~200 candidate cells, so 128 keeps every bulk
#: round vectorised while the geometric tail runs scalar.
PEEL_TAIL_THRESHOLD = 128

#: Minimum number of *missing* keys for which :meth:`KeyHashCache.prime`
#: uses the vectorised batch hashes; smaller batches fall through to the
#: memoised scalar fill where the fixed array-call overhead (key-array
#: construction, two Mersenne passes, the index matrix transpose) would
#: cost more than it saves.  Measured crossover on CPython 3.11 is
#: ~50-100 missing keys.
CACHE_PRIME_THRESHOLD = 64

#: Entry cap for :class:`KeyHashCache`; reaching it clears the cache (the
#: memoised values are recomputable, so wholesale eviction is always
#: safe — simpler than LRU bookkeeping on the hot path).  Caches live as
#: long as their table (clones share them), so the cap also bounds
#: resident memory: 2^17 entries is ~10 MB across both stores, far above
#: any single decode's working set.
_CACHE_MAX_ENTRIES = 1 << 17


def divisible_key(count: int, key_total: int, key_limit: int) -> int | None:
    """The candidate key of a sum cell, before its checksum test.

    Section 2.2 item 5: a cell holding ``C`` copies of one key has a key
    sum divisible by its count with an in-range quotient.  This is the
    cheap integer half of the sum-cell purity test,
    :meth:`SumCellTable._pure_key <repro.iblt.iblt.SumCellTable._pure_key>`,
    which adds the checksum half (``checksum(key) * count == check_sum``).
    """
    if count == 0:
        return None
    if key_total % count != 0:
        return None
    key = key_total // count
    if not 0 <= key < key_limit:
        return None
    return key


class PeelQueue:
    """A deduplicated queue of candidate cell indices.

    A cell index is held at most once; pushing an enqueued index is a
    no-op.  ``fifo`` selects breadth-first (popleft) or depth-first
    (pop) order.  Membership is tracked with a flat flag table over the
    ``m`` cells, so push/pop are O(1) regardless of table size.
    """

    def __init__(self, m: int, fifo: bool = True):
        self._queue: deque[int] = deque()
        self._enqueued = bytearray(m)
        self._fifo = fifo

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def pending(self, index: int) -> bool:
        """Whether ``index`` is currently enqueued.

        Decoders check this *before* their purity test: the flag lookup
        is O(1) while purity costs a checksum evaluation, and a pending
        cell will be re-tested at pop time anyway.
        """
        return bool(self._enqueued[index])

    def push(self, index: int) -> None:
        """Enqueue ``index`` unless it is already pending."""
        if not self._enqueued[index]:
            self._enqueued[index] = 1
            self._queue.append(index)

    def pop(self) -> int:
        """Remove and return the next candidate (per the queue order)."""
        index = self._queue.popleft() if self._fifo else self._queue.pop()
        self._enqueued[index] = 0
        return index


class PeelScratch:
    """Reusable work buffers for the vectorised round-based decoder.

    Created empty (no arrays) so a table can allocate it eagerly and
    share the *same* object with every clone it spawns — ``subtract``
    returns a fresh table per reconciliation, and without sharing each
    decode would pay the allocations again.  Buffers materialise on the
    first decode and are reused across rounds and across repeated
    ``decode()`` calls; they are plain work state, so the engine is not
    re-entrant (nothing in this package decodes concurrently).
    """

    __slots__ = ("_flags", "_scratch_i64", "_scratch_mask")

    def __init__(self) -> None:
        self._flags: np.ndarray | None = None
        self._scratch_i64: np.ndarray | None = None
        self._scratch_mask: np.ndarray | None = None

    def _ensure(self, m: int) -> None:
        if self._flags is None or self._flags.shape[0] != m:
            self._flags = np.zeros(m, dtype=bool)
            self._scratch_i64 = np.empty(m, dtype=np.int64)
            self._scratch_mask = np.empty(m, dtype=bool)

    def unique_cells(self, indices: np.ndarray, m: int) -> np.ndarray:
        """Deduplicate a touched-cell index matrix into sorted cell ids.

        Bincount-style counting dedup: scatter ones into a preallocated
        flag array, harvest the set bits, reset only what was touched —
        ``O(m + touched)`` with no sort and no per-round allocation
        beyond the result, replacing the ``np.unique``/fancy-indexing
        pass over the duplicated ``(q, n)`` stream.  The ascending
        result order is load-bearing: it is the ``np.flatnonzero`` order
        of a whole-table purity scan, which fixes which cell a
        multiply-pure key's sign is read from.
        """
        self._ensure(m)
        flags = self._flags
        flags[indices.ravel()] = True
        cells = np.flatnonzero(flags)
        flags[cells] = False
        return cells

    def ones_candidates(self, counts: np.ndarray) -> np.ndarray:
        """Indices of cells with ``|count| == 1`` (the seeding scan),
        computed into reusable scratch instead of fresh temporaries."""
        self._ensure(counts.shape[0])
        np.absolute(counts, out=self._scratch_i64)
        np.equal(self._scratch_i64, 1, out=self._scratch_mask)
        return np.flatnonzero(self._scratch_mask)


class KeyHashCache:
    """Memoised checksum / cell-index evaluations for one hash context.

    The expensive half of every peel step is hashing: the purity test
    needs ``checksum(key)`` and the peel itself needs the key's ``q``
    cell indices.  Both are pure functions of the key under the table's
    public coins, so one table and all its clones (which share hash
    objects) can share one cache.  :meth:`prime` fills it with the
    vectorised Mersenne batch hashes; :meth:`check` / :meth:`indices`
    fall back to scalar evaluation (and memoise) on a miss, which keeps
    every consumer bit-identical to uncached scalar hashing while
    collapsing the repeated evaluations the sequential decoders perform
    — each key is tested once per incident cell and peeled once.
    """

    __slots__ = ("_block_size", "_cell_hashes", "_checks", "_checksum", "_indices")

    def __init__(
        self,
        checksum: "Checksum",
        cell_hashes: "list[PairwiseHash]",
        block_size: int,
    ):
        self._checksum = checksum
        self._cell_hashes = cell_hashes
        self._block_size = block_size
        self._checks: dict[int, int] = {}
        self._indices: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._checks)

    def prime(self, keys: "list[int]", want_indices: bool = True) -> None:
        """Batch-fill the cache for ``keys`` (all below ``2^61``).

        One vectorised checksum pass (and, with ``want_indices``, one
        broadcast cell-index pass) replaces ``len(keys)`` scalar
        Mersenne evaluations.  The two stores are primed independently:
        a seeding scan can prime checksums for every *candidate* first
        and come back for the cell indices of only the keys that
        survived the checksum test — indices are only ever consumed at
        peel time, so priming them for garbage candidates would be
        wasted work and cache pollution.  Below
        :data:`CACHE_PRIME_THRESHOLD` missing keys per store the batch
        overhead is not worth it (the adaptive tail) and misses are
        left to the scalar fallbacks.
        """
        from .iblt import partitioned_cell_indices  # local: import cycle

        unique = list(dict.fromkeys(keys))
        missing = [key for key in unique if key not in self._checks]
        if len(missing) >= CACHE_PRIME_THRESHOLD:
            if len(self._checks) + len(missing) > _CACHE_MAX_ENTRIES:
                self._checks.clear()
            key_array = np.array(missing, dtype=np.uint64)
            self._checks.update(zip(missing, self._checksum.hash_array(key_array).tolist()))
        if not want_indices:
            return
        missing = [key for key in unique if key not in self._indices]
        if len(missing) < CACHE_PRIME_THRESHOLD:
            return
        if len(self._indices) + len(missing) > _CACHE_MAX_ENTRIES:
            self._indices.clear()
        key_array = np.array(missing, dtype=np.uint64)
        matrix = partitioned_cell_indices(self._cell_hashes, self._block_size, key_array)
        self._indices.update(zip(missing, matrix.T.tolist()))

    def check(self, key: int) -> int:
        """``checksum(key)``, memoised."""
        check = self._checks.get(key)
        if check is None:
            if len(self._checks) >= _CACHE_MAX_ENTRIES:
                self._checks.clear()
            check = self._checksum(key)
            self._checks[key] = check
        return check

    def indices(self, key: int) -> list[int]:
        """The key's ``q`` partitioned cell indices, memoised."""
        cells = self._indices.get(key)
        if cells is None:
            if len(self._indices) >= _CACHE_MAX_ENTRIES:
                self._indices.clear()
            block_size = self._block_size
            cells = [
                j * block_size + cell_hash(key) % block_size
                for j, cell_hash in enumerate(self._cell_hashes)
            ]
            self._indices[key] = cells
        return cells


class ScalarHashes:
    """:class:`KeyHashCache`'s interface without the memo.

    :meth:`check` and :meth:`indices` call the table's own ``checksum``
    and ``cell_indices`` on every lookup and :meth:`prime` does nothing,
    so a peel through it hashes one key at a time: the pure-Python
    reference every cached peel must match.
    """

    __slots__ = ("_table",)

    def __init__(self, table: "CellTable"):
        self._table = table

    def prime(self, keys: "list[int]", want_indices: bool = True) -> None:
        """Nothing to fill."""

    def check(self, key: int) -> int:
        """``checksum(key)``."""
        return self._table.checksum(key)

    def indices(self, key: int) -> list[int]:
        """The key's ``q`` partitioned cell indices."""
        return self._table.cell_indices(key)
