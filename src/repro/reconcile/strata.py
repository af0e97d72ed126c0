"""Strata estimator for unknown difference sizes (Eppstein et al. [10]).

IBLT-based reconciliation needs an upper bound on the symmetric
difference to size its table.  "What's the Difference?" [10] — the
set-reconciliation work the paper builds on — pairs the IBLT with a
*strata estimator*: a log-universe stack of small IBLTs where stratum
``i`` receives each element independently with probability ``2^{-i}``
(by counting trailing zeros of a hash).  Subtracting two estimators and
peeling strata from the deepest up yields an unbiased difference
estimate from whatever strata decode.

This powers :func:`repro.reconcile.resilient.exact_iblt_reconcile_auto`
— exact reconciliation with *no* prior difference bound, at the cost of
one extra half-round carrying ``O(log|U|)`` fixed-size sketches.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..hashing import PairwiseHash, PublicCoins
from ..iblt.backend import resolve_backend
from ..iblt.iblt import IBLT, check_key, coerce_key_array, key_list
from ..protocol.serialize import BitReader, BitWriter
from ..protocol.tables import read_iblt_cells, write_iblt_cells

__all__ = ["StrataEstimator"]

_DEFAULT_STRATA = 24
_CELLS_PER_STRATUM = 48
_CORRECTION = 2.0  # headroom multiplier applied by estimate()
_MIN_BOUND = 4  # smallest bound difference_bound() returns


@dataclass(frozen=True)
class _Shape:
    strata: int
    cells: int
    key_bits: int


class StrataEstimator:
    """A stack of small IBLTs estimating a symmetric-difference size.

    Parameters
    ----------
    coins, label:
        Shared randomness (both parties must agree).
    strata:
        Number of strata; stratum ``i`` samples elements w.p. ``2^{-i}``,
        so ``strata ~ log2 |U|`` suffices for any difference size.
    cells:
        Cells per stratum (small; each stratum only needs to decode its
        ~``d/2^i`` expected differences for *some* decodable ``i``).
    key_bits:
        Width of the element keys.
    """

    def __init__(
        self,
        coins: PublicCoins,
        label: object,
        strata: int = _DEFAULT_STRATA,
        cells: int = _CELLS_PER_STRATUM,
        key_bits: int = 61,
        backend: str | None = None,
    ):
        if strata < 1:
            raise ValueError(f"strata must be >= 1, got {strata}")
        self.coins = coins
        self.label = label
        self.shape = _Shape(strata=strata, cells=cells, key_bits=key_bits)
        self.backend = resolve_backend(backend, key_bits)
        self._stratum_hash = PairwiseHash(coins, ("strata-level", label), bits=61)
        self.tables = [
            IBLT(
                coins,
                ("strata", label, i),
                cells=cells,
                q=3,
                key_bits=key_bits,
                backend=self.backend,
            )
            for i in range(strata)
        ]

    def _stratum_of(self, key: int) -> int:
        """Trailing-one count of an independent hash of the key."""
        value = self._stratum_hash(key)
        stratum = 0
        while value & 1 and stratum < self.shape.strata - 1:
            stratum += 1
            value >>= 1
        return stratum

    def _strata_of_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_stratum_of` (trailing ones, capped)."""
        hashed = self._stratum_hash.hash_array(keys)
        # Trailing ones of h == position of the lowest *unset* bit: isolate
        # it (~h has bits 61..63 set, so it is never zero) and take its
        # exact float64 log2 — a power of two, so no popcount needed.
        inverted = ~hashed
        lowest = inverted & (np.uint64(0) - inverted)
        trailing = np.log2(lowest.astype(np.float64)).astype(np.int64)
        return np.minimum(trailing, self.shape.strata - 1)

    def insert(self, key: int) -> None:
        key = check_key(key, self.shape.key_bits)
        self.tables[self._stratum_of(key)].insert(key)

    def delete(self, key: int) -> None:
        key = check_key(key, self.shape.key_bits)
        self.tables[self._stratum_of(key)].delete(key)

    def insert_batch(self, keys: "np.ndarray | Iterable[int]") -> None:
        """Add a batch of keys (any ndarray or iterable of ints), each to
        its stratum; the whole batch is validated before any cell changes."""
        for table, stratum_keys in self._route(keys):
            table.insert_batch(stratum_keys)

    def delete_batch(self, keys: "np.ndarray | Iterable[int]") -> None:
        """Remove a batch of keys, routing each key to its stratum."""
        for table, stratum_keys in self._route(keys):
            table.delete_batch(stratum_keys)

    def _route(
        self, keys: "np.ndarray | Iterable[int]"
    ) -> "list[tuple[IBLT, np.ndarray | list[int]]]":
        """Validate a key batch and split it into per-stratum batches.

        The numpy backend assigns strata in one vectorised pass; the
        python backend keeps the keys as exact Python ints.
        """
        if self.backend != "numpy":
            groups: dict[int, list[int]] = {}
            for key in key_list(keys, self.shape.key_bits):
                groups.setdefault(self._stratum_of(key), []).append(key)
            return [(self.tables[stratum], group) for stratum, group in groups.items()]
        keys = coerce_key_array(keys, self.shape.key_bits)
        if keys.size == 0:
            return []
        strata = self._strata_of_batch(keys)
        return [
            (self.tables[stratum], keys[strata == stratum])
            for stratum in np.unique(strata).tolist()
        ]

    def apply_mutations(
        self,
        inserts: "np.ndarray | Iterable[int]" = (),
        deletes: "np.ndarray | Iterable[int]" = (),
    ) -> None:
        """Apply an insert/delete delta to the stratum tables in place.

        Stratum routing is a pure hash of the key, so the result is
        pinned bit-identical to rebuilding the estimator from the
        mutated set — the sketch store maintains warm strata this way.
        Both deltas are validated before any cell changes.
        """
        inserted, deleted = self._route(inserts), self._route(deletes)
        for table, stratum_keys in inserted:
            table.insert_batch(stratum_keys)
        for table, stratum_keys in deleted:
            table.delete_batch(stratum_keys)

    def subtract(self, other: "StrataEstimator") -> "StrataEstimator":
        if self.shape != other.shape or self.label != other.label:
            raise ValueError("strata estimators are structurally incompatible")
        result = copy(self)
        result.tables = [
            mine.subtract(theirs)
            for mine, theirs in zip(self.tables, other.tables)
        ]
        return result

    def to_payload(self) -> tuple[bytes, int]:
        """Serialize all strata; returns ``(payload, exact_bit_count)``.

        Part of the uniform sketch wire surface shared with
        :meth:`IBLT.to_payload <repro.iblt.iblt.IBLT.to_payload>`: the
        wire layer and snapshot stores treat every sketch type through
        the same ``to_payload``/:meth:`from_payload` pair.
        """
        writer = BitWriter()
        for table in self.tables:
            write_iblt_cells(writer, table)
        return writer.getvalue(), writer.bit_length

    def from_payload(self, payload: bytes) -> "StrataEstimator":
        """Load a transmitted payload into this structurally identical
        (empty) shell; damage raises the typed
        :class:`~repro.errors.DecodeError` hierarchy."""
        if not self.is_empty():
            raise ValueError("shell StrataEstimator must be empty before loading cells")
        # Parse every stratum into a fresh clone first, so a payload that
        # fails part-way leaves this estimator empty.
        reader = BitReader(payload)
        self.tables = [read_iblt_cells(reader, table._empty_clone()) for table in self.tables]
        return self

    def is_empty(self) -> bool:
        return all(table.is_empty() for table in self.tables)

    def estimate(self) -> int:
        """Estimate the difference size of a *subtracted* estimator.

        Peels strata from the deepest (sparsest) down; once a stratum
        fails to decode, the count seen so far is scaled up by the
        sampling rate of the last decoded stratum.  Returns an upper
        bound-ish estimate (a 2x safety factor is applied, as in [10]'s
        deployment advice).
        """
        counted = 0
        for stratum in range(self.shape.strata - 1, -1, -1):
            outcome = self.tables[stratum].copy().decode()
            if not outcome.success:
                # Everything below stratum `stratum` (exclusive) decoded;
                # scale by the inverse sampling probability of stratum+1.
                scale = 2 ** (stratum + 1)
                return max(1, int(_CORRECTION * counted * scale))
            counted += outcome.difference_count
        return max(0, int(_CORRECTION * counted))

    def difference_bound(self, other: "StrataEstimator") -> int:
        """The difference bound a reconciliation table is sized for.

        The estimate of ``self - other``, floored at 4: the one rule every
        strata-sized exchange (the auto-sized and resilient reconcilers,
        the service's ``ESTIMATE`` reply, the store-churn fallback) uses.
        """
        return max(_MIN_BOUND, self.subtract(other).estimate())
