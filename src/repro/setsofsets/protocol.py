"""Multiset-of-sets reconciliation (substitute for Mitzenmacher–Morgan [22]).

The Gap protocol's middle rounds let Alice recover the multiset of Bob's
*keys*, where a key is a length-``h`` vector of ``O(log n)``-bit entries
and close keys differ in few entries.  The paper invokes Theorem 3.11 of
[22] as a black box; this module implements a 3-round protocol with the
same interface and communication *shape*:

* **Round 1 (Bob -> Alice)** — a counting IBLT over Bob's *entry items*
  ``(vector index, entry value)``, multiplicities respected.  Alice
  deletes her own items; the surviving signed difference has one item per
  pairwise entry difference — ``O(z)`` items, *not* ``n·h``.
* **Round 2 (Alice -> Bob)** — the list of Bob-side differing items.
* **Round 3 (Bob -> Alice)** — for each of his keys containing differing
  items: the key verbatim if at least a third of its entries differ (far
  keys), otherwise a *patch*: the differing entries plus a checksum of
  the whole key.  Alice reconstructs each patched key by applying the
  patch to each of her own keys and testing the checksum.

Signature entries
-----------------
Internally every key gets an extra entry: a hash of the whole vector.
Identical keys on the two sides then cancel *including* their signatures,
while any Bob key not identically held by Alice is guaranteed a differing
item (its signature) and therefore gets recovered in Round 3.  Conversely
Alice infers which of her own keys Bob (very likely) also holds: a key
none of whose items — signature included — survived as Alice-only must be
entry-wise covered by Bob's multiset, and signature coverage means an
identical key on Bob's side up to hash collision.  These appear in
``shared_alice_keys``.

Failure semantics
-----------------
Reconstruction of a patched key can fail (multiset cancellations may hide
a differing entry, leaving the patch incomplete): such keys are counted
``unresolved``.  For the Gap protocol this failure mode is *safe*: a Bob
key Alice does not know can only make her transmit extra close points,
never suppress a far one, so the ``r2`` guarantee survives (the model
explicitly allows extra points of ``S_A`` in ``T_A``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..hashing import PublicCoins, VectorHash, check_integers
from ..iblt.counting import MultisetIBLT
from ..iblt.iblt import cells_for_differences
from ..protocol.channel import ALICE, BOB, Channel
from ..protocol.serialize import BitReader, BitWriter

__all__ = ["SetsOfSetsResult", "SetsOfSetsReconciler"]

KeyVector = tuple[int, ...]

_CHECK_BITS = 61

#: Hashes per key in the counting IBLT.
Q = 4

#: Fraction of differing entries from which a key is sent verbatim.
VERBATIM_FRACTION = 1.0 / 3.0


@dataclass
class SetsOfSetsResult:
    """Outcome of the reconciliation (Alice's view of Bob's keys).

    Attributes
    ----------
    success:
        False iff the Round-1 counting IBLT failed to peel (undersized).
    recovered:
        Reconstructed Bob keys (those differing from all of Alice's) with
        multiplicities.
    shared_alice_keys:
        Alice's own keys inferred to be identically present on Bob's side.
    unresolved:
        Multiplicity-weighted count of Bob keys whose patch could not be
        applied to any of Alice's keys.
    pair_difference:
        Number of differing entry items the IBLT decoded (``z`` in [22]).
    """

    success: bool
    recovered: dict[KeyVector, int] = field(default_factory=dict)
    shared_alice_keys: list[KeyVector] = field(default_factory=list)
    unresolved: int = 0
    pair_difference: int = 0
    total_bits: int = 0
    rounds: int = 0

    @property
    def recovered_keys(self) -> list[KeyVector]:
        return list(self.recovered)

    @property
    def bob_key_view(self) -> list[KeyVector]:
        """Every key Alice should treat as held by Bob."""
        return list(self.recovered) + list(self.shared_alice_keys)


class SetsOfSetsReconciler:
    """3-round multiset-of-keys reconciliation.

    Parameters
    ----------
    coins, label:
        Shared randomness.
    entries:
        ``h``: entries per (external) key vector.
    entry_bits:
        Bit width of each entry (``Θ(log n)`` in the Gap protocol).
    expected_differences:
        Sizing hint: the expected number of pairwise entry differences
        ``z`` (the Gap protocol passes ``O((k + ρn) log n)``).
    size_multiplier:
        Headroom on the counting IBLT (failure probability decays
        geometrically in this).

    Keys with at least ``VERBATIM_FRACTION`` of their entries differing
    are sent verbatim instead of patched (far keys differ in ``> h/3``
    entries under the threshold analysis of Theorem 4.2).
    """

    def __init__(
        self,
        coins: PublicCoins,
        label: object,
        entries: int,
        entry_bits: int,
        expected_differences: int,
        size_multiplier: float = 4.0,
        backend: str | None = None,
    ):
        if entries < 1:
            raise ValueError(f"entries must be >= 1, got {entries}")
        if entry_bits < 1 or entry_bits > 55:
            raise ValueError(f"entry_bits must be in [1, 55], got {entry_bits}")
        self.coins = coins
        self.label = label
        self.backend = backend
        self.entries = entries
        self.internal_entries = entries + 1  # +1 signature entry
        self.entry_bits = entry_bits
        self.index_bits = max(1, (self.internal_entries - 1).bit_length())
        self.item_bits = self.entry_bits + self.index_bits
        self.expected_differences = max(1, int(expected_differences))
        self.cells = cells_for_differences(
            self.expected_differences, q=Q, headroom=size_multiplier
        )
        self.verbatim_threshold = max(
            1, math.ceil(VERBATIM_FRACTION * self.internal_entries)
        )
        self.signature_hash = VectorHash(
            coins, ("sos-signature", label), arity=entries, bits=entry_bits
        )
        self.key_checksum = VectorHash(
            coins,
            ("sos-key-checksum", label),
            arity=self.internal_entries,
            bits=_CHECK_BITS,
        )

    # -- key / item encoding -------------------------------------------------
    def _as_matrix(self, keys: Sequence[KeyVector] | np.ndarray) -> np.ndarray:
        """Normalise a key collection to an ``(n, entries)`` ``uint64`` matrix.

        Entries follow the hashing element rule: a float or bool entry is a
        ``ValueError`` (checked per element for key sequences, by dtype for
        arrays), as is any entry outside ``[0, 2^entry_bits)``.
        """
        if not isinstance(keys, np.ndarray):
            keys = [tuple(key) for key in keys]
            check_integers(value for key in keys for value in key)
            keys = np.asarray(keys)
        if keys.size == 0:
            return np.empty((0, self.entries), dtype=np.uint64)
        if keys.ndim != 2 or keys.shape[1] != self.entries:
            raise ValueError(
                f"key has {keys.shape[-1] if keys.ndim else 0} entries, "
                f"expected {self.entries}"
            )
        if keys.dtype.kind not in ("i", "u"):
            raise ValueError(f"expected integer key entries, got dtype {keys.dtype}")
        for extreme in (int(keys.min()), int(keys.max())):
            if not 0 <= extreme < (1 << self.entry_bits):
                raise ValueError(f"entry value {extreme} outside [0, 2^{self.entry_bits})")
        return keys.astype(np.uint64, copy=False)

    def _internal_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Append the signature column (a hash of the whole key) to a key matrix."""
        signatures = self.signature_hash.hash_rows(matrix)
        return np.concatenate([matrix, signatures[:, None]], axis=1)

    def _encode_item(self, index: int, value: int) -> int:
        if not 0 <= value < (1 << self.entry_bits):
            raise ValueError(f"entry value {value} outside [0, 2^{self.entry_bits})")
        return (value << self.index_bits) | index

    def _item_multiset(self, internal_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct encoded entry items and their multiplicities.

        Vectorised :meth:`_encode_item` over the whole internal-key matrix
        followed by one ``np.unique`` pass; the result feeds the counting
        IBLT's batch insert/delete directly.  Items are ``uint64`` while
        they fit (``item_bits <= 64``), else exact Python ints in an
        ``object`` array.
        """
        wide = self.item_bits > 64
        dtype = object if wide else np.uint64
        if internal_matrix.size == 0:
            return np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64)
        index_row = np.arange(self.internal_entries, dtype=np.uint64).astype(dtype, copy=False)
        shift = self.index_bits if wide else np.uint64(self.index_bits)
        encoded = (internal_matrix.astype(dtype, copy=False) << shift) | index_row[None, :]
        items, counts = np.unique(encoded.ravel(), return_counts=True)
        return items, counts.astype(np.int64)

    def _table(self) -> MultisetIBLT:
        return MultisetIBLT(
            self.coins,
            ("sos-items", self.label),
            cells=self.cells,
            q=Q,
            key_bits=self.item_bits,
            backend=self.backend,
        )

    # -- the protocol ----------------------------------------------------------
    def run(
        self,
        alice_keys: Sequence[KeyVector] | np.ndarray,
        bob_keys: Sequence[KeyVector] | np.ndarray,
        channel: Channel | None = None,
    ) -> SetsOfSetsResult:
        """Run the 3-round protocol; Alice ends with Bob's key multiset view.

        Key collections may be sequences of tuples or ``(n, entries)``
        integer matrices; the Gap protocol passes key matrices straight
        through, keeping the signature hashing, item encoding, and
        counting-IBLT fills fully vectorised.
        """
        channel = channel if channel is not None else Channel()
        alice_matrix = self._internal_matrix(self._as_matrix(alice_keys))
        bob_matrix = self._internal_matrix(self._as_matrix(bob_keys))
        # Tuple views feed the (inherently per-key) patch logic of Round 3.
        alice_internal = [tuple(row) for row in alice_matrix.tolist()]
        bob_internal = [tuple(row) for row in bob_matrix.tolist()]

        # ---- Round 1: Bob -> Alice — counting IBLT over his items --------
        bob_table = self._table()
        alice_view_shell = self._table()
        bob_table.insert_batch(*self._item_multiset(bob_matrix))
        payload, bits = bob_table.to_payload()
        sent = channel.send(BOB, "sos-item-iblt", payload, bits)

        # Alice: load, delete her items, peel.
        alice_view = alice_view_shell.from_payload(sent)
        alice_view.delete_batch(*self._item_multiset(alice_matrix))
        decoded = alice_view.decode()
        if not decoded.success:
            return SetsOfSetsResult(
                success=False,
                total_bits=channel.total_bits,
                rounds=channel.rounds,
            )
        bob_only_items = decoded.positive  # item -> multiplicity
        alice_only_items = set(decoded.negative)

        # ---- Round 2: Alice -> Bob — the Bob-side differing items --------
        writer = BitWriter()
        writer.write_varuint(len(bob_only_items))
        for item, multiplicity in sorted(bob_only_items.items()):
            writer.write_uint(item, self.item_bits)
            writer.write_varuint(multiplicity)
        reply = channel.send(ALICE, "sos-query", writer.getvalue(), writer.bit_length)

        reader = BitReader(reply)
        query_count = reader.read_varuint()
        queried_items: set[int] = set()
        for _ in range(query_count):
            item = reader.read_uint(self.item_bits)
            reader.read_varuint()  # multiplicity (informational)
            queried_items.add(item)

        # ---- Round 3: Bob -> Alice — verbatim far keys + patches ----------
        distinct_bob: dict[KeyVector, int] = {}
        for key in bob_internal:
            distinct_bob[key] = distinct_bob.get(key, 0) + 1

        writer = BitWriter()
        affected: list[tuple[KeyVector, int, list[tuple[int, int]]]] = []
        for key, multiplicity in distinct_bob.items():
            diff_entries = [
                (index, value)
                for index, value in enumerate(key)
                if self._encode_item(index, value) in queried_items
            ]
            if diff_entries:
                affected.append((key, multiplicity, diff_entries))
        affected_keys = np.array([key for key, _, _ in affected], dtype=np.uint64)
        affected_keys = affected_keys.reshape(len(affected), self.internal_entries)
        checksums = self.key_checksum.hash_rows(affected_keys).tolist()
        writer.write_varuint(len(affected))
        for (key, multiplicity, diff_entries), checksum in zip(affected, checksums):
            verbatim = len(diff_entries) >= self.verbatim_threshold
            writer.write_bool(verbatim)
            writer.write_varuint(multiplicity)
            if verbatim:
                # Signature entry is derivable; ship only the h real entries.
                for value in key[: self.entries]:
                    writer.write_uint(value, self.entry_bits)
            else:
                writer.write_uint(checksum, _CHECK_BITS)
                writer.write_varuint(len(diff_entries))
                for index, value in diff_entries:
                    writer.write_uint(index, self.index_bits)
                    writer.write_uint(value, self.entry_bits)
        patch_payload = channel.send(
            BOB, "sos-patches", writer.getvalue(), writer.bit_length
        )

        # ---- Alice: reconstruct Bob's keys --------------------------------
        reader = BitReader(patch_payload)
        recovered: dict[KeyVector, int] = {}
        unresolved = 0
        distinct_alice = list(dict.fromkeys(alice_internal))
        distinct_matrix = np.array(distinct_alice, dtype=np.uint64)
        distinct_matrix = distinct_matrix.reshape(len(distinct_alice), self.internal_entries)
        record_count = reader.read_varuint()
        for _ in range(record_count):
            verbatim = reader.read_bool()
            multiplicity = reader.read_varuint()
            if verbatim:
                external = tuple(
                    reader.read_uint(self.entry_bits) for _ in range(self.entries)
                )
                recovered[external] = recovered.get(external, 0) + multiplicity
                continue
            checksum = reader.read_uint(_CHECK_BITS)
            patch_length = reader.read_varuint()
            patch = [
                (reader.read_uint(self.index_bits), reader.read_uint(self.entry_bits))
                for _ in range(patch_length)
            ]
            reconstructed = self._apply_patch(distinct_matrix, patch, checksum)
            if reconstructed is None:
                unresolved += multiplicity
            else:
                recovered[reconstructed] = (
                    recovered.get(reconstructed, 0) + multiplicity
                )

        # Alice infers identically-shared keys: none of their items (the
        # signature included) ended Alice-only, so Bob's multiset covers
        # every entry and, via the signature, holds the key itself.
        shared: list[KeyVector] = []
        for key in distinct_alice:
            covered = all(
                self._encode_item(index, value) not in alice_only_items
                for index, value in enumerate(key)
            )
            if covered:
                shared.append(key[: self.entries])

        return SetsOfSetsResult(
            success=True,
            recovered=recovered,
            shared_alice_keys=shared,
            unresolved=unresolved,
            pair_difference=decoded.total_difference,
            total_bits=channel.total_bits,
            rounds=channel.rounds,
        )

    def _apply_patch(
        self,
        alice_internal_keys: np.ndarray,
        patch: list[tuple[int, int]],
        checksum: int,
    ) -> KeyVector | None:
        """Patch each of Alice's keys; the checksum identifies the original.

        ``alice_internal_keys`` is Alice's ``(n, entries + 1)`` matrix of
        distinct internal keys.  The patch is written into a copy of it and
        every candidate is checksummed with one ``hash_rows`` call.
        Returns the *external* (signature-stripped) key of the first row
        whose checksum matches and whose signature entry is consistent
        with the reconstructed vector (a checksum collision can produce an
        inconsistent key), or ``None``.
        """
        candidates = alice_internal_keys.copy()
        for index, value in patch:
            candidates[:, index] = value
        matched = candidates[self.key_checksum.hash_rows(candidates) == checksum]
        signatures = self.signature_hash.hash_rows(matched[:, : self.entries])
        consistent = np.flatnonzero(signatures == matched[:, self.entries])
        if not len(consistent):
            return None
        return tuple(matched[consistent[0], : self.entries].tolist())
