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

Record layout
-------------
Every stream is LSB-first (:mod:`repro.protocol.serialize`).  An item is
one ``item_bits``-wide field, the entry index in its low ``index_bits``
and the entry value above them, so an ``(index, value)`` pair written as
two fields is the same bits as the encoded item.

* ``sos-query`` — a varuint count, then per item (ascending) the item
  field and its multiplicity as a varuint.  While every multiplicity is
  below ``0x80`` each varuint is one 8-bit group with its continuation
  bit clear, so the records have a fixed stride of ``item_bits + 8`` and
  both sides move them as one bit matrix; the reader takes that path
  only after checking every continuation bit.
* ``sos-patches`` — a varuint record count, then per record a header of
  scalar fields — a verbatim flag, the multiplicity (varuint) and, for a
  patch, the 61-bit key checksum and the patch length (varuint) — and a
  body: the ``h`` external entries of ``entry_bits`` each for a verbatim
  key, else ``length`` item fields.  Bodies move as bit matrices; Alice
  parses every header first and then gathers every body in one pass.

Reconstruction in one affine pass
---------------------------------
The key checksum is the affine ``VectorHash`` ``b + Σ a_i·x_i mod P``
with 61 output bits, so no folding hides the field value.  Writing a
patch ``{i: v_i}`` into Alice's key ``r`` moves its checksum from
``b + S_r`` to ``b + S_r − Σ_{i∈patch} a_i·x_{r,i} + Σ_{i∈patch} a_i·v_i``.
Alice computes her per-entry products ``a_i·x_{r,i}`` and row sums
``S_r`` once; the masked sums for every (record, key) pair are two limb
matrix products (:func:`~repro.hashing.mersenne.masked_sums_mod_p`), so
every candidate checksum of every record comes out of one pass.  The
(record, key) pairs whose checksum matched are signature-checked together
with one ``hash_rows``, and each record takes the first consistent key in
Alice's row order.  Within a patch a repeated index keeps its last value.
The scalar search, one patched copy of Alice's matrix per record, is the
oracle ``tests/test_setsofsets.py`` pins this pass against.

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

from ..errors import MalformedPayloadError, TruncatedPayloadError
from ..hashing import PublicCoins, VectorHash, check_integers
from ..hashing.mersenne import (
    MERSENNE_P,
    masked_sums_mod_p,
    reduce_mod_p,
    row_products,
    sum_mod_p,
)
from ..iblt.counting import MultisetIBLT
from ..iblt.iblt import cells_for_differences, key_membership
from ..protocol.channel import ALICE, BOB, Channel
from ..protocol.serialize import BitReader, BitWriter, bits_to_fields, fields_to_bits

__all__ = ["SetsOfSetsResult", "SetsOfSetsReconciler"]

KeyVector = tuple[int, ...]

_CHECK_BITS = 61

#: Hashes per key in the counting IBLT.
Q = 4

#: Fraction of differing entries from which a key is sent verbatim.
VERBATIM_FRACTION = 1.0 / 3.0

#: Bits of a one-group varuint (a multiplicity below ``0x80``).
_GROUP_BITS = 8


def _distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of ``matrix`` in first-occurrence order, the
    positions of those first occurrences and each row's count.

    Each row is viewed as one opaque byte string, so a 1-d ``np.unique``
    compares whole rows exactly (10x faster than ``axis=0`` on 64 × 37).
    """
    matrix = np.ascontiguousarray(matrix)
    rows = matrix.view(np.dtype((np.void, matrix.itemsize * matrix.shape[1]))).ravel()
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    order = np.argsort(first)
    return matrix[first[order]], first[order], counts[order]


@dataclass
class _Patches:
    """The patch records of a parsed ``sos-patches`` message.

    ``checksums`` holds one key checksum per record; pair ``j`` of the
    flattened patches writes ``values[j]`` at entry ``indices[j]`` of
    record ``owners[j]``.
    """

    checksums: np.ndarray
    owners: np.ndarray
    indices: np.ndarray
    values: np.ndarray


@dataclass
class SetsOfSetsResult:
    """Outcome of the reconciliation (Alice's view of Bob's keys).

    Attributes
    ----------
    success:
        False iff the Round-1 counting IBLT failed to peel (undersized).
    bob_key_view:
        Every key Alice should treat as held by Bob, as a ``(k, h)``
        ``uint64`` matrix: the distinct recovered keys, then the shared
        ones.
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
    bob_key_view: np.ndarray
    recovered: dict[KeyVector, int] = field(default_factory=dict)
    shared_alice_keys: list[KeyVector] = field(default_factory=list)
    unresolved: int = 0
    pair_difference: int = 0
    total_bits: int = 0
    rounds: int = 0


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
    ):
        if entries < 1:
            raise ValueError(f"entries must be >= 1, got {entries}")
        if entry_bits < 1 or entry_bits > 55:
            raise ValueError(f"entry_bits must be in [1, 55], got {entry_bits}")
        self.coins = coins
        self.label = label
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

    def _encode(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Items ``(value << index_bits) | index``, broadcast over the inputs.

        ``uint64`` while they fit (``item_bits <= 64``), else exact Python
        ints in an ``object`` array.
        """
        if self.item_bits > 64:
            return (values.astype(object) << self.index_bits) | indices.astype(object)
        return (values << np.uint64(self.index_bits)) | indices

    def _items(self, internal_matrix: np.ndarray) -> np.ndarray:
        """Every entry item of an internal-key matrix, same shape."""
        return self._encode(internal_matrix, np.arange(self.internal_entries, dtype=np.uint64))

    def _table(self) -> MultisetIBLT:
        return MultisetIBLT(
            self.coins,
            ("sos-items", self.label),
            cells=self.cells,
            q=Q,
            key_bits=self.item_bits,
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
        through.  Every round works on whole matrices: item encoding,
        table fills, the covered-entry scans, record bodies and Alice's
        reconstruction.
        """
        channel = channel if channel is not None else Channel()
        alice_matrix = self._internal_matrix(self._as_matrix(alice_keys))
        bob_matrix = self._internal_matrix(self._as_matrix(bob_keys))
        alice_items = self._items(alice_matrix)
        bob_items = self._items(bob_matrix)

        # ---- Round 1: Bob -> Alice — counting IBLT over his items --------
        bob_table = self._table()
        alice_view_shell = self._table()
        items, counts = np.unique(bob_items.ravel(), return_counts=True)
        bob_table.insert_batch(items, counts.astype(np.int64))
        payload, bits = bob_table.to_payload()
        sent = channel.send(BOB, "sos-item-iblt", payload, bits)

        # Alice: load, delete her items, peel.
        alice_view = alice_view_shell.from_payload(sent)
        items, counts = np.unique(alice_items.ravel(), return_counts=True)
        alice_view.delete_batch(items, counts.astype(np.int64))
        decoded = alice_view.decode()
        if not decoded.success:
            return SetsOfSetsResult(
                success=False,
                bob_key_view=np.empty((0, self.entries), dtype=np.uint64),
                total_bits=channel.total_bits,
                rounds=channel.rounds,
            )

        # ---- Round 2: Alice -> Bob — the Bob-side differing items --------
        writer = BitWriter()
        self._write_query(writer, sorted(decoded.positive.items()))
        reply = channel.send(ALICE, "sos-query", writer.getvalue(), writer.bit_length)
        queried = self._read_query(reply)

        # ---- Round 3: Bob -> Alice — verbatim far keys + patches ----------
        bob_distinct, first, multiplicities = _distinct_rows(bob_matrix)
        differing = key_membership(bob_items[first], queried)
        affected = differing.any(axis=1)
        writer = BitWriter()
        self._write_patches(
            writer, bob_distinct[affected], multiplicities[affected], differing[affected]
        )
        patch_payload = channel.send(
            BOB, "sos-patches", writer.getvalue(), writer.bit_length
        )

        # ---- Alice: reconstruct Bob's keys --------------------------------
        alice_distinct, first, _ = _distinct_rows(alice_matrix)
        recovered, unresolved, recovered_matrix = self._recover(patch_payload, alice_distinct)

        # Alice infers identically-shared keys: none of their items (the
        # signature included) ended Alice-only, so Bob's multiset covers
        # every entry and, via the signature, holds the key itself.
        alice_only = np.array(list(decoded.negative), dtype=alice_items.dtype)
        covered = ~key_membership(alice_items[first], alice_only).any(axis=1)
        shared = alice_distinct[covered, : self.entries]

        return SetsOfSetsResult(
            success=True,
            bob_key_view=np.concatenate([recovered_matrix, shared]),
            recovered=recovered,
            shared_alice_keys=[tuple(key) for key in shared.tolist()],
            unresolved=unresolved,
            pair_difference=decoded.total_difference,
            total_bits=channel.total_bits,
            rounds=channel.rounds,
        )

    # -- Round 2 codec -----------------------------------------------------------
    def _write_query(self, writer: BitWriter, query: list[tuple[int, int]]) -> None:
        """The ``sos-query`` message: ascending ``(item, multiplicity)`` pairs."""
        writer.write_varuint(len(query))
        if max((multiplicity for _, multiplicity in query), default=0) >= 0x80:
            for item, multiplicity in query:
                writer.write_uint(item, self.item_bits)
                writer.write_varuint(multiplicity)
            return
        mask = (1 << self.index_bits) - 1
        indices = np.array([item & mask for item, _ in query], dtype=np.uint64)
        values = np.array([item >> self.index_bits for item, _ in query], dtype=np.uint64)
        groups = np.array([multiplicity for _, multiplicity in query], dtype=np.uint64) << 1
        writer.write_bit_rows(
            fields_to_bits(
                (indices, self.index_bits), (values, self.entry_bits), (groups, _GROUP_BITS)
            )
        )

    def _read_query(self, payload: bytes) -> np.ndarray:
        """The items of a ``sos-query`` message, encoded like :meth:`_items`.

        Fixed-stride records go as one bit matrix once every continuation
        bit reads clear; a multiplicity of ``0x80`` or more sends the
        reader down the field-by-field loop.
        """
        reader = BitReader(payload)
        count = reader.read_varuint()
        stride = self.item_bits + _GROUP_BITS
        if count * stride > reader.bits_remaining:
            raise TruncatedPayloadError("bit stream exhausted")
        rows = reader.peek_bit_rows(count, stride)
        if not rows[:, self.item_bits].any():
            reader.skip_bits(count * stride)
            indices, values = bits_to_fields(rows, self.index_bits, self.entry_bits)
            return self._encode(values, indices)
        items = []
        for _ in range(count):
            items.append(reader.read_uint(self.item_bits))
            reader.read_varuint()  # multiplicity (informational)
        return np.array(items, dtype=object if self.item_bits > 64 else np.uint64)

    # -- Round 3 codec -----------------------------------------------------------
    def _write_patches(
        self,
        writer: BitWriter,
        keys: np.ndarray,
        multiplicities: np.ndarray,
        differing: np.ndarray,
    ) -> None:
        """The ``sos-patches`` message for Bob's affected distinct keys.

        ``differing`` marks each key's queried entries; a key with at
        least ``verbatim_threshold`` of them goes verbatim, any other as
        a patch of those entries in index order.
        """
        lengths = differing.sum(axis=1)
        verbatim = lengths >= self.verbatim_threshold
        checksums = self.key_checksum.hash_rows(keys)
        # Signature entry is derivable; ship only the h real entries.
        bodies = fields_to_bits((keys[verbatim, : self.entries], self.entry_bits))
        owners, indices = np.nonzero(differing & ~verbatim[:, None])
        pairs = fields_to_bits(
            (indices.astype(np.uint64), self.index_bits),
            (keys[owners, indices], self.entry_bits),
        )
        writer.write_varuint(len(keys))
        body = pair = 0
        for is_verbatim, multiplicity, length, checksum in zip(
            verbatim.tolist(), multiplicities.tolist(), lengths.tolist(), checksums.tolist()
        ):
            writer.write_bool(is_verbatim)
            writer.write_varuint(multiplicity)
            if is_verbatim:
                writer.write_bit_rows(bodies[body])
                body += 1
            else:
                writer.write_uint(checksum, _CHECK_BITS)
                writer.write_varuint(length)
                writer.write_bit_rows(pairs[pair : pair + length])
                pair += length

    def _recover(
        self, payload: bytes, alice_keys: np.ndarray
    ) -> tuple[dict[KeyVector, int], int, np.ndarray]:
        """Alice's side of Round 3: parse every record, then reconstruct.

        ``alice_keys`` is her ``(n, entries + 1)`` matrix of distinct
        internal keys.  Returns the recovered keys with multiplicities,
        the multiplicity-weighted count of unresolved patches, and the
        distinct recovered keys as a matrix in first-recovery order.
        A patch index at or beyond ``entries + 1`` raises
        :class:`~repro.errors.MalformedPayloadError`.
        """
        reader = BitReader(payload)
        count = reader.read_varuint()
        stream = reader.peek_bit_rows(1, reader.bits_remaining)[0]
        end = reader.bits_remaining
        verbatim_width = self.entries * self.entry_bits
        verbatim, multiplicities, starts = [], [], []
        checksums, lengths = [], []
        for _ in range(count):
            is_verbatim = reader.read_bool()
            multiplicities.append(reader.read_varuint())
            if is_verbatim:
                width = verbatim_width
            else:
                checksums.append(reader.read_uint(_CHECK_BITS))
                lengths.append(reader.read_varuint())
                width = lengths[-1] * self.item_bits
            verbatim.append(is_verbatim)
            starts.append(end - reader.bits_remaining)
            reader.skip_bits(width)

        verbatim = np.array(verbatim, dtype=bool)
        starts = np.array(starts, dtype=np.int64)
        lengths = np.array(lengths, dtype=np.int64)
        keys = np.zeros((count, self.entries), dtype=np.uint64)
        bodies = stream[starts[verbatim][:, None] + np.arange(verbatim_width)]
        keys[verbatim] = bits_to_fields(
            bodies.reshape(-1, self.entries, self.entry_bits), self.entry_bits
        )[0]
        owners = np.repeat(np.arange(len(lengths)), lengths)
        offsets = np.arange(len(owners)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        pair_starts = starts[~verbatim][owners] + offsets * self.item_bits
        indices, values = bits_to_fields(
            stream[pair_starts[:, None] + np.arange(self.item_bits)],
            self.index_bits,
            self.entry_bits,
        )
        if len(indices) and int(indices.max()) >= self.internal_entries:
            raise MalformedPayloadError(
                f"patch index {int(indices.max())} outside [0, {self.internal_entries})"
            )
        patches = _Patches(np.array(checksums, dtype=np.uint64), owners, indices, values)
        found, patched = self._reconstruct(alice_keys, patches)
        known = verbatim.copy()
        known[~verbatim] = found
        keys[np.flatnonzero(~verbatim)[found]] = patched[found]

        recovered: dict[KeyVector, int] = {}
        unresolved = 0
        for key, is_known, multiplicity in zip(
            keys.tolist(), known.tolist(), multiplicities
        ):
            if is_known:
                key = tuple(key)
                recovered[key] = recovered.get(key, 0) + multiplicity
            else:
                unresolved += multiplicity
        return recovered, unresolved, _distinct_rows(keys[known])[0]

    def _reconstruct(
        self, alice_keys: np.ndarray, patches: _Patches
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply every patch to every one of Alice's keys in one affine pass.

        ``alice_keys`` is Alice's ``(n, entries + 1)`` matrix of distinct
        internal keys.  Returns ``(found, keys)``: per record, whether
        some row's patched checksum matches and its signature entry is
        consistent with the reconstructed vector (a checksum collision
        can produce an inconsistent key), and the *external*
        (signature-stripped) key of the first such row.
        """
        records = len(patches.checksums)
        width = self.internal_entries
        found = np.zeros(records, dtype=bool)
        keys = np.zeros((records, self.entries), dtype=np.uint64)
        if not records or not len(alice_keys):
            return found, keys
        # A repeated index keeps its last value: the last write wins.
        cells = patches.owners * width + patches.indices.astype(np.int64)
        _, last = np.unique(cells[::-1], return_index=True)
        last = len(cells) - 1 - last
        mask = np.zeros((records, width), dtype=bool)
        patch = np.zeros((records, width), dtype=np.uint64)
        mask.flat[cells[last]] = True
        patch.flat[cells[last]] = patches.values[last]

        # At 61 output bits a checksum is the field value itself.  The
        # patch matrix is zero off the mask, so its rows hash to
        # b + Σ a_i·v_i over each record's patched entries.
        checksum = self.key_checksum
        products = np.concatenate(
            [block for _, block in row_products(alice_keys, checksum.coeff_row)]
        )  # a_i·x_{r,i}, folded
        removed = masked_sums_mod_p(mask, products)  # Σ_{i∈patch} a_i·x_{r,i}
        candidates = reduce_mod_p(
            sum_mod_p(products)  # S_r
            + checksum.hash_rows(patch)[:, None]
            + (np.uint64(MERSENNE_P) - removed)
        )

        owners, hits = np.nonzero(candidates == patches.checksums[:, None])
        patched = np.where(mask[owners], patch[owners], alice_keys[hits])
        consistent = (
            self.signature_hash.hash_rows(patched[:, : self.entries])
            == patched[:, self.entries]
        )
        winners, first = np.unique(owners[consistent], return_index=True)
        found[winners] = True
        keys[winners] = patched[consistent][first, : self.entries]
        return found, keys
