"""Tests for the multiset-of-sets reconciliation layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MalformedPayloadError
from repro.hashing import PublicCoins
from repro.protocol import BitWriter, Channel
from repro.setsofsets import SetsOfSetsReconciler
from repro.setsofsets.protocol import _Patches


def _reconciler(coins, h=8, entry_bits=20, expected=64, **kwargs):
    return SetsOfSetsReconciler(
        coins, "t", entries=h, entry_bits=entry_bits,
        expected_differences=expected, **kwargs,
    )


def _random_keys(rng, count, h=8, bits=20):
    return [
        tuple(int(v) for v in rng.integers(0, 1 << bits, size=h))
        for _ in range(count)
    ]


class TestExactRecovery:
    def test_identical_collections(self, coins, rng):
        keys = _random_keys(rng, 15)
        result = _reconciler(coins).run(keys, keys, Channel())
        assert result.success
        assert result.recovered == {}
        assert sorted(result.shared_alice_keys) == sorted(set(keys))
        assert result.unresolved == 0

    def test_bob_extra_far_key(self, coins, rng):
        alice = _random_keys(rng, 10)
        extra = tuple(int(v) for v in rng.integers(0, 1 << 20, size=8))
        bob = alice + [extra]
        result = _reconciler(coins).run(alice, bob, Channel())
        assert result.success
        assert extra in result.recovered
        assert result.recovered[extra] == 1

    def test_bob_modified_key_patched(self, coins, rng):
        alice = _random_keys(rng, 10)
        modified = list(alice[0])
        modified[3] ^= 0xFFFF
        bob = [tuple(modified)] + alice[1:]
        result = _reconciler(coins).run(alice, bob, Channel())
        assert result.success
        assert tuple(modified) in result.recovered
        assert alice[0] not in result.shared_alice_keys

    def test_items_wider_than_64_bits(self, coins, rng):
        """600 entries of 55 bits encode to 65-bit items: the counting
        IBLT runs on exact Python ints through the same batch path."""
        reconciler = _reconciler(coins, h=600, entry_bits=55, expected=16)
        assert reconciler.item_bits > 64
        alice = _random_keys(rng, 6, h=600, bits=55)
        modified = list(alice[2])
        modified[10] ^= 0xABC
        bob = [tuple(modified)] + alice[:2] + alice[3:]
        result = reconciler.run(alice, bob, Channel())
        assert result.success
        assert tuple(modified) in result.recovered

    def test_view_covers_bob_multiset(self, coins, rng):
        alice = _random_keys(rng, 20)
        bob = list(alice)
        for index in (0, 3, 7):
            modified = list(bob[index])
            modified[index % 8] ^= 0x1234
            bob[index] = tuple(modified)
        bob.append(_random_keys(rng, 1)[0])
        result = _reconciler(coins, expected=128).run(alice, bob, Channel())
        assert result.success
        view = set(map(tuple, result.bob_key_view.tolist()))
        assert set(bob) <= view

    def test_multiplicities(self, coins, rng):
        alice = _random_keys(rng, 6)
        duplicate = _random_keys(rng, 1)[0]
        bob = alice + [duplicate, duplicate, duplicate]
        result = _reconciler(coins).run(alice, bob, Channel())
        assert result.success
        assert result.recovered[duplicate] == 3

    def test_alice_only_key_not_shared(self, coins, rng):
        alice = _random_keys(rng, 10)
        bob = alice[:-1]  # Bob lacks Alice's last key
        result = _reconciler(coins).run(alice, bob, Channel())
        assert result.success
        assert alice[-1] not in result.shared_alice_keys

    def test_empty_sides(self, coins, rng):
        keys = _random_keys(rng, 5)
        result = _reconciler(coins).run([], keys, Channel())
        assert result.success
        assert sum(result.recovered.values()) == 5
        result2 = _reconciler(coins).run(keys, [], Channel())
        assert result2.success
        assert result2.recovered == {}
        assert result2.shared_alice_keys == []


class TestFailureModes:
    def test_undersized_iblt_reports_failure(self, coins, rng):
        alice = _random_keys(rng, 40)
        bob = _random_keys(rng, 40)  # everything differs
        result = _reconciler(coins, expected=2, size_multiplier=1.0).run(
            alice, bob, Channel()
        )
        assert not result.success

    def test_unresolved_is_safe_direction(self, coins, rng):
        """Unresolved keys may only add to Alice's transmissions; the
        recovered dict must never contain a key Bob does not hold."""
        alice = _random_keys(rng, 15, bits=6)  # tiny value space -> masking
        bob = [list(key) for key in alice]
        for index in range(5):
            bob[index][index % 8] = (bob[index][index % 8] + 1) % 64
        bob = [tuple(key) for key in bob]
        result = _reconciler(coins, entry_bits=6, expected=256).run(
            alice, bob, Channel()
        )
        if result.success:
            for key in result.recovered:
                assert key in bob


class TestCommunication:
    def test_rounds(self, coins, rng):
        keys = _random_keys(rng, 10)
        channel = Channel()
        _reconciler(coins).run(keys, keys, channel)
        assert channel.rounds == 3

    def test_cost_scales_with_difference_not_n(self, rng):
        """The defining property vs. shipping all keys."""
        small_n = _random_keys(rng, 10)
        big_n = _random_keys(rng, 200)

        channel_small = Channel()
        _reconciler(PublicCoins(1)).run(small_n, small_n, channel_small)
        channel_big = Channel()
        _reconciler(PublicCoins(1)).run(big_n, big_n, channel_big)
        # Identical collections: cost driven by the (fixed) table size,
        # up to the varint log-factor from larger per-cell sums.  A 20x
        # larger n must cost far less than 20x the bits (and far less
        # than shipping all keys verbatim).
        assert channel_big.total_bits < 2 * channel_small.total_bits
        naive_bits = 200 * 8 * 20  # n * h * entry_bits
        assert channel_big.total_bits < 1.5 * naive_bits

    def test_verbatim_for_far_keys(self, coins, rng):
        """A completely different key is shipped verbatim, not patched."""
        alice = _random_keys(rng, 5)
        far = _random_keys(rng, 1)[0]
        bob = alice + [far]
        result = _reconciler(coins).run(alice, bob, Channel())
        assert result.success
        assert far in result.recovered
        assert result.unresolved == 0


class TestValidation:
    def test_rejects_bad_entry_bits(self, coins):
        with pytest.raises(ValueError):
            SetsOfSetsReconciler(coins, "x", entries=4, entry_bits=0,
                                 expected_differences=8)
        with pytest.raises(ValueError):
            SetsOfSetsReconciler(coins, "x", entries=4, entry_bits=60,
                                 expected_differences=8)

    def test_rejects_wrong_key_length(self, coins, rng):
        reconciler = _reconciler(coins)
        with pytest.raises(ValueError):
            reconciler.run([(1, 2, 3)], [], Channel())

    def test_rejects_out_of_range_entry(self, coins):
        reconciler = _reconciler(coins, entry_bits=4)
        with pytest.raises(ValueError):
            reconciler.run([tuple([16] * 8)], [], Channel())

    @pytest.mark.parametrize(
        "keys",
        [
            [(1.5,) + (2,) * 7],
            [(True,) + (2,) * 7],
            [(-1,) + (2,) * 7],
            np.full((1, 8), 1.5),
            np.ones((1, 8), dtype=bool),
            np.full((1, 8), -1),
        ],
        ids=["float", "bool", "negative", "float-matrix", "bool-matrix", "negative-matrix"],
    )
    def test_rejects_non_integer_and_negative_entries(self, coins, keys):
        """A cast would truncate floats and bools into valid entries, and
        wrap negatives; all are a ``ValueError`` on either side."""
        reconciler = _reconciler(coins)
        with pytest.raises(ValueError):
            reconciler.run(keys, [], Channel())
        with pytest.raises(ValueError):
            reconciler.run([], keys, Channel())


class _AffineStub:
    """A key checksum ``b + Σ 0·x_i``: every row, patched or not, hashes
    to ``b``, so every row collides with a record whose checksum is ``b``."""

    def __init__(self, width, b):
        self.coeff_row = np.zeros(width, dtype=np.uint64)
        self.b = b
        self.bits = 61

    def hash_rows(self, matrix):
        return np.full(len(matrix), self.b, dtype=np.uint64)


def _patches(patch_lists, checksums):
    """Patch records in the solver's flattened form."""
    pairs = [
        (owner, index, value)
        for owner, patch in enumerate(patch_lists)
        for index, value in patch
    ]
    owners, indices, values = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
    return _Patches(
        np.array(checksums, dtype=np.uint64),
        owners,
        indices.astype(np.uint64),
        values.astype(np.uint64),
    )


def _apply_patch(reconciler, alice_keys, patch, checksum):
    """The scalar reference search for one patch record.

    Writes the patch into a copy of Alice's ``(n, entries + 1)`` matrix
    of distinct internal keys, one pair at a time (so a repeated index
    keeps its last value), checksums every row, and returns the external
    key of the first matching row whose signature entry is consistent
    with the patched vector, or ``None``.
    """
    candidates = alice_keys.copy()
    for index, value in patch:
        candidates[:, index] = value
    matched = candidates[reconciler.key_checksum.hash_rows(candidates) == checksum]
    signatures = reconciler.signature_hash.hash_rows(matched[:, : reconciler.entries])
    consistent = np.flatnonzero(signatures == matched[:, reconciler.entries])
    if not len(consistent):
        return None
    return tuple(matched[consistent[0], : reconciler.entries].tolist())


class TestPatchSearch:
    def test_first_consistent_row_wins(self, coins, rng):
        """Every row collides on the stub checksum.  The patch leaves rows
        0 and 1 inconsistent with their signatures and rows 2 and 3
        consistent, so the search must return row 2, not row 3."""
        reconciler = _reconciler(coins)
        keys = np.array(_random_keys(rng, 4), dtype=np.uint64)
        keys[3, 0] = keys[2, 0]  # the patch below keeps rows 2 and 3 valid
        internal = reconciler._internal_matrix(keys)
        internal[1, reconciler.entries] ^= np.uint64(1)
        reconciler.key_checksum = _AffineStub(reconciler.internal_entries, 77)
        found, patched = reconciler._reconstruct(
            internal, _patches([[(0, int(keys[2, 0]))], [(0, int(keys[2, 0]))]], [77, 76])
        )
        assert found.tolist() == [True, False]
        assert tuple(patched[0].tolist()) == tuple(keys[2].tolist())

    def test_no_consistent_row(self, coins, rng):
        reconciler = _reconciler(coins)
        internal = reconciler._internal_matrix(np.array(_random_keys(rng, 3), dtype=np.uint64))
        found, _ = reconciler._reconstruct(internal, _patches([[(0, 5)]], [1]))
        assert found.tolist() == [False]
        reconciler.key_checksum = _AffineStub(reconciler.internal_entries, 9)
        internal[:, reconciler.entries] ^= np.uint64(1)
        found, _ = reconciler._reconstruct(internal, _patches([[]], [9]))
        assert found.tolist() == [False]

    def test_repeated_index_last_write_wins(self, coins, rng):
        reconciler = _reconciler(coins)
        alice = np.array(_random_keys(rng, 5), dtype=np.uint64)
        bob = alice[3].copy()
        bob[2] ^= np.uint64(0x3F)
        bob_internal = reconciler._internal_matrix(bob[None])
        checksum = int(reconciler.key_checksum.hash_rows(bob_internal)[0])
        signature = (reconciler.entries, int(bob_internal[0, reconciler.entries]))
        internal = reconciler._internal_matrix(alice)
        wrong, right = (2, int(alice[3, 2])), (2, int(bob[2]))
        found, patched = reconciler._reconstruct(
            internal,
            _patches([[wrong, right, signature], [right, wrong, signature]], [checksum] * 2),
        )
        assert found.tolist() == [True, False]
        assert tuple(patched[0].tolist()) == tuple(bob.tolist())

    def test_patch_index_past_the_key_is_malformed(self, coins, rng):
        """Index 50 fits the 6-bit index field of a 37-column matrix; the
        reader must reject it rather than index past the key."""
        reconciler = _reconciler(coins, h=36)
        assert (reconciler.internal_entries, reconciler.index_bits) == (37, 6)
        writer = BitWriter()
        writer.write_varuint(1)  # one record
        writer.write_bool(False)  # a patch
        writer.write_varuint(1)  # multiplicity
        writer.write_uint(12345, 61)  # checksum
        writer.write_varuint(1)  # one pair
        writer.write_uint(50, reconciler.index_bits)
        writer.write_uint(7, reconciler.entry_bits)
        internal = reconciler._internal_matrix(
            np.array(_random_keys(rng, 3, h=36), dtype=np.uint64)
        )
        with pytest.raises(MalformedPayloadError):
            reconciler._recover(writer.getvalue(), internal)


@given(seed=st.integers(0, 1 << 20), rows=st.integers(1, 10), records=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_solver_matches_scalar_oracle(seed, rows, records):
    """The affine pass equals the scalar search on random patches: true
    patches of keys one edit away, empty and repeated-index patches,
    and random ones.  Three-bit entries make signature collisions common,
    so the first-consistent-row rule is exercised."""
    rng = np.random.default_rng(seed)
    reconciler = _reconciler(PublicCoins(seed), h=5, entry_bits=3)
    alice = np.unique(rng.integers(0, 8, size=(rows, 5)).astype(np.uint64), axis=0)
    internal = reconciler._internal_matrix(alice)
    patch_lists, checksums = [], []
    for _ in range(records):
        bob = alice[rng.integers(len(alice))].copy()
        bob[rng.integers(5)] = rng.integers(8)
        bob_internal = reconciler._internal_matrix(bob[None])[0]
        width = int(rng.integers(0, 4))
        patch = [(int(i), int(bob_internal[i])) for i in rng.integers(0, 6, size=width)]
        if width and rng.random() < 0.3:
            patch.insert(0, (patch[-1][0], int(rng.integers(8))))  # overwritten later
        patch_lists.append(patch)
        checksum = int(reconciler.key_checksum.hash_rows(bob_internal[None])[0])
        checksums.append(checksum if rng.random() < 0.8 else int(rng.integers(1 << 61)))
    found, keys = reconciler._reconstruct(internal, _patches(patch_lists, checksums))
    for record, (patch, checksum) in enumerate(zip(patch_lists, checksums)):
        expected = _apply_patch(reconciler, internal, patch, checksum)
        assert found[record] == (expected is not None)
        if expected is not None:
            assert tuple(keys[record].tolist()) == expected
