"""Tests for the counting (multiset) IBLT."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import PublicCoins
from repro.iblt import MultisetIBLT
from repro.protocol import BitReader, multiset_payload, read_multiset_cells


def _table(coins, cells=120, q=4, key_bits=30, label="m"):
    return MultisetIBLT(coins, label, cells=cells, q=q, key_bits=key_bits)


class TestBasics:
    def test_insert_delete_cancels(self, coins):
        table = _table(coins)
        table.insert(5, 3)
        table.delete(5, 3)
        assert table.is_empty()

    def test_zero_multiplicity_noop(self, coins):
        table = _table(coins)
        table.insert(5, 0)
        assert table.is_empty()

    def test_key_range(self, coins):
        table = _table(coins, key_bits=8)
        with pytest.raises(ValueError):
            table.insert(256)

    def test_copy(self, coins):
        table = _table(coins)
        table.insert(9)
        clone = table.copy()
        clone.delete(9)
        assert clone.is_empty() and not table.is_empty()


INT64_MAX = (1 << 63) - 1

#: (path, case id, multiplicity): each must raise ``ValueError`` and leave
#: the table's cells untouched, on both batch routes.
BAD_MULTIPLICITIES = [
    ("scalar", "float", 1.5),
    ("scalar", "numpy-float", np.float64(2.0)),
    ("scalar", "bool", True),
    ("scalar", "above-int64", INT64_MAX + 1),
    ("scalar", "below-int64", -INT64_MAX - 2),
    ("batch", "float-array", np.array([1.5, 2.7])),
    ("batch", "bool-array", np.array([True, False])),
    ("batch", "float-list", [1, 1.5]),
    ("batch", "bool-list", [1, True]),
    ("batch", "float-scalar", 1.5),
    ("batch", "uint64-above-int64", np.array([1, INT64_MAX + 1], dtype=np.uint64)),
    ("batch", "object-above-int64", np.array([1, 1 << 70], dtype=object)),
    ("batch", "list-below-int64", [1, -INT64_MAX - 2]),
    ("batch", "wrong-length", [1, 2, 3]),
]


#: One key width per batch route: vectorised hashes, and keys wider than
#: ``MAX_NUMPY_KEY_BITS`` added one at a time.
ROUTE_KEY_BITS = [30, 80]


@pytest.mark.parametrize("key_bits", ROUTE_KEY_BITS)
@pytest.mark.parametrize(
    ("path", "multiplicity"),
    [(path, value) for path, _, value in BAD_MULTIPLICITIES],
    ids=[f"{path}-{case}" for path, case, _ in BAD_MULTIPLICITIES],
)
def test_non_integer_multiplicity_rejected_before_any_change(coins, key_bits, path, multiplicity):
    table = MultisetIBLT(coins, "m", cells=30, q=3, key_bits=key_bits)
    table.insert(9, 2)
    before = table.to_payload()
    for update in ("insert", "delete"):
        with pytest.raises(ValueError):
            if path == "scalar":
                getattr(table, update)(5, multiplicity)
            else:
                getattr(table, f"{update}_batch")([4, 5], multiplicity)
        assert table.to_payload() == before


@pytest.mark.parametrize("key_bits", ROUTE_KEY_BITS)
def test_integer_multiplicity_forms_agree(coins, key_bits):
    """Every accepted form gives the cells a scalar insert loop gives."""
    expected = MultisetIBLT(coins, "m", cells=30, q=3, key_bits=key_bits)
    for key, multiplicity in ((4, 3), (5, INT64_MAX), (6, 1)):
        expected.insert(key, multiplicity)
    keys = [4, 5, 6]
    for multiplicities in (
        [3, INT64_MAX, 1],
        np.array([3, INT64_MAX, 1], dtype=np.int64),
        np.array([3, INT64_MAX, 1], dtype=np.uint64),
        np.array([3, INT64_MAX, 1], dtype=object),
        [np.int32(3), np.uint64(INT64_MAX), np.int8(1)],
    ):
        table = MultisetIBLT(coins, "m", cells=30, q=3, key_bits=key_bits)
        table.insert_batch(keys, multiplicities)
        assert table.to_payload() == expected.to_payload()
        table.delete_batch(keys, multiplicities)
        assert table.is_empty()
    table = MultisetIBLT(coins, "m", cells=30, q=3, key_bits=key_bits)
    table.insert(4, np.int64(3))
    table.insert_batch([5, 6], np.int16(2))
    assert table.decode().multiplicities == {4: 3, 5: 2, 6: 2}


class TestDecode:
    def test_multiplicities_recovered(self, coins):
        table = _table(coins)
        table.insert(10, 3)
        table.insert(20, 1)
        table.delete(30, 2)
        result = table.decode()
        assert result.success
        assert result.multiplicities == {10: 3, 20: 1, 30: -2}
        assert result.positive == {10: 3, 20: 1}
        assert result.negative == {30: 2}
        assert result.total_difference == 6

    def test_mixed_sign_same_key_nets_out(self, coins):
        table = _table(coins)
        table.insert(7, 5)
        table.delete(7, 2)
        result = table.decode()
        assert result.success
        assert result.multiplicities == {7: 3}

    def test_full_cancellation(self, coins):
        table = _table(coins)
        table.insert(7, 5)
        table.delete(7, 5)
        result = table.decode()
        assert result.success
        assert result.multiplicities == {}

    def test_decode_destructive(self, coins):
        table = _table(coins)
        table.insert(3)
        table.decode()
        assert table.is_empty()

    def test_overload_fails(self, coins):
        table = _table(coins, cells=8)
        for key in range(200):
            table.insert(key)
        assert not table.decode().success


class TestMultisetReconciliation:
    def test_subtract_flow(self, coins):
        alice = {1: 2, 2: 1, 3: 4}
        bob = {1: 2, 2: 3, 4: 1}
        a = _table(coins, label="s")
        b = _table(coins, label="s")
        for key, mult in alice.items():
            a.insert(key, mult)
        for key, mult in bob.items():
            b.insert(key, mult)
        result = a.subtract(b).decode()
        assert result.success
        assert result.multiplicities == {2: -2, 3: 4, 4: -1}

    def test_incompatible_rejected(self, coins):
        with pytest.raises(ValueError):
            _table(coins, cells=30).subtract(_table(coins, cells=60))

    @given(
        seed=st.integers(min_value=0, max_value=2000),
        diffs=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_multiset_property(self, seed, diffs):
        rng = np.random.default_rng(seed)
        coins = PublicCoins(seed)
        shared = {int(k): int(m) for k, m in zip(
            rng.choice(1 << 20, size=30, replace=False),
            rng.integers(1, 5, size=30),
        )}
        expected = {}
        a = MultisetIBLT(coins, "hyp", cells=150, q=4, key_bits=25)
        b = MultisetIBLT(coins, "hyp", cells=150, q=4, key_bits=25)
        for key, mult in shared.items():
            a.insert(key, mult)
            b.insert(key, mult)
        for index in range(diffs):
            key = (1 << 21) + index
            mult = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                a.insert(key, mult)
                expected[key] = mult
            else:
                b.insert(key, mult)
                expected[key] = -mult
        result = a.subtract(b).decode()
        assert result.success
        assert result.multiplicities == expected


class TestSerialization:
    def test_roundtrip(self, coins):
        table = _table(coins, label="ser")
        table.insert(42, 7)
        table.delete(99, 2)
        payload, bits = multiset_payload(table)
        loaded = read_multiset_cells(BitReader(payload), _table(coins, label="ser"))
        assert loaded.counts == table.counts
        assert loaded.key_sum == table.key_sum
        assert loaded.check_sum == table.check_sum

    def test_shell_must_be_empty(self, coins):
        payload, _ = multiset_payload(_table(coins, label="x"))
        dirty = _table(coins, label="x")
        dirty.insert(1)
        with pytest.raises(ValueError):
            read_multiset_cells(BitReader(payload), dirty)
