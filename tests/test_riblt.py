"""Tests for the Robust IBLT (Section 2.2, items 1–5)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import PublicCoins
from repro.iblt import RIBLT, riblt_cells_for_pairs
from repro.protocol import BitReader, read_riblt_cells, riblt_payload


def _table(coins, cells=108, q=3, key_bits=32, dim=3, side=64, label="r"):
    return RIBLT(
        coins, label, cells=cells, q=q, key_bits=key_bits, dim=dim, side=side
    )


def _batch_insert(table, pairs):
    """Insert ``(key, value)`` pairs through the one batch path."""
    keys = [key for key, _ in pairs]
    values = np.array([value for _, value in pairs], dtype=np.int64)
    table.insert_batch(keys, values.reshape(len(keys), table.dim))


class TestBasics:
    def test_insert_delete_cancels(self, coins):
        table = _table(coins)
        table.insert(5, (1, 2, 3))
        table.delete(5, (1, 2, 3))
        assert table.is_empty()
        assert table.residual_value_mass() == 0

    def test_same_key_different_value_leaves_residue(self, coins):
        """The cancellation residue of Figure 1: count/key zero, value not."""
        table = _table(coins)
        table.insert(5, (1, 2, 3))
        table.delete(5, (1, 2, 9))
        assert all(count == 0 for count in table.counts)
        assert all(key == 0 for key in table.key_sum)
        assert table.residual_value_mass() == 6 * table.q

    def test_requires_q_at_least_3(self, coins):
        with pytest.raises(ValueError):
            RIBLT(coins, "x", cells=12, q=2, key_bits=8, dim=1, side=4)

    def test_value_dimension_enforced(self, coins):
        table = _table(coins, dim=3)
        with pytest.raises(ValueError):
            table.insert(1, (1, 2))

    def test_key_range_enforced(self, coins):
        table = _table(coins, key_bits=8)
        with pytest.raises(ValueError):
            table.insert(300, (0, 0, 0))

    def test_copy_independent(self, coins):
        table = _table(coins)
        table.insert(3, (1, 1, 1))
        clone = table.copy()
        clone.delete(3, (1, 1, 1))
        assert clone.is_empty() and not table.is_empty()


class TestDecode:
    def test_simple_exact_decode(self, coins):
        table = _table(coins)
        pairs = [(10, (1, 2, 3)), (20, (4, 5, 6)), (30, (7, 8, 9))]
        _batch_insert(table, pairs)
        result = table.decode()
        assert result.success
        assert sorted(result.inserted) == sorted(pairs)
        assert result.deleted == []

    def test_signed_decode(self, coins):
        table = _table(coins)
        table.insert(10, (1, 2, 3))
        table.delete(99, (6, 6, 6))
        result = table.decode()
        assert result.success
        assert result.inserted == [(10, (1, 2, 3))]
        assert result.deleted == [(99, (6, 6, 6))]

    def test_duplicate_keys_same_value(self, coins):
        """Item 5: C copies of an identical pair peel in one step."""
        table = _table(coins)
        for _ in range(4):
            table.insert(7, (10, 20, 30))
        result = table.decode()
        assert result.success
        assert result.inserted == [(7, (10, 20, 30))] * 4

    def test_duplicate_keys_values_average(self, coins):
        table = _table(coins)
        table.insert(7, (10, 10, 10))
        table.insert(7, (12, 10, 10))
        result = table.decode(random.Random(1))
        assert result.success
        assert len(result.inserted) == 2
        for key, value in result.inserted:
            assert key == 7
            assert value[0] in (10, 11, 12)  # rounded average of 10 and 12
            assert value[1:] == (10, 10)

    def test_averaged_values_stay_in_space(self, coins):
        table = _table(coins, side=8)
        table.insert(3, (0, 0, 7))
        table.insert(3, (7, 0, 7))
        result = table.decode(random.Random(2))
        assert result.success
        for _, value in result.inserted:
            assert all(0 <= coordinate <= 7 for coordinate in value)

    def test_rounding_is_unbiased(self, coins):
        """Average of 0 and 1 should round to each about half the time."""
        ups = 0
        trials = 400
        for seed in range(trials):
            table = _table(PublicCoins(seed), label="rb")
            table.insert(1, (0, 0, 0))
            table.insert(1, (1, 0, 0))
            result = table.decode(random.Random(seed))
            assert result.success
            ups += sum(value[0] for _, value in result.inserted)
        rate = ups / (2 * trials)
        assert 0.4 < rate < 0.6

    def test_error_propagation_bounded_on_sparse_table(self):
        """Lemma 3.10's phenomenon at the RIBLT level: one noisy pair's
        error perturbs decoded values by a bounded total amount."""
        total_error = 0
        trials = 30
        for seed in range(trials):
            coins = PublicCoins(seed)
            table = _table(coins, cells=180, label="ep")
            rng = np.random.default_rng(seed)
            pairs = [
                (int(key), tuple(int(v) for v in rng.integers(0, 64, size=3)))
                for key in rng.choice(1 << 30, size=8, replace=False)
            ]
            _batch_insert(table, pairs)
            # A cancelled pair with value noise 1 in one coordinate.
            noisy_key = 1 << 31 - 1
            value = (10, 10, 10)
            off = (11, 10, 10)
            table.insert(noisy_key, value)
            table.delete(noisy_key, off)
            result = table.decode(random.Random(seed))
            assert result.success
            recovered = {key: value for key, value in result.inserted}
            for key, original in pairs:
                got = recovered[key]
                total_error += sum(abs(a - b) for a, b in zip(got, original))
        # The initial error has magnitude 1; O(1) propagation means the
        # average per-trial total error stays small.
        assert total_error / trials < 3.0

    def test_decode_empty(self, coins):
        result = _table(coins).decode()
        assert result.success
        assert result.pair_count == 0

    def test_overloaded_fails(self, coins):
        table = _table(coins, cells=9)
        rng = np.random.default_rng(0)
        for key in range(300):
            table.insert(key, tuple(int(v) for v in rng.integers(0, 64, size=3)))
        assert not table.decode().success


class TestSubtract:
    def test_reconciliation_flow(self, coins, rng):
        """Alice inserts, Bob deletes — shared pairs cancel exactly."""
        shared = [
            (int(key), tuple(int(v) for v in rng.integers(0, 64, size=3)))
            for key in rng.choice(1 << 30, size=40, replace=False)
        ]
        alice_only = [(int(1 << 31), (1, 2, 3))]
        bob_only = [(int((1 << 31) + 1), (4, 5, 6))]
        a = _table(coins, label="sub")
        b = _table(coins, label="sub")
        _batch_insert(a, shared + alice_only)
        _batch_insert(b, shared + bob_only)
        result = a.subtract(b).decode()
        assert result.success
        assert result.inserted == alice_only
        assert result.deleted == bob_only

    def test_incompatible_rejected(self, coins):
        a = _table(coins, dim=3, label="x")
        b = _table(coins, dim=2, label="x")
        with pytest.raises(ValueError):
            a.subtract(b)


class TestSerialization:
    def test_roundtrip(self, coins, rng):
        table = _table(coins, label="ser")
        for key in range(25):
            table.insert(key, tuple(int(v) for v in rng.integers(0, 64, size=3)))
        payload, bits = riblt_payload(table)
        assert bits <= 8 * len(payload)
        loaded = read_riblt_cells(BitReader(payload), _table(coins, label="ser"))
        assert loaded.counts == table.counts
        assert loaded.key_sum == table.key_sum
        assert loaded.check_sum == table.check_sum
        assert loaded.value_sum == table.value_sum

    def test_loaded_decodes(self, coins):
        table = _table(coins, label="ser2")
        table.insert(9, (1, 2, 3))
        payload, _ = riblt_payload(table)
        loaded = read_riblt_cells(BitReader(payload), _table(coins, label="ser2"))
        result = loaded.decode()
        assert result.success and result.inserted == [(9, (1, 2, 3))]

    def test_negative_sums_roundtrip(self, coins):
        table = _table(coins, label="ser3")
        table.delete(5, (60, 60, 60))
        payload, _ = riblt_payload(table)
        loaded = read_riblt_cells(BitReader(payload), _table(coins, label="ser3"))
        assert loaded.counts == table.counts
        assert loaded.value_sum == table.value_sum


class TestSizing:
    def test_paper_sizing(self):
        # m = q^2 * pairs with pairs = 4k reproduces m = 4 q^2 k.
        assert riblt_cells_for_pairs(4 * 5, q=3) == 4 * 9 * 5

    def test_load_below_tree_threshold(self):
        """Item 2: accepted load must stay under 1/(q(q-1))."""
        for q in (3, 4, 5):
            pairs = 40
            cells = riblt_cells_for_pairs(pairs, q=q)
            assert pairs / cells < 1.0 / (q * (q - 1))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            riblt_cells_for_pairs(0)
        with pytest.raises(ValueError):
            riblt_cells_for_pairs(5, q=2)


@given(
    seed=st.integers(min_value=0, max_value=3000),
    pairs=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=30, deadline=None)
def test_decode_recovers_distinct_pairs_property(seed, pairs):
    rng = np.random.default_rng(seed)
    coins = PublicCoins(seed)
    table = RIBLT(coins, "hyp", cells=150, q=3, key_bits=30, dim=2, side=32)
    inserted = {}
    for _ in range(pairs):
        key = int(rng.integers(0, 1 << 30))
        if key in inserted:
            continue
        value = tuple(int(v) for v in rng.integers(0, 32, size=2))
        inserted[key] = value
        table.insert(key, value)
    result = table.decode(random.Random(seed))
    assert result.success
    assert sorted(result.inserted) == sorted(inserted.items())


class TestBatchParity:
    """The batch path must be bit-identical to an :meth:`RIBLT.insert`
    loop (the scalar reference) — it is what the EMD protocol feeds its
    uint64 key matrices through."""

    def _random_pairs(self, rng, count, key_bits=32, dim=3, side=64):
        keys = rng.choice(1 << key_bits, size=count, replace=False).astype(np.uint64)
        values = rng.integers(0, side, size=(count, dim), dtype=np.int64)
        return keys, values

    @given(seed=st.integers(min_value=0, max_value=2000),
           count=st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_insert_batch_matches_per_pair(self, seed, count):
        rng = np.random.default_rng(seed)
        coins = PublicCoins(seed)
        keys, values = self._random_pairs(rng, count)
        batch_table = _table(coins, label="bp")
        scalar_table = _table(coins, label="bp")
        batch_table.insert_batch(keys, values)
        for key, row in zip(keys.tolist(), values.tolist()):
            scalar_table.insert(key, row)
        assert batch_table.counts == scalar_table.counts
        assert batch_table.key_sum == scalar_table.key_sum
        assert batch_table.check_sum == scalar_table.check_sum
        assert batch_table.value_sum == scalar_table.value_sum

    def test_delete_batch_cancels_insert_batch(self, coins):
        rng = np.random.default_rng(9)
        keys, values = self._random_pairs(rng, 20)
        table = _table(coins, label="bp2")
        table.insert_batch(keys, values)
        table.delete_batch(keys, values)
        assert table.is_empty()
        assert table.residual_value_mass() == 0

    def test_batch_decode_matches_pairs_decode(self, coins):
        rng = np.random.default_rng(11)
        keys, values = self._random_pairs(rng, 12)
        batch_table = _table(coins, label="bp3")
        batch_table.insert_batch(keys, values)
        result = batch_table.decode(random.Random(3))
        assert result.success
        expected = sorted(
            (int(key), tuple(int(v) for v in row))
            for key, row in zip(keys.tolist(), values.tolist())
        )
        assert sorted(result.inserted) == expected

    def test_batch_validates_key_range(self, coins):
        table = _table(coins, key_bits=8, label="bp4")
        with pytest.raises(ValueError):
            table.insert_batch(
                np.array([300], dtype=np.uint64), np.zeros((1, 3), dtype=np.int64)
            )

    def test_batch_validates_shape(self, coins):
        table = _table(coins, label="bp5")
        with pytest.raises(ValueError):
            table.insert_batch(
                np.array([1], dtype=np.uint64), np.zeros((1, 2), dtype=np.int64)
            )
        with pytest.raises(ValueError):
            table.insert_batch(
                np.ones((2, 2), dtype=np.uint64), np.zeros((2, 3), dtype=np.int64)
            )

    def test_empty_batch_noop(self, coins):
        table = _table(coins, label="bp6")
        table.insert_batch(
            np.empty(0, dtype=np.uint64), np.empty((0, 3), dtype=np.int64)
        )
        assert table.is_empty()

    def test_overflow_guard_falls_back_exactly(self, coins):
        """Huge coordinates route through the per-pair path, still exact."""
        keys = np.array([1, 2, 3], dtype=np.uint64)
        values = np.full((3, 3), (1 << 61), dtype=np.int64)
        batch_table = _table(coins, side=1 << 62, label="bp7")
        scalar_table = _table(coins, side=1 << 62, label="bp7")
        batch_table.insert_batch(keys, values)
        for key, row in zip(keys.tolist(), values.tolist()):
            scalar_table.insert(key, row)
        assert batch_table.key_sum == scalar_table.key_sum
        assert batch_table.value_sum == scalar_table.value_sum
