"""Tests for the classic IBLT (Theorem 2.6 behaviour)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hashing import PublicCoins
from repro.iblt import IBLT, cells_for_differences
from repro.iblt.hypergraph import two_core
from repro.protocol import BitReader, iblt_payload, read_iblt_cells


def _table(coins, cells=90, q=3, key_bits=40, label="t"):
    return IBLT(coins, label, cells=cells, q=q, key_bits=key_bits)


class TestBasics:
    def test_insert_then_delete_empty(self, coins):
        table = _table(coins)
        table.insert(123)
        table.delete(123)
        assert table.is_empty()

    def test_cell_indices_distinct(self, coins):
        table = _table(coins, q=4)
        for key in range(50):
            indices = table.cell_indices(key)
            assert len(set(indices)) == 4

    def test_cell_indices_one_per_block(self, coins):
        table = _table(coins, cells=30, q=3)
        for key in range(20):
            for j, index in enumerate(table.cell_indices(key)):
                assert j * table.block_size <= index < (j + 1) * table.block_size

    def test_key_range_enforced(self, coins):
        table = _table(coins, key_bits=8)
        with pytest.raises(ValueError):
            table.insert(256)
        with pytest.raises(ValueError):
            table.insert(-1)

    def test_len_counts_net_items(self, coins):
        table = _table(coins)
        table.insert_all([1, 2, 3])
        assert len(table) == 3
        table.delete(2)
        assert len(table) == 2

    def test_copy_independent(self, coins):
        table = _table(coins)
        table.insert(5)
        clone = table.copy()
        clone.delete(5)
        assert clone.is_empty() and not table.is_empty()

    def test_q_must_be_at_least_2(self, coins):
        with pytest.raises(ValueError):
            IBLT(coins, "x", cells=10, q=1)


class TestDecode:
    def test_simple_decode(self, coins):
        table = _table(coins)
        table.insert_all([10, 20, 30])
        result = table.decode()
        assert result.success
        assert sorted(result.inserted) == [10, 20, 30]
        assert result.deleted == []

    def test_decode_empty(self, coins):
        result = _table(coins).decode()
        assert result.success
        assert result.difference_count == 0

    def test_signed_decode(self, coins):
        table = _table(coins)
        table.insert_all([1, 2])
        table.delete_all([100, 200, 300])
        result = table.decode()
        assert result.success
        assert sorted(result.inserted) == [1, 2]
        assert sorted(result.deleted) == [100, 200, 300]

    def test_decode_is_destructive(self, coins):
        table = _table(coins)
        table.insert(7)
        table.decode()
        assert table.is_empty()

    def test_overloaded_table_reports_failure(self, coins):
        table = _table(coins, cells=9, q=3)
        table.insert_all(range(1000, 1200))
        result = table.decode()
        assert not result.success

    def test_below_threshold_load_decodes(self, coins):
        """Theorem 2.6: load well under c* peels w.h.p."""
        failures = 0
        for seed in range(20):
            table = IBLT(PublicCoins(seed), "load", cells=120, q=3, key_bits=40)
            table.insert_all(range(7000, 7040))  # load = 1/3
            if not table.decode().success:
                failures += 1
        assert failures == 0


class TestReconciliation:
    def test_subtract_recovers_symmetric_difference(self, coins, rng):
        alice = set(int(v) for v in rng.integers(0, 1 << 30, size=200))
        bob = set(alice)
        removed = list(alice)[:5]
        for item in removed:
            bob.discard(item)
        added = [int(v) | (1 << 31) for v in rng.integers(0, 1 << 30, size=7)]
        bob.update(added)

        table_a = _table(coins, key_bits=40, label="recon")
        table_b = _table(coins, key_bits=40, label="recon")
        table_a.insert_all(alice)
        table_b.insert_all(bob)
        result = table_a.subtract(table_b).decode()
        assert result.success
        assert sorted(result.inserted) == sorted(alice - bob)
        assert sorted(result.deleted) == sorted(bob - alice)

    def test_subtract_requires_compatible(self, coins):
        a = _table(coins, cells=30, label="x")
        b = _table(coins, cells=60, label="x")
        with pytest.raises(ValueError):
            a.subtract(b)
        c = _table(coins, cells=30, label="y")
        with pytest.raises(ValueError):
            a.subtract(c)

    def test_identical_sets_cancel(self, coins, rng):
        items = [int(v) for v in rng.integers(0, 1 << 30, size=100)]
        a = _table(coins, label="c")
        b = _table(coins, label="c")
        a.insert_all(items)
        b.insert_all(items)
        assert a.subtract(b).is_empty()

    @given(
        seed=st.integers(min_value=0, max_value=2000),
        alice_extra=st.integers(min_value=0, max_value=8),
        bob_extra=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=1763, alice_extra=8, bob_extra=5)
    def test_reconciliation_property(self, seed, alice_extra, bob_extra):
        """Decoding succeeds exactly when the difference keys' hypergraph
        peels (an empty 2-core), and never reports a key outside the
        difference.  At seed 1763 an Alice-only and a Bob-only key share
        all three cells, so that draw cannot decode."""
        rng = np.random.default_rng(seed)
        shared = {int(v) for v in rng.integers(0, 1 << 20, size=50)}
        alice_only = {int(v) | (1 << 21) for v in rng.integers(0, 1 << 20, size=alice_extra)}
        bob_only = {int(v) | (1 << 22) for v in rng.integers(0, 1 << 20, size=bob_extra)}
        coins = PublicCoins(seed)
        a = IBLT(coins, "prop", cells=120, q=3, key_bits=30)
        b = IBLT(coins, "prop", cells=120, q=3, key_bits=30)
        a.insert_all(shared | alice_only)
        b.insert_all(shared | bob_only)
        result = a.subtract(b).decode()
        edges = [tuple(a.cell_indices(key)) for key in alice_only | bob_only]
        assert result.success == (not two_core(a.m, edges))
        assert set(result.inserted) <= alice_only
        assert set(result.deleted) <= bob_only
        if result.success:
            assert set(result.inserted) == alice_only
            assert set(result.deleted) == bob_only


class TestSerialization:
    def test_roundtrip(self, coins, rng):
        table = _table(coins, label="ser")
        table.insert_all(int(v) for v in rng.integers(0, 1 << 30, size=30))
        payload, bits = iblt_payload(table)
        assert bits <= 8 * len(payload)
        shell = _table(coins, label="ser")
        loaded = read_iblt_cells(BitReader(payload), shell)
        assert list(loaded.counts) == list(table.counts)
        assert list(loaded.key_xor) == list(table.key_xor)
        assert list(loaded.check_xor) == list(table.check_xor)

    def test_loaded_table_decodes(self, coins):
        table = _table(coins, label="ser2")
        table.insert_all([5, 6, 7])
        payload, _ = iblt_payload(table)
        loaded = read_iblt_cells(BitReader(payload), _table(coins, label="ser2"))
        result = loaded.decode()
        assert result.success and sorted(result.inserted) == [5, 6, 7]

    def test_shell_must_be_empty(self, coins):
        table = _table(coins, label="ser3")
        payload, _ = iblt_payload(table)
        dirty = _table(coins, label="ser3")
        dirty.insert(1)
        with pytest.raises(ValueError):
            read_iblt_cells(BitReader(payload), dirty)


class TestSizing:
    def test_cells_for_differences_multiple_of_q(self):
        for d in (1, 5, 17, 100):
            assert cells_for_differences(d, q=3) % 3 == 0
            assert cells_for_differences(d, q=4) % 4 == 0

    def test_cells_grow_with_differences(self):
        assert cells_for_differences(10) < cells_for_differences(100)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cells_for_differences(-1)
