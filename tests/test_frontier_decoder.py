"""The incremental frontier decoder is pinned against two oracles.

The numpy backend's frontier decoder must be *bit-identical* — same
output lists in the same order, same residual cell state — to
:func:`_rescan_decode`, a test-local decoder that re-derives the full
pure mask every round, and to the pure python reference backend, which
peels in the same rounds one key at a time.  The states cover
adversarial cell patterns: duplicate insertions, multiset (|count| > 1)
cells, and undecodable overloads whose 2-core every decoder must leave
untouched.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import PublicCoins
from repro.iblt import IBLT, IBLTDecodeResult, PeelQueue
from repro.iblt import iblt as iblt_module

KEY_BITS = 56
KEY_MAX = (1 << KEY_BITS) - 1


def _rescan_decode(table):
    """Round peeling over a numpy IBLT that rescans the whole table.

    Every round re-derives the pure mask of all ``m`` cells and peels it
    through the table's own ``_peel_round``, so it shares the round
    discipline (distinct keys in ascending order, sign and checksum read
    from the first pure cell) but none of the frontier tracking or the
    scalar tail.
    """
    result = IBLTDecodeResult(success=False)
    for _round in range(2 * table.m + 64):
        pure = (np.abs(table.counts) == 1) & (
            table.check_xor == table.checksum.hash_array(table.key_xor)
        )
        pure_cells = np.flatnonzero(pure)
        if pure_cells.size == 0:
            break
        table._peel_round(result, pure_cells, table.key_xor[pure_cells])
    result.success = bool(
        not table.counts.any() and not table.key_xor.any() and not table.check_xor.any()
    )
    return result


def _fresh_tables(coins, cells, q=3, key_bits=KEY_BITS):
    """One table per decoder: frontier, rescan oracle, python oracle."""
    return {
        "frontier": IBLT(coins, "fd", cells=cells, q=q, key_bits=key_bits, backend="numpy"),
        "rescan": IBLT(coins, "fd", cells=cells, q=q, key_bits=key_bits, backend="numpy"),
        "python": IBLT(coins, "fd", cells=cells, q=q, key_bits=key_bits, backend="python"),
    }


def _apply_signed(table, signed_keys):
    for key, sign in signed_keys:
        if sign > 0:
            table.insert(key)
        else:
            table.delete(key)


def _decode_all(tables):
    return {
        mode: _rescan_decode(table) if mode == "rescan" else table.decode()
        for mode, table in tables.items()
    }


def _cells(table):
    """A table's cell columns as plain int lists, on either backend."""
    columns = (table.counts, table.key_xor, table.check_xor)
    return [[int(value) for value in column] for column in columns]


def _assert_frontier_matches_oracles(tables, results):
    """The core regression contract: every decoder in ``tables`` returns
    the frontier decoder's output lists (including order) and leaves its
    residual cell state, on any *collision-free* table state (i.e. no
    cell whose garbage XOR passes the checksum purity test — a
    ~2^-61-per-cell fluke that the insert/delete strategies here cannot
    produce; see ``repro.iblt.iblt``'s module docstring for the caveat).

    The frontier decoder is a pure optimisation of the whole-table
    rescan, and the python reference peels in the same rounds, so the
    contract holds for multiset (|count| > 1) states too, where a cell
    shared between a count-+2 key and a count--1 key can pass the
    purity test with the wrong sign.
    """
    frontier = results["frontier"]
    for mode, result in results.items():
        assert result.success == frontier.success, mode
        assert result.inserted == frontier.inserted, mode
        assert result.deleted == frontier.deleted, mode
        assert _cells(tables[mode]) == _cells(tables["frontier"]), mode


class TestFrontierParity:
    @given(
        alice=st.lists(st.integers(0, KEY_MAX), min_size=0, max_size=40, unique=True),
        bob=st.lists(st.integers(0, KEY_MAX), min_size=0, max_size=40, unique=True),
        cells=st.sampled_from([12, 24, 48]),
        seed=st.integers(0, 1 << 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_subtracted_sets(self, alice, bob, cells, seed):
        """The standard reconciliation shape: decode of B - A."""
        coins = PublicCoins(seed)
        tables = _fresh_tables(coins, cells)
        diffs = {}
        for mode, table in tables.items():
            other = IBLT(coins, "fd", cells=cells, q=3, key_bits=KEY_BITS, backend=table.backend)
            table.insert_all(bob)
            other.insert_all(alice)
            diffs[mode] = table.subtract(other)
        results = _decode_all(diffs)
        _assert_frontier_matches_oracles(diffs, results)

    @given(
        updates=st.lists(
            st.tuples(st.integers(0, 200), st.sampled_from([1, -1])),
            min_size=0,
            max_size=80,
        ),
        cells=st.sampled_from([9, 24, 45]),
        seed=st.integers(0, 1 << 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_multiset_counts(self, updates, cells, seed):
        """Duplicate insertions and repeated deletes: cells with |count|
        far from 1, partial cancellations, negative multiplicities."""
        coins = PublicCoins(seed)
        tables = _fresh_tables(coins, cells)
        for table in tables.values():
            _apply_signed(table, updates)
        results = _decode_all(tables)
        _assert_frontier_matches_oracles(tables, results)

    def test_duplicate_insertions_never_peel(self, coins):
        """A key inserted twice is invisible to peeling (count 2 cells,
        XOR-cancelled keys); the odd key out still decodes, and the
        duplicate residue is identical across all three decoders."""
        tables = _fresh_tables(coins, cells=24)
        for table in tables.values():
            table.insert_all([5, 5, 77, 77, 123])
        results = _decode_all(tables)
        _assert_frontier_matches_oracles(tables, results)
        for result in results.values():
            assert not result.success
            assert result.inserted == [123]

    def test_undecodable_overload(self, coins):
        """60 cells, 200 keys: a huge 2-core; both numpy decoders and the
        python reference recover the same maximal peelable set in the
        same order."""
        rng = np.random.default_rng(17)
        keys = rng.choice(KEY_MAX, size=200, replace=False).tolist()
        tables = _fresh_tables(coins, cells=60)
        for table in tables.values():
            table.insert_all(keys)
        results = _decode_all(tables)
        _assert_frontier_matches_oracles(tables, results)
        assert not results["frontier"].success

    def test_near_threshold_large_table(self, coins):
        """A larger table near the q=3 threshold exercises many rounds."""
        rng = np.random.default_rng(0xF00D)
        differences = 600
        cells = int(2 * differences / 0.75)
        universe = rng.choice(KEY_MAX, size=4000 + differences, replace=False)
        alice = universe[:4000]
        bob = np.concatenate([universe[differences:4000], universe[4000:]])
        diffs = {}
        for mode in ("frontier", "rescan"):
            table_a = IBLT(coins, "big", cells=cells, q=3, key_bits=KEY_BITS, backend="numpy")
            table_b = IBLT(coins, "big", cells=cells, q=3, key_bits=KEY_BITS, backend="numpy")
            table_a.insert_batch(alice.astype(np.uint64))
            table_b.insert_batch(bob.astype(np.uint64))
            diffs[mode] = table_b.subtract(table_a)
        outcomes = _decode_all(diffs)
        assert outcomes["frontier"].success == outcomes["rescan"].success
        assert outcomes["frontier"].inserted == outcomes["rescan"].inserted
        assert outcomes["frontier"].deleted == outcomes["rescan"].deleted
        assert outcomes["frontier"].difference_count == 2 * differences


class TestAdaptiveThreshold:
    """The adaptive tail is behaviour-neutral: ANY ``PEEL_TAIL_THRESHOLD``
    — always-vectorised (0), always-scalar (huge), or boundary values
    that make the decode cross the switch mid-peel — must reproduce the
    rescan and python oracles bit-for-bit.  The constant is patched on
    :mod:`repro.iblt.iblt`, whose decoder reads it; the python backend
    never reads it (every python round is scalar)."""

    THRESHOLDS = (0, 1, 2, 7, 33, 1 << 30)

    @given(
        alice=st.lists(st.integers(0, KEY_MAX), min_size=0, max_size=60, unique=True),
        bob=st.lists(st.integers(0, KEY_MAX), min_size=0, max_size=60, unique=True),
        threshold=st.sampled_from(THRESHOLDS),
        cells=st.sampled_from([12, 24, 48, 96]),
        seed=st.integers(0, 1 << 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_threshold_matches_rescan(self, alice, bob, threshold, cells, seed):
        """Reconciliation decodes across the switch boundary: thresholds
        below, inside and above the frontier-size range all peel the
        same rounds."""
        coins = PublicCoins(seed)
        tables = _fresh_tables(coins, cells)
        diffs = {}
        for mode, table in tables.items():
            other = IBLT(coins, "fd", cells=cells, q=3, key_bits=KEY_BITS, backend=table.backend)
            table.insert_all(bob)
            other.insert_all(alice)
            diffs[mode] = table.subtract(other)
        with mock.patch.object(iblt_module, "PEEL_TAIL_THRESHOLD", threshold):
            results = _decode_all(diffs)
        _assert_frontier_matches_oracles(diffs, results)

    @given(
        updates=st.lists(
            st.tuples(st.integers(0, 150), st.sampled_from([1, -1])),
            min_size=0,
            max_size=100,
        ),
        threshold=st.sampled_from(THRESHOLDS),
        cells=st.sampled_from([9, 24, 45]),
        seed=st.integers(0, 1 << 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_multiset_counts_any_threshold(self, updates, threshold, cells, seed):
        """Duplicates, repeated deletes and |count| > 1 cells through the
        scalar tail: the sign/checksum bookkeeping of the scalar round
        must pick the same first-occurrence cells the vectorised
        ``np.unique`` pass does."""
        coins = PublicCoins(seed)
        tables = _fresh_tables(coins, cells)
        for table in tables.values():
            _apply_signed(table, updates)
        with mock.patch.object(iblt_module, "PEEL_TAIL_THRESHOLD", threshold):
            results = _decode_all(tables)
        _assert_frontier_matches_oracles(tables, results)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_undecodable_overload_any_threshold(self, coins, threshold):
        """The unpeelable 2-core is threshold-invariant, including the
        partial peel output recovered on the way in."""
        rng = np.random.default_rng(23)
        keys = rng.choice(KEY_MAX, size=180, replace=False).tolist()
        tables = _fresh_tables(coins, cells=60)
        for table in tables.values():
            table.insert_all(keys)
        with mock.patch.object(iblt_module, "PEEL_TAIL_THRESHOLD", threshold):
            results = _decode_all(tables)
        _assert_frontier_matches_oracles(tables, results)
        assert not results["frontier"].success

    def test_straddling_thresholds_cross_the_switch(self, coins):
        """A near-threshold table peels through shrinking rounds; picking
        thresholds inside the observed frontier-size range forces the
        vector->scalar switch to happen mid-decode (and the output to
        stay pinned)."""
        rng = np.random.default_rng(0xBEEF)
        differences = 120
        cells = int(2 * differences / 0.7)
        keys = rng.choice(KEY_MAX, size=differences, replace=False).astype(np.uint64)
        reference = None
        for threshold in (0, 4, 16, 48, 130, 1 << 30):
            table = IBLT(coins, "straddle", cells=cells, q=3, key_bits=KEY_BITS, backend="numpy")
            table.insert_batch(keys)
            with mock.patch.object(iblt_module, "PEEL_TAIL_THRESHOLD", threshold):
                result = table.decode()
            outcome = (result.success, result.inserted, result.deleted)
            if reference is None:
                reference = outcome
            assert outcome == reference


class TestPeelQueue:
    def test_fifo_order_and_dedup(self):
        queue = PeelQueue(8)
        for index in (3, 1, 3, 5, 1):
            queue.push(index)
        assert len(queue) == 3
        assert [queue.pop() for _ in range(3)] == [3, 1, 5]
        assert not queue

    def test_reenqueue_after_pop(self):
        queue = PeelQueue(4)
        queue.push(2)
        assert queue.pop() == 2
        queue.push(2)  # popped entries may be enqueued again
        assert queue.pop() == 2
