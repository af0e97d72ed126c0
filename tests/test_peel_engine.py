"""The shared peel engine: hash cache, scratch buffers, cache parity.

Three contracts pin the engine shared by the whole IBLT family:

* the sum-cell decoders' batch-primed
  :class:`~repro.iblt.frontier.KeyHashCache` is bit-identical to scalar
  hashing — same FIFO peel sequence, same output, same residual cells —
  for RIBLT (where peel order shapes the *value* error propagation) and
  MultisetIBLT alike, each checked against a twin table whose cache is
  swapped for :class:`~repro.iblt.frontier.ScalarHashes`, the
  unmemoised reference;
* repeated ``decode()`` calls on the same table object — which reuse
  the shared scratch buffers and hash caches across calls and across
  ``subtract`` clones — are idempotent: re-decoding identical cell
  state yields identical results, and decoding an emptied table is a
  clean success;
* the cache itself memoises pure functions of the key: primed, scalar
  and vectorised evaluations all agree.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import Checksum, PairwiseHash, PublicCoins
from repro.iblt import IBLT, RIBLT, MultisetIBLT
from repro.iblt.frontier import (
    CACHE_PRIME_THRESHOLD,
    KeyHashCache,
    PeelScratch,
    ScalarHashes,
    divisible_key,
)

KEY_BITS = 55
KEY_MAX = (1 << KEY_BITS) - 1


@pytest.fixture
def coins():
    return PublicCoins(20_26)


# -- KeyHashCache -----------------------------------------------------------


class TestKeyHashCache:
    def _cache(self, coins, q=3, block_size=17):
        checksum = Checksum(coins, "cache-check", bits=61)
        hashes = [PairwiseHash(coins, ("cache-cell", j), bits=61) for j in range(q)]
        return cache_tuple(checksum, hashes, block_size)

    def test_primed_scalar_and_vector_agree(self, coins):
        cache, checksum, hashes, block_size = self._cache(coins)
        rng = np.random.default_rng(3)
        keys = rng.choice(KEY_MAX, size=max(64, CACHE_PRIME_THRESHOLD), replace=False)
        cache.prime(keys.tolist())
        assert len(cache) == keys.size
        for key in keys.tolist():
            assert cache.check(key) == checksum(key)
            expected = [j * block_size + hashes[j](key) % block_size for j in range(len(hashes))]
            assert cache.indices(key) == expected

    def test_scalar_fallback_memoises(self, coins):
        cache, checksum, hashes, block_size = self._cache(coins)
        assert cache.check(12345) == checksum(12345)
        assert len(cache) == 1
        assert cache.indices(12345) == [
            j * block_size + hashes[j](12345) % block_size
            for j in range(len(hashes))
        ]

    def test_small_batches_skip_priming(self, coins):
        cache, *_ = self._cache(coins)
        cache.prime(list(range(CACHE_PRIME_THRESHOLD - 1)))
        assert len(cache) == 0  # below the adaptive-tail threshold

    def test_duplicate_keys_primed_once(self, coins):
        """Duplicates count once: the batch-vs-scalar decision is made on
        *unique* missing keys, and each is hashed exactly once."""
        cache, checksum, *_ = self._cache(coins)
        unique = list(range(CACHE_PRIME_THRESHOLD))
        cache.prime(unique * 3)
        assert len(cache) == len(unique)
        assert cache.check(7) == checksum(7)


def cache_tuple(checksum, hashes, block_size):
    return KeyHashCache(checksum, hashes, block_size), checksum, hashes, block_size


# -- PeelScratch ------------------------------------------------------------


class TestPeelScratch:
    def test_unique_cells_dedupes_sorted_and_resets(self):
        scratch = PeelScratch()
        touched = np.array([[5, 1, 5], [1, 9, 0]], dtype=np.int64)
        first = scratch.unique_cells(touched, m=12)
        assert first.tolist() == [0, 1, 5, 9]
        # the flag array must have been reset: a fresh call sees nothing
        again = scratch.unique_cells(np.array([[2]], dtype=np.int64), m=12)
        assert again.tolist() == [2]

    def test_ones_candidates(self):
        scratch = PeelScratch()
        counts = np.array([0, 1, -1, 2, -3, 1], dtype=np.int64)
        assert scratch.ones_candidates(counts).tolist() == [1, 2, 5]

    def test_reallocates_on_size_change(self):
        scratch = PeelScratch()
        scratch.unique_cells(np.array([[1]], dtype=np.int64), m=4)
        assert scratch.unique_cells(np.array([[7]], dtype=np.int64), m=9).tolist() == [7]


def test_divisible_key():
    assert divisible_key(0, 10, 1 << 8) is None  # empty cell
    assert divisible_key(2, 10, 1 << 8) == 5
    assert divisible_key(2, 11, 1 << 8) is None  # not divisible
    assert divisible_key(1, 300, 1 << 8) is None  # out of range
    assert divisible_key(-2, -10, 1 << 8) == 5  # negative orientation
    assert divisible_key(1, -3, 1 << 8) is None


# -- sum-cell engine parity -------------------------------------------------


def _signed_pairs(rng: np.random.Generator, pairs: int, duplicates: bool):
    keys = rng.choice(KEY_MAX, size=pairs, replace=False).tolist()
    if duplicates and pairs >= 4:
        keys[1] = keys[0]
        keys[3] = keys[2]
    values = [tuple(int(v) for v in rng.integers(0, 64, size=3)) for _ in range(pairs)]
    signs = [1 if rng.integers(0, 2) else -1 for _ in range(pairs)]
    return list(zip(keys, values, signs))


class TestRIBLTEngineParity:
    @given(
        seed=st.integers(0, 1 << 16),
        pairs=st.integers(1, 40),
        duplicates=st.booleans(),
        overload=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_cached_engine_is_bit_identical(self, seed, pairs, duplicates, overload):
        """Same FIFO peel, same extracted pairs *in order* (so the same
        value-error propagation and rng stream), same residual cells —
        on decodable and overloaded tables alike."""
        rng = np.random.default_rng(seed)
        coins = PublicCoins(seed)
        cells = 27 if overload else max(27, 9 * 2 * pairs)
        tables = {
            engine: RIBLT(coins, "parity", cells=cells, q=3, key_bits=KEY_BITS, dim=3, side=64)
            for engine in ("scalar", "cached")
        }
        tables["scalar"]._hash_cache = ScalarHashes(tables["scalar"])
        for key, value, sign in _signed_pairs(rng, pairs, duplicates):
            for table in tables.values():
                (table.insert if sign > 0 else table.delete)(key, value)
        results = {engine: table.decode(random.Random(99)) for engine, table in tables.items()}
        assert results["cached"].success == results["scalar"].success
        assert results["cached"].inserted == results["scalar"].inserted
        assert results["cached"].deleted == results["scalar"].deleted
        assert results["cached"].peel_rounds == results["scalar"].peel_rounds
        assert tables["cached"].counts == tables["scalar"].counts
        assert tables["cached"].key_sum == tables["scalar"].key_sum
        assert tables["cached"].check_sum == tables["scalar"].check_sum
        assert np.array_equal(tables["cached"].value_sum, tables["scalar"].value_sum)


class TestMultisetEngineParity:
    @given(
        seed=st.integers(0, 1 << 16),
        updates=st.lists(
            st.tuples(st.integers(0, 60), st.integers(-3, 3)),
            min_size=0,
            max_size=50,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_cached_engine_is_bit_identical(self, seed, updates):
        """The cached peel against the scalar-per-step reference."""
        coins = PublicCoins(seed)
        tables = {
            engine: MultisetIBLT(coins, "parity", cells=24, q=3, key_bits=KEY_BITS)
            for engine in ("scalar", "cached")
        }
        tables["scalar"]._hash_cache = ScalarHashes(tables["scalar"])
        for key, multiplicity in updates:
            for table in tables.values():
                table.insert(key, multiplicity)
        results = {engine: table.decode() for engine, table in tables.items()}
        assert results["cached"].success == results["scalar"].success
        assert results["cached"].multiplicities == results["scalar"].multiplicities
        assert list(results["cached"].multiplicities) == list(
            results["scalar"].multiplicities
        )  # same *peel order*, not just the same mapping
        assert tables["cached"].counts == tables["scalar"].counts
        assert tables["cached"].key_sum == tables["scalar"].key_sum
        assert tables["cached"].check_sum == tables["scalar"].check_sum


# -- repeated-decode buffer reuse -------------------------------------------


class TestRepeatedDecodeIdempotence:
    """The scratch/cache state shared across ``decode()`` calls (and
    across ``subtract`` clones) is pure work state: re-decoding the same
    cell contents through the same object must give identical results."""

    def test_iblt_reload_and_redecode(self, coins):
        rng = np.random.default_rng(11)
        keys = rng.choice(KEY_MAX, size=90, replace=False).astype(np.uint64)
        table = IBLT(coins, "idem", cells=220, q=3, key_bits=KEY_BITS, backend="numpy")
        outcomes = []
        for _ in range(3):  # same object, same buffers, three full decodes
            table.insert_batch(keys)
            result = table.decode()
            outcomes.append((result.success, result.inserted, result.deleted))
            assert table.is_empty()
        assert outcomes[0][0] is True
        assert outcomes.count(outcomes[0]) == 3

    def test_iblt_decode_of_emptied_table_is_clean(self, coins):
        table = IBLT(coins, "empty", cells=30, q=3, key_bits=KEY_BITS, backend="numpy")
        table.insert_all([3, 5, 7])
        assert table.decode().success
        second = table.decode()
        assert second.success and second.inserted == [] and second.deleted == []

    def test_iblt_clones_share_scratch_but_not_results(self, coins):
        rng = np.random.default_rng(12)
        keys = rng.choice(KEY_MAX, size=60, replace=False).astype(np.uint64)
        table_a = IBLT(coins, "cl", cells=160, q=3, key_bits=KEY_BITS, backend="numpy")
        table_b = IBLT(coins, "cl", cells=160, q=3, key_bits=KEY_BITS, backend="numpy")
        table_a.insert_batch(keys[:30])
        table_b.insert_batch(keys)
        outcomes = []
        for _ in range(3):  # each subtraction is a fresh clone, shared scratch
            diff = table_b.subtract(table_a)
            assert diff._scratch is table_b._scratch
            assert diff._hash_cache is table_b._hash_cache
            result = diff.decode()
            assert result.success
            outcomes.append((sorted(result.inserted), sorted(result.deleted)))
        assert outcomes.count(outcomes[0]) == 3
        assert outcomes[0] == (sorted(keys[30:].tolist()), [])

    def test_riblt_rebuild_and_redecode(self, coins):
        rng = np.random.default_rng(13)
        pairs = [
            (int(key), (int(rng.integers(0, 9)), int(rng.integers(0, 9))))
            for key in rng.choice(KEY_MAX, size=12, replace=False)
        ]
        table = RIBLT(coins, "idem", cells=9 * 24, q=3, key_bits=KEY_BITS, dim=2, side=9)
        outcomes = []
        for _ in range(3):  # decode empties it (distinct keys: no residue)
            for key, value in pairs:
                table.insert(key, value)
            result = table.decode(random.Random(7))
            assert result.success
            assert table.is_empty() and table.residual_value_mass() == 0
            outcomes.append((result.inserted, result.deleted))
        assert outcomes.count(outcomes[0]) == 3

    def test_multiset_rebuild_and_redecode(self, coins):
        table = MultisetIBLT(coins, "idem", cells=30, q=3, key_bits=KEY_BITS)
        outcomes = []
        for _ in range(3):
            table.insert(10, 3)
            table.insert(77, 1)
            table.delete(1234, 2)
            result = table.decode()
            assert result.success
            assert table.is_empty()
            outcomes.append(dict(result.multiplicities))
        assert outcomes.count(outcomes[0]) == 3
        assert outcomes[0] == {10: 3, 77: 1, 1234: -2}
