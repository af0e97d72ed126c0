"""Tests for the key builders (Algorithm 1 prefixes, Gap batch keys)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import derive_emd_parameters
from repro.hashing import PublicCoins
from repro.lsh import (
    BatchKeyBuilder,
    BitSamplingMLSH,
    PrefixKeyBuilder,
    key_bits_for,
)
from repro.lsh import keys as keys_module
from repro.metric import HammingSpace


@pytest.fixture
def family():
    return BitSamplingMLSH(HammingSpace(16), w=32)


class TestKeyBitsFor:
    def test_grows_with_n(self):
        assert key_bits_for(10) <= key_bits_for(10_000)

    def test_bounds(self):
        assert 16 <= key_bits_for(1) <= 61
        assert key_bits_for(1 << 40) == 61

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            key_bits_for(0)


class TestPrefixKeyBuilder:
    def _builder(self, coins, family, lengths=(1, 2, 4, 8)):
        batch = family.sample_batch(coins, "b", max(lengths))
        return PrefixKeyBuilder(batch, lengths, coins, "k", key_bits=32)

    def test_shape(self, coins, family, rng):
        builder = self._builder(coins, family)
        points = HammingSpace(16).sample(rng, 5)
        keys = builder.keys_for(points)
        assert keys.shape == (5, 4)

    def test_empty_points(self, coins, family):
        builder = self._builder(coins, family)
        assert builder.keys_for([]).shape == (0, 4)

    def test_shared_between_parties(self, family, rng):
        points = HammingSpace(16).sample(rng, 4)
        batch_a = family.sample_batch(PublicCoins(1), "s", 8)
        builder_a = PrefixKeyBuilder(batch_a, (2, 8), PublicCoins(1), "k", 32)
        batch_b = family.sample_batch(PublicCoins(1), "s", 8)
        builder_b = PrefixKeyBuilder(batch_b, (2, 8), PublicCoins(1), "k", 32)
        assert (builder_a.keys_for(points) == builder_b.keys_for(points)).all()

    def test_identical_points_identical_keys(self, coins, family):
        builder = self._builder(coins, family)
        point = (0, 1) * 8
        keys = builder.keys_for([point, point])
        assert (keys[0] == keys[1]).all()

    def test_matches_from_scratch_hash(self, coins, family, rng):
        """Level keys must equal hashing the explicit MLSH prefix."""
        lengths = (1, 3, 7)
        batch = family.sample_batch(coins, "m", 7)
        builder = PrefixKeyBuilder(batch, lengths, coins, "k2", key_bits=40)
        points = HammingSpace(16).sample(rng, 3)
        values = batch.evaluate(points)
        keys = builder.keys_for(points)
        for row in range(3):
            for level, length in enumerate(lengths):
                expected = builder.hasher.hash_prefix(values[row].tolist(), length)
                assert keys[row, level] == expected

    def test_rejects_decreasing_lengths(self, coins, family):
        batch = family.sample_batch(coins, "r", 8)
        with pytest.raises(ValueError):
            PrefixKeyBuilder(batch, (4, 2), coins, "k", 32)

    def test_rejects_too_long_prefix(self, coins, family):
        batch = family.sample_batch(coins, "r2", 4)
        with pytest.raises(ValueError):
            PrefixKeyBuilder(batch, (2, 8), coins, "k", 32)

    def test_rejects_empty_lengths(self, coins, family):
        batch = family.sample_batch(coins, "r3", 4)
        with pytest.raises(ValueError):
            PrefixKeyBuilder(batch, (), coins, "k", 32)


class TestBatchKeyBuilder:
    def _builder(self, coins, family, entries=4, per_entry=3):
        batch = family.sample_batch(coins, "g", entries * per_entry)
        return BatchKeyBuilder(
            batch, entries=entries, per_entry=per_entry, coins=coins,
            label="gk", key_bits=32,
        )

    def test_key_length(self, coins, family, rng):
        builder = self._builder(coins, family)
        keys = builder.keys_for(HammingSpace(16).sample(rng, 6))
        assert len(keys) == 6
        assert all(len(key) == 4 for key in keys)

    def test_empty(self, coins, family):
        assert self._builder(coins, family).keys_for([]) == []

    def test_shared_between_parties(self, family, rng):
        points = HammingSpace(16).sample(rng, 4)

        def build(seed):
            coins = PublicCoins(seed)
            batch = family.sample_batch(coins, "g", 12)
            return BatchKeyBuilder(
                batch, entries=4, per_entry=3, coins=coins, label="gk", key_bits=32
            ).keys_for(points)

        assert build(42) == build(42)

    def test_identical_points_full_match(self, coins, family):
        builder = self._builder(coins, family)
        point = (1, 0) * 8
        keys = builder.keys_for([point, point])
        assert BatchKeyBuilder.matches(keys[0], keys[1]) == 4

    def test_matches_counts(self):
        assert BatchKeyBuilder.matches((1, 2, 3), (1, 9, 3)) == 2
        assert BatchKeyBuilder.matches((1, 2), (3, 4)) == 0

    def test_matches_length_check(self):
        with pytest.raises(ValueError):
            BatchKeyBuilder.matches((1, 2), (1, 2, 3))

    def test_batch_size_must_factor(self, coins, family):
        batch = family.sample_batch(coins, "f", 10)
        with pytest.raises(ValueError):
            BatchKeyBuilder(
                batch, entries=4, per_entry=3, coins=coins, label="x", key_bits=32
            )

    def test_best_matches_matches_scalar(self, rng, monkeypatch):
        """The vectorised max-agreement must equal the scalar matches loop,
        including across chunk boundaries."""
        monkeypatch.setattr(keys_module, "MATCH_CHUNK", 4)
        keys = rng.integers(0, 16, size=(10, 5)).astype(np.uint64)
        candidates = rng.integers(0, 16, size=(7, 5)).astype(np.uint64)
        best = BatchKeyBuilder.best_matches(keys, candidates)
        for row, key in enumerate(keys.tolist()):
            expected = max(
                BatchKeyBuilder.matches(key, candidate)
                for candidate in candidates.tolist()
            )
            assert best[row] == expected

    def test_best_matches_no_candidates(self):
        keys = np.ones((3, 4), dtype=np.uint64)
        empty = np.empty((0, 4), dtype=np.uint64)
        assert BatchKeyBuilder.best_matches(keys, empty).tolist() == [0, 0, 0]

    def test_best_matches_shape_check(self):
        with pytest.raises(ValueError):
            BatchKeyBuilder.best_matches(
                np.ones((2, 4), dtype=np.uint64), np.ones((2, 3), dtype=np.uint64)
            )

    def test_key_matrix_matches_tuples(self, coins, family, rng):
        builder = self._builder(coins, family)
        points = HammingSpace(16).sample(rng, 8)
        matrix = builder.key_matrix_for(points)
        assert matrix.dtype == np.uint64
        assert [tuple(row) for row in matrix.tolist()] == builder.keys_for(points)

    @pytest.mark.parametrize("count", [0, 1, 400])
    def test_key_matrix_matches_scalar_reference(self, coins, count):
        """Every entry equals its scalar ``VectorHash`` over its ``m`` LSH
        values; 400 points of 36 × 3 values span three row blocks."""
        space = HammingSpace(128)
        batch = BitSamplingMLSH(space, w=128.0).sample_batch(coins, "ref", 108)
        builder = BatchKeyBuilder(
            batch, entries=36, per_entry=3, coins=coins, label="ref", key_bits=32
        )
        points = space.sample(np.random.default_rng(9), count)
        expected = [
            [entry(row[3 * j : 3 * j + 3]) for j, entry in enumerate(builder.entry_hashes)]
            for row in batch.evaluate(points).tolist()
        ]
        assert builder.key_matrix_for(points).tolist() == expected

    def test_far_points_rarely_match(self, coins, rng):
        space = HammingSpace(64)
        family = BitSamplingMLSH(space, w=64)
        batch = family.sample_batch(coins, "far", 40)
        builder = BatchKeyBuilder(
            batch, entries=10, per_entry=4, coins=coins, label="fk", key_bits=32
        )
        zero = tuple([0] * 64)
        far = tuple([1] * 64)
        keys = builder.keys_for([zero, far])
        # Each entry matches iff all 4 sampled bits agree; distance = d so
        # entries should essentially never match.
        assert BatchKeyBuilder.matches(keys[0], keys[1]) <= 1


class TestPrefixKeyBuilderScalarParity:
    """The unified Mersenne-61 key stream, pinned the same way the IBLT
    backends are: the vectorised ``keys_for`` matrix must be bit-identical
    to a scalar per-point :class:`~repro.hashing.PrefixHasher` reference,
    whichever backend the process default selects."""

    LENGTHS = (1, 3, 4, 9)

    def _builder_and_points(self, key_bits=61):
        space = HammingSpace(32)
        family = BitSamplingMLSH(space, w=64.0)
        coins = PublicCoins(123)
        batch = family.sample_batch(coins, "parity", max(self.LENGTHS))
        builder = PrefixKeyBuilder(
            batch, self.LENGTHS, coins, "parity-keys", key_bits=key_bits
        )
        points = space.sample(np.random.default_rng(5), 20)
        return builder, points

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_keys_match_scalar_reference(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        builder, points = self._builder_and_points()
        keys = builder.keys_for(points)
        assert keys.dtype == np.uint64
        values = builder.batch.evaluate(points)
        for row in range(len(points)):
            expected = builder.hasher.prefix_digests(
                [int(v) for v in values[row]], list(self.LENGTHS)
            )
            assert keys[row].tolist() == expected

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_folded_widths_match_scalar_reference(self, backend, monkeypatch):
        """Key widths below 61 fold identically on both paths."""
        monkeypatch.setenv("REPRO_BACKEND", backend)
        builder, points = self._builder_and_points(key_bits=28)
        keys = builder.keys_for(points)
        assert int(keys.max()) < (1 << 28)
        values = builder.batch.evaluate(points)
        for row in range(0, len(points), 5):
            expected = builder.hasher.prefix_digests(
                [int(v) for v in values[row]], list(self.LENGTHS)
            )
            assert keys[row].tolist() == expected

    @pytest.mark.parametrize("seed, real", [(0, []), (77, [120, 271, 317])])
    def test_emd_hamming_shape_matches_scalar_reference(self, seed, real):
        """The emd-hamming benchmark's shape: ``w = 196,608`` against
        ``d = 64`` makes nearly all of the 1,024 sampled functions the
        constant 0, so the batch under seed 0 has no real column and the
        one under seed 77 three, over a 13-level schedule."""
        space = HammingSpace(64)
        params = derive_emd_parameters(space, n=64, k=1, max_total_hashes=1024)
        lengths = list(params.hash_counts)
        assert len(lengths) == 13 and lengths[-1] == 1024
        coins = PublicCoins(seed)
        batch = params.family.sample_batch(coins, "emd-mlsh", params.total_hashes)
        assert np.flatnonzero(batch.indices >= 0).tolist() == real
        builder = PrefixKeyBuilder(batch, lengths, coins, "emd-keys", key_bits=params.key_bits)
        points = space.sample(np.random.default_rng(seed), 64)
        values = batch.evaluate(points)
        assert builder.keys_for(points).tolist() == [
            builder.hasher.prefix_digests(row, lengths) for row in values.tolist()
        ]
