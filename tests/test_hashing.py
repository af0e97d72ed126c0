"""Tests for the public-coin and universal-hashing substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    MERSENNE_P,
    Checksum,
    PairwiseHash,
    PrefixHasher,
    PublicCoins,
    VectorHash,
    derive_seed,
    fold_to_bits,
)
from repro.hashing.mersenne import masked_sums_mod_p


class TestPublicCoins:
    def test_same_seed_same_streams(self):
        a, b = PublicCoins(7), PublicCoins(7)
        assert a.numpy_rng("s").integers(0, 1000, size=10).tolist() == (
            b.numpy_rng("s").integers(0, 1000, size=10).tolist()
        )

    def test_different_seed_different_streams(self):
        a, b = PublicCoins(7), PublicCoins(8)
        assert a.numpy_rng("s").integers(0, 1 << 40, size=8).tolist() != (
            b.numpy_rng("s").integers(0, 1 << 40, size=8).tolist()
        )

    def test_different_labels_independent(self):
        coins = PublicCoins(3)
        assert coins.numpy_rng("a").integers(0, 1 << 40, size=8).tolist() != (
            coins.numpy_rng("b").integers(0, 1 << 40, size=8).tolist()
        )

    def test_draw_order_does_not_matter(self):
        first = PublicCoins(5)
        x1 = first.numpy_rng("x").uniform(size=4)
        y1 = first.numpy_rng("y").uniform(size=4)
        second = PublicCoins(5)
        y2 = second.numpy_rng("y").uniform(size=4)
        x2 = second.numpy_rng("x").uniform(size=4)
        assert np.allclose(x1, x2)
        assert np.allclose(y1, y2)

    def test_child_coins_deterministic(self):
        a = PublicCoins(1).child("proto", 3)
        b = PublicCoins(1).child("proto", 3)
        assert a == b
        assert a != PublicCoins(1).child("proto", 4)

    def test_derive_seed_stable(self):
        assert derive_seed(10, "x", 1) == derive_seed(10, "x", 1)
        assert derive_seed(10, "x", 1) != derive_seed(10, "x", 2)

    def test_equality_and_hash(self):
        assert PublicCoins(4) == PublicCoins(4)
        assert hash(PublicCoins(4)) == hash(PublicCoins(4))
        assert PublicCoins(4) != PublicCoins(5)


class TestFoldToBits:
    def test_wide_passthrough(self):
        assert fold_to_bits(12345, 61) == 12345

    def test_truncation(self):
        assert fold_to_bits(0b1111, 2) == 0b11

    def test_zero(self):
        assert fold_to_bits(0, 8) == 0


class TestPairwiseHash:
    def test_deterministic_across_instances(self, coins):
        h1 = PairwiseHash(coins, "t", bits=32)
        h2 = PairwiseHash(coins, "t", bits=32)
        for x in [0, 1, 999, MERSENNE_P - 1, MERSENNE_P + 5]:
            assert h1(x) == h2(x)

    def test_range(self, coins):
        h = PairwiseHash(coins, "r", bits=16)
        for x in range(100):
            assert 0 <= h(x) < (1 << 16)

    def test_distinct_labels_differ(self, coins):
        h1 = PairwiseHash(coins, "a", bits=61)
        h2 = PairwiseHash(coins, "b", bits=61)
        assert any(h1(x) != h2(x) for x in range(16))

    def test_hash_array_matches_scalar(self, coins):
        h = PairwiseHash(coins, "arr", bits=48)
        xs = np.array([0, 5, 12345, 1 << 40], dtype=np.int64)
        assert h.hash_array(xs).tolist() == [h(int(x)) for x in xs]

    def test_hash_array_exact_uint64(self, coins):
        """The limb-split uint64 path returns a native unsigned array."""
        h = PairwiseHash(coins, "dtype", bits=61)
        out = h.hash_array(np.arange(16, dtype=np.uint64))
        assert out.dtype == np.uint64

    @pytest.mark.parametrize("bits", [16, 40, 61])
    def test_hash_array_matches_scalar_edges(self, coins, bits):
        """Regression: batch evaluation must agree with ``__call__`` on
        random 61-bit inputs *and* the field edge values."""
        h = PairwiseHash(coins, ("edges", bits), bits=bits)
        rng = np.random.default_rng(0xED6E)
        xs = np.concatenate(
            [
                rng.integers(0, 1 << 61, size=2000, dtype=np.int64).astype(np.uint64),
                np.array(
                    [0, 1, MERSENNE_P - 1, (1 << 61) - 1, 1 << 61, (1 << 64) - 1],
                    dtype=np.uint64,
                ),
            ]
        )
        assert h.hash_array(xs).tolist() == [h(int(x)) for x in xs.tolist()]

    def test_hash_array_matches_scalar_negative(self, coins):
        """Signed inputs (e.g. p-stable LSH cells) use floored modulo."""
        h = PairwiseHash(coins, "neg", bits=61)
        xs = np.array([-1, -2, -MERSENNE_P, -(1 << 62), -(1 << 63)], dtype=np.int64)
        assert h.hash_array(xs).tolist() == [h(int(x)) for x in xs.tolist()]

    def test_rejects_bad_bits(self, coins):
        with pytest.raises(ValueError):
            PairwiseHash(coins, "x", bits=0)
        with pytest.raises(ValueError):
            PairwiseHash(coins, "x", bits=62)

    def test_uniformity_rough(self, coins):
        h = PairwiseHash(coins, "u", bits=8)
        buckets = [0] * 256
        for x in range(10_000):
            buckets[h(x)] += 1
        # Each bucket expects ~39; allow generous slack.
        assert max(buckets) < 120
        assert min(buckets) > 5


#: Matrix fills at the closed form's limb-sum bounds: every term ``P - 1``,
#: ``uint64`` values near ``2^64`` and negative ``int64`` values.
_FILLS = ("random", "all-p-minus-1", "near-2^64", "negative")


def _matrix(fill: str, rows: int, width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if fill == "random":
        return rng.integers(0, 1 << 63, size=(rows, width), dtype=np.int64)
    if fill == "all-p-minus-1":
        return np.full((rows, width), MERSENNE_P - 1, dtype=np.uint64)
    if fill == "near-2^64":
        offsets = rng.integers(0, 1 << 8, size=(rows, width), dtype=np.uint64)
        return np.uint64((1 << 64) - 1) - offsets
    return rng.integers(-(1 << 63), 0, size=(rows, width), dtype=np.int64)


class TestVectorHash:
    def test_deterministic(self, coins):
        h1 = VectorHash(coins, "v", arity=4, bits=32)
        h2 = VectorHash(coins, "v", arity=4, bits=32)
        assert h1([1, 2, 3, 4]) == h2([1, 2, 3, 4])

    def test_arity_enforced(self, coins):
        h = VectorHash(coins, "v", arity=3)
        with pytest.raises(ValueError):
            h([1, 2])

    def test_sensitive_to_position(self, coins):
        h = VectorHash(coins, "v", arity=2, bits=61)
        assert h([1, 2]) != h([2, 1])

    def test_hash_matrix(self, coins):
        h = VectorHash(coins, "m", arity=3, bits=40)
        matrix = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
        assert h.hash_rows(matrix).tolist() == [h([1, 2, 3]), h([4, 5, 6])]

    def test_hash_rows_matches_scalar(self, coins):
        h = VectorHash(coins, "rows", arity=5, bits=50)
        rng = np.random.default_rng(0x0BAD)
        matrix = rng.integers(-(1 << 62), 1 << 62, size=(500, 5), dtype=np.int64)
        assert h.hash_rows(matrix).tolist() == [
            h([int(v) for v in row]) for row in matrix.tolist()
        ]

    def test_hash_matrix_shape_check(self, coins):
        h = VectorHash(coins, "m", arity=3)
        with pytest.raises(ValueError):
            h.hash_rows(np.zeros((2, 4), dtype=np.int64))

    @given(
        arity=st.integers(min_value=1, max_value=1024),
        rows=st.integers(min_value=0, max_value=20),
        fill=st.sampled_from(_FILLS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_hash_rows_closed_form_matches_scalar(self, arity, rows, fill, seed):
        h = VectorHash(PublicCoins(seed), "closed", arity=arity, bits=61)
        matrix = _matrix(fill, rows, arity, seed)
        assert h.hash_rows(matrix).tolist() == [h(row) for row in matrix.tolist()]


class TestMaskedSums:
    @given(
        records=st.integers(min_value=0, max_value=12),
        rows=st.integers(min_value=0, max_value=12),
        columns=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_python_ints(self, records, rows, columns, seed):
        """Every masked row sum of arbitrary uint64 values, against exact
        Python-int arithmetic (all-ones values drive both limbs to their
        maximum)."""
        rng = np.random.default_rng(seed)
        mask = rng.random((records, columns)) < 0.5
        x = rng.integers(0, 1 << 64, size=(rows, columns), dtype=np.uint64)
        x[: rows // 3] = np.uint64((1 << 64) - 1)
        expected = [
            [sum(int(v) for v, m in zip(row, weights) if m) % MERSENNE_P for row in x.tolist()]
            for weights in mask.tolist()
        ]
        assert masked_sums_mod_p(mask, x).reshape(records, rows).tolist() == expected


class TestPrefixHasher:
    def test_prefix_consistency(self, coins):
        hasher = PrefixHasher(coins, "p", bits=48)
        values = [7, 100, 3, 9, 12, 55]
        state = hasher.initial_state()
        digests = []
        for value in values:
            state = hasher.extend(state, value)
            digests.append(hasher.digest(state))
        for length in range(1, len(values) + 1):
            assert hasher.hash_prefix(values, length) == digests[length - 1]

    def test_prefix_digests_one_pass(self, coins):
        hasher = PrefixHasher(coins, "p2", bits=48)
        values = list(range(50))
        lengths = [1, 2, 4, 8, 16, 32, 50]
        batch = hasher.prefix_digests(values, lengths)
        single = [hasher.hash_prefix(values, length) for length in lengths]
        assert batch == single

    def test_prefix_digests_rejects_decreasing(self, coins):
        hasher = PrefixHasher(coins, "p3")
        with pytest.raises(ValueError):
            hasher.prefix_digests([1, 2, 3], [2, 1])

    def test_prefix_digests_rejects_too_long(self, coins):
        hasher = PrefixHasher(coins, "p4")
        with pytest.raises(ValueError):
            hasher.prefix_digests([1, 2, 3], [4])

    def test_different_prefixes_differ(self, coins):
        hasher = PrefixHasher(coins, "p5", bits=61)
        a = hasher.hash_prefix([1, 2, 3], 3)
        b = hasher.hash_prefix([1, 2, 4], 3)
        assert a != b

    def test_prefix_digests_many_matches_rows(self, coins):
        hasher = PrefixHasher(coins, "pm", bits=52)
        rng = np.random.default_rng(0xFACE)
        values = rng.integers(-(1 << 61), 1 << 61, size=(200, 24), dtype=np.int64)
        lengths = [1, 3, 3, 10, 24]
        batch = hasher.prefix_digests_many(values, lengths)
        assert batch.shape == (200, len(lengths))
        for row in range(200):
            assert batch[row].tolist() == hasher.prefix_digests(
                [int(v) for v in values[row]], lengths
            )

    def test_prefix_digests_many_rejects_bad_lengths(self, coins):
        hasher = PrefixHasher(coins, "pm2")
        values = np.zeros((4, 6), dtype=np.int64)
        with pytest.raises(ValueError):
            hasher.prefix_digests_many(values, [3, 2])
        with pytest.raises(ValueError):
            hasher.prefix_digests_many(values, [7])

    @given(
        width=st.integers(min_value=0, max_value=4096),
        rows=st.integers(min_value=0, max_value=3),
        fill=st.sampled_from(_FILLS),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=14),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_prefix_digests_many_closed_form(self, width, rows, fill, cuts, seed):
        """The closed form equals the rolling reference at any width up to
        4,096, on the inputs at its limb-sum bounds."""
        hasher = PrefixHasher(PublicCoins(seed), "closed", bits=61)
        values = _matrix(fill, rows, width, seed)
        lengths = sorted(round(cut * width) for cut in cuts)
        assert hasher.prefix_digests_many(values, lengths).tolist() == [
            hasher.prefix_digests(row, lengths) for row in values.tolist()
        ]

    @pytest.mark.parametrize(
        "rows, lengths",
        [
            # the emd-hamming schedule (doubling up to 1,024, then repeats),
            # over 40 rows: three row blocks of 2^14 values
            (40, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 768, 1024, 1024, 1024, 1024]),
            # one-column segments and repeats between the ends
            (40, [255, 256, 256, 257, 511, 512, 513, 768, 1024]),
            (5, [0, 0, 1024]),
            # rows wider than a block: one row per block
            (3, [1, 16383, 16384, 16385, 16500]),
        ],
    )
    def test_prefix_digests_many_block_edges(self, coins, rows, lengths):
        hasher = PrefixHasher(coins, "edges", bits=40)
        values = _matrix("random", rows, lengths[-1], 0xED6E)
        assert hasher.prefix_digests_many(values, lengths).tolist() == [
            hasher.prefix_digests(row, lengths) for row in values.tolist()
        ]

    def test_prefix_digests_many_zero_rows(self, coins):
        hasher = PrefixHasher(coins, "empty", bits=40)
        out = hasher.prefix_digests_many(np.zeros((0, 300), dtype=np.int64), [1, 300])
        assert out.shape == (0, 2) and out.dtype == np.uint64

    @given(st.lists(st.integers(min_value=0, max_value=1 << 61), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_extend_many_matches_loop(self, values):
        hasher = PrefixHasher(PublicCoins(1), "hyp", bits=61)
        state = hasher.initial_state()
        for value in values:
            state = hasher.extend(state, value)
        assert hasher.extend_many(hasher.initial_state(), values) == state


class TestChecksum:
    def test_deterministic(self, coins):
        c1 = Checksum(coins, "c")
        c2 = Checksum(coins, "c")
        assert c1(12345) == c2(12345)

    def test_not_linear(self, coins):
        """Sums of checksums must not equal checksums of sums."""
        checksum = Checksum(coins, "lin")
        violations = sum(
            1
            for a, b in [(1, 2), (3, 4), (10, 20), (100, 5)]
            if checksum(a) + checksum(b) != checksum(a + b)
        )
        assert violations == 4

    def test_collision_rare(self, coins):
        checksum = Checksum(coins, "coll", bits=61)
        values = {checksum(x) for x in range(5000)}
        assert len(values) == 5000

    def test_hash_array_matches_scalar(self, coins):
        checksum = Checksum(coins, "carr", bits=61)
        rng = np.random.default_rng(0xC0DE)
        xs = np.concatenate(
            [
                rng.integers(0, 1 << 61, size=2000, dtype=np.int64).astype(np.uint64),
                np.array([0, 1, MERSENNE_P - 1, (1 << 61) - 1], dtype=np.uint64),
            ]
        )
        assert checksum.hash_array(xs).tolist() == [
            checksum(int(x)) for x in xs.tolist()
        ]

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=100, deadline=None)
    def test_hash_array_property(self, key):
        checksum = Checksum(PublicCoins(3), "hyp", bits=61)
        batch = checksum.hash_array(np.array([key], dtype=np.uint64))
        assert int(batch[0]) == checksum(key)


_FAMILIES = [
    lambda coins, bits: PairwiseHash(coins, "w", bits=bits),
    lambda coins, bits: VectorHash(coins, "w", arity=2, bits=bits),
    lambda coins, bits: PrefixHasher(coins, "w", bits=bits),
    lambda coins, bits: Checksum(coins, "w", bits=bits),
]


class TestInputRules:
    @pytest.mark.parametrize("family", _FAMILIES, ids=["pairwise", "vector", "prefix", "checksum"])
    @pytest.mark.parametrize("bits", [0, 62, -3])
    def test_rejects_bad_bits(self, coins, family, bits):
        """A zero width would collide every key; a width above 61 would
        silently give 61 bits; a negative one would fail at the first call."""
        with pytest.raises(ValueError, match="bits must be in"):
            family(coins, bits)

    @pytest.mark.parametrize("bad", [1.5, True, np.float64(2.0), np.bool_(True)])
    def test_scalar_paths_reject_non_integers(self, coins, bad):
        vector = VectorHash(coins, "nonint", arity=2)
        prefix = PrefixHasher(coins, "nonint")
        with pytest.raises(ValueError, match="expected an integer"):
            vector([bad, 2])
        with pytest.raises(ValueError, match="expected an integer"):
            prefix.prefix_digests([bad, 2], [2])
        with pytest.raises(ValueError, match="expected an integer"):
            prefix.extend(prefix.initial_state(), bad)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
    def test_matrix_paths_reject_non_integers(self, coins, dtype):
        matrix = np.ones((2, 3), dtype=dtype)
        with pytest.raises(ValueError, match="expected an integer array"):
            VectorHash(coins, "nonint", arity=3).hash_rows(matrix)
        with pytest.raises(ValueError, match="expected an integer array"):
            PrefixHasher(coins, "nonint").prefix_digests_many(matrix, [1, 3])
