"""Tests for the baseline reconcilers (naive, exact IBLT, quadtree)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metric import GridSpace, HammingSpace, emd
from repro.protocol import Channel
from repro.reconcile import (
    QuadtreeEMDProtocol,
    decode_point,
    encode_point,
    exact_iblt_reconcile,
    exact_iblt_reconcile_auto,
    naive_full_transfer,
    naive_union_transfer,
    resilient_reconcile,
)
from repro.reconcile.exact_iblt import decode_points, encode_points, fresh_rows
from repro.workloads import noisy_replica_pair, split_difference_pair


class TestPointEncoding:
    def test_roundtrip(self, rng):
        space = GridSpace(side=37, dim=4, p=1.0)
        for point in space.sample(rng, 30):
            assert decode_point(space, encode_point(space, point)) == point

    def test_bijective_range(self):
        space = GridSpace(side=3, dim=2, p=1.0)
        encodings = {
            encode_point(space, (a, b)) for a in range(3) for b in range(3)
        }
        assert encodings == set(range(9))

    def test_rejects_out_of_range(self):
        space = GridSpace(side=4, dim=2, p=1.0)
        with pytest.raises(ValueError):
            encode_point(space, (4, 0))
        with pytest.raises(ValueError):
            decode_point(space, 16)
        with pytest.raises(ValueError):
            decode_point(space, -1)


    @pytest.mark.parametrize(
        "space",
        [
            HammingSpace(48),
            HammingSpace(64),
            HammingSpace(70),
            GridSpace(5, 3),
            GridSpace(4096, 2),
        ],
        ids=repr,
    )
    def test_batch_decoder_matches_scalar(self, space, rng):
        """``decode_points`` inverts ``encode_points`` row for row, from a
        key array or a list of ints (64-bit keys mix values below and
        above ``2^63``); ``HammingSpace(70)`` takes the ``object`` path."""
        points = space.sample(rng, 40) + [(0,) * space.dim, (space.side - 1,) * space.dim]
        keys = encode_points(space, points)
        for source in (keys, keys.tolist()):
            decoded = decode_points(space, source)
            assert decoded.dtype == np.int64 and decoded.shape == (len(points), space.dim)
            assert np.array_equal(decoded, space.point_array(points))
            assert [tuple(row) for row in decoded.tolist()] == [
                decode_point(space, int(key)) for key in keys.tolist()
            ]

    @pytest.mark.parametrize(
        "space", [HammingSpace(48), HammingSpace(70), GridSpace(5, 3)], ids=repr
    )
    def test_batch_decoder_empty_and_invalid(self, space):
        for empty in ([], np.empty(0, dtype=np.uint64), np.empty(0, dtype=object)):
            assert decode_points(space, empty).shape == (0, space.dim)
        for keys in ([0, 1.0], [True], np.array([1, 0.5], dtype=object)):
            with pytest.raises(ValueError):
                decode_points(space, keys)
        universe = space.side**space.dim
        for keys, bad in (([0, -1], -1), ([universe], universe), ([1, universe + 5], universe + 5)):
            with pytest.raises(ValueError):
                decode_points(space, keys)
            with pytest.raises(ValueError):
                decode_point(space, bad)
        with pytest.raises(ValueError):
            decode_points(space, np.zeros((2, 2), dtype=np.uint64))
        with pytest.raises(ValueError):
            decode_points(space, np.array([0.5]))

    @pytest.mark.parametrize(
        "space",
        [HammingSpace(dim) for dim in (40, 61, 62, 64, 65, 70, 130)]
        + [GridSpace(side=4096, dim=5, p=1.0), GridSpace(side=4096, dim=6, p=1.0)],
        ids=repr,
    )
    def test_batch_encoder_matches_scalar(self, space, rng):
        """Exact for every universe, including ``side^dim > 2^64``."""
        points = space.sample(rng, 40)
        points.append((space.side - 1,) * space.dim)
        encoded = encode_points(space, points)
        assert encoded.tolist() == [encode_point(space, point) for point in points]
        wide = space.side**space.dim > 1 << 64
        assert encoded.dtype == (object if wide else np.uint64)
        assert encode_points(space, []).dtype == encoded.dtype


class TestFreshRows:
    @given(
        st.lists(st.integers(0, 40), max_size=30),
        st.lists(st.integers(0, 40), max_size=30),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_set_merge(self, held, shipped, wide):
        """First occurrences not already held, in shipped order — the
        point-list merge it replaced — on uint64 and ``object`` keys."""
        offset, dtype = ((1 << 70), object) if wide else (0, np.uint64)
        expected, seen = [], set(held)
        for index, key in enumerate(shipped):
            if key not in seen:
                expected.append(index)
                seen.add(key)
        got = fresh_rows(
            np.array([key + offset for key in held], dtype=dtype),
            np.array([key + offset for key in shipped], dtype=dtype),
        )
        assert got.tolist() == expected


class TestNaive:
    def test_full_transfer(self, rng):
        space = HammingSpace(16)
        points = space.sample(rng, 10)
        result = naive_full_transfer(space, points)
        assert result.bob_final == points
        assert result.rounds == 1
        # n * d bits plus the length varint.
        assert result.total_bits == 10 * 16 + 8

    def test_union_transfer(self, rng):
        space = HammingSpace(16)
        alice = space.sample(rng, 5)
        bob = space.sample(rng, 5)
        result = naive_union_transfer(space, alice, bob)
        assert set(alice) <= set(result.bob_final)
        assert set(bob) <= set(result.bob_final)

    def test_union_no_duplicates(self, rng):
        space = HammingSpace(16)
        shared = space.sample(rng, 4)
        result = naive_union_transfer(space, shared, shared)
        assert result.bob_final == shared


class TestExactIBLT:
    def test_small_difference_reconciles(self, coins, rng):
        space = GridSpace(side=64, dim=3, p=1.0)
        shared = space.sample(rng, 40)
        alice = shared + space.sample(rng, 2)
        bob = shared + space.sample(rng, 3)
        result = exact_iblt_reconcile(space, alice, bob, delta_bound=10, coins=coins)
        assert result.success
        assert set(result.bob_final) == set(alice) | set(bob)
        assert result.rounds == 2

    def test_identical_sets(self, coins, rng):
        space = HammingSpace(20)
        points = space.sample(rng, 25)
        result = exact_iblt_reconcile(space, points, points, delta_bound=4, coins=coins)
        assert result.success
        assert result.alice_only == []
        assert result.bob_only == []

    def test_communication_scales_with_bound_not_n(self, coins, rng):
        space = HammingSpace(20)
        small = exact_iblt_reconcile(
            space, space.sample(rng, 10), space.sample(rng, 10),
            delta_bound=5, coins=coins,
        )
        large_shared = space.sample(rng, 300)
        large = exact_iblt_reconcile(
            space, large_shared, large_shared, delta_bound=5, coins=coins
        )
        # Table size depends on delta_bound only; shipped points differ.
        assert large.total_bits <= small.total_bits + 64

    def test_oversized_difference_fails_gracefully(self, coins, rng):
        space = HammingSpace(20)
        alice = space.sample(rng, 50)
        bob = space.sample(rng, 50)
        result = exact_iblt_reconcile(space, alice, bob, delta_bound=2, coins=coins)
        assert not result.success
        assert result.bob_final == bob


class TestWideUniverse:
    """Keys wider than 61 bits run end to end on the python backend,
    whatever ``REPRO_BACKEND`` says, with identical transcripts."""

    SPACE = HammingSpace(70)

    def _run(self, protocol, monkeypatch):
        alice, bob = split_difference_pair(
            self.SPACE, np.random.default_rng(11), 60, 8
        )
        results = {}
        for backend in ("numpy", "python"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            results[backend] = result = protocol(alice, bob)
            assert result.success
            assert set(result.bob_final) == set(alice) | set(bob)
        assert results["numpy"].total_bits == results["python"].total_bits

    def test_exact(self, coins, monkeypatch):
        self._run(
            lambda alice, bob: exact_iblt_reconcile(
                self.SPACE, alice, bob, delta_bound=16, coins=coins
            ),
            monkeypatch,
        )

    def test_exact_auto(self, coins, monkeypatch):
        self._run(
            lambda alice, bob: exact_iblt_reconcile_auto(
                self.SPACE, alice, bob, coins=coins
            ),
            monkeypatch,
        )

    def test_resilient(self, coins, monkeypatch):
        self._run(
            lambda alice, bob: resilient_reconcile(
                self.SPACE, alice, bob, delta_bound=2, coins=coins
            ),
            monkeypatch,
        )


class TestQuadtree:
    def _workload(self, seed=0):
        rng = np.random.default_rng(seed)
        space = GridSpace(side=2048, dim=2, p=2.0)
        wl = noisy_replica_pair(
            space, n=24, k=2, close_radius=2, far_radius=300, rng=rng
        )
        return space, wl

    def test_runs_and_improves_emd(self, coins):
        space, wl = self._workload()
        protocol = QuadtreeEMDProtocol(space, n=24, k=2)
        result = protocol.run(wl.alice, wl.bob, coins)
        assert result.success
        assert result.rounds == 1
        before = emd(space, wl.alice, wl.bob)
        after = emd(space, wl.alice, result.bob_final)
        assert after < before
        assert len(result.bob_final) == 24

    def test_preserves_size(self, coins):
        space, wl = self._workload(seed=5)
        result = QuadtreeEMDProtocol(space, n=24, k=2).run(wl.alice, wl.bob, coins)
        assert len(result.bob_final) == len(wl.bob)

    def test_identical_sets_decode_finest(self, coins, rng):
        space = GridSpace(side=256, dim=2, p=2.0)
        points = space.sample(rng, 20)
        protocol = QuadtreeEMDProtocol(space, n=20, k=1)
        result = protocol.run(points, points, coins)
        assert result.success
        # Identical sets cancel everywhere: the finest level decodes (it
        # is empty), recovering zero pairs.
        assert result.decoded_pairs == 0
        assert sorted(result.bob_final) == sorted(points)

    def test_batch_levels_match_scalar_inserts(self, coins):
        """Every level's table, built through the batch path the protocol
        uses, serialises to the bytes of a scalar insert loop."""
        space, wl = self._workload(seed=3)
        protocol = QuadtreeEMDProtocol(space, n=24, k=2)
        for index, level in enumerate(protocol._levels(coins)):
            keys, centres = level.keys_and_centres(wl.alice)
            batched = protocol._table(coins, index)
            batched.insert_batch(keys, centres)
            scalar = protocol._table(coins, index)
            for key, centre in zip(keys.tolist(), centres.tolist()):
                scalar.insert(key, centre)
            assert batched.to_payload() == scalar.to_payload()
            batched.delete_batch(*level.keys_and_centres([]))
            assert batched.to_payload() == scalar.to_payload()

    def test_rejects_hamming(self):
        with pytest.raises(TypeError):
            QuadtreeEMDProtocol(HammingSpace(8), n=10, k=1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            QuadtreeEMDProtocol(GridSpace(64, 2, 2.0), n=10, k=0)

    def test_channel_accounting(self, coins):
        space, wl = self._workload(seed=9)
        channel = Channel()
        result = QuadtreeEMDProtocol(space, n=24, k=2).run(
            wl.alice, wl.bob, coins, channel
        )
        assert channel.total_bits == result.total_bits
        assert channel.rounds == 1
