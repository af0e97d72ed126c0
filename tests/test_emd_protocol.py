"""End-to-end tests for Algorithm 1 and its scaled variant."""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.core.emd_protocol as emd_protocol
from repro.core import (
    EMDProtocol,
    ScaledEMDProtocol,
    default_distance_bounds,
    derive_emd_parameters,
    repair_point_set,
)
from repro.errors import MalformedPayloadError, TruncatedPayloadError
from repro.hashing import PublicCoins
from repro.lsh import key_bits_for
from repro.metric import GridSpace, HammingSpace, emd, emd_k
from repro.protocol import BitReader, BitWriter, Channel, read_riblt_cells, write_riblt_cells
from repro.reconcile import QuadtreeEMDProtocol
from repro.workloads import noisy_replica_pair
from transcripts import transcript_digest


class TestParameterDerivation:
    def test_default_bounds(self):
        space = HammingSpace(32)
        d1, d2, m = default_distance_bounds(space, 100)
        assert d1 == 1.0
        assert d2 == 100 * 32
        assert m == 32

    def test_levels_match_log_ratio(self):
        space = HammingSpace(32)
        params = derive_emd_parameters(space, n=64, k=2, d1=1.0, d2=1024.0)
        assert params.levels == 11  # log2(1024) + 1

    def test_levels_cover_range_for_non_power_of_two_ratio(self):
        """ceil, not floor: the coarsest level's effective scale
        D1 * 2^(t-1) must reach D2 even when D2/D1 is not a power of two
        (Theorem 3.4 promises coverage of all of [D1, D2])."""
        space = HammingSpace(32)
        for d1, d2 in ((1.0, 1000.0), (3.0, 100.0), (1.0, 5.0), (2.0, 2.0)):
            params = derive_emd_parameters(space, n=64, k=2, d1=d1, d2=d2)
            assert d1 * 2 ** (params.levels - 1) >= d2
        params = derive_emd_parameters(space, n=64, k=2, d1=1.0, d2=1000.0)
        assert params.levels == 11  # ceil(log2(1000)) + 1, not floor + 1 = 10

    def test_hash_counts_double(self):
        space = HammingSpace(32)
        params = derive_emd_parameters(space, n=64, k=2)
        counts = params.hash_counts
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        # At the exact p bound the counts are ~3 * 2^{i-1}: ratio ~2 in the tail.
        assert counts[-1] / counts[-2] == pytest.approx(2.0, rel=0.1)

    def test_p_constraint_met(self):
        """Footnote 4: p >= e^{-k/(24 D2)}."""
        for space in (HammingSpace(32), GridSpace(64, 4, 1.0), GridSpace(64, 4, 2.0)):
            params = derive_emd_parameters(space, n=32, k=3)
            assert params.family.p >= np.exp(-params.k / (24 * params.d2)) - 1e-12

    def test_r_constraint_met(self):
        """MLSH family must cover r >= min(M, D2)."""
        for space in (HammingSpace(32), GridSpace(64, 4, 1.0), GridSpace(64, 4, 2.0)):
            params = derive_emd_parameters(space, n=32, k=3)
            assert params.family.r >= min(params.m_bound, params.d2) - 1e-9

    def test_cells_are_4q2k(self):
        params = derive_emd_parameters(HammingSpace(16), n=16, k=5, q=3)
        assert params.cells == 4 * 9 * 5
        assert params.accept_pairs == 20

    def test_riblt_load_in_tree_regime(self):
        params = derive_emd_parameters(HammingSpace(16), n=16, k=5, q=3)
        assert params.accept_pairs / params.cells < 1 / (params.q * (params.q - 1))

    def test_max_total_hashes_cap(self):
        params = derive_emd_parameters(
            HammingSpace(32), n=64, k=2, max_total_hashes=100
        )
        assert params.total_hashes <= 100

    def test_rejects_bad_inputs(self):
        space = HammingSpace(8)
        with pytest.raises(ValueError):
            derive_emd_parameters(space, n=0, k=1)
        with pytest.raises(ValueError):
            derive_emd_parameters(space, n=4, k=0)
        with pytest.raises(ValueError):
            derive_emd_parameters(space, n=4, k=1, d1=10.0, d2=5.0)


class TestRepair:
    def test_replaces_matched_points(self):
        space = GridSpace(side=100, dim=1, p=1.0)
        bob = [(0,), (50,), (99,)]
        decoded_bob = [(51,)]  # approximately Bob's middle point
        decoded_alice = [(70,)]
        result = repair_point_set(space, bob, decoded_alice, decoded_bob)
        assert sorted(result) == sorted([(0,), (99,), (70,)])

    def test_empty_decodes_noop(self):
        space = GridSpace(side=10, dim=1, p=1.0)
        bob = [(1,), (2,)]
        assert repair_point_set(space, bob, [], []) == bob

    def test_greedy_matcher_runs(self):
        space = GridSpace(side=100, dim=1, p=1.0)
        bob = [(0,), (50,)]
        result = repair_point_set(space, bob, [(75,)], [(49,)], matcher="greedy")
        assert sorted(result) == sorted([(0,), (75,)])

    def test_unknown_matcher(self):
        with pytest.raises(ValueError):
            repair_point_set(GridSpace(10, 1, 1.0), [(1,)], [(2,)], [(1,)], matcher="x")

    def test_preserves_size_on_imbalance(self):
        space = GridSpace(side=100, dim=1, p=1.0)
        bob = [(0,), (50,), (99,)]
        result = repair_point_set(space, bob, [(70,), (71,)], [(51,)])
        assert len(result) == 3


def _hamming_workload(seed, n=24, k=2, d=48):
    rng = np.random.default_rng(seed)
    space = HammingSpace(d)
    wl = noisy_replica_pair(space, n=n, k=k, close_radius=1, far_radius=16, rng=rng)
    return space, wl


class TestEMDProtocolEndToEnd:
    def test_identical_sets(self, coins, rng):
        space = HammingSpace(32)
        points = space.sample(rng, 16)
        protocol = EMDProtocol.for_instance(space, n=16, k=1)
        result = protocol.run(points, points, coins)
        assert result.success
        assert sorted(result.bob_final) == sorted(points)
        assert result.rounds == 1

    def test_requires_equal_sizes(self, coins, rng):
        space = HammingSpace(16)
        protocol = EMDProtocol.for_instance(space, n=4, k=1)
        with pytest.raises(ValueError):
            protocol.run(space.sample(rng, 4), space.sample(rng, 5), coins)

    def test_improves_emd_on_noisy_workload(self):
        improvements = 0
        trials = 5
        for seed in range(trials):
            space, wl = _hamming_workload(seed)
            protocol = EMDProtocol.for_instance(space, n=24, k=2)
            result = protocol.run(wl.alice, wl.bob, PublicCoins(seed))
            if not result.success:
                continue
            before = emd(space, wl.alice, wl.bob)
            after = emd(space, wl.alice, result.bob_final)
            if after < before:
                improvements += 1
        assert improvements >= 3

    def test_approximation_ratio_reasonable(self):
        """EMD(S_A, S'_B) <= O(log n) * EMD_k on successful runs."""
        ratios = []
        for seed in range(5):
            space, wl = _hamming_workload(seed, n=20, k=2)
            protocol = EMDProtocol.for_instance(space, n=20, k=2)
            result = protocol.run(wl.alice, wl.bob, PublicCoins(100 + seed))
            if not result.success:
                continue
            reference = max(emd_k(space, wl.alice, wl.bob, 2), 1.0)
            ratios.append(emd(space, wl.alice, result.bob_final) / reference)
        assert ratios, "no successful runs"
        # O(log n) with n=20 and moderate constants.
        assert np.median(ratios) < 20

    def test_preserves_set_size(self, coins):
        space, wl = _hamming_workload(3)
        protocol = EMDProtocol.for_instance(space, n=24, k=2)
        result = protocol.run(wl.alice, wl.bob, coins)
        assert len(result.bob_final) == 24

    def test_channel_accounting(self, coins):
        space, wl = _hamming_workload(4)
        channel = Channel()
        protocol = EMDProtocol.for_instance(space, n=24, k=2)
        result = protocol.run(wl.alice, wl.bob, coins, channel)
        assert result.total_bits == channel.total_bits
        assert channel.rounds == 1

    def test_failure_reported_when_d2_too_small(self, rng):
        """With D2 far below the true EMD_k, every level should be
        overloaded and the protocol must report failure, not fabricate."""
        space = HammingSpace(48)
        alice = space.sample(rng, 24)
        bob = space.sample(rng, 24)  # unrelated sets: EMD_k is huge
        protocol = EMDProtocol.for_instance(space, n=24, k=1, d1=1.0, d2=2.0)
        result = protocol.run(alice, bob, PublicCoins(7))
        assert not result.success
        assert result.bob_final == bob

    def test_l2_grid_end_to_end(self, coins):
        rng = np.random.default_rng(11)
        space = GridSpace(side=128, dim=3, p=2.0)
        wl = noisy_replica_pair(space, n=16, k=2, close_radius=2, far_radius=60, rng=rng)
        protocol = EMDProtocol.for_instance(
            space, n=16, k=2, d1=8.0, d2=16 * space.diameter
        )
        result = protocol.run(wl.alice, wl.bob, coins)
        assert result.success
        before = emd(space, wl.alice, wl.bob)
        after = emd(space, wl.alice, result.bob_final)
        assert after < before

    def test_greedy_matcher_variant(self, coins):
        space, wl = _hamming_workload(5)
        protocol = EMDProtocol.for_instance(space, n=24, k=2)
        result = protocol.run(wl.alice, wl.bob, coins, matcher="greedy")
        assert result.success

    def test_hungarian_repair_no_worse_than_greedy(self):
        """Paired runs on the same workloads and coins: greedy repair
        must not beat the exact Hungarian repair's EMD/EMD_k ratio."""
        space = HammingSpace(64)
        protocol = EMDProtocol.for_instance(space, n=24, k=2)
        ratios = {"hungarian": [], "greedy": []}
        for seed in range(999, 1002):
            rng = np.random.default_rng(seed)
            wl = noisy_replica_pair(space, n=24, k=2, close_radius=1, far_radius=20, rng=rng)
            results = {
                matcher: protocol.run(wl.alice, wl.bob, PublicCoins(seed), matcher=matcher)
                for matcher in ratios
            }
            if all(result.success for result in results.values()):
                baseline = max(emd_k(space, wl.alice, wl.bob, 2), 1.0)
                for matcher, result in results.items():
                    ratios[matcher].append(emd(space, wl.alice, result.bob_final) / baseline)
        assert ratios["hungarian"], "no paired successes"
        assert np.mean(ratios["hungarian"]) <= np.mean(ratios["greedy"]) + 0.5


class TestScaledEMDProtocol:
    def test_intervals_cover_range(self):
        space = GridSpace(side=128, dim=2, p=2.0)
        protocol = ScaledEMDProtocol(space, n=16, k=2, d1=1.0, d2=1000.0, ratio=10.0)
        bounds = protocol.interval_bounds
        assert bounds[0][0] == 1.0
        assert bounds[-1][1] == 1000.0
        for (low_a, high_a), (low_b, high_b) in zip(bounds, bounds[1:]):
            assert high_a == low_b

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            ScaledEMDProtocol(HammingSpace(8), n=4, k=1, ratio=1.0)

    def test_end_to_end(self, coins):
        rng = np.random.default_rng(21)
        space = GridSpace(side=1024, dim=2, p=2.0)
        wl = noisy_replica_pair(space, n=16, k=2, close_radius=2, far_radius=300, rng=rng)
        protocol = ScaledEMDProtocol(
            space, n=16, k=2, d1=2.0, d2=16 * space.diameter, ratio=8.0
        )
        result = protocol.run(wl.alice, wl.bob, coins)
        assert result.success
        assert result.chosen_interval is not None
        assert result.rounds == 1
        before = emd(space, wl.alice, wl.bob)
        after = emd(space, wl.alice, result.bob_final)
        assert after <= before

    def test_smallest_interval_wins(self, coins, rng):
        """Identical sets should decode in the very first interval."""
        space = GridSpace(side=128, dim=2, p=2.0)
        points = space.sample(rng, 12)
        protocol = ScaledEMDProtocol(space, n=12, k=1, d1=1.0, d2=500.0, ratio=8.0)
        result = protocol.run(points, points, coins)
        assert result.success
        assert result.chosen_interval == 0


class TestUnifiedKeyStream:
    """The single Mersenne-61 PrefixKeyBuilder stream end to end: the
    derived Θ(log n) key width (61 bits for large n) flows from the
    builder into every per-level ``RIBLT(key_bits=...)`` and into the
    measured communication accounting."""

    def test_61_bit_width_reaches_tables_and_accounting(self):
        space = HammingSpace(32)
        # n large enough that key_bits_for saturates at the full 61-bit
        # field width; the run itself uses few points (the protocol only
        # requires |S_A| = |S_B|, not = n).
        params = derive_emd_parameters(
            space, n=1 << 21, k=1, d1=1.0, d2=64.0, max_total_hashes=48
        )
        assert params.key_bits == key_bits_for(1 << 21) == 61
        protocol = EMDProtocol(space, params)
        coins = PublicCoins(3)
        builder = protocol._key_builder(coins)
        assert builder.key_bits == 61
        tables = [protocol._table(coins, level) for level in range(params.levels)]
        assert all(table.key_bits == 61 for table in tables)

        points = space.sample(np.random.default_rng(0), 8)
        channel = Channel()
        result = protocol.run(points, points, coins, channel)
        assert result.success
        assert result.total_bits == channel.total_bits

        # The measured bits are exactly the serialized per-level tables
        # built from the unified 61-bit key stream.
        keys = builder.keys_for(points)
        values = np.asarray(points, dtype=np.int64)
        writer = BitWriter()
        for level, table in enumerate(tables):
            table.insert_batch(keys[:, level], values)
            write_riblt_cells(writer, table)
        assert channel.summary().by_label["emd-riblts"] == writer.bit_length

    def test_key_width_matches_derived_parameters(self, coins):
        space = HammingSpace(24)
        protocol = EMDProtocol.for_instance(space, n=16, k=1)
        p = protocol.parameters
        assert p.key_bits == key_bits_for(16)
        assert protocol._key_builder(coins).key_bits == p.key_bits
        assert protocol._table(coins, 0).key_bits == p.key_bits
        assert not hasattr(protocol, "fast_keys")


class TestLazyLevelReads:
    """Bob finds every level of Alice's message but parses only the
    levels he peels.  What a damaged level does depends on whether he
    parses it: a cut or a varint past the group cap is found in any level,
    a cell count past int64 only in a parsed one."""

    SPACE = HammingSpace(32)

    def _protocol(self) -> EMDProtocol:
        return EMDProtocol.for_instance(self.SPACE, n=16, k=1, max_total_hashes=64)

    def _points(self) -> np.ndarray:
        return self.SPACE.point_array(self.SPACE.sample(np.random.default_rng(5), 16))

    def _message(self, protocol, coins, points, huge_count_at=None):
        """Alice's message and the bit at which each level ends; the first
        cell count of level ``huge_count_at`` is set to ``2^63``."""
        entries = protocol._entries(coins, points)
        writer, ends = BitWriter(), []
        for level in range(protocol.parameters.levels):
            table = protocol._table(coins, level)
            table.insert_batch(*entries(level))
            if level == huge_count_at:
                table.counts[0] = 1 << 63
            write_riblt_cells(writer, table)
            ends.append(writer.bit_length)
        return writer.getvalue(), ends

    def _receive(self, protocol, coins, points, payload):
        return protocol.receive(BitReader(payload), points, coins, random.Random(1))

    def test_bob_parses_only_the_level_he_peels(self, coins, monkeypatch):
        protocol, points = self._protocol(), self._points()
        payload, _ends = self._message(protocol, coins, points)
        writer = BitWriter()
        protocol.send(writer, points, coins)
        assert writer.getvalue() == payload
        reads = []

        def counted(reader, shell):
            reads.append(shell.label)
            return read_riblt_cells(reader, shell)

        monkeypatch.setattr(emd_protocol, "read_riblt_cells", counted)
        found = self._receive(protocol, coins, points, payload)
        finest = protocol.parameters.levels - 1
        assert (found.level, found.pairs) == (finest, 0)
        assert reads == [("emd-riblt", finest)]

    @pytest.mark.parametrize("level", ["finest", "coarsest"])
    def test_cut_inside_a_level_is_truncated(self, coins, level):
        protocol, points = self._protocol(), self._points()
        payload, ends = self._message(protocol, coins, points)
        cut = (ends[-2] + ends[-1]) // 16 if level == "finest" else ends[0] // 16
        with pytest.raises(TruncatedPayloadError):
            self._receive(protocol, coins, points, payload[:cut])

    def test_over_cap_varint_in_an_unparsed_level_is_malformed(self, coins):
        protocol, points = self._protocol(), self._points()
        payload, _ends = self._message(protocol, coins, points)
        damaged = bytearray(payload)
        for index in range(19):  # the coarsest level's first value never ends
            damaged[index] |= 1
        with pytest.raises(MalformedPayloadError):
            self._receive(protocol, coins, points, bytes(damaged))

    def test_huge_count_is_checked_only_in_a_parsed_level(self, coins):
        """A cell count of ``2^63`` in the coarsest level, which Bob never
        parses, no longer raises; in the finest level it still does."""
        protocol, points = self._protocol(), self._points()
        payload, ends = self._message(protocol, coins, points, huge_count_at=0)
        found = self._receive(protocol, coins, points, payload)
        assert (found.level, found.pairs) == (protocol.parameters.levels - 1, 0)
        with pytest.raises(MalformedPayloadError, match="does not fit int64"):
            read_riblt_cells(BitReader(payload), protocol._table(coins, 0))
        finest = protocol.parameters.levels - 1
        payload, _ends = self._message(protocol, coins, points, huge_count_at=finest)
        with pytest.raises(MalformedPayloadError, match="does not fit int64"):
            self._receive(protocol, coins, points, payload)

    def test_scaled_receive_ends_where_a_full_parse_ends(self, coins):
        protocol = ScaledEMDProtocol(self.SPACE, n=16, k=1, max_total_hashes=64)
        assert protocol.intervals > 1
        alice = self._points()
        bob = alice.copy()
        bob[0] ^= 1
        interval_coins = [coins.child("scaled-emd", j) for j in range(protocol.intervals)]
        writer = BitWriter()
        for instance, own_coins in zip(protocol.instances, interval_coins):
            instance.send(writer, alice, own_coins)
        writer.write_uint(0xA5, 8)
        payload = writer.getvalue()
        lazy, full = BitReader(payload), BitReader(payload)
        decode_rng = random.Random(2)
        for instance, own_coins in zip(protocol.instances, interval_coins):
            instance.receive(lazy, bob, own_coins, decode_rng)
            for level in range(instance.parameters.levels):
                read_riblt_cells(full, instance._table(own_coins, level))
        assert lazy.bits_remaining == full.bits_remaining
        assert lazy.read_uint(8) == 0xA5


def _ladder_runs():
    """Fixed-seed runs of the three protocols that send one RIBLT per level:
    Algorithm 1, its interval-scaled wrapper and the quadtree baseline.
    Each case is ``(make_protocol, space, planted outliers, close, far)``.
    The second case of each protocol plants more outliers than its ``k``
    (and, for the EMD ones, caps ``D2`` below the noise), so some of its
    runs exhaust every level's accept budget and report failure."""
    hamming = HammingSpace(40)
    l1 = GridSpace(side=256, dim=3, p=1.0)
    l2 = GridSpace(side=256, dim=3, p=2.0)
    cases = [
        (lambda: EMDProtocol.for_instance(hamming, n=20, k=2), hamming, 2, 2, 14),
        (lambda: EMDProtocol.for_instance(hamming, n=20, k=1, d2=16.0), hamming, 10, 10, 14),
        (lambda: EMDProtocol.for_instance(l1, n=20, k=2), l1, 2, 3, 60),
        (lambda: EMDProtocol.for_instance(l1, n=20, k=1, d2=16.0), l1, 10, 40, 90),
        (lambda: ScaledEMDProtocol(hamming, n=20, k=2), hamming, 2, 2, 14),
        (lambda: ScaledEMDProtocol(l2, n=20, k=2, ratio=16.0), l2, 2, 3, 60),
        (lambda: ScaledEMDProtocol(l2, n=20, k=1, d2=16.0), l2, 10, 40, 90),
        (lambda: QuadtreeEMDProtocol(l1, n=20, k=2), l1, 2, 3, 60),
        (lambda: QuadtreeEMDProtocol(l1, n=20, k=1), l1, 8, 3, 60),
        (lambda: QuadtreeEMDProtocol(l2, n=20, k=1), l2, 8, 3, 60),
    ]
    runs = []
    for make, space, planted, close, far in cases:
        for seed in (1, 2, 3):
            wl = noisy_replica_pair(
                space, n=20, k=planted, close_radius=close, far_radius=far,
                rng=np.random.default_rng(seed),
            )  # fmt: skip
            channel = Channel()
            result = make().run(wl.alice, wl.bob, PublicCoins(100 + seed), channel)
            runs.append((result, channel))
    return runs


class TestLadderTranscriptPins:
    """Every byte Alice sends and every result field Bob reports, for the
    three level-ladder protocols, pinned by one digest on both backends."""

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_transcript_digest(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        runs = _ladder_runs()
        outcomes = [result.success for result, _ in runs]
        assert any(outcomes) and not all(outcomes)
        assert transcript_digest(runs) == (
            "144578f62f149e70b28ad7617e6bb07213427590d5fd15d49eceb35feaa8843f"
        )
