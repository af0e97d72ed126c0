"""End-to-end tests for the Gap Guarantee protocols (Theorems 4.2, 4.5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GapProtocol,
    low_dim_entries,
    low_dimensional_gap_protocol,
    verify_gap_guarantee,
)
from repro.hashing import PublicCoins
from repro.lsh import BitSamplingMLSH, GridMLSH, OneSidedGridLSH
from repro.metric import GridSpace, HammingSpace
from repro.protocol import Channel
from repro.workloads import noisy_replica_pair
from transcripts import transcript_digest


def _hamming_setup(n=32, k=2, d=96, r1=2.0, r2=32.0, seed=0):
    rng = np.random.default_rng(seed)
    space = HammingSpace(d)
    workload = noisy_replica_pair(
        space, n=n, k=k, close_radius=int(r1), far_radius=r2 + 6, rng=rng
    )
    protocol = GapProtocol.for_instance(space, n=n, k=k, r1=r1, r2=r2)
    return space, workload, protocol, r2


class TestVerifyGapGuarantee:
    def test_trivial_cases(self):
        space = HammingSpace(4)
        assert verify_gap_guarantee(space, [], [(0, 0, 0, 0)], 1.0)
        assert not verify_gap_guarantee(space, [(0, 0, 0, 0)], [], 1.0)

    def test_exact_containment(self):
        space = HammingSpace(4)
        points = [(0, 0, 0, 0), (1, 1, 1, 1)]
        assert verify_gap_guarantee(space, points, points, 0.0)

    def test_detects_violation(self):
        space = HammingSpace(4)
        assert not verify_gap_guarantee(
            space, [(1, 1, 1, 1)], [(0, 0, 0, 0)], 2.0
        )


class TestGapProtocolConstruction:
    def test_threshold_formula(self):
        space, _, protocol, _ = _hamming_setup()
        epsilon = 1.0 - protocol.rho
        expected = int(np.ceil(protocol.entries * (0.5 + epsilon / 6)))
        assert protocol.match_threshold == max(1, expected)

    def test_rejects_rho_one(self):
        space = HammingSpace(64)
        family = BitSamplingMLSH(space, w=64.0)
        # With alpha = 1/2, r2 = 2*r1 gives p1 = p2 (rho = 1), which the
        # LSHParams invariant already rejects.
        with pytest.raises(ValueError):
            family.derived_lsh_params(r1=8.0, r2=16.0)
        # A barely-separated pair constructs fine and yields rho < 1.
        protocol = GapProtocol.for_instance(space, n=16, k=1, r1=8.0, r2=17.0)
        assert protocol.rho < 1.0

    def test_per_entry_from_p2(self):
        space, _, protocol, _ = _hamming_setup(r2=32.0)
        # p2 = e^{-r2/(2w)} with w = d = 96 -> m = ceil(log(1/2)/log(p2)).
        assert protocol.per_entry >= 1

    def test_expected_differences_positive(self):
        _, _, protocol, _ = _hamming_setup()
        assert protocol.expected_entry_differences() > 0


class TestForInstance:
    """The factory builds exactly the protocol a caller would by hand."""

    CASES = [
        # (space, family for the hand-built protocol, r1, r2, close, far)
        (HammingSpace(96), lambda space: BitSamplingMLSH(space, w=96.0), 2.0, 32.0, 2, 38.0),
        (
            GridSpace(side=4096, dim=2, p=1.0),
            lambda space: GridMLSH(space, w=512.0),
            4.0,
            512.0,
            4,
            700.0,
        ),
    ]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_hand_built(self, case, seed):
        space, make_family, r1, r2, close, far = self.CASES[case]
        family = make_family(space)
        by_hand = GapProtocol(
            space, family, family.derived_lsh_params(r1=r1, r2=r2), n=24, k=2
        )
        built = GapProtocol.for_instance(space, n=24, k=2, r1=r1, r2=r2)
        assert type(built.lsh) is type(family)
        assert built.params == by_hand.params
        workload = noisy_replica_pair(
            space, n=24, k=2, close_radius=close, far_radius=far,
            rng=np.random.default_rng(seed),
        )
        runs = []
        for protocol in (by_hand, built):
            channel = Channel()
            result = protocol.run(workload.alice, workload.bob, PublicCoins(seed), channel)
            runs.append((result.total_bits, result.bob_final, channel.summary().by_label))
        assert runs[0] == runs[1]

    def test_options_reach_the_constructor(self):
        protocol = GapProtocol.for_instance(
            HammingSpace(96), n=24, k=2, r1=2.0, r2=32.0,
            match_threshold=5, sos_size_multiplier=6.0,
        )
        assert protocol.match_threshold == 5
        assert protocol.sos_size_multiplier == 6.0

    def test_rejects_l2(self):
        with pytest.raises(ValueError, match="hamming or l1"):
            GapProtocol.for_instance(
                GridSpace(side=4096, dim=2, p=2.0), n=24, k=2, r1=4.0, r2=512.0
            )


class TestGapProtocolEndToEnd:
    def test_guarantee_holds(self):
        successes = 0
        holds = 0
        for seed in range(5):
            space, workload, protocol, r2 = _hamming_setup(seed=seed)
            result = protocol.run(
                workload.alice, workload.bob, PublicCoins(seed)
            )
            if not result.success:
                continue
            successes += 1
            if verify_gap_guarantee(space, workload.alice, result.bob_final, r2):
                holds += 1
        assert successes >= 4
        assert holds == successes

    def test_far_points_always_delivered(self):
        for seed in range(3):
            space, workload, protocol, r2 = _hamming_setup(seed=10 + seed)
            result = protocol.run(workload.alice, workload.bob, PublicCoins(seed))
            if not result.success:
                continue
            final = set(result.bob_final)
            for outlier in workload.alice_far_points:
                assert outlier in final

    def test_transmitted_subset_of_alice(self, coins):
        space, workload, protocol, _ = _hamming_setup(seed=20)
        result = protocol.run(workload.alice, workload.bob, coins)
        assert result.success
        assert set(result.transmitted) <= set(workload.alice)

    def test_bob_keeps_his_points(self, coins):
        space, workload, protocol, _ = _hamming_setup(seed=21)
        result = protocol.run(workload.alice, workload.bob, coins)
        assert set(workload.bob) <= set(result.bob_final)

    def test_four_rounds(self, coins):
        space, workload, protocol, _ = _hamming_setup(seed=22)
        channel = Channel()
        result = protocol.run(workload.alice, workload.bob, coins, channel)
        assert result.success
        assert channel.rounds == 4
        assert result.total_bits == channel.total_bits

    def test_identical_sets_transmit_little(self, coins, rng):
        """With S_A = S_B nothing is far; transmission should be empty."""
        space = HammingSpace(96)
        points = space.sample(rng, 24)
        protocol = GapProtocol.for_instance(space, n=24, k=1, r1=2.0, r2=32.0)
        result = protocol.run(points, points, coins)
        assert result.success
        assert result.transmitted == []

    def test_all_far_transmits_all(self, coins, rng):
        """Disjoint random sets: every Alice point is far."""
        space = HammingSpace(96)
        alice = space.sample(rng, 8)
        bob = space.sample(rng, 8)
        protocol = GapProtocol.for_instance(
            space, n=8, k=8, r1=2.0, r2=32.0, sos_size_multiplier=6.0
        )
        result = protocol.run(alice, bob, coins)
        assert result.success
        # Random 96-bit points are ~48 apart, all far.
        assert len(result.transmitted) == 8


def _gap_runs():
    """Fixed-seed ``GapProtocol.run`` s at five shapes, six seeds each:
    the gap-hamming benchmark shape, two smaller Hamming shapes, an l1
    grid and an undersized sets-of-sets table whose Round 1 fails on
    some seeds.  Each case is ``(make_protocol, space, n, planted
    outliers, close, far)``."""
    h128 = HammingSpace(128)
    h96 = HammingSpace(96)
    l1 = GridSpace(side=256, dim=3, p=1.0)

    def benchmark_shape():
        family = BitSamplingMLSH(h128, w=128.0)
        return GapProtocol(h128, family, family.derived_lsh_params(r1=2, r2=40), n=64, k=2)

    cases = [
        (benchmark_shape, h128, 64, 2, 2, 48),
        (lambda: GapProtocol.for_instance(h96, n=32, k=2, r1=2.0, r2=32.0), h96, 32, 2, 2, 38),
        (
            lambda: GapProtocol.for_instance(
                h96, n=32, k=1, r1=2.0, r2=32.0, sos_size_multiplier=0.6
            ),
            h96, 32, 6, 2, 38,
        ),  # fmt: skip
        (lambda: GapProtocol.for_instance(l1, n=24, k=2, r1=3.0, r2=60.0), l1, 24, 2, 3, 90),
        (
            lambda: GapProtocol.for_instance(h96, n=24, k=1, r1=2.0, r2=32.0, entries=12),
            h96, 24, 3, 4, 38,
        ),  # fmt: skip
    ]
    runs = []
    for make, space, n, planted, close, far in cases:
        for seed in range(6):
            wl = noisy_replica_pair(
                space, n=n, k=planted, close_radius=close, far_radius=far,
                rng=np.random.default_rng(seed),
            )  # fmt: skip
            channel = Channel()
            result = make().run(wl.alice, wl.bob, PublicCoins(200 + seed), channel)
            runs.append((result, channel))
    return runs


class TestGapTranscriptPins:
    """Every payload of the four Gap rounds (``sos-item-iblt``,
    ``sos-query``, ``sos-patches``, ``gap-far-points``) and every result
    field (``sos_unresolved`` and ``pair_difference`` among them), pinned
    by one digest on both backends."""

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_transcript_digest(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        runs = _gap_runs()
        outcomes = [result.success for result, _ in runs]
        assert any(outcomes) and not all(outcomes)
        assert any(result.sos_unresolved for result, _ in runs)
        assert transcript_digest(runs) == (
            "30d7f4cd10418a4333e37b23572a4bbee13a3731755a6054477220900a6ddd7e"
        )


class TestLowDimensionalGap:
    def test_entries_formula(self):
        assert low_dim_entries(100, 0.5) >= 2
        assert low_dim_entries(100, 0.01) <= low_dim_entries(100, 0.5)
        with pytest.raises(ValueError):
            low_dim_entries(100, 1.5)

    def test_construction(self):
        space = GridSpace(side=1024, dim=2, p=1.0)
        protocol = low_dimensional_gap_protocol(space, n=32, k=2, r1=4.0, r2=64.0)
        assert protocol.per_entry == 1
        assert protocol.match_threshold == 1
        assert isinstance(protocol.lsh, OneSidedGridLSH)

    def test_rejects_high_dimension(self):
        space = GridSpace(side=1024, dim=50, p=1.0)
        with pytest.raises(ValueError):
            low_dimensional_gap_protocol(space, n=32, k=2, r1=4.0, r2=64.0)

    def test_guarantee_holds(self):
        holds = 0
        runs = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            space = GridSpace(side=2048, dim=2, p=1.0)
            workload = noisy_replica_pair(
                space, n=32, k=2, close_radius=4, far_radius=96, rng=rng
            )
            protocol = low_dimensional_gap_protocol(
                space, n=32, k=2, r1=4.0, r2=80.0
            )
            result = protocol.run(workload.alice, workload.bob, PublicCoins(seed))
            if not result.success:
                continue
            runs += 1
            if verify_gap_guarantee(space, workload.alice, result.bob_final, 80.0):
                holds += 1
        assert runs >= 3
        assert holds == runs

    def test_far_points_delivered(self, coins):
        rng = np.random.default_rng(33)
        space = GridSpace(side=2048, dim=2, p=1.0)
        workload = noisy_replica_pair(
            space, n=24, k=3, close_radius=4, far_radius=96, rng=rng
        )
        protocol = low_dimensional_gap_protocol(space, n=24, k=3, r1=4.0, r2=80.0)
        result = protocol.run(workload.alice, workload.bob, coins)
        assert result.success
        assert result.rounds == 4
        final = set(result.bob_final)
        for outlier in workload.alice_far_points:
            assert outlier in final
