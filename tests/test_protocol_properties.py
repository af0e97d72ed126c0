"""Property-based tests of protocol-level invariants (hypothesis).

These complement the deterministic end-to-end tests by driving the
protocols across randomly generated instances and asserting the
*structural* invariants that must hold on every run, success or not:

* the EMD protocol preserves set sizes and never invents failure states;
* the Gap protocol's output is always ``S_B ∪ (subset of S_A)`` and its
  transmissions always cover the truly far points (the safety direction
  of every approximation in the pipeline);
* channel accounting matches result accounting exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EMDProtocol, GapProtocol
from repro.hashing import PublicCoins
from repro.metric import HammingSpace
from repro.protocol import Channel
from repro.workloads import noisy_replica_pair

_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=6, max_value=20),
    k=st.integers(min_value=1, max_value=2),
)
@_SETTINGS
def test_emd_protocol_structural_invariants(seed, n, k):
    rng = np.random.default_rng(seed)
    space = HammingSpace(48)
    workload = noisy_replica_pair(
        space, n=n, k=k, close_radius=1, far_radius=16, rng=rng
    )
    protocol = EMDProtocol.for_instance(space, n=n, k=k)
    channel = Channel()
    result = protocol.run(workload.alice, workload.bob, PublicCoins(seed), channel)

    # Size preservation, always.
    assert len(result.bob_final) == n
    # Output points live in the space.
    assert all(space.contains(point) for point in result.bob_final)
    # Accounting agrees with the channel, one round only.
    assert result.total_bits == channel.total_bits
    assert channel.rounds == 1
    # Failure leaves Bob untouched.
    if not result.success:
        assert result.bob_final == workload.bob
    else:
        assert result.decoded_level is not None
        assert result.decoded_pairs <= protocol.parameters.accept_pairs


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=8, max_value=24),
    k=st.integers(min_value=1, max_value=3),
)
@_SETTINGS
def test_gap_protocol_structural_invariants(seed, n, k):
    rng = np.random.default_rng(seed)
    space = HammingSpace(96)
    r2 = 32.0
    workload = noisy_replica_pair(
        space, n=n, k=k, close_radius=2, far_radius=r2 + 8, rng=rng
    )
    protocol = GapProtocol.for_instance(space, n=n, k=k, r1=2.0, r2=r2)
    channel = Channel()
    result = protocol.run(workload.alice, workload.bob, PublicCoins(seed), channel)

    assert result.total_bits == channel.total_bits
    if not result.success:
        assert result.bob_final == workload.bob
        return
    assert channel.rounds == 4
    # S'_B = S_B ∪ T_A with T_A ⊆ S_A.
    assert set(workload.bob) <= set(result.bob_final)
    additions = set(result.bob_final) - set(workload.bob)
    assert additions <= set(workload.alice)
    assert additions <= set(result.transmitted)
    # Safety: every planted far point was transmitted.
    for outlier in workload.alice_far_points:
        assert outlier in set(result.transmitted)


@given(seed=st.integers(min_value=0, max_value=10_000))
@_SETTINGS
def test_emd_protocol_deterministic_given_coins(seed):
    """Same coins + same inputs => identical transcript and output."""
    rng = np.random.default_rng(seed)
    space = HammingSpace(48)
    workload = noisy_replica_pair(
        space, n=10, k=1, close_radius=1, far_radius=16, rng=rng
    )
    protocol = EMDProtocol.for_instance(space, n=10, k=1)
    import random as pyrandom

    first = protocol.run(
        workload.alice, workload.bob, PublicCoins(seed),
        decode_rng=pyrandom.Random(1),
    )
    second = protocol.run(
        workload.alice, workload.bob, PublicCoins(seed),
        decode_rng=pyrandom.Random(1),
    )
    assert first.success == second.success
    assert first.total_bits == second.total_bits
    assert sorted(first.bob_final) == sorted(second.bob_final)
