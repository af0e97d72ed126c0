"""Property-based tests of the sets-of-sets reconciliation layer.

Random multiset instances drive the core invariants:

* the recovered view always covers Bob's keys that differ from Alice's;
* recovered keys with multiplicities are never keys Bob does not hold
  (up to negligible hash-collision probability — hypothesis shrinks
  would expose any systematic violation);
* shared-key inference never claims a key Bob provably lacks when its
  signature survived as Alice-only.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hashing import PublicCoins
from repro.protocol import Channel
from repro.setsofsets import SetsOfSetsReconciler

_H = 6
_BITS = 18

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _instance(seed: int, shared: int, modified: int, bob_extra: int, alice_extra: int):
    rng = np.random.default_rng(seed)

    def random_key():
        return tuple(int(v) for v in rng.integers(0, 1 << _BITS, size=_H))

    base = [random_key() for _ in range(shared)]
    alice = list(base) + [random_key() for _ in range(alice_extra)]
    bob = list(base)
    for index in range(min(modified, len(bob))):
        key = list(bob[index])
        key[index % _H] ^= int(rng.integers(1, 1 << _BITS))
        bob[index] = tuple(key)
    bob += [random_key() for _ in range(bob_extra)]
    return alice, bob


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    shared=st.integers(min_value=0, max_value=15),
    modified=st.integers(min_value=0, max_value=4),
    bob_extra=st.integers(min_value=0, max_value=3),
    alice_extra=st.integers(min_value=0, max_value=3),
)
@_SETTINGS
def test_view_covers_and_never_fabricates(seed, shared, modified, bob_extra, alice_extra):
    alice, bob = _instance(seed, shared, modified, bob_extra, alice_extra)
    reconciler = SetsOfSetsReconciler(
        PublicCoins(seed),
        "hyp",
        entries=_H,
        entry_bits=_BITS,
        expected_differences=4 * (_H + 1) * (modified + bob_extra + alice_extra + 1),
    )
    result = reconciler.run(alice, bob, Channel())
    if not result.success:
        return  # undersized sketch: allowed failure mode, reported honestly
    bob_multiset: dict[tuple, int] = {}
    for key in bob:
        bob_multiset[key] = bob_multiset.get(key, 0) + 1

    # Soundness: recovered keys are real Bob keys with correct counts.
    for key, multiplicity in result.recovered.items():
        assert key in bob_multiset
        assert multiplicity <= bob_multiset[key]

    # Coverage: every Bob key is visible in the view, unless its patch
    # failed (counted in `unresolved`).
    view = set(map(tuple, result.bob_key_view.tolist()))
    missing = [key for key in bob_multiset if key not in view]
    assert len(missing) <= result.unresolved


@given(seed=st.integers(min_value=0, max_value=100_000))
@_SETTINGS
def test_empty_alice_recovers_everything_verbatim(seed):
    _, bob = _instance(seed, shared=0, modified=0, bob_extra=5, alice_extra=0)
    reconciler = SetsOfSetsReconciler(
        PublicCoins(seed),
        "hyp2",
        entries=_H,
        entry_bits=_BITS,
        expected_differences=8 * (_H + 1),
    )
    result = reconciler.run([], bob, Channel())
    if not result.success:
        return
    assert sum(result.recovered.values()) == len(bob)
    assert result.unresolved == 0


@given(seed=st.integers(min_value=0, max_value=100_000))
@_SETTINGS
def test_symmetry_of_identical_collections(seed):
    alice, _ = _instance(seed, shared=10, modified=0, bob_extra=0, alice_extra=0)
    reconciler = SetsOfSetsReconciler(
        PublicCoins(seed),
        "hyp3",
        entries=_H,
        entry_bits=_BITS,
        expected_differences=16,
    )
    result = reconciler.run(alice, alice, Channel())
    assert result.success
    assert result.recovered == {}
    assert result.pair_difference == 0
    assert set(result.shared_alice_keys) == set(alice)
