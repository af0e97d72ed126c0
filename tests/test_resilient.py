"""The resilient reconciliation controller: parity, recovery, reports."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.hashing import PublicCoins
from repro.iblt.backend import default_backend
from repro.metric import HammingSpace
from repro.protocol import Channel, FaultSpec, FaultyChannel
from repro.reconcile import (
    BreakerState,
    Recovery,
    ResilienceConfig,
    exact_iblt_reconcile,
    exact_iblt_reconcile_auto,
    resilient_reconcile,
)
from repro.reconcile import resilient
from repro.workloads import split_difference_pair

SPACE = HammingSpace(40)


def _workload(seed: int, n: int = 64, delta: int = 8):
    return split_difference_pair(SPACE, np.random.default_rng(seed), n, delta)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_escalations=-1)


#: (case, config, delta_bound, resumed breaker, recorded outcomes,
#:  per-attempt (phase, bound, breaker) entering each attempt,
#:  final counters and state).  Every case measures the fallback at
#:  bound 10 at the start of the attempt that needs it.
_RECOVERY_CASES = [
    (
        "primary-then-rerequest",
        ResilienceConfig(),
        4,
        None,
        ["corrupted", "corrupted", "decoded"],
        [("primary", 4, "closed"), ("rerequest", 4, "closed"), ("rerequest", 4, "closed")],
        dict(rerequests=2, escalations=0, undecodable=0, fallbacks=0, tripped=False,
             measured=None, decoded=True, state=BreakerState(bound=4)),
    ),
    (
        "escalate-trip-fallback-double",
        ResilienceConfig(max_attempts=6, max_escalations=2),
        4,
        None,
        ["undecodable"] * 5 + ["decoded"],
        [
            ("primary", 4, "closed"),
            ("escalated", 8, "closed"),
            ("escalated", 16, "closed"),
            ("fallback", 10, "open"),
            ("fallback", 20, "open"),
            ("fallback", 40, "open"),
        ],
        dict(rerequests=0, escalations=2, undecodable=5, fallbacks=1, tripped=True,
             measured=10, decoded=True,
             state=BreakerState(bound=40, escalations=2, breaker_open=True, fallback_bound=40)),
    ),
    (
        "resumed-phase",
        ResilienceConfig(max_escalations=2),
        2,
        BreakerState(bound=16, escalations=2),
        ["corrupted", "undecodable", "decoded"],
        [("resumed", 16, "closed"), ("resumed", 16, "closed"), ("fallback", 10, "open")],
        dict(rerequests=1, escalations=0, undecodable=1, fallbacks=1, tripped=True,
             measured=10, decoded=True,
             state=BreakerState(bound=10, escalations=2, breaker_open=True, fallback_bound=10)),
    ),
    (
        "budget-exhausted-still-escalates",
        ResilienceConfig(max_attempts=2, max_escalations=4),
        1,
        None,
        ["undecodable", "undecodable"],
        [("primary", 1, "closed"), ("escalated", 2, "closed")],
        dict(rerequests=0, escalations=2, undecodable=2, fallbacks=0, tripped=False,
             measured=None, decoded=False, state=BreakerState(bound=4, escalations=2)),
    ),
    (
        "no-policy-undecodable",
        None,
        1,
        None,
        ["undecodable"],
        [("primary", 1, "closed")],
        dict(rerequests=0, escalations=0, undecodable=1, fallbacks=0, tripped=False,
             measured=None, decoded=False, state=BreakerState(bound=1)),
    ),
    (
        "no-policy-corrupted",
        None,
        1,
        None,
        ["corrupted"],
        [("primary", 1, "closed")],
        dict(rerequests=1, escalations=0, undecodable=0, fallbacks=0, tripped=False,
             measured=None, decoded=False, state=BreakerState(bound=1)),
    ),
]


class TestRecovery:
    """The I/O-free recovery loop every exact reconciler drives."""

    @pytest.mark.parametrize(
        "config, delta_bound, breaker, outcomes, entering, final",
        [case[1:] for case in _RECOVERY_CASES],
        ids=[case[0] for case in _RECOVERY_CASES],
    )
    def test_transitions_and_counters(
        self, config, delta_bound, breaker, outcomes, entering, final
    ):
        recovery = Recovery(config, delta_bound, breaker)
        script = iter(outcomes)
        seen = []
        for attempt in recovery:
            assert attempt == len(seen) + 1
            if recovery.needs_fallback:
                recovery.adopt_fallback(10)
            breaker = "open" if recovery.state.breaker_open else "closed"
            seen.append((recovery.phase, recovery.bound, breaker))
            recovery.record(next(script))
        assert seen == entering
        assert next(script, None) is None  # the loop consumed every outcome
        assert recovery.attempts == len(entering)
        assert {
            "rerequests": recovery.rerequests,
            "escalations": recovery.escalations,
            "undecodable": recovery.undecodable,
            "fallbacks": recovery.fallbacks,
            "tripped": recovery.breaker_tripped,
            "measured": recovery.measured_bound,
            "decoded": recovery.decoded,
            "state": recovery.state,
        } == final

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            Recovery(ResilienceConfig(), 4).record("lost")


class TestNoFaultParity:
    def test_transcript_and_result_match_unwrapped(self, coins):
        """Zero-overhead parity: with faults disabled and a healthy first
        attempt, wrapping changes *nothing* on the wire — the protocol
        transcript is byte-identical to the unwrapped call."""
        alice, bob = _workload(11)
        plain_channel, wrapped_channel = Channel(), Channel()
        plain = exact_iblt_reconcile(
            SPACE, alice, bob, 24, coins, plain_channel
        )
        wrapped = resilient_reconcile(
            SPACE, alice, bob, 24, coins, wrapped_channel
        )
        assert plain.success and wrapped.success
        assert plain_channel.messages == wrapped_channel.messages
        assert wrapped.bob_final == plain.bob_final
        assert wrapped.alice_only == plain.alice_only
        assert wrapped.bob_only == plain.bob_only
        assert wrapped.total_bits == plain.total_bits
        assert wrapped.rounds == plain.rounds

    def test_single_attempt_report(self, coins):
        alice, bob = _workload(11)
        result = resilient_reconcile(SPACE, alice, bob, 24, coins)
        report = result.report
        assert report.success
        assert len(report.attempts) == 1
        (attempt,) = report.attempts
        assert attempt.phase == "primary"
        assert attempt.breaker == "closed"
        assert attempt.outcome == "decoded"
        assert attempt.bits == report.total_bits
        assert report.recovery_bits == 0
        assert not report.breaker_tripped
        assert report.fallback_bound is None
        assert report.faults == {}


class TestEscalation:
    def test_undersized_bound_escalates_to_success(self, coins):
        alice, bob = _workload(5, delta=12)
        result = resilient_reconcile(
            SPACE, alice, bob, 2, coins,
            config=ResilienceConfig(max_attempts=10, max_escalations=3),
        )
        assert result.success
        assert set(result.bob_final) == set(alice) | set(bob)
        report = result.report
        assert report.escalations >= 1
        bounds = [attempt.delta_bound for attempt in report.attempts]
        assert bounds == sorted(bounds)  # geometric escalation only grows
        assert report.attempts[-1].outcome == "decoded"
        assert all(a.outcome == "undecodable" for a in report.attempts[:-1])
        # Recovery cost is measured, not estimated.
        assert report.recovery_bits == report.total_bits - report.attempts[0].bits
        assert sum(a.bits for a in report.attempts) == report.total_bits

    def test_breaker_trips_into_strata_fallback(self, coins):
        alice, bob = _workload(5, delta=12)
        result = resilient_reconcile(
            SPACE, alice, bob, 1, coins,
            config=ResilienceConfig(max_attempts=10, max_escalations=1),
        )
        assert result.success
        report = result.report
        assert report.breaker_tripped
        assert report.fallback_bound is not None
        assert report.fallback_bound >= 12
        phases = [attempt.phase for attempt in report.attempts]
        assert phases[0] == "primary"
        assert "escalated" in phases
        assert phases[-1] == "fallback"
        fallback = report.attempts[-1]
        assert fallback.breaker == "open"
        # The fallback attempt carries the strata half-round's bits.
        assert fallback.rounds >= 3

    def test_budget_exhaustion_reports_failure(self, coins):
        alice, bob = _workload(5, delta=12)
        result = resilient_reconcile(
            SPACE, alice, bob, 1, coins,
            config=ResilienceConfig(max_attempts=2, max_escalations=4),
        )
        assert not result.success
        assert result.bob_final == bob
        assert len(result.report.attempts) == 2
        assert all(a.outcome == "undecodable" for a in result.report.attempts)


class TestRecoveryUnderOverload:
    def test_recovers_in_200_seeded_trials(self):
        """Acceptance: at an overload where the first attempt fails with
        probability >= 0.5 (here: load 1.0, essentially always), the
        controller recovers to a *correct* reconciliation in >= 99% of
        200 seeded trials, each report recording the full recovery path."""
        successes = 0
        first_attempt_failures = 0
        config = ResilienceConfig(max_attempts=8, max_escalations=2)
        for trial in range(200):
            alice, bob = _workload(1000 + trial, n=32, delta=24)
            coins = PublicCoins(0xFA17).child("overload", trial)
            result = resilient_reconcile(
                SPACE, alice, bob, 10, coins, config=config
            )
            report = result.report
            if report.attempts[0].outcome != "decoded":
                first_attempt_failures += 1
            if result.success and set(result.bob_final) == set(alice) | set(bob):
                successes += 1
            # The full recovery path is always recorded.
            assert report.total_bits > 0
            assert len(report.attempts) >= 1
            for attempt in report.attempts:
                assert attempt.outcome in ("decoded", "undecodable", "corrupted")
                assert attempt.breaker in ("closed", "open")
                assert attempt.cells > 0
                assert attempt.cumulative_bits <= report.total_bits
        assert first_attempt_failures >= 100  # the overload is real
        assert successes >= 198  # >= 99% of 200


class TestFaultyRuns:
    def test_rerequest_on_corruption(self, coins):
        alice, bob = _workload(21)
        channel = FaultyChannel(
            Channel(),
            FaultSpec(drop_rate=0.2, truncate_rate=0.2),
            PublicCoins(99).child("f"),
        )
        result = resilient_reconcile(
            SPACE, alice, bob, 24, coins, channel,
            ResilienceConfig(max_attempts=12, max_escalations=2),
        )
        assert result.success
        report = result.report
        assert report.rerequests >= 1
        assert any(a.outcome == "corrupted" for a in report.attempts)
        # Corruption re-requests at the same size — never escalates.
        corrupted = [a for a in report.attempts if a.outcome == "corrupted"]
        for record, successor in zip(report.attempts, report.attempts[1:]):
            if record.outcome == "corrupted":
                assert successor.delta_bound == record.delta_bound
        assert corrupted
        assert report.faults["faulted"] >= 1

    def test_same_fault_seed_byte_identical_reports(self, coins):
        """Determinism acceptance: the same fault seed yields
        byte-identical RecoveryReport JSON across runs."""
        alice, bob = _workload(21)
        renders = []
        for _ in range(2):
            channel = FaultyChannel(
                Channel(),
                FaultSpec(drop_rate=0.25, truncate_rate=0.25, flip_rate=0.1,
                          duplicate_rate=0.1),
                PublicCoins(1234).child("fault-seed"),
            )
            result = resilient_reconcile(
                SPACE, alice, bob, 16, coins, channel,
                ResilienceConfig(max_attempts=12, max_escalations=2),
            )
            renders.append(result.report.to_json())
        assert renders[0] == renders[1]
        assert renders[0].endswith("\n")

    def test_different_fault_seed_changes_the_path(self, coins):
        alice, bob = _workload(21)
        renders = []
        for fault_seed in (1, 2):
            channel = FaultyChannel(
                Channel(),
                FaultSpec(drop_rate=0.5, truncate_rate=0.3),
                PublicCoins(fault_seed),
            )
            result = resilient_reconcile(
                SPACE, alice, bob, 16, coins, channel,
                ResilienceConfig(max_attempts=12, max_escalations=2),
            )
            renders.append(result.report.to_json())
        assert renders[0] != renders[1]


#: ``(seed, delta, max_attempts)`` runs of the auto-sized reconciler.
#: Seeds 2, 45, 131 and 175 fail their first sized attempt and decode on
#: the doubled bound; the last run spends its one attempt and fails.
_AUTO_CASES = [(seed, (4, 8, 16)[seed % 3], 4) for seed in range(40)] + [
    (45, 4, 4),
    (131, 8, 4),
    (175, 8, 4),
    (2, 16, 1),
]


class TestAutoSizedRecovery:
    #: SHA-256 over every run's per-label bits, rounds and result fields,
    #: per backend (the two peel the same difference in different orders).
    PINNED = {
        "numpy": "9e514fb6217d5c9ddd903b6053287bf48212caf10e4d2c94a426be794be42665",
        "python": "37eeb23a8221dfc5874e5d7af400bdf16ed2d5846bc37f868e4a46fca33b4c0f",
    }

    def test_runs_are_pinned(self, monkeypatch):
        records = []
        retried = 0
        for seed, delta, max_attempts in _AUTO_CASES:
            alice, bob = _workload(seed, delta=delta)
            channel = Channel()
            monkeypatch.setattr(resilient, "AUTO_MAX_ATTEMPTS", max_attempts)
            result = exact_iblt_reconcile_auto(SPACE, alice, bob, PublicCoins(seed), channel)
            sized = sum(message.label == "iblt" for message in channel.messages)
            retried += sized > 1
            assert sized <= max_attempts
            records.append(
                {
                    "bits": channel.summary().by_label,
                    "rounds": channel.rounds,
                    "result": {
                        field.name: getattr(result, field.name)
                        for field in dataclasses.fields(result)
                    },
                }
            )
        assert retried >= 4
        assert [record["result"]["success"] for record in records].count(False) == 1
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        assert digest == self.PINNED[default_backend()]
