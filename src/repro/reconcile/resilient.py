"""Self-healing exact reconciliation: retries, escalation, circuit breaker.

:func:`resilient_reconcile` wraps the two-way exact IBLT reconciliation
(:func:`~repro.reconcile.exact_iblt.exact_iblt_reconcile`) in a
deterministic recovery loop driven by the typed
:class:`~repro.errors.DecodeError` surface:

* **Corrupted payload** (:class:`~repro.errors.TruncatedPayloadError` /
  :class:`~repro.errors.MalformedPayloadError`, e.g. from a
  :class:`~repro.protocol.faults.FaultyChannel`): the attempt is
  *re-requested* at the same table size with fresh coins — damage in
  flight says nothing about the sketch being undersized.
* **Sketch undecodable** (peeling failed on a well-formed table): the
  difference exceeded the table, so the cell count is *escalated*
  geometrically (``delta_bound × escalation_factor`` per step), with
  fresh coins per attempt so retries draw independent hypergraphs.
* **Circuit breaker**: after ``max_escalations`` sizing steps have
  failed, blind escalation is abandoned — the breaker trips *open* and
  the controller falls back to strata-estimated sizing ([10]'s
  deployment loop): one strata-estimator half-round measures the actual
  difference, and the remaining attempt budget runs at the measured
  bound (doubling on further failures).

Attempt 1 runs with the caller's coins **unchanged** and no wrapping of
any kind, so with faults disabled the wrapped run's protocol transcript
is byte-identical to calling ``exact_iblt_reconcile`` directly
(zero-overhead no-fault parity; pinned by tests).

Every attempt's outcome, table size, and measured bits land in a
:class:`RecoveryReport` whose canonical JSON is byte-deterministic for a
fixed fault seed — the artifact the fault-rate sweep campaign and CI's
fault-smoke gate aggregate.

The policy itself lives in :class:`Recovery`, an I/O-free tracker: this
controller, the service client (:mod:`repro.server.client`), the
store-churn scenario and the stream replayer's edge syncs
(:mod:`repro.stream.replay`) each drive one, so the four loops cannot
drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterator

from ..errors import DecodeError
from ..hashing import PublicCoins
from ..iblt.iblt import cells_for_differences
from ..metric.spaces import MetricSpace, Point, point_tuples
from ..protocol.channel import Channel
from ..protocol.faults import FaultyChannel
from .exact_iblt import exact_iblt_reconcile, strata_estimate
from .outcome import ReconcileResult

__all__ = [
    "ResilienceConfig",
    "BreakerState",
    "Recovery",
    "AttemptRecord",
    "RecoveryReport",
    "resilient_reconcile",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry budget and breaker policy for :func:`resilient_reconcile`.

    Parameters
    ----------
    max_attempts:
        Hard budget on reconciliation attempts (all phases combined).
    max_escalations:
        Blind sizing steps before the breaker trips: the bound grows
        ``delta_bound × factor^k`` for ``k = 1..max_escalations``; the
        failure after the last step opens the breaker.
    escalation_factor:
        Geometric growth factor for escalated (and fallback-doubled)
        bounds.
    q:
        Hash count for every attempt's IBLT.
    """

    max_attempts: int = 8
    max_escalations: int = 2
    escalation_factor: int = 2
    q: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.max_escalations < 0:
            raise ValueError(
                f"max_escalations must be >= 0, got {self.max_escalations}"
            )
        if self.escalation_factor < 2:
            raise ValueError(
                f"escalation_factor must be >= 2, got {self.escalation_factor}"
            )


@dataclass(frozen=True)
class BreakerState:
    """Circuit-breaker state of the recovery loop.

    Everything the escalation policy has learned about a peer — the
    current difference bound, the blind escalations consumed, whether
    the breaker is open, and the strata-measured fallback bound — in one
    frozen value.  A :class:`Recovery` both consumes it (resume a
    returning peer where the last session left off) and produces it
    (:attr:`RecoveryReport.breaker`), and the sketch store keeps it per
    peer, so a flaky peer's next session starts at its escalated bound
    instead of rediscovering the failure.
    """

    bound: int
    escalations: int = 0
    breaker_open: bool = False
    fallback_bound: int | None = None

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")
        if self.escalations < 0:
            raise ValueError(f"escalations must be >= 0, got {self.escalations}")
        if self.fallback_bound is not None and self.fallback_bound < 1:
            raise ValueError(
                f"fallback_bound must be >= 1, got {self.fallback_bound}"
            )

    # -- policy transitions --------------------------------------------------
    def after_undecodable(self, config: ResilienceConfig) -> "BreakerState":
        """The state after a well-formed but undecodable sketch.

        Closed breaker: escalate geometrically while blind steps remain,
        else trip open.  Open breaker with a measured fallback: double
        the fallback.  Open breaker awaiting measurement: unchanged (the
        strata half-round itself was lost; retry it wholesale).
        """
        if not self.breaker_open:
            if self.escalations < config.max_escalations:
                return replace(
                    self,
                    bound=self.bound * config.escalation_factor,
                    escalations=self.escalations + 1,
                )
            return replace(self, breaker_open=True)
        if self.fallback_bound is not None:
            grown = self.fallback_bound * config.escalation_factor
            return replace(self, bound=grown, fallback_bound=grown)
        return self

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "escalations": self.escalations,
            "breaker_open": self.breaker_open,
            "fallback_bound": self.fallback_bound,
        }


class Recovery:
    """The recovery loop of every exact reconciler, free of I/O.

    Iterating yields 1-based attempt numbers up to the attempt budget and
    stops after an attempt is recorded ``"decoded"``.  The driving loop
    runs each attempt at :attr:`bound`, measures a strata fallback first
    (or, like the store-churn scenario, right after the failing attempt)
    whenever :attr:`needs_fallback` holds, and hands the attempt's
    outcome to :meth:`record`, which owns every
    :class:`BreakerState` transition, the phase and the counters.

    ``config=None`` is the policy-free exact protocol: one attempt, and
    a failure is only counted — it never escalates or trips.  A given
    ``breaker`` resumes that state (phase ``"resumed"``); otherwise the
    loop starts fresh at ``delta_bound``.
    """

    def __init__(
        self,
        config: "ResilienceConfig | None",
        delta_bound: int,
        breaker: "BreakerState | None" = None,
    ) -> None:
        self.config = config
        self.state = breaker if breaker is not None else BreakerState(bound=delta_bound)
        self.phase = "primary" if breaker is None else "resumed"
        self.attempts = 0
        self.decoded = False
        self.rerequests = 0
        self.escalations = 0
        self.undecodable = 0
        self.fallbacks = 0
        self.breaker_tripped = False
        #: The strata-measured bound, before any post-fallback doubling.
        self.measured_bound: "int | None" = None

    def __iter__(self) -> Iterator[int]:
        budget = 1 if self.config is None else self.config.max_attempts
        for attempt in range(1, budget + 1):
            self.attempts = attempt
            yield attempt
            if self.decoded:
                return

    @property
    def bound(self) -> int:
        """The difference bound the current attempt's table is sized for."""
        return self.state.bound

    @property
    def needs_fallback(self) -> bool:
        """The breaker is open and no fallback bound is measured yet."""
        return self.state.breaker_open and self.state.fallback_bound is None

    def adopt_fallback(self, measured: int) -> None:
        """Run the remaining attempts from a strata-measured bound."""
        self.state = replace(self.state, bound=measured, fallback_bound=measured)
        self.measured_bound = measured
        self.fallbacks += 1

    def record(self, outcome: str) -> None:
        """Book one attempt: ``"decoded"``, ``"undecodable"`` or ``"corrupted"``.

        Damage in flight says nothing about sizing, so a corrupted
        attempt is re-requested at the same bound (a corrupted strata
        exchange retries the fallback entry wholesale).  An undecodable
        sketch was undersized: escalate, trip the breaker, or double the
        fallback.
        """
        if outcome == "decoded":
            self.decoded = True
        elif outcome == "corrupted":
            self.rerequests += 1
            if self.phase == "primary":
                self.phase = "rerequest"
        elif outcome == "undecodable":
            self.undecodable += 1
            if self.config is None:
                return
            advanced = self.state.after_undecodable(self.config)
            if advanced.escalations > self.state.escalations:
                self.escalations += 1
                self.phase = "escalated"
            elif advanced.breaker_open and not self.state.breaker_open:
                self.breaker_tripped = True
                self.phase = "fallback"
            self.state = advanced
        else:
            raise ValueError(f"unknown attempt outcome {outcome!r}")


@dataclass(frozen=True)
class AttemptRecord:
    """One reconciliation attempt on the recovery path."""

    attempt: int  #: 1-based position in the attempt sequence
    phase: str  #: "primary" | "resumed" | "rerequest" | "escalated" | "fallback"
    breaker: str  #: breaker state entering the attempt: "closed" | "open"
    delta_bound: int  #: difference bound the table was sized for
    cells: int  #: actual cell count of that table
    outcome: str  #: "decoded" | "undecodable" | "corrupted"
    bits: int  #: bits this attempt added to the wire
    cumulative_bits: int  #: transcript total after the attempt
    rounds: int  #: messages this attempt added

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "phase": self.phase,
            "breaker": self.breaker,
            "delta_bound": self.delta_bound,
            "cells": self.cells,
            "outcome": self.outcome,
            "bits": self.bits,
            "cumulative_bits": self.cumulative_bits,
            "rounds": self.rounds,
        }


@dataclass
class RecoveryReport:
    """The full recovery path of one resilient reconciliation run."""

    success: bool
    attempts: list[AttemptRecord] = field(default_factory=list)
    escalations: int = 0
    rerequests: int = 0
    breaker_tripped: bool = False
    fallback_bound: int | None = None
    total_bits: int = 0
    rounds: int = 0
    faults: dict = field(default_factory=dict)
    breaker: "BreakerState | None" = None  #: final state; persist per peer

    @property
    def recovery_bits(self) -> int:
        """Bits spent beyond the first attempt (the cost of recovery)."""
        if not self.attempts:
            return 0
        return self.total_bits - self.attempts[0].bits

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "attempt_count": len(self.attempts),
            "attempts": [record.to_dict() for record in self.attempts],
            "escalations": self.escalations,
            "rerequests": self.rerequests,
            "breaker_tripped": self.breaker_tripped,
            "fallback_bound": self.fallback_bound,
            "total_bits": self.total_bits,
            "rounds": self.rounds,
            "recovery_bits": self.recovery_bits,
            "faults": dict(self.faults),
            "breaker": None if self.breaker is None else self.breaker.to_dict(),
        }

    def to_json(self) -> str:
        """Canonical byte-deterministic rendering (sorted keys, newline)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def resilient_reconcile(
    space: MetricSpace,
    alice_points: "list[Point]",
    bob_points: "list[Point]",
    delta_bound: int,
    coins: PublicCoins,
    channel: "Channel | FaultyChannel | None" = None,
    config: ResilienceConfig = ResilienceConfig(),
    breaker: "BreakerState | None" = None,
) -> ReconcileResult:
    """Exact two-way reconciliation with a deterministic recovery path.

    See the module docstring for the policy.  ``channel`` may be a plain
    :class:`~repro.protocol.channel.Channel` or a
    :class:`~repro.protocol.faults.FaultyChannel`; bits and rounds always
    come from the (inner) transcript, so recovery cost is *measured*.

    ``breaker`` resumes a persisted :class:`BreakerState` (e.g. from a
    sketch store): the first attempt runs at the persisted bound with
    the persisted escalation budget already consumed, so a returning
    flaky peer skips straight to where its last session ended.  Omitted,
    the loop starts fresh at ``delta_bound`` and behaves exactly as
    before (pinned by the no-fault parity tests).  Either way the final
    state lands in :attr:`RecoveryReport.breaker` for persisting.
    """
    channel = channel if channel is not None else Channel()
    alice = space.point_array(alice_points)
    bob = space.point_array(bob_points)
    recovery = Recovery(config, delta_bound, breaker)
    attempts: "list[AttemptRecord]" = []
    final: "ReconcileResult | None" = None

    for attempt in recovery:
        attempt_coins = (
            coins if attempt == 1 else coins.child("resilient-attempt", attempt)
        )
        bits_before = channel.total_bits
        rounds_before = channel.rounds
        try:
            if recovery.needs_fallback:
                recovery.adopt_fallback(
                    strata_estimate(
                        space, alice, bob, attempt_coins, channel, "resilient-strata"
                    )
                )
            result = exact_iblt_reconcile(
                space,
                alice,
                bob,
                delta_bound=recovery.bound,
                coins=attempt_coins,
                channel=channel,
                q=config.q,
            )
            if result.success:
                final = result
            outcome = "decoded" if result.success else "undecodable"
        except DecodeError:
            outcome = "corrupted"

        attempts.append(
            AttemptRecord(
                attempt=attempt,
                phase=recovery.phase,
                breaker="open" if recovery.state.breaker_open else "closed",
                delta_bound=recovery.bound,
                cells=cells_for_differences(recovery.bound, q=config.q),
                outcome=outcome,
                bits=channel.total_bits - bits_before,
                cumulative_bits=channel.total_bits,
                rounds=channel.rounds - rounds_before,
            )
        )
        recovery.record(outcome)

    report = RecoveryReport(
        success=final is not None,
        attempts=attempts,
        escalations=recovery.escalations,
        rerequests=recovery.rerequests,
        breaker_tripped=recovery.breaker_tripped,
        fallback_bound=recovery.measured_bound,
        total_bits=channel.total_bits,
        rounds=channel.rounds,
        faults=(
            channel.fault_summary().to_dict() if isinstance(channel, FaultyChannel) else {}
        ),
        breaker=recovery.state,
    )
    if final is None:
        return ReconcileResult(
            success=False,
            bob_final=point_tuples(bob),
            alice_only=[],
            bob_only=[],
            total_bits=channel.total_bits,
            rounds=channel.rounds,
            report=report,
        )
    return replace(final, total_bits=channel.total_bits, rounds=channel.rounds, report=report)
