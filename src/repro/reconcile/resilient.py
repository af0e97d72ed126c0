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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from ..errors import DecodeError, MalformedPayloadError
from ..hashing import PublicCoins
from ..iblt.iblt import cells_for_differences
from ..metric.spaces import MetricSpace, Point
from ..protocol.channel import Channel
from ..protocol.faults import FaultyChannel
from .exact_iblt import ExactReconcileResult, exact_iblt_reconcile, strata_estimate
from .outcome import ReconcileOutcome

__all__ = [
    "ResilienceConfig",
    "BreakerState",
    "AttemptRecord",
    "RecoveryReport",
    "ResilientReconcileResult",
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
    """Serialisable circuit-breaker state of the recovery loop.

    Everything the escalation policy has learned about a peer — the
    current difference bound, the blind escalations consumed, whether
    the breaker is open, and the strata-measured fallback bound — in one
    frozen value.  :func:`resilient_reconcile` both consumes it (resume
    a returning peer where the last session left off) and produces it
    (:attr:`RecoveryReport.breaker`), and the sketch store persists it
    per peer, so a flaky peer's next session starts at its escalated
    bound instead of rediscovering the failure.
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

    def with_fallback(self, measured: int) -> "BreakerState":
        """Adopt a strata-measured bound as the fallback baseline."""
        return replace(self, bound=measured, fallback_bound=measured)

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "escalations": self.escalations,
            "breaker_open": self.breaker_open,
            "fallback_bound": self.fallback_bound,
        }

    @classmethod
    def from_dict(cls, payload: object) -> "BreakerState":
        """Restore persisted state, treating it as untrusted input.

        Damage raises :class:`~repro.errors.MalformedPayloadError` (the
        typed :class:`~repro.errors.DecodeError` surface), never a bare
        ``KeyError``/``TypeError`` — stores load these from disk or
        wire.
        """
        if not isinstance(payload, dict):
            raise MalformedPayloadError(
                f"breaker state must be a dict, got {type(payload).__name__}"
            )
        expected = {"bound", "escalations", "breaker_open", "fallback_bound"}
        if set(payload) != expected:
            raise MalformedPayloadError(
                f"breaker state keys {sorted(payload)} != {sorted(expected)}"
            )
        bound = payload["bound"]
        escalations = payload["escalations"]
        breaker_open = payload["breaker_open"]
        fallback_bound = payload["fallback_bound"]
        for name, value in (("bound", bound), ("escalations", escalations)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise MalformedPayloadError(f"breaker {name} must be an int")
        if not isinstance(breaker_open, bool):
            raise MalformedPayloadError("breaker breaker_open must be a bool")
        if fallback_bound is not None and (
            not isinstance(fallback_bound, int) or isinstance(fallback_bound, bool)
        ):
            raise MalformedPayloadError("breaker fallback_bound must be int or None")
        try:
            return cls(
                bound=bound,
                escalations=escalations,
                breaker_open=breaker_open,
                fallback_bound=fallback_bound,
            )
        except ValueError as exc:
            raise MalformedPayloadError(str(exc)) from exc


@dataclass(frozen=True)
class AttemptRecord:
    """One reconciliation attempt on the recovery path."""

    attempt: int  #: 1-based position in the attempt sequence
    phase: str  #: "primary" | "rerequest" | "escalated" | "fallback"
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


@dataclass(frozen=True)
class ResilientReconcileResult(ReconcileOutcome):
    """Mirror of :class:`ExactReconcileResult` plus the recovery report;
    implements the shared
    :class:`~repro.reconcile.outcome.ReconcileOutcome` surface."""

    success: bool
    bob_final: list[Point]
    alice_only: list[Point]
    bob_only: list[Point]
    total_bits: int
    rounds: int
    report: RecoveryReport


def resilient_reconcile(
    space: MetricSpace,
    alice_points: "list[Point]",
    bob_points: "list[Point]",
    delta_bound: int,
    coins: PublicCoins,
    channel: "Channel | FaultyChannel | None" = None,
    config: ResilienceConfig = ResilienceConfig(),
    breaker: "BreakerState | None" = None,
) -> ResilientReconcileResult:
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
    report = RecoveryReport(success=False)
    final: ExactReconcileResult | None = None

    resumed = breaker is not None
    state = breaker if resumed else BreakerState(bound=delta_bound)
    phase = "resumed" if resumed else "primary"

    for attempt in range(1, config.max_attempts + 1):
        attempt_coins = (
            coins if attempt == 1 else coins.child("resilient-attempt", attempt)
        )
        bits_before = channel.total_bits
        rounds_before = channel.rounds
        outcome = "corrupted"
        try:
            if state.breaker_open and state.fallback_bound is None:
                measured = strata_estimate(
                    space,
                    alice_points,
                    bob_points,
                    attempt_coins,
                    channel,
                    "resilient-strata",
                )
                state = state.with_fallback(measured)
                report.fallback_bound = measured
            result = exact_iblt_reconcile(
                space,
                alice_points,
                bob_points,
                delta_bound=state.bound,
                coins=attempt_coins,
                channel=channel,
                q=config.q,
            )
            if result.success:
                outcome = "decoded"
                final = result
            else:
                outcome = "undecodable"
        except DecodeError:
            outcome = "corrupted"

        report.attempts.append(
            AttemptRecord(
                attempt=attempt,
                phase=phase,
                breaker="open" if state.breaker_open else "closed",
                delta_bound=state.bound,
                cells=cells_for_differences(state.bound, q=config.q),
                outcome=outcome,
                bits=channel.total_bits - bits_before,
                cumulative_bits=channel.total_bits,
                rounds=channel.rounds - rounds_before,
            )
        )
        if outcome == "decoded":
            break
        if outcome == "corrupted":
            # Damage in flight: re-request at the same size (a corrupted
            # strata exchange retries the fallback entry wholesale).
            report.rerequests += 1
            if phase == "primary":
                phase = "rerequest"
        else:  # undecodable: the table was undersized for the difference
            advanced = state.after_undecodable(config)
            if advanced.escalations > state.escalations:
                report.escalations += 1
                phase = "escalated"
            elif advanced.breaker_open and not state.breaker_open:
                report.breaker_tripped = True
                phase = "fallback"
            state = advanced

    report.breaker = state
    report.success = final is not None
    report.total_bits = channel.total_bits
    report.rounds = channel.rounds
    if isinstance(channel, FaultyChannel):
        report.faults = channel.fault_summary().to_dict()

    if final is None:
        return ResilientReconcileResult(
            success=False,
            bob_final=list(bob_points),
            alice_only=[],
            bob_only=[],
            total_bits=channel.total_bits,
            rounds=channel.rounds,
            report=report,
        )
    return ResilientReconcileResult(
        success=True,
        bob_final=final.bob_final,
        alice_only=final.alice_only,
        bob_only=final.bob_only,
        total_bits=channel.total_bits,
        rounds=channel.rounds,
        report=report,
    )
