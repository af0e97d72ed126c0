"""The reconciliation client: Alice driving sessions over the wire.

:class:`ReconcileClient` multiplexes any number of concurrent sessions
over one framed connection.  Each session re-enacts the in-process
resilient controller (:mod:`repro.reconcile.resilient`) with the roles
split across the wire: the client is **Alice** — she requests Bob's
sketch, peels it, decides what the failure means, and owns the whole
recovery policy —

* a *damaged* sketch (payload CRC or sketch parse failure) is
  re-requested at the same bound with the next attempt's coins;
* an *undecodable* sketch escalates the bound geometrically until
  ``max_escalations`` steps have failed, which trips the circuit
  breaker into the strata fallback: Alice ships her strata sketch, the
  server answers with the measured difference bound, and the remaining
  attempts run from that measurement;
* damaged **control** traffic (a chewed HELLO_ACK, ESTIMATE, RESULT, or
  a server ``ERROR {code: decode}`` about our own damaged request) is
  handled below the policy by transparent re-requests, each counted in
  the session report.

Every session carries an :class:`~repro.server.transport.AsyncChannel`,
so the analytical transcript (bits, rounds, per-label) is measured with
the same contract as the in-process protocols, while the mux's
:class:`~repro.server.transport.SessionWireStats` separately counts
physical wire bytes and framing overhead.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

from ..errors import DecodeError, MalformedPayloadError
from ..iblt.iblt import IBLT, cells_for_differences
from ..protocol.channel import ALICE
from ..protocol.serialize import BitWriter, write_points
from ..protocol.wire import Frame, MessageType
from ..reconcile.exact_iblt import decode_point, encode_points
from ..reconcile.resilient import BreakerState, ResilienceConfig
from ..reconcile.strata import StrataEstimator
from .network import SimulatedNetwork
from .session import SessionConfig, json_payload, parse_json_payload
from .transport import (
    DEFAULT_TIMEOUT,
    AsyncChannel,
    FrameConnection,
    FrameMux,
    SessionWireStats,
)

__all__ = [
    "ProtocolError",
    "SessionReport",
    "ReconcileClient",
    "render_session_reports",
]

#: Hard cap on transparent re-requests of one message, so even an
#: absurd fault rate terminates with a typed failure instead of a loop.
MAX_RESENDS = 32


class ProtocolError(RuntimeError):
    """The peer answered outside the protocol (or retries ran out)."""


@dataclass
class SessionReport:
    """Everything one finished session measured."""

    session_id: int
    protocol: str
    success: bool
    union_ok: bool
    bob_size: int
    attempts: int
    escalations: int
    rerequests: int
    breaker_tripped: bool
    fallback_bound: "int | None"
    transcript_bits: int
    transcript_rounds: int
    by_label: "dict[str, int]" = field(default_factory=dict)
    wire: SessionWireStats = field(default_factory=SessionWireStats)

    def to_dict(self) -> dict:
        """Flat, JSON-safe, byte-deterministic rendering."""
        entry = {
            "session_id": self.session_id,
            "protocol": self.protocol,
            "success": self.success,
            "union_ok": self.union_ok,
            "bob_size": self.bob_size,
            "attempts": self.attempts,
            "escalations": self.escalations,
            "rerequests": self.rerequests,
            "breaker_tripped": self.breaker_tripped,
            "fallback_bound": self.fallback_bound,
            "transcript_bits": self.transcript_bits,
            "transcript_rounds": self.transcript_rounds,
            "by_label": dict(sorted(self.by_label.items())),
        }
        entry.update(self.wire.to_dict())
        return entry


class ReconcileClient:
    """Runs sessions against a :class:`~repro.server.server.ReconcileServer`."""

    def __init__(
        self,
        connection: FrameConnection,
        network: "SimulatedNetwork | None" = None,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.mux = FrameMux(connection)
        self.network = network
        self.timeout = timeout

    def start(self) -> None:
        self.mux.start()

    async def aclose(self) -> None:
        await self.mux.aclose()

    async def run_sessions(self, configs: "list[SessionConfig]") -> "list[SessionReport]":
        """Run all sessions concurrently over the shared connection."""
        return list(await asyncio.gather(*(self.run_session(c) for c in configs)))

    # -- one session -------------------------------------------------------

    async def run_session(self, config: SessionConfig) -> SessionReport:
        link = self.network.link(config.session_id) if self.network else None
        channel = AsyncChannel(
            self.mux, config.session_id, link=link, timeout=self.timeout
        )
        state = _SessionState()
        try:
            return await self._drive(config, channel, state)
        finally:
            channel.close()

    async def _drive(
        self, config: SessionConfig, channel: AsyncChannel, state: "_SessionState"
    ) -> SessionReport:
        await self._request(
            channel,
            state,
            MessageType.HELLO,
            "hello",
            config.to_json(),
            expect=MessageType.HELLO_ACK,
        )

        alice, _ = config.workload()
        space = config.space()
        key_bits = config.key_bits

        resilient = config.protocol == "resilient"
        max_attempts = config.max_attempts if resilient else 1
        # The wire controller runs the same escalation policy as the
        # in-process resilient loop, through the same state machine.
        policy = ResilienceConfig(
            max_attempts=max_attempts,
            max_escalations=config.max_escalations if resilient else 0,
        )
        breaker = BreakerState(bound=config.delta_bound)
        success = False
        alice_only: "list | None" = None

        for attempt in range(1, max_attempts + 1):
            state.attempts = attempt
            attempt_coins = config.attempt_coins(attempt)
            if breaker.breaker_open and breaker.fallback_bound is None:
                measured = await self._strata_fallback(
                    config, channel, state, space, alice, key_bits
                )
                breaker = breaker.with_fallback(measured)
            bound = breaker.bound
            outcome = "corrupted"
            try:
                frame = await self._request(
                    channel,
                    state,
                    MessageType.REQ_SKETCH,
                    "req-sketch",
                    json_payload({"attempt": attempt, "bound": bound}),
                    expect=MessageType.SKETCH,
                    resend_on_damaged_response=False,
                )
                # Bob paid for this sketch whether or not it survived the
                # link; book it before checking integrity.
                channel.record_receive(frame)
                frame.verify_payload()
                cells = cells_for_differences(bound, q=config.q)
                view = IBLT(
                    attempt_coins,
                    "exact-reconcile",
                    cells=cells,
                    q=config.q,
                    key_bits=key_bits,
                ).from_payload(frame.payload)
                view.delete_batch(encode_points(space, alice))
                decoded = view.decode()
                if decoded.success:
                    outcome = "decoded"
                    alice_only = [decode_point(space, key) for key in decoded.deleted]
                    success = True
                else:
                    outcome = "undecodable"
            except DecodeError:
                outcome = "corrupted"

            if outcome == "decoded":
                break
            if outcome == "corrupted":
                # Damage in flight says nothing about sizing: re-request.
                state.rerequests += 1
            elif not resilient:
                pass  # exact: one attempt, no recovery policy
            else:
                advanced = breaker.after_undecodable(policy)
                if advanced.escalations > breaker.escalations:
                    state.escalations += 1
                elif advanced.breaker_open and not breaker.breaker_open:
                    state.breaker_tripped = True
                breaker = advanced

        union_ok = False
        bob_size = -1
        if success and alice_only is not None:
            writer = BitWriter()
            write_points(writer, space, alice_only)
            result = await self._request(
                channel,
                state,
                MessageType.PUSH_POINTS,
                "alice-only-points",
                writer.getvalue(),
                payload_bits=writer.bit_length,
                record=True,
                expect=MessageType.RESULT,
            )
            verdict = parse_json_payload(result.payload)
            union_ok = bool(verdict.get("union_ok", False))
            bob_size = int(verdict.get("bob_size", -1))

        await channel.send_frame(MessageType.BYE, ALICE, "bye", b"")

        summary = channel.summary()
        return SessionReport(
            session_id=config.session_id,
            protocol=config.protocol,
            success=success,
            union_ok=union_ok,
            bob_size=bob_size,
            attempts=state.attempts,
            escalations=state.escalations,
            rerequests=state.rerequests,
            breaker_tripped=state.breaker_tripped,
            fallback_bound=breaker.fallback_bound,
            transcript_bits=summary.total_bits,
            transcript_rounds=summary.rounds,
            by_label=summary.by_label,
            wire=channel.wire_stats,
        )

    async def _strata_fallback(
        self, config, channel, state, space, alice, key_bits: int
    ) -> int:
        """Ship Alice's strata sketch; return Bob's measured bound."""
        sketch = StrataEstimator(
            config.strata_coins(), "service-strata", key_bits=key_bits
        )
        sketch.insert_batch(encode_points(space, alice))
        payload, bits = sketch.to_payload()
        frame = await self._request(
            channel,
            state,
            MessageType.REQ_STRATA,
            "strata-sketch",
            payload,
            payload_bits=bits,
            record=True,
            expect=MessageType.ESTIMATE,
        )
        channel.record_receive(frame)
        estimate = parse_json_payload(frame.payload)
        bound = estimate.get("bound")
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
            raise ProtocolError(f"ESTIMATE carried no usable bound: {estimate!r}")
        return bound

    async def _request(
        self,
        channel: AsyncChannel,
        state: "_SessionState",
        msg_type: MessageType,
        label: str,
        payload: bytes,
        payload_bits: "int | None" = None,
        record: bool = False,
        expect: "MessageType | None" = None,
        resend_on_damaged_response: bool = True,
    ) -> Frame:
        """Send one request and await its response, retrying below the
        recovery policy: our damaged outbound (server says ``decode``)
        and damaged *control* responses are transparently re-sent;
        a damaged *data* response is returned to the caller's policy
        (``resend_on_damaged_response=False``)."""
        for _ in range(MAX_RESENDS):
            await channel.send_frame(
                msg_type, ALICE, label, payload, payload_bits, record=record
            )
            frame = await channel.recv_frame()
            if frame.msg_type == MessageType.ERROR:
                try:
                    frame.verify_payload()
                except MalformedPayloadError:
                    state.rerequests += 1
                    continue  # even the error was chewed; ask again
                detail = parse_json_payload(frame.payload)
                if detail.get("code") == "decode":
                    state.rerequests += 1
                    continue  # our outbound frame was damaged in flight
                raise ProtocolError(
                    f"server error in session {channel.session_id}: {detail!r}"
                )
            if expect is not None and frame.msg_type != expect:
                raise ProtocolError(
                    f"expected {expect.name}, got {frame.msg_type.name} "
                    f"in session {channel.session_id}"
                )
            if resend_on_damaged_response:
                try:
                    frame.verify_payload()
                except MalformedPayloadError:
                    state.rerequests += 1
                    continue
            return frame
        raise ProtocolError(
            f"message {label!r} in session {channel.session_id} still failing "
            f"after {MAX_RESENDS} sends"
        )


class _SessionState:
    """Mutable recovery counters threaded through one session."""

    def __init__(self) -> None:
        self.attempts = 0
        self.escalations = 0
        self.rerequests = 0
        self.breaker_tripped = False


def render_session_reports(reports: "list[SessionReport]", seed: int) -> str:
    """Canonical ``repro.recon-service/v1`` JSON for a finished client run.

    Sessions are sorted by id and every value is deterministic for a
    fixed seed (drawn sim latency, not wall clock), so two same-seed
    runs render byte-identical documents — the invariant CI's
    server-smoke gate compares with ``cmp``.
    """
    ordered = sorted(reports, key=lambda report: report.session_id)
    wire_bytes = sum(r.wire.wire_bytes for r in ordered)
    payload_bytes = sum(r.wire.payload_bytes for r in ordered)
    transcript_bits = sum(r.transcript_bits for r in ordered)
    # Run-wide latency percentiles pool every session's drawn samples.
    pooled = SessionWireStats()
    for report in ordered:
        pooled.sim_latency_samples.extend(report.wire.sim_latency_samples)
    document = {
        "schema": "repro.recon-service/v1",
        "seed": seed,
        "session_count": len(ordered),
        "sessions": [report.to_dict() for report in ordered],
        "aggregate": {
            "all_reconciled": bool(all(r.success and r.union_ok for r in ordered)),
            "transcript_bits": transcript_bits,
            "wire_bytes": wire_bytes,
            "payload_bytes": payload_bytes,
            "framing_bytes": wire_bytes - payload_bytes,
            "rerequests": sum(r.rerequests for r in ordered),
            "escalations": sum(r.escalations for r in ordered),
            "breakers_tripped": sum(1 for r in ordered if r.breaker_tripped),
            "frames_reordered": sum(r.wire.frames_reordered for r in ordered),
            "sim_latency_ms": round(sum(r.wire.sim_latency_ms for r in ordered), 6),
            "sim_latency_p50_ms": round(pooled.latency_percentile(0.50), 6),
            "sim_latency_p99_ms": round(pooled.latency_percentile(0.99), 6),
            "wire_covers_transcript": bool(8 * wire_bytes >= transcript_bits),
        },
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
