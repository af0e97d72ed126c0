"""The reconciliation client: Alice driving sessions over the wire.

:class:`ReconcileClient` multiplexes any number of concurrent sessions
over one framed connection.  Each session re-enacts the in-process
resilient controller (:mod:`repro.reconcile.resilient`) with the roles
split across the wire: the client is **Alice** — she requests Bob's
sketch, peels it, and books each attempt with the same
:class:`~repro.reconcile.resilient.Recovery` tracker, which owns the
policy —

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
import contextlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import DecodeError, MalformedPayloadError
from ..iblt.iblt import IBLT, cells_for_differences
from ..protocol.channel import ALICE
from ..protocol.serialize import BitWriter, write_points
from ..protocol.wire import Frame, MessageType
from ..reconcile.exact_iblt import decode_points
from ..reconcile.resilient import Recovery, ResilienceConfig
from ..reconcile.strata import StrataEstimator
from .network import SimulatedNetwork
from .session import SessionConfig, json_payload, parse_json_payload
from .transport import (
    DEFAULT_TIMEOUT,
    AsyncChannel,
    FrameConnection,
    FrameMux,
    SessionWireStats,
    memory_pipe,
)

__all__ = [
    "ProtocolError",
    "SessionReport",
    "ReconcileClient",
    "run_client",
    "serve_in_memory",
    "session_aggregate",
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

        alice_keys, _ = config.workload_keys()
        space = config.space()
        key_bits = config.key_bits

        # The wire controller drives the same recovery loop as the
        # in-process resilient controller; ``exact`` has no policy.
        policy = (
            ResilienceConfig(
                max_attempts=config.max_attempts, max_escalations=config.max_escalations
            )
            if config.protocol == "resilient"
            else None
        )
        recovery = Recovery(policy, config.delta_bound)
        alice_only: "np.ndarray | None" = None

        for attempt in recovery:
            if recovery.needs_fallback:
                recovery.adopt_fallback(
                    await self._strata_fallback(config, channel, state, alice_keys, key_bits)
                )
            bound = recovery.bound
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
                    config.attempt_coins(attempt),
                    "exact-reconcile",
                    cells=cells,
                    q=config.q,
                    key_bits=key_bits,
                ).from_payload(frame.payload)
                view.delete_batch(alice_keys)
                decoded = view.decode()
                if decoded.success:
                    alice_only = decode_points(space, decoded.deleted)
                outcome = "decoded" if decoded.success else "undecodable"
            except DecodeError:
                outcome = "corrupted"
            recovery.record(outcome)

        union_ok = False
        bob_size = -1
        if alice_only is not None:
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
            success=recovery.decoded,
            union_ok=union_ok,
            bob_size=bob_size,
            attempts=recovery.attempts,
            escalations=recovery.escalations,
            rerequests=state.resends + recovery.rerequests,
            breaker_tripped=recovery.breaker_tripped,
            fallback_bound=recovery.measured_bound,
            transcript_bits=summary.total_bits,
            transcript_rounds=summary.rounds,
            by_label=summary.by_label,
            wire=channel.wire_stats,
        )

    async def _strata_fallback(
        self, config, channel, state, alice_keys, key_bits: int
    ) -> int:
        """Ship Alice's strata sketch; return Bob's measured bound."""
        sketch = StrataEstimator(
            config.strata_coins(), "service-strata", key_bits=key_bits
        )
        sketch.insert_batch(alice_keys)
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
                    state.resends += 1
                    continue  # even the error was chewed; ask again
                detail = parse_json_payload(frame.payload)
                if detail.get("code") == "decode":
                    state.resends += 1
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
                    state.resends += 1
                    continue
            return frame
        raise ProtocolError(
            f"message {label!r} in session {channel.session_id} still failing "
            f"after {MAX_RESENDS} sends"
        )


class _SessionState:
    """Transport-level resends of one session, below the recovery loop."""

    def __init__(self) -> None:
        self.resends = 0


async def run_client(
    connection: FrameConnection,
    configs: "list[SessionConfig]",
    network: "SimulatedNetwork | None" = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> "list[SessionReport]":
    """One client run: start a client on ``connection``, run every
    session concurrently, and close the client however the run ends."""
    client = ReconcileClient(connection, network=network, timeout=timeout)
    client.start()
    try:
        return await client.run_sessions(configs)
    finally:
        await client.aclose()


async def serve_in_memory(
    server, configs: "list[SessionConfig]", **options
) -> "list[SessionReport]":
    """:func:`run_client` (with its ``options``) against ``server``, a
    :class:`~repro.server.server.ReconcileServer`, over an in-memory
    framed pipe; the server's connection task is cancelled afterwards."""
    client_conn, server_conn = memory_pipe()
    server_task = asyncio.ensure_future(server.serve_connection(server_conn))
    try:
        return await run_client(client_conn, configs, **options)
    finally:
        server_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await server_task


def session_aggregate(reports: "list[SessionReport]") -> dict:
    """Run-wide totals of finished sessions, summed in session-id order."""
    reports = sorted(reports, key=lambda report: report.session_id)
    wire_bytes = sum(r.wire.wire_bytes for r in reports)
    payload_bytes = sum(r.wire.payload_bytes for r in reports)
    transcript_bits = sum(r.transcript_bits for r in reports)
    # Run-wide latency percentiles pool every session's drawn samples.
    pooled = SessionWireStats()
    for report in reports:
        pooled.sim_latency_samples.extend(report.wire.sim_latency_samples)
    return {
        "all_reconciled": bool(all(r.success and r.union_ok for r in reports)),
        "transcript_bits": transcript_bits,
        "wire_bytes": wire_bytes,
        "payload_bytes": payload_bytes,
        "framing_bytes": wire_bytes - payload_bytes,
        "rerequests": sum(r.rerequests for r in reports),
        "escalations": sum(r.escalations for r in reports),
        "breakers_tripped": sum(1 for r in reports if r.breaker_tripped),
        "frames_reordered": sum(r.wire.frames_reordered for r in reports),
        "sim_latency_ms": round(sum(r.wire.sim_latency_ms for r in reports), 6),
        "sim_latency_p50_ms": round(pooled.latency_percentile(0.50), 6),
        "sim_latency_p99_ms": round(pooled.latency_percentile(0.99), 6),
        # The physical wire must carry at least the analytical transcript.
        "wire_covers_transcript": bool(8 * wire_bytes >= transcript_bits),
    }


def render_session_reports(reports: "list[SessionReport]", seed: int) -> str:
    """Canonical ``repro.recon-service/v1`` JSON for a finished client run.

    Sessions are sorted by id and every value is deterministic for a
    fixed seed (drawn sim latency, not wall clock), so two same-seed
    runs render byte-identical documents — the invariant CI's
    server-smoke gate compares with ``cmp``.
    """
    ordered = sorted(reports, key=lambda report: report.session_id)
    document = {
        "schema": "repro.recon-service/v1",
        "seed": seed,
        "session_count": len(ordered),
        "sessions": [report.to_dict() for report in ordered],
        "aggregate": session_aggregate(ordered),
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
