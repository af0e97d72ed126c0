"""Frame transport: stream connection, per-session mux, async channel.

Three layers sit between a session coroutine and the byte stream:

* :class:`FrameConnection` — reads/writes whole frames on an asyncio
  ``(StreamReader, StreamWriter)`` pair (or the in-memory equivalent
  from :func:`memory_pipe`), counting physical wire bytes as it goes.
* :class:`FrameMux` — owns the connection's single read loop and routes
  incoming frames to per-session inboxes by the session id carried in
  every frame header; outgoing frames are serialised through one lock.
  A client-side :class:`~repro.server.network.SessionLink` may be
  registered per session, in which case frames in *both* directions pass
  through its deterministic fault plan.
* :class:`AsyncChannel` — one session's endpoint.  It implements the
  :class:`~repro.protocol.channel.BaseChannel` measurement contract, so
  a session reconciling over the wire produces the same kind of
  transcript (:class:`~repro.protocol.channel.TranscriptSummary`) as the
  in-process protocols: data frames are recorded as
  :class:`~repro.protocol.channel.Message` entries; control frames
  (HELLO, REQ_SKETCH, ...) ride the wire but stay out of the analytical
  transcript, appearing only in the physical byte counters.

Receivers deduplicate by sequence number (the link may duplicate
frames) and every await is bounded by a timeout, so a damaged or
malicious peer can make a session *fail*, never *hang*.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field

from ..errors import DecodeError, TruncatedPayloadError
from ..protocol.channel import BaseChannel, Message
from ..protocol.wire import (
    HEADER_LEN,
    Frame,
    FrameHeader,
    MessageType,
    decode_body,
    decode_header,
    encode_frame,
)
from .network import CLIENT_TO_SERVER, SERVER_TO_CLIENT

__all__ = [
    "ConnectionClosedError",
    "FrameConnection",
    "FrameMux",
    "AsyncChannel",
    "SessionWireStats",
    "memory_pipe",
]

#: Default bound on every network await; generous for CI, finite so a
#: stalled peer can never hang a session.
DEFAULT_TIMEOUT = 30.0


class ConnectionClosedError(TruncatedPayloadError):
    """The underlying stream ended (EOF) mid-conversation."""


@dataclass
class SessionWireStats:
    """Physical wire accounting for one session (client side).

    ``wire_bytes_*`` count every byte of every physical frame, including
    duplicated deliveries; ``payload_bytes_*`` count only the payload
    region of those frames, so ``wire - payload`` is the framing
    overhead the service reports itemise.  ``sim_latency_ms`` sums the
    link's *drawn* per-frame latencies (not wall clock), keeping reports
    deterministic.
    """

    frames_out: int = 0
    frames_in: int = 0
    wire_bytes_out: int = 0
    wire_bytes_in: int = 0
    payload_bytes_out: int = 0
    payload_bytes_in: int = 0
    frames_lost: int = 0
    frames_corrupted: int = 0
    frames_duplicated: int = 0
    frames_reordered: int = 0
    sim_latency_ms: float = 0.0
    #: Every drawn per-frame latency, for percentile reporting.
    sim_latency_samples: "list[float]" = field(default_factory=list)

    @property
    def wire_bytes(self) -> int:
        return self.wire_bytes_out + self.wire_bytes_in

    @property
    def payload_bytes(self) -> int:
        return self.payload_bytes_out + self.payload_bytes_in

    @property
    def framing_bytes(self) -> int:
        return self.wire_bytes - self.payload_bytes

    def record_latency(self, latency_ms: float) -> None:
        self.sim_latency_ms += latency_ms
        self.sim_latency_samples.append(latency_ms)

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of the drawn per-frame latencies.

        Deterministic (no interpolation) and 0.0 with no samples, so the
        field is safe to emit in byte-pinned reports.
        """
        if not self.sim_latency_samples:
            return 0.0
        ordered = sorted(self.sim_latency_samples)
        rank = max(1, math.ceil(fraction * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def to_dict(self) -> dict:
        return {
            "frames_out": self.frames_out,
            "frames_in": self.frames_in,
            "wire_bytes": self.wire_bytes,
            "payload_bytes": self.payload_bytes,
            "framing_bytes": self.framing_bytes,
            "frames_lost": self.frames_lost,
            "frames_corrupted": self.frames_corrupted,
            "frames_duplicated": self.frames_duplicated,
            "frames_reordered": self.frames_reordered,
            "sim_latency_ms": round(self.sim_latency_ms, 6),
            "sim_latency_p50_ms": round(self.latency_percentile(0.50), 6),
            "sim_latency_p99_ms": round(self.latency_percentile(0.99), 6),
        }


class FrameConnection:
    """Whole-frame I/O over a stream pair, with byte counters."""

    def __init__(self, reader: asyncio.StreamReader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self.bytes_out = 0
        self.bytes_in = 0

    async def write_raw(self, raw: bytes) -> None:
        """Put one already-encoded frame on the wire."""
        async with self._write_lock:
            self._writer.write(raw)
            await self._writer.drain()
        self.bytes_out += len(raw)

    async def read_raw(self) -> "tuple[FrameHeader, bytes]":
        """Read exactly one frame; returns its validated header and raw bytes.

        Raises :class:`ConnectionClosedError` on EOF and lets header
        :class:`~repro.errors.DecodeError`\\ s from a garbled stream
        propagate (the stream can no longer be reframed).
        """
        try:
            prelude = await self._reader.readexactly(HEADER_LEN)
        except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
            raise ConnectionClosedError("connection closed while reading frame header") from exc
        header = decode_header(prelude)
        try:
            body = await self._reader.readexactly(header.body_len)
        except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
            raise ConnectionClosedError("connection closed mid-frame") from exc
        raw = prelude + body
        self.bytes_in += len(raw)
        return header, raw

    def close(self) -> None:
        try:
            self._writer.close()
        except RuntimeError:  # event loop already gone
            pass


class FrameMux:
    """One connection's read loop + session routing (+ optional links)."""

    def __init__(self, connection: FrameConnection) -> None:
        self.connection = connection
        self._inboxes: "dict[int, asyncio.Queue]" = {}
        self._links: dict = {}
        self.stats: "dict[int, SessionWireStats]" = {}
        self._reader_task: "asyncio.Task | None" = None
        self.closed = False
        # Reordered (late-duplicate) copies waiting for the next frame in
        # their (session, direction) stream; see NetworkConfig.reorder_rate.
        self._deferred: "dict[tuple[int, str], list[tuple[FrameHeader, bytes]]]" = {}

    # -- session registry --------------------------------------------------

    def open_session(self, session_id: int, link=None) -> "asyncio.Queue":
        """Register a session inbox (and optionally its fault link)."""
        if session_id in self._inboxes:
            raise ValueError(f"session {session_id} already open on this connection")
        inbox: asyncio.Queue = asyncio.Queue()
        self._inboxes[session_id] = inbox
        self.stats[session_id] = SessionWireStats()
        if link is not None:
            self._links[session_id] = link
        return inbox

    def close_session(self, session_id: int) -> None:
        self._inboxes.pop(session_id, None)
        self._links.pop(session_id, None)

    def _stats(self, session_id: int) -> SessionWireStats:
        if session_id not in self.stats:
            self.stats[session_id] = SessionWireStats()
        return self.stats[session_id]

    def _apply_link(
        self, direction: str, header: FrameHeader, raw: bytes, stats: SessionWireStats
    ) -> "tuple[list[bytes], tuple[bytes, ...], float | None]":
        """Pass one frame through its session's link, if any, and count what
        the link did to it.

        Returns the copies to deliver now, the copies to hold back behind
        the stream's next frame, and the wall-clock delay in seconds the
        sender should wait (None when there is no link or its
        ``latency_scale`` is 0).
        """
        link = self._links.get(header.session_id)
        if link is None:
            return [raw], (), None
        decision = link.apply(direction, header.seq, header, raw)
        stats.record_latency(decision.latency_ms)
        stats.frames_lost += int(decision.lost)
        stats.frames_corrupted += int(decision.corrupted)
        stats.frames_duplicated += int(decision.duplicated)
        stats.frames_reordered += int(decision.reordered)
        scale = link.config.latency_scale
        delay = decision.latency_ms * scale / 1000.0 if scale else None
        return decision.deliveries, decision.deferred, delay

    # -- outgoing ----------------------------------------------------------

    async def send_frame(self, frame: Frame) -> None:
        """Encode, pass through the session's link (if any), transmit."""
        raw = encode_frame(frame)
        stats = self._stats(frame.session_id)
        header = decode_header(raw[:HEADER_LEN])
        deliveries, deferred, delay = self._apply_link(CLIENT_TO_SERVER, header, raw, stats)
        if delay is not None:
            await asyncio.sleep(delay)
        for raw_copy in deliveries:
            await self.connection.write_raw(raw_copy)
            stats.frames_out += 1
            stats.wire_bytes_out += len(raw_copy)
            stats.payload_bytes_out += len(frame.payload)
        # This frame is on the wire: any stale copy held back from an
        # earlier frame now goes out *behind* it (out-of-order arrival),
        # then this frame's own deferred copies start waiting.
        for old_header, old_raw in self._deferred.pop((frame.session_id, CLIENT_TO_SERVER), ()):
            await self.connection.write_raw(old_raw)
            stats.frames_out += 1
            stats.wire_bytes_out += len(old_raw)
            stats.payload_bytes_out += old_header.payload_len
        if deferred:
            self._deferred[(frame.session_id, CLIENT_TO_SERVER)] = [
                (header, raw_copy) for raw_copy in deferred
            ]

    # -- incoming ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the background read loop (client side)."""
        if self._reader_task is None:
            self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                header, raw = await self.connection.read_raw()
                self._dispatch(header, raw)
        except ConnectionClosedError:
            pass
        except TruncatedPayloadError:
            pass
        except ValueError:
            # Header-level damage: the stream cannot be reframed.
            pass
        finally:
            self._shutdown()

    def _dispatch(self, header: FrameHeader, raw: bytes) -> None:
        stats = self._stats(header.session_id)
        deliveries, deferred, _delay = self._apply_link(SERVER_TO_CLIENT, header, raw, stats)
        for raw_copy in deliveries:
            self._deliver(header, raw_copy, stats)
        # Flush stale copies behind this frame (out-of-order arrival),
        # then park this frame's own deferred copies.
        for old_header, old_raw in self._deferred.pop((header.session_id, SERVER_TO_CLIENT), ()):
            self._deliver(old_header, old_raw, stats)
        if deferred:
            self._deferred[(header.session_id, SERVER_TO_CLIENT)] = [
                (header, raw_copy) for raw_copy in deferred
            ]

    def _deliver(self, header: FrameHeader, raw: bytes, stats: SessionWireStats) -> None:
        stats.frames_in += 1
        stats.wire_bytes_in += len(raw)
        stats.payload_bytes_in += header.payload_len
        inbox = self._inboxes.get(header.session_id)
        if inbox is not None:
            try:
                frame = decode_body(header, raw[HEADER_LEN:])
            except DecodeError:
                return  # unusable body from a hostile peer: drop
            inbox.put_nowait(frame)

    def _shutdown(self) -> None:
        self.closed = True
        for inbox in self._inboxes.values():
            inbox.put_nowait(None)  # sentinel: wake blocked receivers

    async def aclose(self) -> None:
        self.connection.close()
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        self._shutdown()


class AsyncChannel(BaseChannel):
    """One session's endpoint on a framed wire, with measured transcript.

    The :class:`~repro.protocol.channel.BaseChannel` contract is the
    *analytical* transcript: ``send`` records a
    :class:`~repro.protocol.channel.Message` exactly like the in-process
    :class:`~repro.protocol.channel.Channel` (the coroutine
    :meth:`send_frame` does the actual transmission and calls ``send``
    for data frames); :meth:`record_receive` books a received data frame
    under its original sender, so sender-pays accounting matches the
    in-process transcripts message for message.  Physical bytes live in
    the mux's :class:`SessionWireStats`, not here.
    """

    def __init__(
        self,
        mux: FrameMux,
        session_id: int,
        link=None,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        super().__init__()
        self.mux = mux
        self.session_id = session_id
        self.timeout = timeout
        self._inbox = mux.open_session(session_id, link=link)
        self._next_seq = 0
        self._seen_seqs: "set[int]" = set()

    # -- BaseChannel -------------------------------------------------------

    def send(self, sender: str, label: str, payload: bytes, payload_bits: "int | None" = None) -> bytes:
        """Record a message in the analytical transcript (no I/O)."""
        bits = self.validate_send(sender, label, payload, payload_bits)
        self.messages.append(
            Message(sender=sender, label=label, payload=payload, payload_bits=bits)
        )
        return payload

    def record_receive(self, frame: Frame) -> None:
        """Book a received data frame under its wire-declared sender/bits."""
        self.messages.append(
            Message(
                sender=frame.sender,
                label=frame.label,
                payload=frame.payload,
                payload_bits=frame.payload_bits,
            )
        )

    # -- wire I/O ----------------------------------------------------------

    @property
    def wire_stats(self) -> SessionWireStats:
        return self.mux.stats[self.session_id]

    async def send_frame(
        self,
        msg_type: MessageType,
        sender: str,
        label: str,
        payload: bytes,
        payload_bits: "int | None" = None,
        record: bool = False,
    ) -> Frame:
        """Transmit one frame; ``record=True`` also books it via ``send``."""
        bits = self.validate_send(sender, label, payload, payload_bits)
        if record:
            self.send(sender, label, payload, bits)
        frame = Frame(
            msg_type=msg_type,
            session_id=self.session_id,
            seq=self._next_seq,
            sender=sender,
            label=label,
            payload=payload,
            payload_bits=bits,
        )
        self._next_seq += 1
        await self.mux.send_frame(frame)
        return frame

    async def recv_frame(self) -> Frame:
        """Next non-duplicate frame for this session (timeout-bounded).

        Raises :class:`ConnectionClosedError` when the connection died
        and :class:`asyncio.TimeoutError` when the peer goes silent.
        """
        while True:
            frame = await asyncio.wait_for(self._inbox.get(), self.timeout)
            if frame is None:
                raise ConnectionClosedError(
                    f"connection closed while session {self.session_id} awaited a frame"
                )
            if frame.seq in self._seen_seqs:
                continue  # duplicated delivery
            self._seen_seqs.add(frame.seq)
            return frame

    def close(self) -> None:
        self.mux.close_session(self.session_id)


class _PipeWriter:
    """Minimal ``StreamWriter`` stand-in feeding a peer's ``StreamReader``."""

    def __init__(self, peer: asyncio.StreamReader) -> None:
        self._peer = peer
        self._closed = False

    def write(self, data: bytes) -> None:
        if not self._closed:
            self._peer.feed_data(data)

    async def drain(self) -> None:
        await asyncio.sleep(0)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._peer.feed_eof()

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        return None


def memory_pipe() -> "tuple[FrameConnection, FrameConnection]":
    """Two connected in-memory :class:`FrameConnection`\\ s (client, server).

    Bytes written on one side appear on the other side's reader, exactly
    as over a socket but with no OS involvement — the transport the
    scenario driver and tests run the full client/server stack on.
    """
    a_reader = asyncio.StreamReader()
    b_reader = asyncio.StreamReader()
    a_conn = FrameConnection(a_reader, _PipeWriter(b_reader))
    b_conn = FrameConnection(b_reader, _PipeWriter(a_reader))
    return a_conn, b_conn
