"""Framed binary wire format for reconciliation-as-a-service.

Everything the asyncio session server (:mod:`repro.server`) puts on a
byte stream travels inside a *frame*: a fixed 30-byte prelude, a short
ASCII label, the payload bytes, and a trailing payload CRC.  The layout
(all multi-byte integers big-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------
         0     2  magic ``b"RW"``
         2     1  protocol version (currently 1)
         3     1  message type (:class:`MessageType`)
         4     8  session id (uint64)
        12     4  sequence number within the session+direction (uint32)
        16     1  sender code (1 = alice, 2 = bob)
        17     1  label length ``L`` (uint8)
        18     4  declared payload bits (uint32)
        22     4  payload length ``P`` in bytes (uint32)
        26     4  CRC32 of bytes [0, 26)          -- header checksum
        30     L  label (ASCII)
      30+L     P  payload
    30+L+P     4  CRC32 of label + payload        -- payload checksum

Framing overhead is therefore ``34 + L`` bytes per frame — the number
the service scenario reports itemise separately from payload bytes.

Parsing is split in two so a multiplexer can route damaged frames:

* :func:`decode_header` validates magic, version, structural bounds and
  the *header* CRC.  Any damage there raises a typed
  :class:`~repro.errors.DecodeError` (the stream cannot be trusted for
  reframing and the connection should close).
* :meth:`Frame.verify_payload` checks the *payload* CRC.  A frame whose
  header survived but whose payload is damaged still carries a routable
  session id, so the receiving session can turn the damage into a
  protocol-level re-request instead of killing every other session on
  the connection.

No parse path here ever raises anything outside the
:class:`~repro.errors.DecodeError` hierarchy — malformed input must
never crash a peer.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass

from ..errors import MalformedPayloadError, TruncatedPayloadError

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "HEADER_LEN",
    "MAX_LABEL_LEN",
    "MAX_PAYLOAD_LEN",
    "SENDER_CODES",
    "MessageType",
    "Frame",
    "FrameHeader",
    "frame_overhead",
    "encode_frame",
    "decode_header",
    "decode_body",
    "decode_frame",
]

MAGIC = b"RW"
WIRE_VERSION = 1

#: Fixed prelude size: 26 header bytes + 4-byte header CRC.
HEADER_LEN = 30

#: Trailing payload-CRC size.
TRAILER_LEN = 4

MAX_LABEL_LEN = 255

#: Upper bound on a single frame's payload (64 MiB).  Far above any
#: sketch this library emits; exists purely so a malformed length field
#: cannot make a reader attempt a multi-gigabyte allocation.
MAX_PAYLOAD_LEN = 1 << 26

#: Wire encoding of the two protocol roles.
SENDER_CODES = {1: "alice", 2: "bob"}
_SENDER_TO_CODE = {name: code for code, name in SENDER_CODES.items()}

_PRELUDE = struct.Struct(">2sBBQIBBII")
assert _PRELUDE.size == HEADER_LEN - 4


class MessageType(enum.IntEnum):
    """Frame types of the reconciliation session protocol."""

    HELLO = 1  #: client -> server: open a session (JSON config payload)
    HELLO_ACK = 2  #: server -> client: session accepted
    REQ_SKETCH = 3  #: client -> server: request an IBLT at a bound (JSON)
    SKETCH = 4  #: server -> client: the IBLT payload (label ``iblt``)
    PUSH_POINTS = 5  #: client -> server: Alice-only points payload
    RESULT = 6  #: server -> client: union verification verdict (JSON)
    REQ_STRATA = 7  #: client -> server: Alice's strata sketch payload
    ESTIMATE = 8  #: server -> client: measured difference bound (JSON)
    ERROR = 9  #: either direction: typed protocol error (JSON)
    BYE = 10  #: client -> server: session finished


def frame_overhead(label: str) -> int:
    """Bytes a frame adds beyond its payload: ``34 + len(label)``."""
    return HEADER_LEN + len(label.encode("ascii")) + TRAILER_LEN


@dataclass(frozen=True)
class Frame:
    """One decoded (or to-be-encoded) wire frame.

    ``payload_crc`` is the *received* trailing checksum; frames built
    locally for sending leave it ``None`` (:func:`encode_frame` computes
    it).  :meth:`verify_payload` checks it — deliberately not done
    during :func:`decode_frame`, so a mux can still route a
    payload-damaged frame to its session by ``session_id``.
    """

    msg_type: MessageType
    session_id: int
    seq: int
    sender: str
    label: str
    payload: bytes
    payload_bits: int
    payload_crc: "int | None" = None

    @property
    def overhead_bytes(self) -> int:
        """Framing bytes this frame adds beyond its payload."""
        return frame_overhead(self.label)

    def verify_payload(self) -> "Frame":
        """Check the trailing payload CRC; returns ``self`` when intact.

        Raises
        ------
        MalformedPayloadError
            When the received checksum does not match the label+payload
            bytes (damage in flight).  Callers re-request rather than
            crash.
        """
        if self.payload_crc is None:
            return self
        actual = zlib.crc32(self.label.encode("ascii") + self.payload)
        if actual != self.payload_crc:
            raise MalformedPayloadError(
                f"frame payload checksum mismatch in session {self.session_id} "
                f"seq {self.seq} ({self.label!r}): "
                f"expected {self.payload_crc:#010x}, got {actual:#010x}"
            )
        return self


def encode_frame(frame: Frame) -> bytes:
    """Serialise a frame to wire bytes (header CRC + payload CRC added)."""
    label_bytes = frame.label.encode("ascii")
    if len(label_bytes) > MAX_LABEL_LEN:
        raise ValueError(f"label exceeds {MAX_LABEL_LEN} bytes: {frame.label!r}")
    if len(frame.payload) > MAX_PAYLOAD_LEN:
        raise ValueError(
            f"payload of {len(frame.payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_LEN}-byte frame cap"
        )
    if frame.sender not in _SENDER_TO_CODE:
        raise ValueError(f"sender must be 'alice' or 'bob', got {frame.sender!r}")
    prelude = _PRELUDE.pack(
        MAGIC,
        WIRE_VERSION,
        int(frame.msg_type),
        frame.session_id,
        frame.seq,
        _SENDER_TO_CODE[frame.sender],
        len(label_bytes),
        frame.payload_bits,
        len(frame.payload),
    )
    header_crc = zlib.crc32(prelude)
    payload_crc = zlib.crc32(label_bytes + frame.payload)
    return b"".join(
        [
            prelude,
            struct.pack(">I", header_crc),
            label_bytes,
            frame.payload,
            struct.pack(">I", payload_crc),
        ]
    )


@dataclass(frozen=True)
class FrameHeader:
    """The validated fixed prelude: enough to read the frame's body."""

    msg_type: MessageType
    session_id: int
    seq: int
    sender: str
    label_len: int
    payload_bits: int
    payload_len: int

    @property
    def body_len(self) -> int:
        """Bytes following the prelude: label + payload + payload CRC."""
        return self.label_len + self.payload_len + TRAILER_LEN


def decode_header(prelude: bytes) -> FrameHeader:
    """Parse and validate the fixed 30-byte frame prelude.

    Raises :class:`~repro.errors.TruncatedPayloadError` when fewer than
    :data:`HEADER_LEN` bytes are supplied and
    :class:`~repro.errors.MalformedPayloadError` for bad magic, version,
    checksum, or structurally impossible fields — never anything
    outside the :class:`~repro.errors.DecodeError` hierarchy.
    """
    if len(prelude) < HEADER_LEN:
        raise TruncatedPayloadError(
            f"frame header truncated: need {HEADER_LEN} bytes, got {len(prelude)}"
        )
    raw = bytes(prelude[: HEADER_LEN - 4])
    (received_crc,) = struct.unpack(">I", bytes(prelude[HEADER_LEN - 4 : HEADER_LEN]))
    if raw[:2] != MAGIC:
        raise MalformedPayloadError(
            f"bad frame magic: expected {MAGIC!r}, got {raw[:2]!r}"
        )
    actual_crc = zlib.crc32(raw)
    if actual_crc != received_crc:
        raise MalformedPayloadError(
            f"frame header checksum mismatch: expected {received_crc:#010x}, "
            f"got {actual_crc:#010x}"
        )
    (
        _magic,
        version,
        type_code,
        session_id,
        seq,
        sender_code,
        label_len,
        payload_bits,
        payload_len,
    ) = _PRELUDE.unpack(raw)
    if version != WIRE_VERSION:
        raise MalformedPayloadError(
            f"unsupported wire version {version} (expected {WIRE_VERSION})"
        )
    try:
        msg_type = MessageType(type_code)
    except ValueError:
        raise MalformedPayloadError(f"unknown frame type code {type_code}") from None
    sender = SENDER_CODES.get(sender_code)
    if sender is None:
        raise MalformedPayloadError(f"unknown sender code {sender_code}")
    if payload_len > MAX_PAYLOAD_LEN:
        raise MalformedPayloadError(
            f"declared payload of {payload_len} bytes exceeds the "
            f"{MAX_PAYLOAD_LEN}-byte frame cap"
        )
    if payload_bits > 8 * payload_len:
        raise MalformedPayloadError(
            f"declared {payload_bits} payload bits exceed the "
            f"{payload_len}-byte payload"
        )
    return FrameHeader(
        msg_type=msg_type,
        session_id=session_id,
        seq=seq,
        sender=sender,
        label_len=label_len,
        payload_bits=payload_bits,
        payload_len=payload_len,
    )


def decode_body(header: FrameHeader, body: bytes) -> Frame:
    """Build a :class:`Frame` from a validated header and its full body
    (exactly ``header.body_len`` bytes: label + payload + payload CRC)."""
    if len(body) < header.body_len:
        raise TruncatedPayloadError(
            f"frame body truncated: need {header.body_len} bytes, got {len(body)}"
        )
    label_bytes = body[: header.label_len]
    payload = bytes(body[header.label_len : header.label_len + header.payload_len])
    (payload_crc,) = struct.unpack(
        ">I", bytes(body[header.label_len + header.payload_len : header.body_len])
    )
    try:
        label = label_bytes.decode("ascii")
    except UnicodeDecodeError:
        raise MalformedPayloadError(
            f"frame label is not ASCII: {bytes(label_bytes)!r}"
        ) from None
    return Frame(
        msg_type=header.msg_type,
        session_id=header.session_id,
        seq=header.seq,
        sender=header.sender,
        label=label,
        payload=payload,
        payload_bits=header.payload_bits,
        payload_crc=payload_crc,
    )


def decode_frame(data: bytes) -> "tuple[Frame, int]":
    """Decode one frame from the head of ``data``.

    Returns ``(frame, consumed_bytes)``.  The payload CRC is *carried*,
    not checked — call :meth:`Frame.verify_payload` before trusting the
    payload.  Raises :class:`~repro.errors.TruncatedPayloadError` when
    ``data`` ends mid-frame.
    """
    header = decode_header(data[:HEADER_LEN])
    total = HEADER_LEN + header.body_len
    if len(data) < total:
        raise TruncatedPayloadError(
            f"frame body truncated: need {total} bytes, got {len(data)}"
        )
    frame = decode_body(header, data[HEADER_LEN:total])
    return frame, total
