"""The framed wire format: roundtrips, validation, and seeded fuzzing.

The frame codec sits under every reconciliation-service byte stream, so
its contract is the same as every other deserializer in the repo
(:mod:`tests.test_errors_fuzz`): arbitrary damage — truncation, bit
flips, pure garbage — may only ever surface as a typed
:class:`repro.errors.DecodeError`, never as a raw ``struct.error``,
``UnicodeDecodeError``, ``KeyError``, or unbounded allocation.
"""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.errors import (
    DecodeError,
    MalformedPayloadError,
    TruncatedPayloadError,
)
from repro.protocol.wire import (
    HEADER_LEN,
    MAGIC,
    MAX_LABEL_LEN,
    MAX_PAYLOAD_LEN,
    WIRE_VERSION,
    Frame,
    MessageType,
    decode_frame,
    decode_header,
    encode_frame,
    frame_overhead,
)

TRUNCATION_TRIALS = 64
FLIP_TRIALS = 96
GARBAGE_TRIALS = 64


def _frame(**overrides) -> Frame:
    fields = dict(
        msg_type=MessageType.SKETCH,
        session_id=7,
        seq=3,
        sender="bob",
        label="iblt",
        payload=b"\x01\x02\x03\x04\x05 payload bytes \xff\x00",
        payload_bits=120,
    )
    fields.update(overrides)
    return Frame(**fields)


class TestRoundtrip:
    def test_encode_decode_roundtrip(self):
        frame = _frame()
        wire = encode_frame(frame)
        decoded, consumed = decode_frame(wire)
        assert consumed == len(wire) == frame.overhead_bytes + len(frame.payload)
        assert decoded.verify_payload() is decoded
        assert decoded.msg_type is MessageType.SKETCH
        assert decoded.session_id == 7
        assert decoded.seq == 3
        assert decoded.sender == "bob"
        assert decoded.label == "iblt"
        assert decoded.payload == frame.payload
        assert decoded.payload_bits == 120

    def test_empty_payload_and_label(self):
        frame = _frame(label="", payload=b"", payload_bits=0)
        decoded, consumed = decode_frame(encode_frame(frame))
        assert consumed == frame_overhead("")
        assert decoded.verify_payload().payload == b""

    def test_trailing_bytes_not_consumed(self):
        wire = encode_frame(_frame())
        _, consumed = decode_frame(wire + b"next frame starts here")
        assert consumed == len(wire)

    def test_overhead_is_header_plus_label_plus_trailer(self):
        frame = _frame(label="strata-sketch")
        wire = encode_frame(frame)
        assert frame.overhead_bytes == frame_overhead("strata-sketch")
        assert frame.overhead_bytes == HEADER_LEN + len("strata-sketch") + 4
        assert len(wire) == frame.overhead_bytes + len(frame.payload)

    def test_all_message_types_roundtrip(self):
        for msg_type in MessageType:
            decoded, _ = decode_frame(encode_frame(_frame(msg_type=msg_type)))
            assert decoded.msg_type is msg_type

    def test_uint64_session_id(self):
        big = (1 << 64) - 1
        decoded, _ = decode_frame(encode_frame(_frame(session_id=big)))
        assert decoded.session_id == big


class TestEncodeValidation:
    def test_oversized_label_rejected(self):
        with pytest.raises(ValueError):
            encode_frame(_frame(label="x" * (MAX_LABEL_LEN + 1)))

    def test_bad_sender_rejected(self):
        with pytest.raises(ValueError):
            encode_frame(_frame(sender="mallory"))


class TestHeaderValidation:
    def test_truncated_prelude(self):
        wire = encode_frame(_frame())
        for cut in (0, 1, HEADER_LEN - 1):
            with pytest.raises(TruncatedPayloadError):
                decode_header(wire[:cut])

    def _damaged(self, **field_overrides) -> bytes:
        """A prelude with bad field values but a *valid* header CRC, so
        the field validation itself is what must reject it."""
        fields = dict(
            magic=MAGIC,
            version=WIRE_VERSION,
            type_code=int(MessageType.SKETCH),
            session_id=7,
            seq=3,
            sender_code=2,
            label_len=0,
            payload_bits=0,
            payload_len=0,
        )
        fields.update(field_overrides)
        raw = struct.pack(
            ">2sBBQIBBII",
            fields["magic"],
            fields["version"],
            fields["type_code"],
            fields["session_id"],
            fields["seq"],
            fields["sender_code"],
            fields["label_len"],
            fields["payload_bits"],
            fields["payload_len"],
        )
        return raw + struct.pack(">I", zlib.crc32(raw))

    def test_bad_magic(self):
        with pytest.raises(MalformedPayloadError, match="magic"):
            decode_header(self._damaged(magic=b"XX"))

    def test_bad_version(self):
        with pytest.raises(MalformedPayloadError, match="version"):
            decode_header(self._damaged(version=WIRE_VERSION + 1))

    def test_unknown_type_code(self):
        with pytest.raises(MalformedPayloadError, match="type"):
            decode_header(self._damaged(type_code=200))

    def test_unknown_sender_code(self):
        with pytest.raises(MalformedPayloadError, match="sender"):
            decode_header(self._damaged(sender_code=9))

    def test_payload_length_cap(self):
        """A forged length field must be rejected before any read/alloc."""
        with pytest.raises(MalformedPayloadError, match="cap"):
            decode_header(self._damaged(payload_len=MAX_PAYLOAD_LEN + 1))

    def test_impossible_payload_bits(self):
        with pytest.raises(MalformedPayloadError, match="bits"):
            decode_header(self._damaged(payload_bits=9, payload_len=1))

    def test_header_crc_detects_single_flip(self):
        wire = bytearray(encode_frame(_frame()))
        for bit in range(8 * (HEADER_LEN - 4)):
            damaged = bytearray(wire)
            damaged[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(MalformedPayloadError):
                decode_header(bytes(damaged[:HEADER_LEN]))


class TestPayloadIntegrity:
    def test_decode_defers_payload_crc(self):
        """Damage in the payload must still yield a *routable* frame —
        decode_frame carries the CRC and verify_payload checks it."""
        wire = bytearray(encode_frame(_frame()))
        wire[HEADER_LEN + 6] ^= 0x10  # flip a payload bit
        frame, _ = decode_frame(bytes(wire))
        assert frame.session_id == 7  # still routable by session
        with pytest.raises(MalformedPayloadError, match="checksum"):
            frame.verify_payload()

    def test_label_damage_detected(self):
        wire = bytearray(encode_frame(_frame(label="iblt")))
        wire[HEADER_LEN] ^= 0x01  # 'i' -> 'h': still ASCII, CRC must catch
        frame, _ = decode_frame(bytes(wire))
        with pytest.raises(MalformedPayloadError):
            frame.verify_payload()

    def test_locally_built_frame_verifies_trivially(self):
        frame = _frame()  # payload_crc is None before encoding
        assert frame.verify_payload() is frame

    def test_non_ascii_label_rejected(self):
        frame = _frame(label="ab", payload=b"")
        wire = bytearray(encode_frame(frame))
        wire[HEADER_LEN] = 0xC3  # invalid ASCII in the label region
        with pytest.raises(DecodeError):
            decode_frame(bytes(wire))


class TestWireFuzz:
    """Seeded mutations of a valid frame: only DecodeError may escape."""

    def _payloads(self):
        yield encode_frame(_frame())
        yield encode_frame(_frame(label="", payload=b"", payload_bits=0))
        yield encode_frame(
            _frame(
                msg_type=MessageType.PUSH_POINTS,
                sender="alice",
                label="alice-only-points",
                payload=bytes(range(256)),
                payload_bits=2048,
            )
        )

    def test_truncations(self):
        for wire in self._payloads():
            rng = random.Random(0xA11CE)
            for _ in range(TRUNCATION_TRIALS):
                cut = wire[: rng.randrange(len(wire))]
                with pytest.raises(TruncatedPayloadError):
                    decode_frame(cut)

    def test_bit_flips(self):
        for wire in self._payloads():
            rng = random.Random(0xB0B)
            for _ in range(FLIP_TRIALS):
                damaged = bytearray(wire)
                for _ in range(1 + rng.randrange(4)):
                    position = rng.randrange(8 * len(damaged))
                    damaged[position // 8] ^= 1 << (position % 8)
                try:
                    frame, _ = decode_frame(bytes(damaged))
                    frame.verify_payload()
                except DecodeError:
                    pass  # the typed contract
                except Exception as error:  # pragma: no cover
                    raise AssertionError(
                        f"untyped {type(error).__name__} escaped the frame "
                        f"codec: {error}"
                    ) from error

    def test_pure_garbage(self):
        rng = random.Random(0x6A6B)
        for _ in range(GARBAGE_TRIALS):
            garbage = bytes(
                rng.randrange(256) for _ in range(rng.randrange(200))
            )
            with pytest.raises(DecodeError):
                decode_frame(garbage)
