"""A versioned, crc-stamped, append-only NDJSON event log.

Format (``repro.events/v1``): UTF-8 text, one JSON object per ``\\n``
terminated line.  The first line is a *header* record; every following
line is an *event* record with a strictly increasing ``seq`` and a
non-decreasing ``window``:

====== =====================================================
line   canonical JSON (keys sorted, no spaces) + ``\\n``
====== =====================================================
header ``{"crc": C, "key_bits": B, "kind": "header", "meta": {...}, "schema": "repro.events/v1"}``
event  ``{"crc": C, "key": K, "kind": "event", "op": "insert"|"delete", "seq": S, "source": P, "window": W}``
====== =====================================================

Every record carries a ``crc`` — the CRC-32 of its own canonical JSON
with the ``crc`` field removed — so bit damage anywhere in a line is
detected, not silently applied to a replica.  The reader enforces the
full discipline and raises only the typed
:class:`~repro.errors.DecodeError` hierarchy on damaged input:

* :class:`~repro.errors.TruncatedPayloadError` — empty log, or the
  final line lost its newline (an interrupted append);
* :class:`~repro.errors.MalformedPayloadError` — a line longer than
  its cap, bad UTF-8, bad JSON (including integers past Python's digit
  limit and nesting past the recursion limit), crc mismatch, wrong
  schema, unexpected fields, out-of-order or duplicate ``seq``, a
  regressing ``window``, an out-of-range key.

Line length is capped *before* JSON parsing — :data:`MAX_EVENT_LINE_BYTES`
for events, the larger :data:`MAX_HEADER_LINE_BYTES` for the header and
its free-form ``meta`` — so a hostile line costs bounded parse time and
memory.  :func:`write_event_log` refuses out-of-order windows,
out-of-range keys and an over-cap header before it opens the file, so a
log it produces always round-trips and a refused stream leaves no file.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from ..errors import MalformedPayloadError, TruncatedPayloadError
from .events import OPS, MutationEvent

__all__ = [
    "EVENT_LOG_SCHEMA",
    "MAX_EVENT_LINE_BYTES",
    "MAX_HEADER_LINE_BYTES",
    "EventLogReader",
    "record_line",
    "write_event_log",
]

EVENT_LOG_SCHEMA = "repro.events/v1"

#: Longest accepted event line, newline excluded.  A canonical event
#: record is about 100 bytes even with a 64-bit key.
MAX_EVENT_LINE_BYTES = 1024

#: Longest accepted header line, newline excluded (room for ``meta``).
MAX_HEADER_LINE_BYTES = 64 * 1024

_HEADER_FIELDS = frozenset({"crc", "key_bits", "kind", "meta", "schema"})
_EVENT_FIELDS = frozenset({"crc", "key", "kind", "op", "seq", "source", "window"})


def _canonical(record: Mapping) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def record_line(record: Mapping) -> bytes:
    """Stamp ``record`` with its crc and render the canonical log line.

    Also the wire form the gossip replayer ships events in, so a
    transferred event costs exactly its log-line bytes.
    """
    body = {key: value for key, value in record.items() if key != "crc"}
    stamped = dict(body)
    stamped["crc"] = zlib.crc32(_canonical(body))
    return _canonical(stamped) + b"\n"


def write_event_log(
    path: "str | Path",
    events: Iterable[MutationEvent],
    key_bits: int = 61,
    meta: Mapping | None = None,
) -> int:
    """Write a whole event stream to ``path``; returns the event count.

    Enforces the append-only discipline before the file is opened: every
    event must be a :class:`MutationEvent` with a key that fits
    ``key_bits``, and windows must be non-decreasing.  ``seq`` numbers
    are assigned in stream order.
    """
    if not 1 <= key_bits <= 64:
        raise ValueError(f"key_bits must be in [1, 64], got {key_bits}")
    header = record_line(
        {
            "kind": "header",
            "schema": EVENT_LOG_SCHEMA,
            "key_bits": key_bits,
            "meta": dict(meta or {}),
        }
    )
    if len(header) - 1 > MAX_HEADER_LINE_BYTES:
        raise ValueError(f"header line exceeds {MAX_HEADER_LINE_BYTES} bytes")
    events = list(events)
    last_window = 0
    for event in events:
        if not isinstance(event, MutationEvent):
            raise TypeError(f"expected MutationEvent, got {type(event).__name__}")
        if event.key >= (1 << key_bits):
            raise ValueError(f"key {event.key} outside [0, 2^{key_bits})")
        if event.window < last_window:
            raise ValueError(f"window {event.window} regresses from {last_window}")
        last_window = event.window
    with open(path, "wb") as file:
        file.write(header)
        file.writelines(record_line(event.to_record(seq)) for seq, event in enumerate(events))
    return len(events)


class EventLogReader:
    """Parse and validate a ``repro.events/v1`` byte stream.

    The input is untrusted: every deviation from the format raises from
    the typed :class:`~repro.errors.DecodeError` hierarchy (see the
    module docstring for the taxonomy) and nothing is yielded past the
    first damaged record.
    """

    def __init__(self, data: bytes):
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"expected bytes, got {type(data).__name__}")
        self._data = bytes(data)

    @classmethod
    def open(cls, path: "str | Path") -> "EventLogReader":
        return cls(Path(path).read_bytes())

    # -- line / record layer -------------------------------------------------
    def _lines(self) -> list[bytes]:
        if not self._data:
            raise TruncatedPayloadError("empty event log")
        if not self._data.endswith(b"\n"):
            raise TruncatedPayloadError("event log ends mid-record (no trailing newline)")
        return self._data[:-1].split(b"\n")

    @staticmethod
    def _parse_record(raw: bytes, line_number: int, max_bytes: int) -> dict:
        if len(raw) > max_bytes:
            raise MalformedPayloadError(
                f"line {line_number}: {len(raw)} bytes exceeds the {max_bytes}-byte cap"
            )
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise MalformedPayloadError(f"line {line_number}: not UTF-8 ({error})") from error
        try:
            record = json.loads(text)
        except (ValueError, RecursionError) as error:
            # ValueError covers JSONDecodeError and the int digit limit.
            raise MalformedPayloadError(f"line {line_number}: not JSON ({error})") from error
        if not isinstance(record, dict):
            raise MalformedPayloadError(f"line {line_number}: record is not an object")
        crc = record.get("crc")
        if not isinstance(crc, int) or isinstance(crc, bool):
            raise MalformedPayloadError(f"line {line_number}: missing integer crc")
        body = {key: value for key, value in record.items() if key != "crc"}
        if zlib.crc32(_canonical(body)) != crc:
            raise MalformedPayloadError(f"line {line_number}: crc mismatch")
        return record

    @staticmethod
    def _int_field(record: dict, name: str, line_number: int, minimum: int = 0) -> int:
        value = record.get(name)
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise MalformedPayloadError(
                f"line {line_number}: field {name!r} must be an int >= {minimum}, "
                f"got {value!r}"
            )
        return value

    def _parse_header(self, raw: bytes) -> dict:
        record = self._parse_record(raw, 1, MAX_HEADER_LINE_BYTES)
        if record.get("kind") != "header":
            raise MalformedPayloadError("first record is not a header")
        if set(record) != _HEADER_FIELDS:
            raise MalformedPayloadError(
                f"header fields {sorted(record)} != {sorted(_HEADER_FIELDS)}"
            )
        if record.get("schema") != EVENT_LOG_SCHEMA:
            raise MalformedPayloadError(
                f"unsupported schema {record.get('schema')!r} (expected {EVENT_LOG_SCHEMA})"
            )
        key_bits = self._int_field(record, "key_bits", 1, minimum=1)
        if key_bits > 64:
            raise MalformedPayloadError(f"key_bits {key_bits} > 64")
        if not isinstance(record.get("meta"), dict):
            raise MalformedPayloadError("header meta must be an object")
        return record

    # -- public surface ------------------------------------------------------
    def header(self) -> dict:
        """The validated header record (``key_bits``, ``meta``, ...)."""
        return self._parse_header(self._lines()[0])

    def events(self) -> Iterator[MutationEvent]:
        """Yield events in sequence order, validating as it goes."""
        lines = self._lines()
        header = self._parse_header(lines[0])
        key_limit = 1 << header["key_bits"]
        expected_seq = 0
        last_window = 0
        for offset, raw in enumerate(lines[1:]):
            line_number = offset + 2
            record = self._parse_record(raw, line_number, MAX_EVENT_LINE_BYTES)
            kind = record.get("kind")
            if kind == "header":
                raise MalformedPayloadError(f"line {line_number}: duplicate header")
            if kind != "event":
                raise MalformedPayloadError(f"line {line_number}: unknown kind {kind!r}")
            if set(record) != _EVENT_FIELDS:
                raise MalformedPayloadError(
                    f"line {line_number}: event fields {sorted(record)} != "
                    f"{sorted(_EVENT_FIELDS)}"
                )
            seq = self._int_field(record, "seq", line_number)
            if seq != expected_seq:
                raise MalformedPayloadError(
                    f"line {line_number}: seq {seq} out of order (expected {expected_seq})"
                )
            window = self._int_field(record, "window", line_number)
            if window < last_window:
                raise MalformedPayloadError(
                    f"line {line_number}: window {window} regresses from {last_window}"
                )
            if record.get("op") not in OPS:
                raise MalformedPayloadError(
                    f"line {line_number}: op must be one of {OPS}, got {record.get('op')!r}"
                )
            key = self._int_field(record, "key", line_number)
            if key >= key_limit:
                raise MalformedPayloadError(
                    f"line {line_number}: key {key} outside [0, 2^{header['key_bits']})"
                )
            self._int_field(record, "source", line_number)
            expected_seq = seq + 1
            last_window = window
            yield MutationEvent.from_record(record)

    def read_all(self) -> list[MutationEvent]:
        """Every event in the log, fully validated."""
        return list(self.events())
