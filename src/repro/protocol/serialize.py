"""Bit-level serialization for honest communication accounting.

Every protocol message in this library is serialized to actual bytes
before "transmission" and parsed back on receipt, so the communication
costs the benchmarks report are *measured*, not computed from formulas.
Because the paper's bounds are stated in bits, the writer packs at bit
granularity: a Hamming point costs ``d`` bits, a ``[Δ]^d`` point costs
``d·ceil(log2 Δ)`` bits, and unbounded integers (RIBLT cell sums) use
zigzag varints whose cost adapts to their magnitude (``O(log |x|)``).

Layout.  The stream is LSB-first: bit ``i`` of the stream is bit
``i mod 8`` of byte ``i // 8``, a fixed-width field stores its value's
least significant bit first, and the final partial byte is zero-padded.
A varuint is a run of 8-bit groups, least significant group first; in
each group the continuation flag is the low bit and the next 7 value
bits sit above it; signed values are zigzag-mapped (``x → 2x``,
``-x → 2x-1``).  Values are capped at :data:`VARUINT_MAX_GROUPS` groups
(133 bits): the writer refuses more, and a reader that sees a 19th
continuation raises ``MalformedPayloadError``.  A point is one
``d·w``-bit field (``w = ceil(log2 side)``, coordinate 0 lowest), the
same bytes as ``d`` separate ``w``-bit fields; a reader rejects any
coordinate ``>= side``.

The scalar codec works a field at a time, never a bit at a time:
:class:`BitWriter` shift-ORs each field into a Python-int accumulator
and flushes whole bytes once 64 or more bits are pending, and
:class:`BitReader` decodes a fixed-width field with one
``int.from_bytes`` over the bytes that cover it.

Table cells go a run at a time.  :meth:`BitWriter.write_varint_run`
and :meth:`BitReader.read_varint_run` code a whole table's varints in
O(1) numpy calls, :meth:`BitReader.skip_varints` moves past a run by
counting its terminators, and :meth:`BitWriter.write_bit_rows` /
:meth:`BitReader.peek_bit_rows` move a fixed-stride bit matrix, which
:func:`fields_to_bits` builds from fixed-width fields and
:func:`bits_to_fields` splits back into them.  They produce and accept
the same bytes as the scalar calls, which stay the reference and the
error path.  ``tests/test_serialize.py`` pins both
codecs against a bit-at-a-time oracle, run by run, at every lead offset
and every byte cut; ``tests/test_payload_api.py`` pins the SHA-256 of
fixed-seed payloads of every table kind.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..errors import MalformedPayloadError, TruncatedPayloadError
from ..metric.spaces import MetricSpace, Point, point_tuples

__all__ = [
    "BitWriter",
    "BitReader",
    "VARUINT_MAX_GROUPS",
    "coordinate_bits",
    "write_point",
    "read_point",
    "write_points",
    "read_points",
    "read_point_matrix",
    "fields_to_bits",
    "bits_to_fields",
]


#: Varint group budget shared by writer and reader.  19 groups carry
#: ``19 · 7 = 133`` payload bits — enough for any legitimate cell sum
#: (``2^31`` pairs of 61-bit keys stay below ``2^93``, well under the
#: cap even after zigzag) while bounding how far a malformed stream can
#: drag :meth:`BitReader.read_varuint`.
VARUINT_MAX_GROUPS = 19

_VARUINT_MAX_BITS = 7 * VARUINT_MAX_GROUPS

#: Pending bits at which :class:`BitWriter` moves whole bytes out of its
#: accumulator, so the accumulator stays a few machine words wide.
_FLUSH_BITS = 64

#: Longest field :meth:`BitWriter.write_varints` builds before pushing it.
_RUN_BITS = 1024

#: Bits per limb of a value coded in a varint run: seven whole groups, so
#: no group straddles two limbs, and a limb is exact as a float64.
_LIMB_BITS = 49
_LIMB_MASK = (1 << _LIMB_BITS) - 1

#: Fewest values a varint run codes with numpy.  Below it the fixed cost
#: of the numpy calls exceeds the value-by-value loop.
_RUN_MIN_VALUES = 64


def _zigzag_limbs(block) -> "np.ndarray | None":
    """The zigzag values of an int column, or of a ``rows × k`` nested
    block, as three 49-bit limbs: a ``(3, rows, k)`` uint64 array.

    Built in int64 when every value fits, otherwise from each value's
    bytes.  None when a value needs more than :data:`VARUINT_MAX_GROUPS`
    groups.
    """
    try:
        values = np.asarray(block, dtype=np.int64)
    except OverflowError:
        # Past int64: each value's 192-bit two's complement, zigzagged
        # and cut into limbs word-wise.
        wide = np.asarray(block, dtype=object)
        if wide.ndim == 1:
            wide = wide[:, None]
        try:
            octets = b"".join(
                [value.to_bytes(24, "little", signed=True) for value in wide.ravel().tolist()]
            )
        except OverflowError:
            return None
        words = np.frombuffer(octets, dtype="<u8").reshape(-1, 3).T
        sign = np.negative(words[2] >> 63)  # all ones for a negative value
        low = (words[0] << 1) ^ sign
        middle = ((words[1] << 1) | (words[0] >> 63)) ^ sign
        high = ((words[2] << 1) | (words[1] >> 63)) ^ sign
        if (high >> (_VARUINT_MAX_BITS - 128)).any():
            return None
        limbs = np.stack(
            (
                low & _LIMB_MASK,
                ((low >> _LIMB_BITS) | (middle << (64 - _LIMB_BITS))) & _LIMB_MASK,
                (middle >> (2 * _LIMB_BITS - 64)) | (high << (128 - 2 * _LIMB_BITS)),
            )
        )
        return limbs.reshape(3, *wide.shape)
    if values.ndim == 1:
        values = values[:, None]
    zigzags = (values.view(np.uint64) << 1) ^ (values >> 63).view(np.uint64)
    return np.stack((zigzags & _LIMB_MASK, zigzags >> _LIMB_BITS, np.zeros_like(zigzags)))


def _row_major(blocks) -> Iterable[int]:
    """The values of side-by-side blocks, row by row."""
    for row in zip(*blocks):
        for part in row:
            if isinstance(part, (list, tuple, np.ndarray)):
                yield from part
            else:
                yield part


def _zigzag(value: int) -> int:
    """Signed to unsigned: ``x -> 2x``, ``-x -> 2x - 1``."""
    return value << 1 if value >= 0 else (~value << 1) | 1


def _varuint_field(value: int) -> tuple[int, int]:
    """A varuint's groups as one LSB-first field: ``(field, bit_count)``."""
    if value < 0x80:
        if value < 0:
            raise ValueError(f"write_varuint requires value >= 0, got {value}")
        return value << 1, 8
    if value.bit_length() > _VARUINT_MAX_BITS:
        raise ValueError(
            f"value {value} needs more than {VARUINT_MAX_GROUPS} varuint "
            f"groups ({_VARUINT_MAX_BITS} bits)"
        )
    field = 0
    shift = 0
    while value >= 0x80:
        field |= (((value & 0x7F) << 1) | 1) << shift
        value >>= 7
        shift += 8
    return field | (value << (shift + 1)), shift + 8


class BitWriter:
    """Append-only bit buffer (LSB-first; see the module docstring)."""

    def __init__(self) -> None:
        self._bytes = bytearray()  # flushed whole bytes
        self._pending = 0  # bits not yet flushed, LSB-first
        self._pending_bits = 0

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._bytes) + self._pending_bits

    def _push(self, value: int, bits: int) -> None:
        """Append a validated ``bits``-bit field."""
        pending = self._pending | (value << self._pending_bits)
        pending_bits = self._pending_bits + bits
        if pending_bits >= _FLUSH_BITS:
            whole = pending_bits >> 3
            self._bytes += (pending & ((1 << (8 * whole)) - 1)).to_bytes(whole, "little")
            pending >>= 8 * whole
            pending_bits &= 7
        self._pending = pending
        self._pending_bits = pending_bits

    def write_bit(self, bit: int) -> None:
        self._push(1 if bit else 0, 1)

    def write_uint(self, value: int, bits: int) -> None:
        """Write ``value`` as a fixed-width ``bits``-bit unsigned integer."""
        value = int(value)
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        if value < 0 or (bits < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {bits} bits")
        self._push(value, bits)

    def write_varuint(self, value: int) -> None:
        """LEB128-style varint: 7 value bits + 1 continuation bit per group.

        Values are capped at :data:`VARUINT_MAX_GROUPS` groups (133 bits)
        so the reader can bound malformed streams without ever rejecting a
        legitimately written value.  All groups go out as one field.
        """
        self._push(*_varuint_field(int(value)))

    def write_varint(self, value: int) -> None:
        """Signed varint via zigzag mapping ``x -> 2x`` / ``-x -> 2x-1``."""
        self._push(*_varuint_field(_zigzag(int(value))))

    def write_varints(self, values: Iterable[int]) -> None:
        """:meth:`write_varint` for each value, shift-ORed into one field
        per :data:`_RUN_BITS` so a long run stays linear."""
        field = 0
        shift = 0
        for value in values:
            groups, bits = _varuint_field(_zigzag(int(value)))
            field |= groups << shift
            shift += bits
            if shift >= _RUN_BITS:
                self._push(field, shift)
                field = 0
                shift = 0
        self._push(field, shift)

    def write_varint_run(self, blocks: Sequence) -> None:
        """:meth:`write_varints` over the rows of ``blocks`` side by side.

        Each block is a column of ``rows`` ints or a ``rows × k`` nested
        sequence; row ``i`` writes row ``i`` of every block in turn.  The
        run is one field built in O(1) numpy calls: one pass writes every
        value's first group, a second every later group of the values
        that have more.  Short runs, and runs holding a value over the
        group cap (which raises :meth:`write_varint`'s ``ValueError``),
        take the value-by-value loop.
        """
        parts = [_zigzag_limbs(block) for block in blocks]
        if any(part is None for part in parts) or sum(
            part[0].size for part in parts
        ) < _RUN_MIN_VALUES:
            self.write_varints(_row_major(blocks))
            return
        limbs = np.concatenate(parts, axis=2).reshape(3, -1)
        # Bit lengths: limbs are below 2^53, so frexp's exponent is exact.
        lengths = np.frexp(limbs.astype(np.float64))[1]
        bits = np.where(lengths[1] > 0, lengths[1] + _LIMB_BITS, lengths[0])
        bits = np.where(lengths[2] > 0, lengths[2] + 2 * _LIMB_BITS, bits)
        groups = np.maximum((bits + 6) // 7, 1)
        ends = np.cumsum(groups)
        starts = ends - groups
        run = np.empty(int(ends[-1]), dtype=np.uint8)
        more = groups > 1
        run[starts] = ((limbs[0] & 0x7F) << 1) | more
        # Every later group of the multi-group values in one pass.
        live = np.flatnonzero(more)
        index = np.arange(1, int(groups.max()))[:, None]
        shifts = (7 * (index % 7)).astype(np.uint64)
        payload = (limbs[index // 7, live] >> shifts) & 0x7F
        present = index < groups[live]
        run[(starts[live] + index)[present]] = (
            (payload << 1) | (index + 1 < groups[live])
        )[present]
        self._push(int.from_bytes(run.tobytes(), "little"), 8 * len(run))

    def write_bit_rows(self, bits: np.ndarray) -> None:
        """Append a ``(rows, width)`` matrix of 0/1 bits, row by row, as
        one field."""
        packed = np.packbits(bits.reshape(-1), bitorder="little")
        self._push(int.from_bytes(packed.tobytes(), "little"), bits.size)

    def write_bool(self, flag: bool) -> None:
        self.write_bit(flag)

    def getvalue(self) -> bytes:
        """The accumulated buffer, final partial byte zero-padded."""
        tail = self._pending.to_bytes((self._pending_bits + 7) >> 3, "little")
        return bytes(self._bytes) + tail


class BitReader:
    """Sequential reader matching :class:`BitWriter`'s encoding."""

    def __init__(self, data: bytes):
        self._data = data
        self._position = 0  # absolute bit offset
        self._limit = 8 * len(data)

    @property
    def bits_remaining(self) -> int:
        return self._limit - self._position

    def read_bit(self) -> int:
        position = self._position
        if position >= self._limit:
            raise TruncatedPayloadError("bit stream exhausted")
        self._position = position + 1
        return (self._data[position >> 3] >> (position & 7)) & 1

    def read_uint(self, bits: int) -> int:
        """Read a fixed-width unsigned integer (mirrors ``write_uint``)."""
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        start = self._position
        end = start + bits
        if end > self._limit:
            raise TruncatedPayloadError("bit stream exhausted")
        self._position = end
        covering = self._data[start >> 3 : (end + 7) >> 3]
        return (int.from_bytes(covering, "little") >> (start & 7)) & ((1 << bits) - 1)

    def read_varuint(self) -> int:
        """Read a varuint; raises on malformed or truncated streams.

        A stream still asking for continuation after
        :data:`VARUINT_MAX_GROUPS` groups cannot have come from
        :meth:`BitWriter.write_varuint` and raises
        :class:`~repro.errors.MalformedPayloadError` (a ``ValueError``);
        running out of bits mid-value raises
        :class:`~repro.errors.TruncatedPayloadError` (an ``EOFError``).
        """
        return self._read_varuints(1, signed=False)[0]

    def read_varint(self) -> int:
        return self._read_varuints(1, signed=True)[0]

    def read_varints(self, count: int) -> list[int]:
        """``count`` consecutive :meth:`read_varint` values."""
        return self._read_varuints(count, signed=True)

    def _read_varuints(self, count: int, signed: bool) -> list[int]:
        """Read ``count`` varuints one 8-bit group at a time, undoing the
        zigzag mapping when ``signed``."""
        data = self._data
        limit = self._limit
        position = self._position
        values = []
        for _ in range(count):
            offset = position & 7
            index = position >> 3
            value = 0
            # Only whole groups can be read: a partial one is truncation.
            groups = min((limit - position) >> 3, VARUINT_MAX_GROUPS)
            for group_index in range(groups):
                if offset:
                    group = ((data[index] | (data[index + 1] << 8)) >> offset) & 0xFF
                else:
                    group = data[index]
                index += 1
                value |= (group >> 1) << (7 * group_index)
                if not group & 1:
                    break
            else:
                if groups < VARUINT_MAX_GROUPS:
                    raise TruncatedPayloadError("bit stream exhausted")
                raise MalformedPayloadError(
                    f"malformed varuint: more than {VARUINT_MAX_GROUPS} "
                    "continuation groups"
                )
            position += 8 * (group_index + 1)
            if signed:
                value = ~(value >> 1) if value & 1 else value >> 1
            values.append(value)
        self._position = position
        return values

    def read_varint_run(self, rows: int, width: int) -> "np.ndarray | None":
        """The next ``rows × width`` :meth:`read_varint` values as a
        ``(rows, width)`` matrix, read in O(1) numpy calls: int64, or
        object when some value needs more than 64 bits.

        The covering bytes are aligned once; the terminators are the
        groups whose continuation bit is clear, and each value's groups
        are ORed into 49-bit limbs.  Returns None, without moving, when the
        run is short or does not parse (a value is cut off or runs past
        :data:`VARUINT_MAX_GROUPS` groups): the caller then replays its
        value-by-value loop, which raises the typed error.
        """
        count = rows * width
        position = self._position
        if count < _RUN_MIN_VALUES or (self._limit - position) >> 3 < count:
            return None
        raw, ends, _span = self._terminators(count)
        if len(ends) < count:
            return None
        ends = ends[:count]
        groups = np.diff(ends, prepend=-1)
        if groups.max() > VARUINT_MAX_GROUPS:
            return None
        self._position = position + 8 * (int(ends[-1]) + 1)
        # The writer's two passes in reverse: every value's first group,
        # then every later group of the values that have more, ORed into
        # 49-bit limbs (groups 0-6, 7-13 and 14-18).
        payload = raw >> 1
        starts = ends - groups + 1
        limbs = np.zeros((3, count), dtype=np.uint64)
        limbs[0] = payload[starts]
        live = np.flatnonzero(groups > 1)
        index = np.arange(1, int(groups.max()))[:, None]
        later = np.where(
            index < groups[live], payload[np.minimum(starts[live] + index, ends[-1])], 0
        ).astype(np.uint64) << (7 * (index % 7)).astype(np.uint64)
        for limb in range(3):
            rows_of_limb = later[max(7 * limb - 1, 0) : 7 * limb + 6]
            limbs[limb, live] |= np.bitwise_or.reduce(rows_of_limb, axis=0)
        low, middle, high = limbs
        wide = np.flatnonzero(high | (middle >> (64 - _LIMB_BITS)))
        zigzags = low | (middle << _LIMB_BITS)
        values = (zigzags >> 1).view(np.int64) ^ -(zigzags & 1).view(np.int64)
        if len(wide):
            # Past 64 bits: halve each zigzag limb-wise, then join its
            # limbs into one Python int.
            low, middle, high = low[wide], middle[wide], high[wide]
            carry = _LIMB_BITS - 1
            halves = zip(
                ((low >> 1) | ((middle & 1) << carry)).tolist(),
                ((middle >> 1) | ((high & 1) << carry)).tolist(),
                (high >> 1).tolist(),
            )
            magnitudes = [a | b << _LIMB_BITS | c << (2 * _LIMB_BITS) for a, b, c in halves]
            values = values.astype(object)
            values[wide] = [
                ~magnitude if sign else magnitude
                for magnitude, sign in zip(magnitudes, (low & 1).tolist())
            ]
        return values.reshape(rows, width)

    def _terminators(self, count: int) -> "tuple[np.ndarray, np.ndarray, int]":
        """The groups ahead, aligned to whole bytes, and the indices of
        those whose continuation bit is clear: ``(raw, ends, span)``.

        ``span`` groups are scanned, at most the whole groups left and
        :data:`VARUINT_MAX_GROUPS` per value; a first pass looks at four
        groups per value, enough for most runs, and widens once if it
        finds fewer than ``count`` terminators.
        """
        start, offset = self._position >> 3, self._position & 7
        bound = min((self._limit - self._position) >> 3, VARUINT_MAX_GROUPS * count)
        span = min(bound, 4 * count)
        while True:
            raw = np.frombuffer(self._data, np.uint8, span + (offset > 0), start)
            if offset:
                raw = (raw[:-1] >> offset) | (raw[1:] << (8 - offset))
            ends = np.flatnonzero(~raw & 1)
            if len(ends) >= count or span == bound:
                return raw, ends, span
            span = bound

    def skip_varints(self, count: int) -> None:
        """Move past ``count`` varints without decoding them.

        Only the terminators are counted, in O(1) numpy calls.  The checks
        and errors are :meth:`read_varints`': a value still asking for
        continuation after :data:`VARUINT_MAX_GROUPS` groups raises
        :class:`~repro.errors.MalformedPayloadError`, and a stream that
        ends inside a value raises
        :class:`~repro.errors.TruncatedPayloadError`.  On an error the
        reader does not move.
        """
        if count <= 0:
            return
        _raw, ends, span = self._terminators(count)
        ends = ends[:count]
        used = int(ends[-1]) + 1 if len(ends) else 0
        longest = int(np.diff(ends, prepend=-1).max()) if len(ends) else 0
        if len(ends) < count:
            # The value after the last terminator continues to the end of
            # the scan, so it needs at least one more group.
            longest = max(longest, span - used + 1)
        if longest > VARUINT_MAX_GROUPS:
            raise MalformedPayloadError(
                f"malformed varuint: more than {VARUINT_MAX_GROUPS} continuation groups"
            )
        if len(ends) < count:
            raise TruncatedPayloadError("bit stream exhausted")
        self._position += 8 * used

    def peek_bit_rows(self, rows: int, width: int) -> "np.ndarray | None":
        """The next ``rows × width`` bits as a ``(rows, width)`` 0/1 matrix,
        without moving; None when fewer bits remain."""
        total = rows * width
        if total > self.bits_remaining:
            return None
        start, offset = self._position >> 3, self._position & 7
        raw = np.frombuffer(self._data, np.uint8, (offset + total + 7) >> 3, start)
        return np.unpackbits(raw, bitorder="little")[offset : offset + total].reshape(rows, width)

    def skip_bits(self, bits: int) -> None:
        """Move past ``bits`` bits already read with :meth:`peek_bit_rows`."""
        if bits > self.bits_remaining:
            raise TruncatedPayloadError("bit stream exhausted")
        self._position += bits

    def read_bool(self) -> bool:
        return bool(self.read_bit())


def fields_to_bits(*fields: "tuple[np.ndarray, int]") -> np.ndarray:
    """Side-by-side fixed-width fields as one 0/1 matrix for
    :meth:`BitWriter.write_bit_rows`.

    Each field is ``(values, width)``: non-negative integers below
    ``2^width``, ``width <= 64``.  The result has shape
    ``values.shape + (Σ width,)``: each field's bits in turn, least
    significant first, the bits :meth:`BitWriter.write_uint` writes.
    """
    bits = []
    for values, width in fields:
        octets = np.ascontiguousarray(values, dtype="<u8").view(np.uint8)
        octets = octets.reshape(np.shape(values) + (8,))
        bits.append(np.unpackbits(octets, axis=-1, bitorder="little")[..., :width])
    return np.concatenate(bits, axis=-1)


def bits_to_fields(bits: np.ndarray, *widths: int) -> "list[np.ndarray]":
    """The inverse of :func:`fields_to_bits`: one ``uint64`` array per
    width, read from consecutive slices of the last axis.  Each field is
    padded to 64 bits and packed as one little-endian word."""
    values = []
    start = 0
    for width in widths:
        words = np.zeros(bits.shape[:-1] + (64,), dtype=np.uint8)
        words[..., :width] = bits[..., start : start + width]
        packed = np.packbits(words, axis=-1, bitorder="little").view("<u8")[..., 0]
        values.append(packed.astype(np.uint64, copy=False))
        start += width
    return values


def coordinate_bits(space: MetricSpace) -> int:
    """Fixed width per coordinate: ``ceil(log2 Δ)`` (1 bit for Hamming)."""
    return max(1, math.ceil(math.log2(space.side)))


def write_point(writer: BitWriter, space: MetricSpace, point: Point) -> None:
    """Write one point as a single ``d · ceil(log2 Δ)``-bit field.

    Coordinates are packed LSB-first (coordinate 0 in the low bits), the
    same bytes as writing each one as its own fixed-width field.  The
    point passes :meth:`~repro.metric.MetricSpace.point_array`, so the
    writer accepts exactly what :func:`read_point` accepts.  This is the
    scalar reference of :func:`write_points`.
    """
    (row,) = space.point_array([point]).tolist()
    bits = coordinate_bits(space)
    packed = 0
    for index, coordinate in enumerate(row):
        packed |= coordinate << (index * bits)
    writer.write_uint(packed, space.dim * bits)


def read_point(reader: BitReader, space: MetricSpace) -> Point:
    """Read one :func:`write_point` field; coordinates must lie in ``[0, side)``."""
    bits = coordinate_bits(space)
    packed = reader.read_uint(space.dim * bits)
    mask = (1 << bits) - 1
    point = tuple((packed >> shift) & mask for shift in range(0, space.dim * bits, bits))
    if space.side <= mask and max(point) >= space.side:
        raise MalformedPayloadError(
            f"coordinate {max(point)} outside [0, {space.side})"
        )
    return point


def write_points(
    writer: BitWriter, space: MetricSpace, points: "Sequence[Point] | np.ndarray"
) -> None:
    """Length-prefixed list of points; the whole set is validated first.

    The points go out as one ``(n, d · ceil(log2 Δ))`` bit matrix, each
    row the bytes :func:`write_point` writes for that point.
    """
    matrix = space.point_array(points)
    bits = coordinate_bits(space)
    writer.write_varuint(len(matrix))
    rows = np.empty(matrix.shape + (bits,), dtype=np.uint8)
    for bit in range(bits):
        rows[:, :, bit] = (matrix >> bit) & 1
    writer.write_bit_rows(rows)


def read_point_matrix(reader: BitReader, space: MetricSpace) -> np.ndarray:
    """Read a :func:`write_points` list as an ``(n, d)`` int64 matrix.

    The declared count is checked against the remaining bits before
    anything is allocated.  A coordinate at or above ``side`` raises
    :func:`read_point`'s :class:`~repro.errors.MalformedPayloadError`
    for the first row holding one.
    """
    count = reader.read_varuint()
    bits = coordinate_bits(space)
    needed = count * space.dim * bits
    if needed > reader.bits_remaining:
        raise MalformedPayloadError(
            f"declared point count {count} needs {needed} bits, "
            f"only {reader.bits_remaining} remain"
        )
    if count == 0:
        return np.empty((0, space.dim), dtype=np.int64)
    rows = reader.peek_bit_rows(count, space.dim * bits).reshape(count, space.dim, bits)
    reader.skip_bits(needed)
    matrix = np.zeros((count, space.dim), dtype=np.int64)
    for bit in range(bits):
        matrix |= rows[:, :, bit].astype(np.int64) << bit
    bad = (matrix >= space.side).any(axis=1)
    if bad.any():
        raise MalformedPayloadError(
            f"coordinate {int(matrix[bad.argmax()].max())} outside [0, {space.side})"
        )
    return matrix


def read_points(reader: BitReader, space: MetricSpace) -> list[Point]:
    """:func:`read_point_matrix` as a list of point tuples."""
    return point_tuples(read_point_matrix(reader, space))
