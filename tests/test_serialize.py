"""Tests for bit-level serialization and the measured channel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError, MalformedPayloadError
from repro.metric import GridSpace, HammingSpace
from repro.protocol import (
    ALICE,
    BOB,
    VARUINT_MAX_GROUPS,
    BitReader,
    BitWriter,
    Channel,
    coordinate_bits,
    read_point,
    read_point_matrix,
    read_points,
    write_point,
    write_points,
)
from repro.protocol import serialize


class TestBitWriterReader:
    def test_single_bits(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 1, 0):
            writer.write_bit(bit)
        assert writer.bit_length == 5
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in range(5)] == [1, 0, 1, 1, 0]

    def test_uint_roundtrip(self):
        writer = BitWriter()
        writer.write_uint(0b10110, 5)
        writer.write_uint(7, 3)
        reader = BitReader(writer.getvalue())
        assert reader.read_uint(5) == 0b10110
        assert reader.read_uint(3) == 7

    def test_uint_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_uint(8, 3)
        with pytest.raises(ValueError):
            writer.write_uint(-1, 3)

    def test_zero_width_uint(self):
        writer = BitWriter()
        writer.write_uint(0, 0)
        assert writer.bit_length == 0

    def test_varuint_small_values_cheap(self):
        writer = BitWriter()
        writer.write_varuint(0)
        assert writer.bit_length == 8

    def test_varint_zigzag(self):
        writer = BitWriter()
        for value in (0, -1, 1, -2, 2, -1000, 1000):
            writer.write_varint(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_varint() for _ in range(7)] == [0, -1, 1, -2, 2, -1000, 1000]

    def test_bool_roundtrip(self):
        writer = BitWriter()
        writer.write_bool(True)
        writer.write_bool(False)
        reader = BitReader(writer.getvalue())
        assert reader.read_bool() is True
        assert reader.read_bool() is False

    def test_eof(self):
        reader = BitReader(b"")
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_bits_remaining(self):
        reader = BitReader(b"\xff")
        assert reader.bits_remaining == 8
        reader.read_uint(3)
        assert reader.bits_remaining == 5

    def test_negative_varuint_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_varuint(-5)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 128), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_varuint_roundtrip_property(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_varuint(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_varuint() for _ in values] == values

    @given(st.lists(st.integers(min_value=-(1 << 100), max_value=1 << 100), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_varint_roundtrip_property(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_varint(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_varint() for _ in values] == values

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=(1 << 16) - 1),
                      st.integers(min_value=1, max_value=16)),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_uint_roundtrip_property(self, pairs):
        pairs = [(value & ((1 << bits) - 1), bits) for value, bits in pairs]
        writer = BitWriter()
        for value, bits in pairs:
            writer.write_uint(value, bits)
        reader = BitReader(writer.getvalue())
        assert [reader.read_uint(bits) for _, bits in pairs] == [v for v, _ in pairs]


class _OracleWriter:
    """The original bit-at-a-time writer: the layout reference."""

    def __init__(self) -> None:
        self.bits: list[int] = []

    def write_bit(self, bit: int) -> None:
        self.bits.append(1 if bit else 0)

    def write_uint(self, value: int, bits: int) -> None:
        assert 0 <= value < (1 << bits)
        for position in range(bits):
            self.write_bit((value >> position) & 1)

    def write_varint(self, value: int) -> None:
        value = value * 2 if value >= 0 else -value * 2 - 1
        while True:
            group = value & 0x7F
            value >>= 7
            self.write_bit(1 if value else 0)
            self.write_uint(group, 7)
            if not value:
                break

    def write_varints(self, values: list[int]) -> None:
        for value in values:
            self.write_varint(value)

    def write_bool(self, flag: bool) -> None:
        self.write_bit(1 if flag else 0)

    def getvalue(self) -> bytes:
        padded = self.bits + [0] * (-len(self.bits) % 8)
        return bytes(
            sum(bit << i for i, bit in enumerate(padded[start : start + 8]))
            for start in range(0, len(padded), 8)
        )


class _OracleReader:
    """The original bit-at-a-time reader."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.position = 0

    def read_bit(self) -> int:
        if self.position >= 8 * len(self.data):
            raise EOFError
        byte_index, bit_index = divmod(self.position, 8)
        self.position += 1
        return (self.data[byte_index] >> bit_index) & 1

    def read_uint(self, bits: int) -> int:
        return sum(self.read_bit() << position for position in range(bits))

    def read_varint(self) -> int:
        raw = shift = 0
        while True:
            more = self.read_bit()
            raw |= self.read_uint(7) << shift
            shift += 7
            if not more:
                return raw // 2 if raw % 2 == 0 else -(raw + 1) // 2

    def read_varints(self, count: int) -> list[int]:
        return [self.read_varint() for _ in range(count)]

    def read_bool(self) -> bool:
        return bool(self.read_bit())


#: Widths that hit the edge cases: empty, single bit, one varint group's
#: payload, the checksum width, a machine word and the varint cap.
_WIDTHS = (0, 1, 7, 61, 64, 133)


_VARINTS = st.integers(-(1 << 130), (1 << 130) - 1)


@st.composite
def _fields(draw):
    kind = draw(st.sampled_from(("bit", "uint", "varint", "varints", "bool")))
    if kind == "uint":
        bits = draw(st.sampled_from(_WIDTHS) | st.integers(0, 140))
        return kind, draw(st.integers(0, (1 << bits) - 1)), bits
    if kind == "varint":
        return kind, draw(_VARINTS), None
    if kind == "varints":
        # Long runs cross the writer's internal run length.
        return kind, draw(st.lists(_VARINTS | st.integers(-64, 63), max_size=80)), None
    return kind, draw(st.integers(0, 1)), None


def _write(writer, fields) -> None:
    for kind, value, bits in fields:
        if kind == "uint":
            writer.write_uint(value, bits)
        else:
            getattr(writer, f"write_{kind}")(value)


def _read(reader, fields) -> list:
    values = []
    for kind, value, bits in fields:
        if kind == "uint":
            values.append(reader.read_uint(bits))
        elif kind == "varints":
            values.append(reader.read_varints(len(value)))
        else:
            values.append(int(getattr(reader, f"read_{kind}")()))
    return values


class TestOracleParity:
    """The word-level codec is byte-identical to the bit-at-a-time oracle."""

    @given(
        st.integers(0, 127),
        st.lists(_fields(), max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_mixed_stream_matches_oracle(self, lead_bits, fields):
        # A uint of ``lead_bits`` bits first shifts every later field
        # across the writer's 64-bit flush boundary.
        fields = [("uint", 0, lead_bits)] + fields
        writer, oracle = BitWriter(), _OracleWriter()
        _write(writer, fields)
        _write(oracle, fields)
        payload = writer.getvalue()
        assert payload == oracle.getvalue()
        assert writer.bit_length == len(oracle.bits)
        assert _read(BitReader(payload), fields) == [value for _kind, value, _bits in fields]
        assert _read(_OracleReader(payload), fields) == _read(BitReader(payload), fields)
        for cut in range(len(payload)):
            with pytest.raises(EOFError):
                _read(BitReader(payload[:cut]), fields)

    @given(st.integers(0, 63), st.integers(0, (1 << 133) - 1))
    @settings(max_examples=60, deadline=None)
    def test_wide_uint_at_every_offset(self, offset, value):
        writer, oracle = BitWriter(), _OracleWriter()
        for sink in (writer, oracle):
            sink.write_uint(0, offset)
            sink.write_uint(value, 133)
        assert writer.getvalue() == oracle.getvalue()
        reader = BitReader(writer.getvalue())
        reader.read_uint(offset)
        assert reader.read_uint(133) == value


#: Values at the 1/2-, 9/10- and 18/19-group edges of a zigzag varint,
#: int64's ends, ±2^63, and the widest values within the 133-bit cap.
_EDGES = (
    0, 63, -64, 64, -65,
    (1 << 62) - 1, -(1 << 62), 1 << 62, -(1 << 62) - 1,
    (1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1,
    (1 << 125) - 1, -(1 << 125), 1 << 125, -(1 << 125) - 1,
    (1 << 132) - 1, -(1 << 132),
)  # fmt: skip

#: The smallest magnitude whose zigzag needs a 20th group.
_OVER_CAP = 1 << 132


@st.composite
def _runs(draw):
    """A ``rows × width`` value matrix, from just under to just over the
    run path's threshold, and the column at which its nested block starts
    (``width`` for none)."""
    width = draw(st.integers(1, 5))
    threshold = -(-serialize._RUN_MIN_VALUES // width)
    rows = draw(st.integers(max(1, threshold - 2), threshold + 4))
    value = (
        st.sampled_from(_EDGES)
        | st.integers(-64, 63)
        | st.integers(-_OVER_CAP, _OVER_CAP - 1)
    )
    row = st.lists(value, min_size=width, max_size=width)
    matrix = draw(st.lists(row, min_size=rows, max_size=rows))
    return matrix, draw(st.integers(0, width))


def _blocks(matrix, split):
    """Columns ``0..split-1`` as flat columns, the rest as one nested block."""
    blocks = [[row[column] for row in matrix] for column in range(split)]
    if split < len(matrix[0]):
        blocks.append([row[split:] for row in matrix])
    return blocks


def _read_outcome(data: bytes, lead: int, rows: int, width: int, run: bool):
    """What a reader makes of ``data``: the values and the bits left after
    them, or the class of the ``DecodeError`` it raised."""
    reader = BitReader(data)
    try:
        reader.read_uint(lead)
        start = reader.bits_remaining
        cells = reader.read_varint_run(rows, width) if run else None
        if cells is None:
            assert reader.bits_remaining == start, "an unparsed run moved the reader"
            values = reader.read_varints(rows * width)
        else:
            values = cells.ravel().tolist()
    except DecodeError as error:
        return type(error)
    return values, reader.bits_remaining


class TestVarintRuns:
    """The table-at-once varint run is the value-by-value loop's bytes,
    values, reader position and errors."""

    @given(st.integers(0, 7), _runs())
    @settings(max_examples=80, deadline=None)
    def test_run_matches_loop_and_oracle(self, lead, run):
        matrix, split = run
        rows, width = len(matrix), len(matrix[0])
        values = [value for row in matrix for value in row]
        writer, loop, oracle = BitWriter(), BitWriter(), _OracleWriter()
        for sink in (writer, loop, oracle):
            sink.write_uint(0, lead)
        writer.write_varint_run(_blocks(matrix, split))
        loop.write_varints(values)
        oracle.write_varints(values)
        payload = writer.getvalue()
        assert payload == loop.getvalue() == oracle.getvalue()
        assert writer.bit_length == loop.bit_length
        reader = BitReader(payload)
        reader.read_uint(lead)
        cells = reader.read_varint_run(rows, width)
        # Long runs take the numpy path; short ones defer to the loop.
        assert (cells is None) == (rows * width < serialize._RUN_MIN_VALUES)
        if cells is not None:
            assert cells.tolist() == matrix
            assert reader.bits_remaining == 8 * len(payload) - writer.bit_length

    @given(
        st.integers(0, 7),
        _runs(),
        st.lists(st.integers(0, 1 << 20), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_damaged_runs_fail_like_the_loop(self, lead, run, flips):
        """Every byte cut, and a few bit flips, give the loop's exception
        class, or on success its values and reader position."""
        matrix, _split = run
        rows, width = len(matrix), len(matrix[0])
        writer = BitWriter()
        writer.write_uint(0, lead)
        writer.write_varints([value for row in matrix for value in row])
        payload = writer.getvalue()
        flipped = bytearray(payload)
        for bit in flips:
            bit %= 8 * len(payload)
            flipped[bit >> 3] ^= 1 << (bit & 7)
        for data in [payload[:cut] for cut in range(len(payload))] + [bytes(flipped)]:
            assert _read_outcome(data, lead, rows, width, run=True) == _read_outcome(
                data, lead, rows, width, run=False
            )

    @given(
        st.integers(0, 7),
        _runs(),
        st.lists(st.integers(0, 1 << 20), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_skip_ends_and_fails_like_the_loop(self, lead, run, flips):
        """``skip_varints`` over every byte cut and a few bit flips: the
        loop's exception class (the reader left where it was), or on
        success the loop's reader position."""
        matrix, _split = run
        count = len(matrix) * len(matrix[0])
        writer = BitWriter()
        writer.write_uint(0, lead)
        writer.write_varints([value for row in matrix for value in row])
        payload = writer.getvalue()
        flipped = bytearray(payload)
        for bit in flips:
            bit %= 8 * len(payload)
            flipped[bit >> 3] ^= 1 << (bit & 7)
        for data in [payload[:cut] for cut in range(len(payload) + 1)] + [bytes(flipped)]:
            loop = _read_outcome(data, lead, count, 1, run=False)
            reader = BitReader(data)
            try:
                reader.read_uint(lead)
                start = reader.bits_remaining
                try:
                    reader.skip_varints(count)
                except DecodeError:
                    assert reader.bits_remaining == start, "a failed skip moved the reader"
                    raise
            except DecodeError as error:
                assert loop == type(error)
            else:
                assert loop[1] == reader.bits_remaining

    def test_skip_over_the_group_cap_is_malformed(self):
        writer = BitWriter()
        writer.write_varints(range(50))
        writer.write_uint((1 << 152) - 1, 152)  # 19 continuing groups
        writer.write_varints(range(50))
        with pytest.raises(MalformedPayloadError):
            BitReader(writer.getvalue()).skip_varints(100)

    def test_unparsed_run_leaves_the_position(self):
        writer = BitWriter()
        writer.write_varints(range(100))
        reader = BitReader(writer.getvalue()[:-1])
        assert reader.read_varint_run(10, 10) is None
        assert reader.bits_remaining == 8 * (len(writer.getvalue()) - 1)

    def test_group_cap_defers_to_the_loop(self):
        """A 20-group value is the loop's ``MalformedPayloadError``,
        inside a run as alone."""
        writer = BitWriter()
        writer.write_varints(range(50))
        # 19 continuing groups; the next value's first group ends it.
        writer.write_uint((1 << 152) - 1, 152)
        writer.write_varints(range(50))
        reader = BitReader(writer.getvalue())
        assert reader.read_varint_run(100, 1) is None
        with pytest.raises(MalformedPayloadError):
            reader.read_varints(100)

    @pytest.mark.parametrize("value", [_OVER_CAP, -_OVER_CAP - 1])
    def test_over_cap_value_raises_the_loop_error(self, value):
        values = list(range(-50, 50))
        values[57] = value
        with pytest.raises(ValueError) as run_error:
            BitWriter().write_varint_run([values])
        with pytest.raises(ValueError) as loop_error:
            BitWriter().write_varints(values)
        assert str(run_error.value) == str(loop_error.value)


class TestBitFields:
    @given(
        widths=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=4),
        rows=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fields_match_write_uint_and_round_trip(self, widths, rows, seed):
        """A row of ``fields_to_bits`` is the bits ``write_uint`` writes
        field by field, and ``bits_to_fields`` recovers every field."""
        rng = np.random.default_rng(seed)
        columns = [
            rng.integers(0, 1 << width, size=rows, dtype=np.uint64)
            if width < 64
            else rng.integers(0, 1 << 63, size=rows, dtype=np.uint64) * np.uint64(2) + 1
            for width in widths
        ]
        bits = serialize.fields_to_bits(*zip(columns, widths))
        assert bits.shape == (rows, sum(widths))
        matrix_writer, field_writer = BitWriter(), BitWriter()
        matrix_writer.write_bit_rows(bits)
        for row in range(rows):
            for column, width in zip(columns, widths):
                field_writer.write_uint(int(column[row]), width)
        assert matrix_writer.getvalue() == field_writer.getvalue()
        recovered = serialize.bits_to_fields(bits, *widths)
        assert all((got == want).all() for got, want in zip(recovered, columns))


class TestMalformedStreams:
    """read_uint / read_varuint must mirror the writer's validation and
    fail loudly on malformed or truncated input instead of returning 0
    or spinning through unbounded continuation groups."""

    def test_read_uint_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            BitReader(b"\xff").read_uint(-1)

    def test_read_uint_zero_bits(self):
        assert BitReader(b"").read_uint(0) == 0

    def test_varuint_group_cap_round_trips_at_boundary(self):
        boundary = (1 << (7 * VARUINT_MAX_GROUPS)) - 1
        writer = BitWriter()
        writer.write_varuint(boundary)
        assert BitReader(writer.getvalue()).read_varuint() == boundary

    def test_write_varuint_rejects_over_cap(self):
        with pytest.raises(ValueError):
            BitWriter().write_varuint(1 << (7 * VARUINT_MAX_GROUPS))

    def test_write_varint_rejects_over_cap(self):
        with pytest.raises(ValueError):
            BitWriter().write_varint(1 << (7 * VARUINT_MAX_GROUPS))

    def test_unbounded_continuation_rejected(self):
        """All-ones bytes assert a continuation bit in every group."""
        endless = b"\xff" * (VARUINT_MAX_GROUPS + 2)
        with pytest.raises(ValueError, match="malformed varuint"):
            BitReader(endless).read_varuint()

    def test_truncated_varuint_raises_eof(self):
        writer = BitWriter()
        writer.write_varuint(1 << 40)
        payload = writer.getvalue()
        for cut in range(len(payload)):
            with pytest.raises(EOFError):
                BitReader(payload[:cut]).read_varuint()

    @given(st.integers(min_value=1 << 7, max_value=1 << 128))
    @settings(max_examples=40, deadline=None)
    def test_truncated_varuint_property(self, value):
        """Any multi-byte varuint cut anywhere strictly inside raises."""
        writer = BitWriter()
        writer.write_varuint(value)
        payload = writer.getvalue()
        reader = BitReader(payload[: len(payload) // 2])
        with pytest.raises(EOFError):
            reader.read_varuint()

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 133) - 1), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_varuint_roundtrip_within_cap(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_varuint(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_varuint() for _ in values] == values


class TestPointSerialization:
    def test_coordinate_bits(self):
        assert coordinate_bits(HammingSpace(10)) == 1
        assert coordinate_bits(GridSpace(side=256, dim=2)) == 8
        assert coordinate_bits(GridSpace(side=200, dim=2)) == 8

    def test_hamming_point_costs_d_bits(self):
        space = HammingSpace(13)
        writer = BitWriter()
        write_point(writer, space, tuple([1] * 13))
        assert writer.bit_length == 13

    def test_point_roundtrip(self, rng):
        space = GridSpace(side=100, dim=5, p=2.0)
        point = space.sample(rng, 1)[0]
        writer = BitWriter()
        write_point(writer, space, point)
        assert read_point(BitReader(writer.getvalue()), space) == point

    def test_points_roundtrip(self, rng):
        space = HammingSpace(9)
        points = space.sample(rng, 7)
        writer = BitWriter()
        write_points(writer, space, points)
        assert read_points(BitReader(writer.getvalue()), space) == points

    def test_empty_points(self):
        space = HammingSpace(4)
        writer = BitWriter()
        write_points(writer, space, [])
        assert read_points(BitReader(writer.getvalue()), space) == []

    def test_dimension_check(self):
        space = HammingSpace(4)
        with pytest.raises(ValueError):
            write_point(BitWriter(), space, (1, 0))

    def test_coordinate_fit_check(self):
        space = GridSpace(side=100, dim=3)
        with pytest.raises(ValueError):
            write_point(BitWriter(), space, (1, 128, 2))
        with pytest.raises(ValueError):
            write_point(BitWriter(), space, (1, -1, 2))

    @given(st.lists(st.integers(0, 99), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_point_matches_per_coordinate_fields(self, point):
        """One packed field is byte-identical to ``d`` separate fields."""
        space = GridSpace(side=100, dim=5)
        writer, oracle = BitWriter(), _OracleWriter()
        write_point(writer, space, tuple(point))
        for coordinate in point:
            oracle.write_uint(coordinate, coordinate_bits(space))
        assert writer.getvalue() == oracle.getvalue()
        assert writer.bit_length == 5 * 7

    @pytest.mark.parametrize("coordinate", [100, 101, 127])
    def test_coordinate_beyond_side_rejected(self, coordinate):
        """``side=100`` needs 7 bits, which can also encode 100..127."""
        space = GridSpace(side=100, dim=3)
        writer = BitWriter()
        for value in (5, coordinate, 99):
            writer.write_uint(value, coordinate_bits(space))
        with pytest.raises(MalformedPayloadError):
            read_point(BitReader(writer.getvalue()), space)
        points = BitWriter()
        points.write_varuint(1)
        for value in (5, coordinate, 99):
            points.write_uint(value, coordinate_bits(space))
        with pytest.raises(MalformedPayloadError):
            read_points(BitReader(points.getvalue()), space)

    def test_largest_coordinate_accepted(self):
        space = GridSpace(side=100, dim=2)
        writer = BitWriter()
        write_point(writer, space, (99, 0))
        assert read_point(BitReader(writer.getvalue()), space) == (99, 0)

    @pytest.mark.parametrize("lead", range(8))
    @pytest.mark.parametrize(
        "space",
        [HammingSpace(9), HammingSpace(70), GridSpace(side=100, dim=5), GridSpace(4096, 2)],
        ids=repr,
    )
    @pytest.mark.parametrize("count", [0, 1, 37])
    def test_point_list_matches_per_point_loop(self, space, lead, count, rng):
        """The bit-matrix list codec writes the bytes of a ``write_point``
        loop after any lead offset, and reads them back as the same
        matrix and tuples."""
        points = space.sample(rng, count)
        writer, oracle = BitWriter(), BitWriter()
        for target in (writer, oracle):
            target.write_uint((1 << lead) - 1, lead)
        write_points(writer, space, points)
        oracle.write_varuint(count)
        for point in points:
            write_point(oracle, space, point)
        assert writer.getvalue() == oracle.getvalue()
        assert writer.bit_length == oracle.bit_length

        def after_lead() -> BitReader:
            reader = BitReader(writer.getvalue())
            reader.read_uint(lead)
            return reader

        reader = after_lead()
        assert np.array_equal(read_point_matrix(reader, space), space.point_array(points))
        assert reader.bits_remaining == (-writer.bit_length) % 8
        assert read_points(after_lead(), space) == points

    def test_first_bad_row_is_named(self):
        """A list holding coordinates >= side names the max of the first
        bad row, as the per-point reader does."""
        space = GridSpace(side=100, dim=3)
        writer = BitWriter()
        writer.write_varuint(3)
        for row in ((5, 6, 99), (5, 120, 101), (127, 0, 0)):
            for value in row:
                writer.write_uint(value, coordinate_bits(space))
        with pytest.raises(MalformedPayloadError, match=r"coordinate 120 outside \[0, 100\)"):
            read_point_matrix(BitReader(writer.getvalue()), space)


class TestChannel:
    def test_accounting(self):
        channel = Channel()
        channel.send(ALICE, "m1", b"\xff\xff", 16)
        channel.send(BOB, "m2", b"\x01", 3)
        assert channel.total_bits == 19
        assert channel.rounds == 2
        summary = channel.summary()
        assert summary.by_sender == {"alice": 16, "bob": 3}
        assert summary.by_label == {"m1": 16, "m2": 3}

    def test_default_bits_is_payload_size(self):
        channel = Channel()
        channel.send(ALICE, "m", b"abc")
        assert channel.total_bits == 24

    def test_declared_bits_cannot_exceed_payload(self):
        channel = Channel()
        with pytest.raises(ValueError):
            channel.send(ALICE, "m", b"a", 9)

    def test_unknown_sender_rejected(self):
        with pytest.raises(ValueError):
            Channel().send("carol", "m", b"")

    def test_send_returns_payload(self):
        channel = Channel()
        assert channel.send(ALICE, "m", b"xyz") == b"xyz"
