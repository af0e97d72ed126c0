"""Wire formats for IBLT and RIBLT tables.

The structural parts of a table (cell hashes, checksum function) come from
public coins, so only *cell contents* cross the wire.  The receiver builds
an empty, structurally identical shell from the shared coins and loads the
transmitted cells into it.

Cell encodings (all via :class:`~repro.protocol.serialize.BitWriter`):

* IBLT cell: zigzag-varint count, fixed ``key_bits`` key XOR, fixed
  ``check_bits`` checksum XOR — ``O(log|U|)`` bits per cell, matching
  Theorem 2.6's accounting.
* RIBLT cell: zigzag-varint count, key sum, checksum sum, and ``d``
  zigzag-varint value coordinates — the widened ``O(log(|U|n))`` and
  ``O(d log(nΔ))`` representations of Section 2.2 items 3–4, with the
  varint adapting to actual magnitudes.

Each table crosses as one run in O(1) numpy calls, on either backend.
A RIBLT or counting-IBLT table is one
:meth:`~repro.protocol.serialize.BitWriter.write_varint_run` over its
cell columns; a column that overflows int64 goes as 49-bit limbs, and
only values past 64 bits become Python ints on the way back (every
emd-hamming table has such values: its checksum sums are 65–67 bits).
An IBLT whose counts all satisfy ``|count| < 64`` has a one-group count
varint in every cell, so each cell is exactly ``8 + key_bits + 61`` bits
and the table is one fixed-stride bit matrix.  A short table (under 64
varints, or 16 IBLT cells), an IBLT with a wider count, and any run that
does not parse take the cell-at-a-time loop instead, with the same bytes
and the same typed errors.  A reader parses every cell, enforcing the int64
count limit, and only then assigns the columns to the shell in one
step, so a payload that fails to parse leaves the shell empty.
"""

from __future__ import annotations

import numpy as np

from ..errors import MalformedPayloadError
from ..iblt.counting import MultisetIBLT
from ..iblt.iblt import IBLT
from ..iblt.riblt import RIBLT
from .serialize import BitReader, BitWriter, bits_to_fields, fields_to_bits

__all__ = [
    "write_multiset_cells",
    "read_multiset_cells",
    "multiset_payload",
    "write_iblt_cells",
    "read_iblt_cells",
    "iblt_payload",
    "write_riblt_cells",
    "read_riblt_cells",
    "riblt_payload",
]

_CHECK_BITS = 61

#: Cell counts must fit a signed 64-bit integer: the numpy backend stores
#: them in ``int64`` arrays, and no honest table ever exceeds it (counts
#: are bounded by the number of inserted keys).  The varint cap alone
#: allows up to 132-bit magnitudes, so corrupted streams must be rejected
#: here rather than overflow on assignment.
_COUNT_LIMIT = 1 << 63

#: An IBLT count ``c`` codes as one varint group iff ``-64 <= c < 64``.
_ONE_GROUP_COUNT = 64

#: Fewest cells an IBLT codes as one bit matrix.  Below it the fixed cost
#: of the numpy calls exceeds the cell-at-a-time loop.
_BIT_MATRIX_MIN_CELLS = 16


def _column(cells) -> list:
    """A cell column as a list of Python ints, whatever the backend."""
    return cells.tolist() if isinstance(cells, np.ndarray) else cells


def _check_cell_count(count: int) -> None:
    if not -_COUNT_LIMIT <= count < _COUNT_LIMIT:
        raise MalformedPayloadError(f"cell count {count} does not fit int64")


def _require_empty(shell, kind: str) -> None:
    if not shell.is_empty():
        raise ValueError(f"shell {kind} must be empty before loading cells")


def _iblt_bit_rows(table: IBLT) -> "np.ndarray | None":
    """Every cell as one row of a fixed-stride bit matrix: the one-group
    count varint, then the key, then the checksum.  None when the table
    is short, a count needs a second group, or a field is out of range
    (the loop then raises the ``ValueError``)."""
    if table.m < _BIT_MATRIX_MIN_CELLS or table.key_bits > 64:
        return None
    try:
        counts = np.asarray(table.counts, dtype=np.int64)
        keys = np.asarray(table.key_xor, dtype=np.uint64)
        checks = np.asarray(table.check_xor, dtype=np.uint64)
    except OverflowError:
        return None
    if (
        counts.min() < -_ONE_GROUP_COUNT
        or counts.max() >= _ONE_GROUP_COUNT
        or (checks >> _CHECK_BITS).any()
    ):
        return None
    groups = ((counts << 1) ^ (counts >> 63)) << 1
    return fields_to_bits((groups, 8), (keys, table.key_bits), (checks, _CHECK_BITS))


def write_iblt_cells(writer: BitWriter, table: IBLT) -> None:
    """Serialize every cell of an IBLT.

    The key and checksum are adjacent fixed-width fields, so each cell
    writes them as one ``key_bits + 61``-bit field (key in the low bits).
    """
    key_bits = table.key_bits
    keys = _column(table.key_xor)
    if keys and max(keys) >> key_bits:
        raise ValueError(f"key {max(keys)} does not fit in {key_bits} bits")
    rows = _iblt_bit_rows(table)
    if rows is not None:
        writer.write_bit_rows(rows)
        return
    write_varint = writer.write_varint
    write_uint = writer.write_uint
    fixed_bits = key_bits + _CHECK_BITS
    for count, key, check in zip(_column(table.counts), keys, _column(table.check_xor)):
        write_varint(count)
        write_uint(key | (check << key_bits), fixed_bits)


def read_iblt_cells(reader: BitReader, shell: IBLT) -> IBLT:
    """Load transmitted cells into a structurally identical empty shell."""
    _require_empty(shell, "IBLT")
    key_bits = shell.key_bits
    fixed_bits = key_bits + _CHECK_BITS
    stride = 8 + fixed_bits
    rows = None
    if shell.m >= _BIT_MATRIX_MIN_CELLS and key_bits <= 64:
        rows = reader.peek_bit_rows(shell.m, stride)
    if rows is not None and not rows[:, 0].any():
        # Every count is one group: the run is the fixed-stride matrix.
        reader.skip_bits(rows.size)
        groups = np.packbits(rows[:, 1:8], axis=1, bitorder="little")[:, 0].astype(np.int64)
        counts = (groups >> 1) ^ -(groups & 1)
        keys, checks = bits_to_fields(rows[:, 8:], key_bits, _CHECK_BITS)
    else:
        read_varint = reader.read_varint
        read_uint = reader.read_uint
        key_mask = (1 << key_bits) - 1
        counts = []
        keys = []
        checks = []
        for _ in range(shell.m):
            count = read_varint()
            _check_cell_count(count)
            counts.append(count)
            fixed = read_uint(fixed_bits)
            keys.append(fixed & key_mask)
            checks.append(fixed >> key_bits)
    if shell.backend == "numpy":
        shell.counts = np.asarray(counts, dtype=np.int64)
        shell.key_xor = np.asarray(keys, dtype=np.uint64)
        shell.check_xor = np.asarray(checks, dtype=np.uint64)
    else:
        shell.counts, shell.key_xor, shell.check_xor = (
            _column(column) for column in (counts, keys, checks)
        )
    return shell


def iblt_payload(table: IBLT) -> tuple[bytes, int]:
    """Serialize a whole IBLT; returns ``(payload, exact_bit_count)``."""
    writer = BitWriter()
    write_iblt_cells(writer, table)
    return writer.getvalue(), writer.bit_length


def _read_sum_cells(reader: BitReader, rows: int, width: int) -> np.ndarray:
    """``rows`` cells of ``width`` zigzag varints, count first, as a
    ``(rows, width)`` matrix (object where a value exceeds int64)."""
    cells = reader.read_varint_run(rows, width)
    if cells is None:
        # A short run or a damaged one: the loop raises the typed error
        # at the first bad cell.
        read_varints = reader.read_varints
        loop = []
        for _ in range(rows):
            cell = read_varints(width)
            _check_cell_count(cell[0])
            loop.append(cell)
        return np.array(loop, dtype=object).reshape(rows, width)
    if cells.dtype == object:
        counts = cells[:, 0].tolist()
        if min(counts) < -_COUNT_LIMIT or max(counts) >= _COUNT_LIMIT:
            for count in counts:
                _check_cell_count(count)
    return cells


def _sum_columns(cells: np.ndarray) -> list:
    """Count, key-sum and checksum-sum columns as lists of Python ints."""
    return [cells[:, index].tolist() for index in range(3)]


def write_riblt_cells(writer: BitWriter, table: RIBLT) -> None:
    """Serialize every cell of a robust IBLT."""
    writer.write_varint_run((table.counts, table.key_sum, table.check_sum, table.value_sum))


def read_riblt_cells(reader: BitReader, shell: RIBLT) -> RIBLT:
    """Load transmitted cells into a structurally identical empty shell."""
    _require_empty(shell, "RIBLT")
    cells = _read_sum_cells(reader, shell.m, 3 + shell.dim)
    shell.counts, shell.key_sum, shell.check_sum = _sum_columns(cells)
    shell.value_sum = cells[:, 3:].tolist()
    return shell


def riblt_payload(table: RIBLT) -> tuple[bytes, int]:
    """Serialize a whole RIBLT; returns ``(payload, exact_bit_count)``."""
    writer = BitWriter()
    write_riblt_cells(writer, table)
    return writer.getvalue(), writer.bit_length


def write_multiset_cells(writer: BitWriter, table: MultisetIBLT) -> None:
    """Serialize every cell of a counting IBLT."""
    writer.write_varint_run((table.counts, table.key_sum, table.check_sum))


def read_multiset_cells(reader: BitReader, shell: MultisetIBLT) -> MultisetIBLT:
    """Load transmitted cells into a structurally identical empty shell."""
    _require_empty(shell, "MultisetIBLT")
    shell.counts, shell.key_sum, shell.check_sum = _sum_columns(
        _read_sum_cells(reader, shell.m, 3)
    )
    return shell


def multiset_payload(table: MultisetIBLT) -> tuple[bytes, int]:
    """Serialize a whole counting IBLT; returns ``(payload, bit_count)``."""
    writer = BitWriter()
    write_multiset_cells(writer, table)
    return writer.getvalue(), writer.bit_length
