"""Two-party protocol harness: channel, serialization, table wire formats."""

from .channel import ALICE, BOB, BaseChannel, Channel, Message, TranscriptSummary
from .faults import FaultEvent, FaultSpec, FaultSummary, FaultyChannel
from .serialize import (
    VARUINT_MAX_GROUPS,
    BitReader,
    BitWriter,
    coordinate_bits,
    read_point,
    read_point_matrix,
    read_points,
    write_point,
    write_points,
)
from .tables import (
    iblt_payload,
    multiset_payload,
    read_multiset_cells,
    write_multiset_cells,
    read_iblt_cells,
    read_riblt_cells,
    riblt_payload,
    write_iblt_cells,
    write_riblt_cells,
)

__all__ = [
    "ALICE",
    "BOB",
    "BaseChannel",
    "Channel",
    "Message",
    "TranscriptSummary",
    "FaultEvent",
    "FaultSpec",
    "FaultSummary",
    "FaultyChannel",
    "VARUINT_MAX_GROUPS",
    "BitReader",
    "BitWriter",
    "coordinate_bits",
    "read_point",
    "read_point_matrix",
    "read_points",
    "write_point",
    "write_points",
    "iblt_payload",
    "multiset_payload",
    "read_multiset_cells",
    "write_multiset_cells",
    "read_iblt_cells",
    "read_riblt_cells",
    "riblt_payload",
    "write_iblt_cells",
    "write_riblt_cells",
]
