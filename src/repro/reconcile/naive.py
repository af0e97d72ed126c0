"""Naive full-transfer baselines.

The trivial solution to any one-way reconciliation problem: Alice sends her
whole point set, ``n · d · ceil(log2 Δ)`` bits in one round.  Both robust
models compare their communication against this ``Θ(n log |U|)`` cost
(Section 1's "improvement over the naive O(n log|U|) communication").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..metric.spaces import MetricSpace, Point
from ..protocol.channel import ALICE, Channel
from ..protocol.serialize import BitReader, BitWriter, read_points, write_points
from .exact_iblt import ship_alice_only

__all__ = ["NaiveTransferResult", "naive_full_transfer", "naive_union_transfer"]


@dataclass(frozen=True)
class NaiveTransferResult:
    """Outcome of the naive protocol."""

    bob_final: list[Point]
    total_bits: int
    rounds: int


def naive_full_transfer(
    space: MetricSpace,
    alice_points: Sequence[Point],
    channel: Channel | None = None,
) -> NaiveTransferResult:
    """Alice sends everything; Bob replaces his set with hers.

    This is the EMD-model baseline: it achieves ``EMD(S_A, S'_B) = 0``
    at ``n·log|U|`` bits.
    """
    channel = channel if channel is not None else Channel()
    writer = BitWriter()
    write_points(writer, space, list(alice_points))
    payload = channel.send(ALICE, "naive-points", writer.getvalue(), writer.bit_length)
    received = read_points(BitReader(payload), space)
    return NaiveTransferResult(
        bob_final=received, total_bits=channel.total_bits, rounds=channel.rounds
    )


def naive_union_transfer(
    space: MetricSpace,
    alice_points: Sequence[Point],
    bob_points: Sequence[Point],
    channel: Channel | None = None,
) -> NaiveTransferResult:
    """Alice sends everything; Bob keeps the union (Gap-model baseline).

    Satisfies the Gap Guarantee trivially for any ``r2 > 0``.
    """
    channel = channel if channel is not None else Channel()
    union = ship_alice_only(space, channel, "naive-points", bob_points, alice_points)
    return NaiveTransferResult(
        bob_final=union, total_bits=channel.total_bits, rounds=channel.rounds
    )
