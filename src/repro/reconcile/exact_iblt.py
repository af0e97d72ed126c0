"""Exact set reconciliation via IBLTs (Eppstein et al. [10], Section 2.2).

The classic application the paper builds on: when the symmetric difference
has size at most ``delta_bound``, two parties synchronise exactly with
``O(delta_bound · log|U|)`` bits.  In the robust setting this is the right
tool whenever ``EMD_k(S_A, S_B) = 0`` (footnote before Theorem 3.4), and
it is the inner engine of the quadtree baseline.

Point encoding: a point of ``[Δ]^d`` maps to the mixed-radix integer
``Σ_j x_j · Δ^j``, a bijection onto ``[Δ^d]`` — exactly ``log2|U|`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..hashing import PublicCoins
from ..iblt.iblt import IBLT, cells_for_differences
from ..metric.spaces import MetricSpace, Point
from ..protocol.channel import ALICE, BOB, BaseChannel, Channel
from ..protocol.serialize import BitReader, BitWriter, read_points, write_points
from .outcome import ReconcileOutcome
from .strata import StrataEstimator

__all__ = [
    "encode_point",
    "decode_point",
    "encode_points",
    "ExactReconcileResult",
    "exact_iblt_reconcile",
    "exact_iblt_reconcile_auto",
    "strata_estimate",
]


def encode_point(space: MetricSpace, point: Point) -> int:
    """Bijective mixed-radix encoding of a point into ``[0, Δ^d)``."""
    value = 0
    for coordinate in reversed(point):
        if not 0 <= coordinate < space.side:
            raise ValueError(f"coordinate {coordinate} outside [0, {space.side})")
        value = value * space.side + coordinate
    return value


def encode_points(space: MetricSpace, points: Sequence[Point]) -> np.ndarray:
    """Vectorised :func:`encode_point` over a whole point set.

    Exact for every universe: the result is ``uint64`` when
    ``side^dim <= 2^64``, else an ``object`` array of Python ints.  Every
    sketch's batch methods take either.
    """
    dtype = np.uint64 if space.side**space.dim <= 1 << 64 else object
    if not len(points):
        return np.empty(0, dtype=dtype)
    coordinates = np.asarray(points, dtype=np.int64)
    if coordinates.ndim != 2 or coordinates.shape[1] != space.dim:
        raise ValueError(
            f"expected points of dimension {space.dim}, got shape {coordinates.shape}"
        )
    if coordinates.size and (
        int(coordinates.min()) < 0 or int(coordinates.max()) >= space.side
    ):
        raise ValueError(f"coordinate outside [0, {space.side})")
    side = np.uint64(space.side) if dtype is np.uint64 else space.side
    values = np.zeros(coordinates.shape[0], dtype=dtype)
    for column in range(space.dim - 1, -1, -1):
        values = values * side + coordinates[:, column].astype(dtype)
    return values


def decode_point(space: MetricSpace, value: int) -> Point:
    """Inverse of :func:`encode_point`."""
    if value < 0:
        raise ValueError(f"encoded value must be >= 0, got {value}")
    coordinates = []
    for _ in range(space.dim):
        value, coordinate = divmod(value, space.side)
        coordinates.append(coordinate)
    if value != 0:
        raise ValueError("encoded value out of range for this space")
    return tuple(coordinates)


def _key_bits(space: MetricSpace) -> int:
    """Key width of the encoded universe: ``dim`` digits of ``log2 Δ`` bits."""
    return max(1, space.dim * max(1, (space.side - 1).bit_length()))


@dataclass(frozen=True)
class ExactReconcileResult(ReconcileOutcome):
    """Outcome of exact one-way reconciliation (also returned by the
    auto-sized variant); implements the shared
    :class:`~repro.reconcile.outcome.ReconcileOutcome` surface."""

    success: bool
    bob_final: list[Point]
    alice_only: list[Point]
    bob_only: list[Point]
    total_bits: int
    rounds: int


def exact_iblt_reconcile(
    space: MetricSpace,
    alice_points: Sequence[Point],
    bob_points: Sequence[Point],
    delta_bound: int,
    coins: PublicCoins,
    channel: Channel | None = None,
    q: int = 3,
) -> ExactReconcileResult:
    """Two-round exact one-way reconciliation: Bob ends with ``S_A ∪ S_B``.

    Round 1 (Bob -> Alice): Bob's IBLT of his encoded points, sized for
    ``delta_bound`` differences.  Alice deletes her elements, decodes the
    symmetric difference.  Round 2 (Alice -> Bob): the points only she
    holds.  ``success=False`` (with Bob's set unchanged) when peeling
    fails, i.e. the difference exceeded what the table supports.
    """
    channel = channel if channel is not None else Channel()
    key_bits = _key_bits(space)
    cells = cells_for_differences(delta_bound, q=q)

    bob_table = IBLT(coins, "exact-reconcile", cells=cells, q=q, key_bits=key_bits)
    bob_table.insert_batch(encode_points(space, bob_points))
    payload, bits = bob_table.to_payload()
    sent = channel.send(BOB, "iblt", payload, bits)

    # Alice: load, delete her elements, peel.
    alice_view = IBLT(
        coins, "exact-reconcile", cells=cells, q=q, key_bits=key_bits
    ).from_payload(sent)
    alice_view.delete_batch(encode_points(space, alice_points))
    decoded = alice_view.decode()
    if not decoded.success:
        return ExactReconcileResult(
            success=False,
            bob_final=list(bob_points),
            alice_only=[],
            bob_only=[],
            total_bits=channel.total_bits,
            rounds=channel.rounds,
        )
    # Positive counts were inserted by Bob (his surplus); negatives are
    # Alice-only and must be shipped to Bob.
    bob_only = [decode_point(space, key) for key in decoded.inserted]
    alice_only = [decode_point(space, key) for key in decoded.deleted]

    writer = BitWriter()
    write_points(writer, space, alice_only)
    reply = channel.send(ALICE, "alice-only-points", writer.getvalue(), writer.bit_length)
    shipped = read_points(BitReader(reply), space)

    bob_final = list(bob_points)
    existing = set(bob_final)
    for point in shipped:
        if point not in existing:
            bob_final.append(point)
            existing.add(point)
    return ExactReconcileResult(
        success=True,
        bob_final=bob_final,
        alice_only=alice_only,
        bob_only=bob_only,
        total_bits=channel.total_bits,
        rounds=channel.rounds,
    )


def strata_estimate(
    space: MetricSpace,
    alice_points: Sequence[Point],
    bob_points: Sequence[Point],
    coins: PublicCoins,
    channel: BaseChannel,
    label: str,
) -> int:
    """One strata half-round (Alice -> Bob): Bob's measured difference bound.

    Alice ships a :class:`~repro.reconcile.strata.StrataEstimator` of her
    points under the sketch ``label``; Bob subtracts his own and
    estimates the symmetric-difference size (at least 4).  The sketch
    crosses ``channel``, so a faulty channel can make parsing raise
    :class:`~repro.errors.DecodeError`.
    """
    key_bits = _key_bits(space)
    alice_sketch = StrataEstimator(coins, label, key_bits=key_bits)
    alice_sketch.insert_batch(encode_points(space, alice_points))
    payload, bits = alice_sketch.to_payload()
    sent = channel.send(ALICE, "strata-sketch", payload, bits)

    received = StrataEstimator(coins, label, key_bits=key_bits).from_payload(sent)
    bob_sketch = StrataEstimator(coins, label, key_bits=key_bits)
    bob_sketch.insert_batch(encode_points(space, bob_points))
    return max(4, received.subtract(bob_sketch).estimate())


def exact_iblt_reconcile_auto(
    space: MetricSpace,
    alice_points: Sequence[Point],
    bob_points: Sequence[Point],
    coins: PublicCoins,
    channel: Channel | None = None,
    q: int = 3,
    max_attempts: int = 4,
) -> ExactReconcileResult:
    """Exact reconciliation with *no* prior difference bound ([10]).

    Adds a strata-estimator half-round in front of
    :func:`exact_iblt_reconcile`: Alice ships her fixed-size strata
    sketch, Bob subtracts his own, estimates the symmetric-difference
    size, and sizes the reconciliation IBLT accordingly.  Small tables
    occasionally draw a 2-core even below their load threshold, and the
    estimate itself can undershoot, so on decode failure the bound is
    doubled and the exchange retried (fresh coins) up to
    ``max_attempts`` times — the standard deployment loop of [10].
    Three rounds in the common case; two extra per retry.
    """
    channel = channel if channel is not None else Channel()
    # Round 1 (Alice -> Bob): her strata sketch; Bob measures the bound.
    delta_bound = strata_estimate(
        space, alice_points, bob_points, coins, channel, "auto-strata"
    )

    # Rounds 2-3 (+ doubling retries): the sized reconciliation.
    result = None
    for attempt in range(max_attempts):
        result = exact_iblt_reconcile(
            space,
            alice_points,
            bob_points,
            delta_bound=delta_bound << attempt,
            coins=coins.child("auto-exact", attempt),
            channel=channel,
            q=q,
        )
        if result.success:
            break
    assert result is not None
    return result
