"""Exact set reconciliation via IBLTs (Eppstein et al. [10], Section 2.2).

The classic application the paper builds on: when the symmetric difference
has size at most ``delta_bound``, two parties synchronise exactly with
``O(delta_bound · log|U|)`` bits.  In the robust setting this is the right
tool whenever ``EMD_k(S_A, S_B) = 0`` (footnote before Theorem 3.4), and
it is the inner engine of the quadtree baseline.

Point encoding: a point of ``[Δ]^d`` maps to the mixed-radix integer
``Σ_j x_j · Δ^j``, a bijection onto ``[Δ^d]`` — exactly ``log2|U|`` bits.
:func:`encode_points` and :func:`decode_points` convert whole sets between
``(n, d)`` point matrices and key arrays; :func:`encode_point` and
:func:`decode_point` are their scalar references.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..hashing import PublicCoins
from ..hashing.universal import check_integers
from ..iblt.iblt import IBLT, cells_for_differences
from ..metric.spaces import MetricSpace, Point, point_tuples
from ..protocol.channel import ALICE, BOB, BaseChannel, Channel
from ..protocol.serialize import BitReader, BitWriter, read_point_matrix, write_points
from .outcome import ReconcileResult
from .strata import StrataEstimator

__all__ = [
    "encode_point",
    "decode_point",
    "decode_points",
    "encode_points",
    "exact_iblt_reconcile",
    "fresh_rows",
    "ship_alice_only",
    "strata_estimate",
]


def encode_point(space: MetricSpace, point: Point) -> int:
    """Bijective mixed-radix encoding of a point into ``[0, Δ^d)``."""
    return encode_points(space, [point]).tolist()[0]


def encode_points(space: MetricSpace, points: "Sequence[Point] | np.ndarray") -> np.ndarray:
    """Vectorised :func:`encode_point` over a whole point set.

    ``points`` pass :meth:`~repro.metric.MetricSpace.point_array`.  Exact
    for every universe: the result is ``uint64`` when ``side^dim <= 2^64``,
    else an ``object`` array of Python ints.  Every sketch's batch methods
    take either.
    """
    coordinates = space.point_array(points)
    if space.side**space.dim <= 1 << 64:
        # Every partial sum is at most the key, so uint64 never wraps.
        weights = np.uint64(space.side) ** np.arange(space.dim, dtype=np.uint64)
        return coordinates.astype(np.uint64) @ weights
    values = np.zeros(coordinates.shape[0], dtype=object)
    if not values.size:
        return values
    for column in range(space.dim - 1, -1, -1):
        values = values * space.side + coordinates[:, column].astype(object)
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


def decode_points(space: MetricSpace, keys: "Sequence[int] | np.ndarray") -> np.ndarray:
    """Inverse of :func:`encode_points`: keys as an ``(n, d)`` int64 matrix.

    ``keys`` is a flat integer (or ``object``) array or any sequence of
    ints; an empty input gives ``(0, d)``.  Universes wider than ``2^64``
    divide exactly as Python ints in an ``object`` array.  A negative key
    or one at or above ``side^dim`` raises :func:`decode_point`'s
    ``ValueError``.
    """
    # A sequence becomes an ``object`` array: ``np.asarray`` would turn a
    # list mixing keys below and above ``2^63`` into float64.
    values = keys if isinstance(keys, np.ndarray) else np.array(list(keys), dtype=object)
    if values.ndim != 1 or values.dtype.kind not in "iuO":
        raise ValueError(
            f"expected a flat integer key array, got shape {values.shape} "
            f"and dtype {values.dtype}"
        )
    if values.size == 0:
        return np.empty((0, space.dim), dtype=np.int64)
    if values.dtype.kind == "O":
        check_integers(values)
    if int(values.min()) < 0:
        raise ValueError(f"encoded value must be >= 0, got {int(values.min())}")
    universe = space.side**space.dim
    if int(values.max()) >= universe:
        raise ValueError("encoded value out of range for this space")
    if universe <= 1 << 64:
        values = values.astype(np.uint64)
        side = np.uint64(space.side)
    else:
        values = values.astype(object)
        side = space.side
    coordinates = np.empty((values.size, space.dim), dtype=np.int64)
    for column in range(space.dim):
        coordinates[:, column] = values % side
        values = values // side
    return coordinates


def _key_bits(space: MetricSpace) -> int:
    """Key width of the encoded universe: ``dim`` digits of ``log2 Δ`` bits."""
    return max(1, space.dim * max(1, (space.side - 1).bit_length()))


def fresh_rows(held: np.ndarray, shipped: np.ndarray) -> np.ndarray:
    """Indices of the ``shipped`` keys a holder of ``held`` appends: the
    first occurrence of each key not already held, in shipped order."""
    _, first = np.unique(shipped, return_index=True)
    first = np.sort(first)
    if held.size:
        # A sorted search, not ``np.isin``: it stays O(n log n) on the
        # ``object`` key arrays of universes wider than 2^64.
        held = np.sort(held)
        index = np.minimum(np.searchsorted(held, shipped[first]), held.size - 1)
        first = first[held[index] != shipped[first]]
    return first


def ship_alice_only(
    space: MetricSpace,
    channel: BaseChannel,
    label: str,
    bob_points: "Sequence[Point] | np.ndarray",
    alice_only: "Sequence[Point] | np.ndarray",
) -> list[Point]:
    """Round 2 of every one-way reconciler (Alice -> Bob): Bob's final set.

    Alice ships ``alice_only`` under ``label``; Bob appends each shipped
    point he lacks to his own points, in order (:func:`fresh_rows`), as
    tuples.  Both point sets pass
    :meth:`~repro.metric.MetricSpace.point_array`.
    """
    writer = BitWriter()
    write_points(writer, space, alice_only)
    reply = channel.send(ALICE, label, writer.getvalue(), writer.bit_length)
    bob = space.point_array(bob_points)
    shipped = read_point_matrix(BitReader(reply), space)
    fresh = fresh_rows(encode_points(space, bob), encode_points(space, shipped))
    return point_tuples(np.concatenate((bob, shipped[fresh])))


def exact_iblt_reconcile(
    space: MetricSpace,
    alice_points: Sequence[Point],
    bob_points: Sequence[Point],
    delta_bound: int,
    coins: PublicCoins,
    channel: Channel | None = None,
    q: int = 3,
) -> ReconcileResult:
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
    bob = space.point_array(bob_points)

    bob_table = IBLT(coins, "exact-reconcile", cells=cells, q=q, key_bits=key_bits)
    bob_table.insert_batch(encode_points(space, bob))
    payload, bits = bob_table.to_payload()
    sent = channel.send(BOB, "iblt", payload, bits)

    # Alice: load, delete her elements, peel.
    alice_view = IBLT(
        coins, "exact-reconcile", cells=cells, q=q, key_bits=key_bits
    ).from_payload(sent)
    alice_view.delete_batch(encode_points(space, alice_points))
    decoded = alice_view.decode()
    if not decoded.success:
        return ReconcileResult(
            success=False,
            bob_final=point_tuples(bob),
            alice_only=[],
            bob_only=[],
            total_bits=channel.total_bits,
            rounds=channel.rounds,
        )
    # Positive counts were inserted by Bob (his surplus); negatives are
    # Alice-only and must be shipped to Bob.
    alice_only = decode_points(space, decoded.deleted)
    bob_final = ship_alice_only(space, channel, "alice-only-points", bob, alice_only)
    return ReconcileResult(
        success=True,
        bob_final=bob_final,
        alice_only=point_tuples(alice_only),
        bob_only=point_tuples(decode_points(space, decoded.inserted)),
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
    points under the sketch ``label``; Bob measures the bound against his
    own (:meth:`~repro.reconcile.strata.StrataEstimator.difference_bound`).  The sketch
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
    return received.difference_bound(bob_sketch)

