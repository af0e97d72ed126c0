"""Interval-scaled EMD protocol (Corollaries 3.5 and 3.6).

Running Algorithm 1 once with the trivial bounds ``D1 = 1``,
``D2 = n·d·Δ`` forces one MLSH family to cover every scale.  The paper
instead divides ``[D1, D2]`` into ``I = O(log(D2/D1))`` geometric
intervals with constant ratio, runs Algorithm 1 *in parallel* for each
(each instance gets an MLSH family tuned to its interval, e.g. p-stable
width ``w = Θ(min(M, D2^{(j)}) + D2^{(j)}/k)``), and has Bob use the
output of the smallest-index interval that did not report failure.

This file implements that wrapper for any supported space.  All the
per-interval messages travel in the protocol's single round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..hashing import PublicCoins
from ..lsh.keys import PrefixKeyBuilder
from ..metric.spaces import MetricSpace, Point, point_tuples
from ..protocol.channel import ALICE, Channel
from ..protocol.serialize import BitReader, BitWriter
from ..protocol.tables import read_riblt_cells, write_riblt_cells
from .emd_protocol import EMDProtocol
from .params import default_distance_bounds, derive_emd_parameters
from .repair import repair_point_set

__all__ = ["ScaledEMDResult", "ScaledEMDProtocol"]


@dataclass(frozen=True)
class ScaledEMDResult:
    """Outcome of the interval-scaled protocol."""

    success: bool
    bob_final: list[Point]
    chosen_interval: int | None
    decoded_level: int | None
    decoded_pairs: int
    total_bits: int
    rounds: int
    interval_bounds: tuple[tuple[float, float], ...]


class ScaledEMDProtocol:
    """Corollary 3.5/3.6 wrapper around :class:`EMDProtocol`.

    Parameters
    ----------
    space, n, k:
        The instance.
    d1, d2, m_bound:
        Overall distance bounds (defaults per Section 3).
    ratio:
        Geometric interval ratio ``D2^{(j)}/D1^{(j)}`` (the paper's
        ``O(1)``; default 8).
    q, max_total_hashes:
        Passed through to each interval's parameter derivation.
    """

    def __init__(
        self,
        space: MetricSpace,
        n: int,
        k: int,
        d1: float | None = None,
        d2: float | None = None,
        m_bound: float | None = None,
        ratio: float = 8.0,
        q: int = 3,
        max_total_hashes: int | None = None,
    ):
        if ratio <= 1.0:
            raise ValueError(f"ratio must be > 1, got {ratio}")
        default_d1, default_d2, default_m = default_distance_bounds(space, n)
        d1 = default_d1 if d1 is None else float(d1)
        d2 = default_d2 if d2 is None else float(d2)
        m_bound = default_m if m_bound is None else float(m_bound)
        if not 0 < d1 <= d2:
            raise ValueError(f"need 0 < D1 <= D2, got D1={d1}, D2={d2}")
        self.space = space
        self.n = n
        self.k = k
        self.ratio = float(ratio)

        bounds: list[tuple[float, float]] = []
        low = d1
        while True:
            high = min(low * self.ratio, d2)
            bounds.append((low, high))
            if high >= d2:
                break
            low = high
        self.interval_bounds = tuple(bounds)
        self.instances = [
            EMDProtocol(
                space,
                derive_emd_parameters(
                    space,
                    n,
                    k,
                    d1=low,
                    d2=high,
                    m_bound=m_bound,
                    q=q,
                    max_total_hashes=max_total_hashes,
                ),
            )
            for low, high in bounds
        ]

    @property
    def intervals(self) -> int:
        return len(self.instances)

    def run(
        self,
        alice_points: Sequence[Point],
        bob_points: Sequence[Point],
        coins: PublicCoins,
        channel: Channel | None = None,
        matcher: str = "hungarian",
        decode_rng: random.Random | None = None,
    ) -> ScaledEMDResult:
        """All intervals in one round; Bob adopts the smallest success."""
        channel = channel if channel is not None else Channel()
        decode_rng = decode_rng if decode_rng is not None else random.Random(0xB0B)
        alice = self.space.point_array(alice_points)
        bob = self.space.point_array(bob_points)

        # ---- Alice: every interval's tables in one message ----------------
        writer = BitWriter()
        builders: list[PrefixKeyBuilder] = []
        for j, instance in enumerate(self.instances):
            interval_coins = coins.child("scaled-emd", j)
            builder = instance._key_builder(interval_coins)
            builders.append(builder)
            keys = builder.keys_for(alice)
            for level in range(instance.parameters.levels):
                table = instance._table(interval_coins, level)
                table.insert_batch(keys[:, level], alice)
                write_riblt_cells(writer, table)
        payload = channel.send(
            ALICE, "scaled-emd-riblts", writer.getvalue(), writer.bit_length
        )

        # ---- Bob: decode per interval, smallest index wins ----------------
        reader = BitReader(payload)
        outcome_per_interval: list[tuple[int, list[Point], list[Point], int] | None] = []
        for j, instance in enumerate(self.instances):
            interval_coins = coins.child("scaled-emd", j)
            p = instance.parameters
            loaded = [
                read_riblt_cells(reader, instance._table(interval_coins, level))
                for level in range(p.levels)
            ]
            bob_keys = builders[j].keys_for(bob)
            found: tuple[int, list[Point], list[Point], int] | None = None
            for level in range(p.levels - 1, -1, -1):
                table = loaded[level]
                table.delete_batch(bob_keys[:, level], bob)
                outcome = table.decode(decode_rng)
                if outcome.success and outcome.pair_count <= p.accept_pairs:
                    found = (
                        level + 1,
                        [value for _, value in outcome.inserted],
                        [value for _, value in outcome.deleted],
                        outcome.pair_count,
                    )
                    break
            outcome_per_interval.append(found)

        for j, found in enumerate(outcome_per_interval):
            if found is None:
                continue
            level, decoded_alice, decoded_bob, pairs = found
            bob_final = repair_point_set(
                self.space, point_tuples(bob), decoded_alice, decoded_bob, matcher=matcher
            )
            return ScaledEMDResult(
                success=True,
                bob_final=bob_final,
                chosen_interval=j,
                decoded_level=level,
                decoded_pairs=pairs,
                total_bits=channel.total_bits,
                rounds=channel.rounds,
                interval_bounds=self.interval_bounds,
            )
        return ScaledEMDResult(
            success=False,
            bob_final=point_tuples(bob),
            chosen_interval=None,
            decoded_level=None,
            decoded_pairs=0,
            total_bits=channel.total_bits,
            rounds=channel.rounds,
            interval_bounds=self.interval_bounds,
        )
