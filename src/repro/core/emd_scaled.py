"""Interval-scaled EMD protocol (Corollaries 3.5 and 3.6).

Running Algorithm 1 once with the trivial bounds ``D1 = 1``,
``D2 = n·d·Δ`` forces one MLSH family to cover every scale.  The paper
instead divides ``[D1, D2]`` into ``I = O(log(D2/D1))`` geometric
intervals with constant ratio, runs Algorithm 1 *in parallel* for each
(each instance gets an MLSH family tuned to its interval, e.g. p-stable
width ``w = Θ(min(M, D2^{(j)}) + D2^{(j)}/k)``), and has Bob use the
output of the smallest-index interval that did not report failure.

This file implements that wrapper for any supported space.  All the
per-interval messages travel in the protocol's single round.  Each
interval runs Algorithm 1's own level ladder
(:meth:`EMDProtocol.send <repro.core.emd_protocol.EMDProtocol.send>` and
:meth:`~repro.core.emd_protocol.EMDProtocol.receive`) under its own coins;
what the wrapper adds is the choice of interval, the one message that
carries them all, and Bob's decode coins shared across intervals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..hashing import PublicCoins
from ..metric.spaces import MetricSpace, Point
from ..protocol.channel import ALICE, Channel
from ..protocol.serialize import BitReader, BitWriter
from .emd_protocol import EMDProtocol, EMDResult
from .params import default_distance_bounds, derive_emd_parameters

__all__ = ["ScaledEMDResult", "ScaledEMDProtocol"]


@dataclass(frozen=True)
class ScaledEMDResult(EMDResult):
    """Outcome of the interval-scaled protocol: an :class:`EMDResult` for
    the chosen interval (``chosen_interval`` None on failure) plus every
    interval's ``(D1, D2)`` bounds."""

    chosen_interval: int | None
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
        interval_coins = [coins.child("scaled-emd", j) for j in range(self.intervals)]

        writer = BitWriter()
        for instance, own_coins in zip(self.instances, interval_coins):
            instance.send(writer, alice, own_coins)
        payload = channel.send(
            ALICE, "scaled-emd-riblts", writer.getvalue(), writer.bit_length
        )

        # Bob decodes every interval (each draws on his decode coins), then
        # adopts the smallest index that did not fail.
        reader = BitReader(payload)
        decoded = [
            instance.receive(reader, bob, own_coins, decode_rng)
            for instance, own_coins in zip(self.instances, interval_coins)
        ]
        chosen = next((j for j, found in enumerate(decoded) if found is not None), None)
        return ScaledEMDResult.from_ladder(
            self.space,
            bob,
            None if chosen is None else decoded[chosen],
            channel,
            matcher,
            chosen_interval=chosen,
            interval_bounds=self.interval_bounds,
        )
