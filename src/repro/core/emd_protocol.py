"""Algorithm 1: the Earth Mover's Distance reconciliation protocol.

One round, Alice to Bob.  Alice builds ``t`` RIBLTs, one per resolution
level; the level-``i`` key of a point is a pairwise-independent hash of
its first ``c_i`` MLSH values, and the stored value is the point itself.
Bob deletes his own (key, point) pairs from each table, finds ``i*`` (the
largest level that decodes to at most ``4k`` pairs), and repairs his point
set with the decoded values: ``S'_B = (S_B \\ Y_B) ∪ X_A`` where ``Y_B``
is his side of the min-cost matching between the decoded ``X_B`` and
``S_B``.

Guarantee (Theorem 3.4): with probability at least 5/8,
``EMD(S_A, S'_B) <= O(α^{-1} log n) · EMD_k(S_A, S_B)`` using
``O(k·d·log(Δn)·log(D2/D1))`` bits — which experiment E4/E5 measure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..hashing import PublicCoins
from ..iblt.riblt import RIBLT
from ..lsh.keys import PrefixKeyBuilder
from ..metric.spaces import MetricSpace, Point, point_tuples
from ..protocol.channel import ALICE, Channel
from ..protocol.serialize import BitReader, BitWriter
from ..protocol.tables import read_riblt_cells, write_riblt_cells
from .params import EMDParameters, derive_emd_parameters
from .repair import repair_point_set

__all__ = ["EMDResult", "EMDProtocol"]


@dataclass(frozen=True)
class EMDResult:
    """Outcome of one EMD-protocol run.

    Attributes
    ----------
    success:
        False iff *no* level decoded within the ``4k``-pair budget (the
        protocol "reports failure"; Theorem 3.4 bounds this by 1/8 when
        ``EMD_k <= D2``).
    bob_final:
        ``S'_B`` (equal to ``S_B`` on failure).
    decoded_level:
        ``i*`` (1-indexed, as in the paper), or None on failure.
    decoded_pairs:
        ``|X_A| + |X_B|`` at the accepted level.
    """

    success: bool
    bob_final: list[Point]
    decoded_level: int | None
    decoded_pairs: int
    total_bits: int
    rounds: int


class EMDProtocol:
    """Algorithm 1, parameterised by :class:`EMDParameters`.

    Construct either from explicit parameters or via the convenience
    class method :meth:`for_instance` (which derives them per Section 3).

    All levels are keyed through the single vectorised Mersenne-61
    :class:`~repro.lsh.keys.PrefixKeyBuilder` stream at the
    ``Θ(log n)``-bit width of :attr:`EMDParameters.key_bits`; the
    resulting ``uint64`` key matrix feeds the per-level RIBLTs through
    their array-native batch insert/delete path.
    """

    def __init__(self, space: MetricSpace, parameters: EMDParameters):
        self.space = space
        self.parameters = parameters

    @classmethod
    def for_instance(
        cls,
        space: MetricSpace,
        n: int,
        k: int,
        d1: float | None = None,
        d2: float | None = None,
        m_bound: float | None = None,
        q: int = 3,
        max_total_hashes: int | None = None,
    ) -> "EMDProtocol":
        """Derive parameters (see :func:`derive_emd_parameters`) and build."""
        parameters = derive_emd_parameters(
            space,
            n,
            k,
            d1=d1,
            d2=d2,
            m_bound=m_bound,
            q=q,
            max_total_hashes=max_total_hashes,
        )
        return cls(space, parameters)

    # -- shared machinery ----------------------------------------------------
    def _key_builder(self, coins: PublicCoins) -> PrefixKeyBuilder:
        p = self.parameters
        batch = p.family.sample_batch(coins, "emd-mlsh", p.total_hashes)
        return PrefixKeyBuilder(
            batch,
            p.hash_counts,
            coins,
            "emd-keys",
            key_bits=p.key_bits,
        )

    def _table(self, coins: PublicCoins, level: int) -> RIBLT:
        p = self.parameters
        return RIBLT(
            coins,
            ("emd-riblt", level),
            cells=p.cells,
            q=p.q,
            key_bits=p.key_bits,
            dim=self.space.dim,
            side=self.space.side,
        )

    # -- the protocol ----------------------------------------------------------
    def run(
        self,
        alice_points: Sequence[Point],
        bob_points: Sequence[Point],
        coins: PublicCoins,
        channel: Channel | None = None,
        matcher: str = "hungarian",
        decode_rng: random.Random | None = None,
    ) -> EMDResult:
        """Execute Algorithm 1 end to end.

        ``matcher`` selects Bob's repair matching ("hungarian" per the
        paper, "greedy" for the E4 ablation); ``decode_rng`` drives the
        RIBLT's randomized rounding (Bob's private coins).
        """
        p = self.parameters
        alice = self.space.point_array(alice_points)
        bob = self.space.point_array(bob_points)
        if len(alice) != len(bob):
            raise ValueError(
                f"the EMD model requires |S_A| = |S_B| (got {len(alice)}, {len(bob)})"
            )
        channel = channel if channel is not None else Channel()
        builder = self._key_builder(coins)

        # ---- Alice: build and send all t RIBLTs --------------------------
        alice_keys = builder.keys_for(alice)  # (n, t) uint64
        writer = BitWriter()
        for level in range(p.levels):
            table = self._table(coins, level)
            table.insert_batch(alice_keys[:, level], alice)
            write_riblt_cells(writer, table)
        payload = channel.send(ALICE, "emd-riblts", writer.getvalue(), writer.bit_length)

        # ---- Bob: load, delete, decode the finest feasible level ---------
        reader = BitReader(payload)
        loaded = [
            read_riblt_cells(reader, self._table(coins, level))
            for level in range(p.levels)
        ]
        bob_keys = builder.keys_for(bob)
        decode_rng = decode_rng if decode_rng is not None else random.Random(0xB0B)

        decoded_level: int | None = None
        decoded_alice: list[Point] = []
        decoded_bob: list[Point] = []
        decoded_pairs = 0
        for level in range(p.levels - 1, -1, -1):
            table = loaded[level]
            table.delete_batch(bob_keys[:, level], bob)
            outcome = table.decode(decode_rng)
            if outcome.success and outcome.pair_count <= p.accept_pairs:
                decoded_level = level
                decoded_alice = [value for _, value in outcome.inserted]
                decoded_bob = [value for _, value in outcome.deleted]
                decoded_pairs = outcome.pair_count
                break

        if decoded_level is None:
            return EMDResult(
                success=False,
                bob_final=point_tuples(bob),
                decoded_level=None,
                decoded_pairs=0,
                total_bits=channel.total_bits,
                rounds=channel.rounds,
            )

        bob_final = repair_point_set(
            self.space, point_tuples(bob), decoded_alice, decoded_bob, matcher=matcher
        )
        return EMDResult(
            success=True,
            bob_final=bob_final,
            decoded_level=decoded_level + 1,  # paper's levels are 1-indexed
            decoded_pairs=decoded_pairs,
            total_bits=channel.total_bits,
            rounds=channel.rounds,
        )
