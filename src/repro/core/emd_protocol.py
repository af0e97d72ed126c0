"""Algorithm 1: the Earth Mover's Distance reconciliation protocol.

One round, Alice to Bob.  Alice builds ``t`` RIBLTs, one per resolution
level; the level-``i`` key of a point is a pairwise-independent hash of
its first ``c_i`` MLSH values, and the stored value is the point itself.
From the finest level down, Bob deletes his own (key, point) pairs from
a table and peels it, until he finds ``i*`` (the largest level that
decodes to at most ``4k`` pairs); he parses only the levels he peels.
He repairs his point set with the decoded values:
``S'_B = (S_B \\ Y_B) ∪ X_A`` where ``Y_B`` is his side of the min-cost
matching between the decoded ``X_B`` and ``S_B``.

Guarantee (Theorem 3.4): with probability at least 5/8,
``EMD(S_A, S'_B) <= O(α^{-1} log n) · EMD_k(S_A, S_B)`` using
``O(k·d·log(Δn)·log(D2/D1))`` bits — which the ``emd-n`` and
``emd-l2-n`` sweep campaigns measure.

The level ladder itself — Alice's :func:`send_levels`, Bob's
:func:`decode_levels` and the repair of :meth:`EMDResult.from_ladder` — is
shared with the interval-scaled wrapper (:mod:`repro.core.emd_scaled`)
and the quadtree baseline (:mod:`repro.reconcile.quadtree`); each
protocol supplies only its tables, its per-level ``(keys, values)`` and
its accept budget:

* :class:`EMDProtocol` — keys from the :class:`~repro.lsh.keys.PrefixKeyBuilder`
  matrix, points as values, a ``4k``-pair budget, levels counted from 1,
  Bob's decode coins seeded ``0xB0B``; ``send``/``receive`` are its two
  halves.
* :class:`~repro.core.emd_scaled.ScaledEMDProtocol` — runs each interval
  instance's ``send``/``receive`` under ``coins.child("scaled-emd", j)``,
  all in one message, with one decode-coin stream across intervals; Bob
  adopts the smallest interval that decoded (``chosen_interval``).
* :class:`~repro.reconcile.quadtree.QuadtreeEMDProtocol` — keys are folded
  cell ids of a shifted grid per level and values the cell centres, a
  ``4k`` budget, levels counted from 0, and each level's peel on the
  RIBLT's fixed seed.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..hashing import PublicCoins
from ..iblt.riblt import RIBLT
from ..lsh.keys import PrefixKeyBuilder
from ..metric.spaces import MetricSpace, Point, point_tuples
from ..protocol.channel import ALICE, Channel
from ..protocol.serialize import BitReader, BitWriter
from ..protocol.tables import read_riblt_cells, write_riblt_cells
from .params import EMDParameters, derive_emd_parameters
from .repair import repair_point_set

__all__ = ["EMDResult", "EMDProtocol", "LevelDecode", "send_levels", "decode_levels"]

#: One level's ``(keys, values)`` for a RIBLT batch insert or delete, by
#: level index (0 = coarsest).
LevelEntries = Callable[[int], tuple[np.ndarray, np.ndarray]]

#: One level's empty RIBLT, by level index (0 = coarsest).
LevelShell = Callable[[int], RIBLT]


@dataclass(frozen=True)
class LevelDecode:
    """The level Bob accepted: its index (0 = coarsest), the values decoded
    on Alice's side (``X_A``) and on his own (``X_B``), and their pair
    count."""

    level: int
    alice_values: list[Point]
    bob_values: list[Point]
    pairs: int


def send_levels(
    writer: BitWriter, levels: int, shell: LevelShell, entries: LevelEntries
) -> None:
    """Alice's half of the level ladder.

    Fills each level's empty table ``shell(level)`` (coarsest first) with
    that level's ``(keys, values)`` and appends its cells to ``writer``,
    one header-free run per level.
    """
    for level in range(levels):
        table = shell(level)
        table.insert_batch(*entries(level))
        write_riblt_cells(writer, table)


def decode_levels(
    reader: BitReader,
    levels: int,
    shell: LevelShell,
    entries: LevelEntries,
    accept_pairs: int,
    decode_rng: random.Random | None,
) -> LevelDecode | None:
    """Bob's half of the level ladder.

    From the finest level down, loads a level's cells into the empty
    table ``shell(level)``, deletes Bob's ``entries`` and peels; the first
    level that decodes to at most ``accept_pairs`` pairs is returned, or
    None if no level does.  ``decode_rng`` drives the RIBLT's randomized
    rounding (None: each peel uses the RIBLT's own fixed seed).

    Every level's table has the finest one's shape, so a level is a run
    of ``m·(3 + dim)`` varints.  One pass over the terminators finds every
    level's start and leaves ``reader`` at the end of the ladder (the
    scaled wrapper reads several ladders from one message); a level's
    shell is built, and its cells parsed, only when it is about to be
    peeled.  A truncated ladder, or a varint past the group cap in any
    level, raises the same typed error as a full parse; the cell-count
    limit is checked only in the levels that are parsed.
    """
    finest = shell(levels - 1)
    width = finest.m * (3 + finest.dim)
    starts = []
    for _ in range(levels):
        starts.append(copy.copy(reader))
        reader.skip_varints(width)
    for level in range(levels - 1, -1, -1):
        table = read_riblt_cells(starts[level], finest if level == levels - 1 else shell(level))
        table.delete_batch(*entries(level))
        outcome = table.decode(decode_rng)
        if outcome.success and outcome.pair_count <= accept_pairs:
            return LevelDecode(
                level=level,
                alice_values=[value for _, value in outcome.inserted],
                bob_values=[value for _, value in outcome.deleted],
                pairs=outcome.pair_count,
            )
    return None


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

    @classmethod
    def from_ladder(
        cls,
        space: MetricSpace,
        bob: np.ndarray,
        found: LevelDecode | None,
        channel: Channel,
        matcher: str,
        first_level: int = 1,
        **extra,
    ):
        """Bob's repair step on the accepted level, as a result.

        ``found`` None means failure: Bob keeps ``S_B``.  ``first_level``
        is the number the coarsest level is reported as; ``extra`` fills
        a subclass's own fields.
        """
        if found is None:
            bob_final, level, pairs = point_tuples(bob), None, 0
        else:
            bob_final = repair_point_set(
                space, point_tuples(bob), found.alice_values, found.bob_values, matcher=matcher
            )
            level, pairs = found.level + first_level, found.pairs
        return cls(
            success=found is not None,
            bob_final=bob_final,
            decoded_level=level,
            decoded_pairs=pairs,
            total_bits=channel.total_bits,
            rounds=channel.rounds,
            **extra,
        )


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

    def _entries(self, coins: PublicCoins, points: np.ndarray) -> LevelEntries:
        keys = self._key_builder(coins).keys_for(points)  # (n, t) uint64
        return lambda level: (keys[:, level], points)

    # -- the protocol ----------------------------------------------------------
    def send(self, writer: BitWriter, alice: np.ndarray, coins: PublicCoins) -> None:
        """Alice's half: all ``t`` levels of ``alice`` appended to ``writer``."""
        send_levels(
            writer,
            self.parameters.levels,
            lambda level: self._table(coins, level),
            self._entries(coins, alice),
        )

    def receive(
        self,
        reader: BitReader,
        bob: np.ndarray,
        coins: PublicCoins,
        decode_rng: random.Random,
    ) -> LevelDecode | None:
        """Bob's half: decode the finest of the ``t`` levels within the
        ``4k``-pair budget (None if no level is), leaving ``reader`` past
        all ``t``."""
        p = self.parameters
        return decode_levels(
            reader,
            p.levels,
            lambda level: self._table(coins, level),
            self._entries(coins, bob),
            p.accept_pairs,
            decode_rng,
        )

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
        paper, "greedy" for the repair ablation); ``decode_rng`` drives the
        RIBLT's randomized rounding (Bob's private coins).
        """
        alice = self.space.point_array(alice_points)
        bob = self.space.point_array(bob_points)
        if len(alice) != len(bob):
            raise ValueError(
                f"the EMD model requires |S_A| = |S_B| (got {len(alice)}, {len(bob)})"
            )
        channel = channel if channel is not None else Channel()
        decode_rng = decode_rng if decode_rng is not None else random.Random(0xB0B)
        writer = BitWriter()
        self.send(writer, alice, coins)
        payload = channel.send(ALICE, "emd-riblts", writer.getvalue(), writer.bit_length)
        found = self.receive(BitReader(payload), bob, coins, decode_rng)
        return EMDResult.from_ladder(self.space, bob, found, channel, matcher)
