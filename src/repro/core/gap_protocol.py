"""The Gap Guarantee protocol (Section 4.1, Theorem 4.2).

Bob must end with ``S'_B = S_B ∪ T_A`` such that every point of
``S_A ∪ S_B`` has a point of ``S'_B`` within ``r2``, given that all but
``k`` points per side are within ``r1`` of the other side.

Protocol (4 rounds):

1–3.  Each party builds a *key* per point: a vector of ``h = Θ(log n)``
      entries, each a pairwise-independent hash of a batch of
      ``m = log_{p2}(1/2)`` LSH values.  The parties reconcile key
      multisets via the sets-of-sets protocol so Alice learns Bob's keys.
4.    Alice transmits every point whose key matches *every* Bob key in
      fewer than ``τ = h(1/2 + ε/6)`` entries (``ρ <= 1 - ε``); far pairs
      match in fewer, close pairs in more, w.h.p. (Appendix E).

Two factories build the protocol for an instance, one per construction:
:meth:`GapProtocol.for_instance` takes its LSH from the space (bit
sampling of width ``d`` on Hamming data, Cor. 4.3; grid MLSH of width
``r2`` on an ℓ1 grid, Cor. 4.4), and
:func:`repro.core.gap_lowdim.low_dimensional_gap_protocol` configures
Theorem 4.5's low-dimensional variant (``m = 1``, one-sided LSH, match
threshold 1) on the same class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..hashing import PublicCoins
from ..lsh.base import LSHFamily, LSHParams, batches_for_p2_half
from ..lsh.bit_sampling import BitSamplingMLSH
from ..lsh.grid import GridMLSH
from ..lsh.keys import BatchKeyBuilder, key_bits_for
from ..metric.spaces import GridSpace, HammingSpace, MetricSpace, Point, point_tuples
from ..protocol.channel import ALICE, Channel
from ..protocol.serialize import BitReader, BitWriter, read_points, write_points
from ..setsofsets.protocol import SetsOfSetsReconciler

__all__ = ["GapResult", "GapProtocol", "verify_gap_guarantee"]


def verify_gap_guarantee(
    space: MetricSpace,
    alice_points: Sequence[Point],
    bob_final: Sequence[Point],
    r2: float,
) -> bool:
    """Check the model's postcondition: every ``a ∈ S_A`` is within ``r2``
    of some point of ``S'_B`` (Definition 4.1; Bob's own points are in
    ``S'_B`` by construction)."""
    if not len(alice_points):
        return True
    if not len(bob_final):
        return False
    distances = space.distance_matrix(alice_points, bob_final)
    return bool((distances.min(axis=1) <= r2 + 1e-9).all())


@dataclass(frozen=True)
class GapResult:
    """Outcome of the Gap protocol."""

    success: bool
    bob_final: list[Point]
    transmitted: list[Point]
    sos_unresolved: int
    pair_difference: int
    total_bits: int
    rounds: int


class GapProtocol:
    """Theorem 4.2's protocol for an arbitrary LSH family.

    Parameters
    ----------
    space:
        The metric space.
    lsh:
        Any :class:`~repro.lsh.base.LSHFamily` (an MLSH family works via
        its derived parameters).
    params:
        The ``(r1, r2, p1, p2)`` guarantee to use for this run (pass
        ``lsh.params`` or derive at custom scales).
    n, k:
        Instance size and far-point budget.
    entries:
        ``h``: key-vector length; defaults to ``Θ(log n)``.
    per_entry:
        ``m``: LSH values per entry; defaults to ``log_{p2}(1/2)``.
    match_threshold:
        ``τ``; defaults to ``ceil(h·(1/2 + ε/6))`` with ``ε = 1 - ρ``.
    sos_size_multiplier:
        Headroom for the sets-of-sets counting IBLT.
    """

    def __init__(
        self,
        space: MetricSpace,
        lsh: LSHFamily,
        params: LSHParams,
        n: int,
        k: int,
        entries: int | None = None,
        per_entry: int | None = None,
        match_threshold: int | None = None,
        sos_size_multiplier: float = 4.0,
    ):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self.space = space
        self.lsh = lsh
        self.params = params
        self.n = n
        self.k = k
        self.rho = params.rho
        epsilon = 1.0 - self.rho
        if epsilon <= 0:
            raise ValueError(
                f"the protocol requires rho <= 1 - eps < 1, got rho={self.rho:.4f}"
            )
        self.epsilon = epsilon
        self.entries = (
            entries
            if entries is not None
            else max(8, math.ceil(6 * math.log2(max(n, 2))))
        )
        if per_entry is not None:
            self.per_entry = per_entry
        elif params.p2 == 0.0:
            self.per_entry = 1
        else:
            self.per_entry = batches_for_p2_half(params.p2)
        self.match_threshold = (
            match_threshold
            if match_threshold is not None
            else max(1, math.ceil(self.entries * (0.5 + epsilon / 6.0)))
        )
        self.key_bits = key_bits_for(n)
        self.sos_size_multiplier = sos_size_multiplier

    @classmethod
    def for_instance(
        cls, space: MetricSpace, n: int, k: int, r1: float, r2: float, **options
    ) -> "GapProtocol":
        """Theorem 4.2's protocol with the LSH the space calls for.

        Hamming data uses bit sampling of width ``d`` (Cor. 4.3), an ℓ1
        grid uses grid MLSH of width ``r2`` (Cor. 4.4); the guarantee is
        derived at ``(r1, r2)``.  ``options`` go to the constructor.
        """
        if isinstance(space, HammingSpace):
            family = BitSamplingMLSH(space, w=float(space.dim))
        elif isinstance(space, GridSpace) and space.p == 1.0:
            family = GridMLSH(space, w=r2)
        else:
            raise ValueError("the general gap protocol needs a hamming or l1 space")
        params = family.derived_lsh_params(r1=r1, r2=r2)
        return cls(space, family, params, n=n, k=k, **options)

    # -- derived quantities ----------------------------------------------------
    @property
    def per_entry_close_probability(self) -> float:
        """Lower bound on a close pair agreeing on one key entry: ``p1^m``."""
        return self.params.p1**self.per_entry

    def expected_entry_differences(self) -> int:
        """Sizing estimate ``z``: pairwise differing entries across keys.

        Each of the ``<= 2k`` far points differs everywhere
        (``h`` entries); each close pair differs in expectation in
        ``h·(1 - p1^m)`` entries; the internal signature entry at most
        doubles the count.
        """
        close_mismatch = self.entries * (1.0 - self.per_entry_close_probability)
        estimate = 2.0 * (
            2.0 * self.k * (self.entries + 1)
            + self.n * (close_mismatch + 1.0)
        )
        return max(self.entries + 1, math.ceil(estimate))

    def _key_builder(self, coins: PublicCoins) -> BatchKeyBuilder:
        total = self.entries * self.per_entry
        batch = self.lsh.sample_batch(coins, "gap-lsh", total)
        return BatchKeyBuilder(
            batch,
            entries=self.entries,
            per_entry=self.per_entry,
            coins=coins,
            label="gap-keys",
            key_bits=self.key_bits,
        )

    # -- the protocol ----------------------------------------------------------
    def run(
        self,
        alice_points: Sequence[Point],
        bob_points: Sequence[Point],
        coins: PublicCoins,
        channel: Channel | None = None,
    ) -> GapResult:
        """Execute the 4-round protocol; Bob ends with ``S_B ∪ T_A``."""
        channel = channel if channel is not None else Channel()
        builder = self._key_builder(coins)
        alice = self.space.point_array(alice_points)
        bob = self.space.point_array(bob_points)
        # Key vectors stay (n, h) uint64 matrices end-to-end: built with
        # vectorised entry hashes, reconciled as matrices, matched as
        # matrices — no per-point Python loops on the hot path.
        alice_keys = builder.key_matrix_for(alice)
        bob_keys = builder.key_matrix_for(bob)

        # ---- Rounds 1-3: Alice learns Bob's key multiset ------------------
        reconciler = SetsOfSetsReconciler(
            coins,
            "gap-sos",
            entries=self.entries,
            entry_bits=self.key_bits,
            expected_differences=self.expected_entry_differences(),
            size_multiplier=self.sos_size_multiplier,
        )
        sos = reconciler.run(alice_keys, bob_keys, channel)
        if not sos.success:
            return GapResult(
                success=False,
                bob_final=point_tuples(bob),
                transmitted=[],
                sos_unresolved=0,
                pair_difference=0,
                total_bits=channel.total_bits,
                rounds=channel.rounds,
            )
        candidates = sos.bob_key_view

        # ---- Alice: find far keys ------------------------------------------
        candidate_matrix = np.asarray(candidates, dtype=np.uint64).reshape(
            len(candidates), self.entries
        )
        best = BatchKeyBuilder.best_matches(alice_keys, candidate_matrix)
        far = alice[best < self.match_threshold]

        # ---- Round 4: Alice -> Bob — the far elements ---------------------
        writer = BitWriter()
        write_points(writer, self.space, far)
        payload = channel.send(
            ALICE, "gap-far-points", writer.getvalue(), writer.bit_length
        )
        received = read_points(BitReader(payload), self.space)
        bob_final = point_tuples(bob)
        existing = set(bob_final)
        for point in received:
            if point not in existing:
                bob_final.append(point)
                existing.add(point)

        return GapResult(
            success=True,
            bob_final=bob_final,
            transmitted=point_tuples(far),
            sos_unresolved=sos.unresolved,
            pair_difference=sos.pair_difference,
            total_bits=channel.total_bits,
            rounds=channel.rounds,
        )
