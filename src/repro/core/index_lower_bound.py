"""The one-round lower bound construction (Theorem 4.6, Appendix F).

Theorem 4.6: no one-round ``O(n)``-bit protocol solves the Gap Guarantee
on ``({0,1}^d, f_H)`` with ``d = Ω(log n + r2)``, ``r1 = 1``, ``k = 1``
with success probability 2/3.  The proof reduces from the *index
problem*: Alice holds ``x ∈ {0,1}^n``, Bob an index ``i``, and a
one-round message letting Bob learn ``x_i`` must have ``Ω(n)`` bits.

The reduction embeds ``x`` into a Gap instance using ``n+1`` codewords
``c_1..c_{n+1} ∈ {0,1}^{d-1}`` at pairwise distance >= ``r2``:

* ``S_A = { c_j || x_j : j in [n] }``
* ``S_B = { c_j || 0 : j != i }``

Only ``c_i || x_i`` is far from ``S_B``, so a correct Gap protocol
delivers it and Bob reads ``x_i`` off the delivered point's last bit.

This module provides the code construction (a greedy random binary code
standing in for the paper's Reed–Muller citation — only the pairwise
distance property is used), the instance builder, the reduction via the
real 4-round :class:`~repro.core.gap_protocol.GapProtocol`, and the
budgeted one-round strawman the lower-bound experiment (E9) sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..hashing import PublicCoins
from ..metric.spaces import HammingSpace, Point
from ..protocol.channel import Channel
from .gap_protocol import GapProtocol

__all__ = [
    "greedy_binary_code",
    "required_dimension",
    "IndexInstance",
    "make_index_instance",
    "solve_index_via_gap",
    "one_round_subset_protocol",
]

#: Bits added to the codeword length beyond ``4·r2 + 8·log2(n+1)``.
LENGTH_SLACK = 8

#: Random candidates :func:`greedy_binary_code` draws before it gives up.
CODE_TRIES = 200_000


def required_dimension(n: int, r2: int) -> int:
    """A codeword length comfortably supporting ``n+1`` words at distance
    >= ``r2``: random length-``L`` words have expected pairwise distance
    ``L/2`` with ``O(sqrt(L))`` fluctuations, so ``L = 2·r2 + c·log n``
    suffices (the theorem's ``d = Ω(log n + r2)`` regime)."""
    import math

    return 4 * r2 + 8 * math.ceil(math.log2(max(n + 1, 2))) + LENGTH_SLACK


def greedy_binary_code(
    count: int,
    length: int,
    min_distance: int,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """``count`` binary words of ``length`` bits at pairwise Hamming
    distance >= ``min_distance`` via randomized greedy selection."""
    if min_distance > length:
        raise ValueError(
            f"min_distance {min_distance} cannot exceed length {length}"
        )
    words: list[np.ndarray] = []
    tries = 0
    while len(words) < count:
        tries += 1
        if tries > CODE_TRIES:
            raise RuntimeError(
                f"failed to build a ({count}, {length}, {min_distance}) code; "
                "increase the length"
            )
        candidate = rng.integers(0, 2, size=length)
        if all(int((candidate != word).sum()) >= min_distance for word in words):
            words.append(candidate)
    return [tuple(int(v) for v in word) for word in words]


@dataclass(frozen=True)
class IndexInstance:
    """A Gap instance encoding an index-problem input."""

    space: HammingSpace
    alice_points: list[Point]
    bob_points: list[Point]
    codewords: list[tuple[int, ...]]
    x: tuple[int, ...]
    i: int
    r2: int

    @property
    def answer(self) -> int:
        """Ground truth ``x_i``."""
        return self.x[self.i]


def make_index_instance(
    x: Sequence[int],
    i: int,
    r2: int,
    rng: np.random.Generator,
) -> IndexInstance:
    """Build the Theorem 4.6 reduction instance for input ``(x, i)``."""
    n = len(x)
    if not 0 <= i < n:
        raise ValueError(f"index i must be in [0, {n}), got {i}")
    length = required_dimension(n, r2)
    codewords = greedy_binary_code(n + 1, length, r2 + 2, rng)
    space = HammingSpace(length + 1)
    alice_points = [codewords[j] + (int(x[j]),) for j in range(n)]
    bob_points = [codewords[j] + (0,) for j in range(n + 1) if j != i]
    return IndexInstance(
        space=space,
        alice_points=alice_points,
        bob_points=bob_points,
        codewords=codewords,
        x=tuple(int(b) for b in x),
        i=i,
        r2=r2,
    )


def solve_index_via_gap(
    instance: IndexInstance,
    coins: PublicCoins,
    channel: Channel | None = None,
) -> tuple[int | None, int, int]:
    """Run the (multi-round) Gap protocol on the reduction instance.

    Returns ``(answer, total_bits, rounds)``; ``answer`` is Bob's
    reading of ``x_i`` (None if, against the guarantee, no delivered
    point carries codeword ``c_i``).
    """
    channel = channel if channel is not None else Channel()
    # Bit sampling of width d, so rho = 2*r1/r2 < 1.
    protocol = GapProtocol.for_instance(
        instance.space,
        n=len(instance.alice_points) + 1,
        k=1,
        r1=1.0,
        r2=float(instance.r2),
    )
    result = protocol.run(instance.alice_points, instance.bob_points, coins, channel)
    if not result.success:
        return None, channel.total_bits, channel.rounds
    target = instance.codewords[instance.i]
    for point in result.bob_final:
        if point[:-1] == target:
            return int(point[-1]), channel.total_bits, channel.rounds
    return None, channel.total_bits, channel.rounds


def one_round_subset_protocol(
    x: Sequence[int],
    i: int,
    budget_bits: int,
    coins: PublicCoins,
    trial: int = 0,
) -> bool:
    """The budgeted one-round strawman for the index problem.

    With public coins, Alice and Bob agree on a uniformly random subset
    ``R`` of ``budget_bits`` positions; Alice's single message is
    ``x|_R``.  Bob answers exactly when ``i ∈ R`` and guesses otherwise:
    success probability ``b/n + (1 - b/n)/2``, which reaches 2/3 only at
    ``b >= n/3`` — the ``Ω(n)`` wall the experiment exhibits.  (Up to
    constants this is the best one-round strategy; the communication-
    complexity lower bound [19] says *no* strategy beats ``Ω(n)``.)
    """
    n = len(x)
    budget = min(max(budget_bits, 0), n)
    rng = coins.numpy_rng("one-round-subset", trial)
    subset = rng.choice(n, size=budget, replace=False) if budget else np.array([], int)
    if i in set(int(j) for j in subset):
        return True  # Bob reads x_i from the message: always correct.
    return bool(rng.integers(0, 2) == x[i])  # fair guess
