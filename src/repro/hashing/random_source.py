"""Public-coin shared randomness.

The paper's protocols are analysed in the public-coin model: Alice and Bob
share an unbounded random string at no communication cost (Section 2).  In
practice one approximates this by sharing a short seed.  This module provides
:class:`PublicCoins`, a deterministic factory for all the randomness a
protocol consumes.  Both parties construct a ``PublicCoins`` from the *same*
seed and draw from identically-labelled *streams*, which guarantees that the
hash functions, grid offsets, sampled indices, etc. that they use agree
bit-for-bit without any messages being exchanged.

Streams are labelled by arbitrary string paths (``coins.stream("lsh", 3)``);
each label maps to an independent, reproducible :class:`numpy.random.Generator`
and :class:`random.Random`.  Drawing from one stream never perturbs another,
so protocol components can be composed without worrying about consumption
order -- a property that plain ``random.seed`` sharing does not give.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

import numpy as np

__all__ = ["PublicCoins", "derive_seed"]

_SEED_BYTES = 8


def derive_seed(root_seed: int, *labels: Any) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a label path.

    The derivation is a SHA-256 of the root seed and the ``repr`` of every
    label, so distinct label paths yield (cryptographically) independent
    seeds and the same path always yields the same seed.
    """
    hasher = hashlib.sha256()
    hasher.update(int(root_seed).to_bytes(16, "little", signed=True))
    for label in labels:
        hasher.update(repr(label).encode("utf-8"))
        hasher.update(b"\x00")
    return int.from_bytes(hasher.digest()[:_SEED_BYTES], "little")


class PublicCoins:
    """A deterministic source of shared randomness.

    Parameters
    ----------
    seed:
        The shared root seed.  Two ``PublicCoins`` built from equal seeds
        produce identical streams for identical labels.

    Examples
    --------
    >>> alice = PublicCoins(7)
    >>> bob = PublicCoins(7)
    >>> alice.numpy_rng("offsets").integers(0, 100, size=3).tolist() == \\
    ...     bob.numpy_rng("offsets").integers(0, 100, size=3).tolist()
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"PublicCoins(seed={self.seed})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PublicCoins) and other.seed == self.seed

    def __hash__(self) -> int:
        return hash(("PublicCoins", self.seed))

    def child_seed(self, *labels: Any) -> int:
        """Return the 64-bit seed for the stream identified by ``labels``."""
        return derive_seed(self.seed, *labels)

    def child(self, *labels: Any) -> "PublicCoins":
        """Return an independent ``PublicCoins`` rooted at a sub-label.

        Useful for handing a whole component (e.g. one RIBLT level) its own
        randomness namespace.
        """
        return PublicCoins(self.child_seed(*labels))

    def numpy_rng(self, *labels: Any) -> np.random.Generator:
        """A reproducible numpy generator for the given stream label."""
        return np.random.default_rng(self.child_seed(*labels))

    def python_rng(self, *labels: Any) -> random.Random:
        """A reproducible stdlib generator for the given stream label."""
        return random.Random(self.child_seed(*labels))
