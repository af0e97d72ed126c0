"""The low-dimensional Gap protocol (Theorem 4.5, Appendix E.1).

In a low-dimensional ``ℓ_p`` grid space a randomly shifted grid of cell
width ``r2/d^{1/p}`` has *one-sided* error: far points never share a cell
(``p2 = 0``), while close points share one with probability at least
``1 - ρ̂`` where ``ρ̂ = r1·d/r2``.

The construction removes the need for per-entry replication: the key
vector uses ``m = 1`` LSH value per entry and only
``h = Θ(log n / log(1/ρ̂))`` entries, and Alice classifies a point as
close as soon as *any* entry of its key matches the corresponding entry
of any Bob key (match threshold 1).  This improves over Theorem 4.2 by
roughly a ``log(r2/r1)`` factor in communication for constant ``d``.

:func:`low_dimensional_gap_protocol` is this construction's factory, the
counterpart of :meth:`repro.core.gap_protocol.GapProtocol.for_instance`
(Theorem 4.2's, which takes its LSH from the space); both return a
configured :class:`~repro.core.gap_protocol.GapProtocol`.
"""

from __future__ import annotations

import math

from ..lsh.onesided import OneSidedGridLSH
from ..metric.spaces import GridSpace
from .gap_protocol import GapProtocol

__all__ = ["low_dimensional_gap_protocol", "low_dim_entries"]

#: Entries added on top of ``2·ln n / ln(1/ρ̂)``.
ENTRY_SLACK = 2


def low_dim_entries(n: int, rho_hat: float) -> int:
    """``h = Θ(log n / log(1/ρ̂))``: entries so a close pair misses all
    ``h`` grids with probability ``ρ̂^h <= 1/poly(n)``."""
    if not 0 < rho_hat < 1:
        raise ValueError(f"rho_hat must be in (0, 1), got {rho_hat}")
    denominator = math.log(1.0 / rho_hat)
    return max(2, math.ceil(2.0 * math.log(max(n, 2)) / denominator) + ENTRY_SLACK)


def low_dimensional_gap_protocol(
    space: GridSpace,
    n: int,
    k: int,
    r1: float,
    r2: float,
) -> GapProtocol:
    """Build Theorem 4.5's protocol as a configured :class:`GapProtocol`.

    Raises ``ValueError`` when ``ρ̂ = r1·d/r2 >= 1`` (the construction
    needs low dimension / a wide enough gap).
    """
    lsh = OneSidedGridLSH(space, r1=r1, r2=r2)
    return GapProtocol(
        space,
        lsh,
        lsh.params,
        n=n,
        k=k,
        entries=low_dim_entries(n, lsh.rho_hat),
        per_entry=1,
        match_threshold=1,
    )
