"""Bob's point-set repair step (the last line of Algorithm 1).

After decoding level ``i*``, Bob holds ``X_A`` (approximations of Alice's
unmatched points) and ``X_B`` (approximations of his own unmatched
points).  He computes ``Y_B``, the subset of ``S_B`` matched in the
min-cost matching between ``X_B`` and ``S_B``, and outputs
``S'_B = (S_B \\ Y_B) ∪ X_A``.

The matching is the rectangular Hungarian problem (|X_B| <= 2k rows
against n columns).  A greedy variant is provided for the repair ablation.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..metric.matching import greedy_matching, hungarian
from ..metric.spaces import MetricSpace, Point

__all__ = ["repair_point_set"]

Matcher = Callable[[np.ndarray], list[int]]


def _hungarian_matcher(cost: np.ndarray) -> list[int]:
    return hungarian(cost)


def _greedy_matcher(cost: np.ndarray) -> list[int]:
    assignment, _ = greedy_matching(cost)
    return assignment


def repair_point_set(
    space: MetricSpace,
    bob_points: Sequence[Point],
    decoded_alice: Sequence[Point],
    decoded_bob: Sequence[Point],
    matcher: str = "hungarian",
) -> list[Point]:
    """Compute ``S'_B = (S_B \\ Y_B) ∪ X_A``.

    Parameters
    ----------
    bob_points:
        ``S_B``.
    decoded_alice:
        ``X_A`` — values decoded from Alice's side of the RIBLT.
    decoded_bob:
        ``X_B`` — values decoded from Bob's side.
    matcher:
        ``"hungarian"`` (exact, the paper's choice) or ``"greedy"``
        (ablation).

    Notes
    -----
    On a successful decode ``|X_A| = |X_B|`` (insert/delete counts
    balance), so ``|S'_B| = |S_B|``.  If the decode produced unbalanced
    sides anyway, the surplus is trimmed so the output size stays ``n``:
    extra ``X_A`` points are dropped, or extra ``S_B`` points removed,
    preferring the configuration of minimum matching cost.
    """
    if matcher == "hungarian":
        match: Matcher = _hungarian_matcher
    elif matcher == "greedy":
        match = _greedy_matcher
    else:
        raise ValueError(f"matcher must be 'hungarian' or 'greedy', got {matcher!r}")

    bob_points = list(bob_points)
    decoded_alice = list(decoded_alice)
    decoded_bob = list(decoded_bob)
    n = len(bob_points)

    # Keep sizes consistent: replace exactly as many of Bob's points as we
    # add from Alice's side.
    replace_count = min(len(decoded_alice), len(decoded_bob), n)
    decoded_alice = decoded_alice[:replace_count] if replace_count < len(decoded_alice) else decoded_alice
    decoded_bob = decoded_bob[:replace_count] if replace_count < len(decoded_bob) else decoded_bob
    if replace_count == 0:
        return bob_points

    cost = space.distance_matrix(decoded_bob, bob_points)
    assignment = match(cost)
    replaced = set(assignment)
    result = [point for index, point in enumerate(bob_points) if index not in replaced]
    result.extend(decoded_alice)
    return result
