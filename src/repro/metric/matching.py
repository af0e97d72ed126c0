"""Minimum-cost assignment (the Hungarian method, Kuhn [20]).

Algorithm 1's repair step has Bob compute the min-cost matching between the
decoded points ``X_B`` and his own set ``S_B`` to choose which of his points
to replace; the EMD objective itself is a min-cost perfect matching.  The
paper cites the Hungarian method, which we implement from scratch here as a
potentials / shortest-augmenting-path algorithm: ``O(n_rows^2 * n_cols)``
time, exact, supporting rectangular instances (``n_rows <= n_cols``) where
every row must be matched to a distinct column.

``scipy.optimize.linear_sum_assignment`` is intentionally *not* used in the
library; the test-suite uses it as an independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["hungarian", "greedy_matching"]


def hungarian(cost: np.ndarray) -> list[int]:
    """Solve the rectangular assignment problem.

    Parameters
    ----------
    cost:
        An ``(n_rows, n_cols)`` matrix with ``n_rows <= n_cols``; entries may
        be any finite floats.

    Returns
    -------
    list[int]
        ``assignment`` with ``assignment[row] = col`` minimising
        ``sum(cost[row, assignment[row]])`` over injections rows -> cols.

    Notes
    -----
    Classic shortest-augmenting-path formulation with dual potentials
    ``u`` (rows) and ``v`` (columns); one augmentation per row.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-D, got shape {cost.shape}")
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError(
            f"hungarian requires n_rows <= n_cols, got {n_rows} x {n_cols}; "
            "transpose the matrix and invert the assignment instead"
        )
    if n_rows == 0:
        return []
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix entries must be finite")

    # 1-indexed arrays in the style of the standard potentials algorithm.
    u = [0.0] * (n_rows + 1)
    v = [0.0] * (n_cols + 1)
    # way[col] = previous column on the alternating path to `col`.
    match_of_col = [0] * (n_cols + 1)  # row matched to each column (0 = free)

    for row in range(1, n_rows + 1):
        match_of_col[0] = row
        current_col = 0
        min_to = [math.inf] * (n_cols + 1)
        way = [0] * (n_cols + 1)
        used = [False] * (n_cols + 1)
        while True:
            used[current_col] = True
            row_here = match_of_col[current_col]
            delta = math.inf
            next_col = 0
            for col in range(1, n_cols + 1):
                if used[col]:
                    continue
                reduced = cost[row_here - 1][col - 1] - u[row_here] - v[col]
                if reduced < min_to[col]:
                    min_to[col] = reduced
                    way[col] = current_col
                if min_to[col] < delta:
                    delta = min_to[col]
                    next_col = col
            for col in range(n_cols + 1):
                if used[col]:
                    u[match_of_col[col]] += delta
                    v[col] -= delta
                else:
                    min_to[col] -= delta
            current_col = next_col
            if match_of_col[current_col] == 0:
                break
        # Unwind the alternating path.
        while current_col != 0:
            previous_col = way[current_col]
            match_of_col[current_col] = match_of_col[previous_col]
            current_col = previous_col

    assignment = [-1] * n_rows
    for col in range(1, n_cols + 1):
        if match_of_col[col] != 0:
            assignment[match_of_col[col] - 1] = col - 1
    return assignment


def greedy_matching(cost: np.ndarray) -> tuple[list[int], float]:
    """A fast 1-pass greedy injection rows -> cols (ablation baseline).

    Sorts all pairs by cost and matches greedily.  Not optimal, but
    ``O(nm log nm)`` and used by the repair ablation to quantify how much the
    exact Hungarian repair step matters in Algorithm 1.
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError("greedy_matching requires n_rows <= n_cols")
    order = np.argsort(cost, axis=None)
    assignment = [-1] * n_rows
    used_cols: set[int] = set()
    matched = 0
    total = 0.0
    for flat_index in order:
        row, col = divmod(int(flat_index), n_cols)
        if assignment[row] != -1 or col in used_cols:
            continue
        assignment[row] = col
        used_cols.add(col)
        total += float(cost[row, col])
        matched += 1
        if matched == n_rows:
            break
    return assignment, total
