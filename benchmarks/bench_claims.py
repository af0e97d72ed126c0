"""The paper's probabilistic claims: each one campaign plus one rule.

Every claim is a :func:`~repro.experiments.builtin_campaigns` campaign run
by :func:`~repro.experiments.run_sweep` at seed 7, the seed of
``sweep --seed 7`` reports, so the trials asserted here are the trials those
reports aggregate.  Each test is the acceptance rule over its campaign's
:class:`~repro.experiments.SweepPointResult` list.

=================================  ====================  ======================
claim                              campaign              rule
=================================  ====================  ======================
IBLT peeling threshold (Thm 2.6)   ``iblt-threshold``    Wilson interval near 1
                                                         at ``<= 0.9·c*_q``,
                                                         near 0 at
                                                         ``>= 1.1·c*_q``
Algorithm 1, Hamming (Cor 3.5)     ``emd-n``             success >= 5/8,
                                                         ratio <= 6·log2 n,
                                                         bits flat in n
Scaled Algorithm 1, l2 (Cor 3.6)   ``emd-l2-n``          as ``emd-n``
Gap guarantee (Thm 4.2, Cor 4.3)   ``gap-n``             holds on every success,
                                                         k <= transmitted
                                                         <= k + n/2
Gap on an l1 grid (Cor 4.4)        ``gap-l1-dim``        every dim-2 trial
                                                         succeeds and holds
Low-dimensional Gap (Thm 4.5)      ``gap-lowdim-l1-dim`` holds, fewer bits than
                                                         ``gap-l1-dim``
=================================  ====================  ======================
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from repro.analysis.stats import success_rate
from repro.experiments import builtin_campaigns, run_sweep
from repro.iblt import molloy_threshold

from conftest import record_table

SEED = 7


@lru_cache(maxsize=None)
def swept(name: str):
    """Campaign ``name``'s points at :data:`SEED`, run once per session."""
    points = run_sweep(builtin_campaigns()[name], seed=SEED)
    rows = []
    for point in points:
        _, (low, high) = success_rate([result.success for result in point.results])
        label = ", ".join(f"{axis}={value}" for axis, value in sorted(point.point.items()))
        bits = round(_mean(point.results, "bits"))
        rows.append((label, f"{point.successes}/{len(point.results)}", f"[{low:.3f}, {high:.3f}]", bits))
    record_table(
        f"{name} (seed {SEED})", ["point", "successes", "Wilson 95%", "mean bits"], rows
    )
    return points


def _mean(results, metric: str) -> float:
    return float(np.mean([result.metrics[metric] for result in results]))


def _succeeded(point):
    return [result for result in point.results if result.success]


def test_iblt_decode_rates_at_q3():
    """E1's fixed rates at ``q = 3``, 25 trials per load."""
    rate = {
        point.point["load"]: point.successes / len(point.results)
        for point in swept("iblt-threshold")
        if point.point["q"] == 3
    }
    assert rate[0.3] >= 0.95 and rate[0.5] >= 0.9 and rate[0.7] >= 0.85
    assert rate[1.0] <= 0.3 and rate[1.1] <= 0.1
    assert rate[0.3] - rate[1.1] >= 0.9


def test_iblt_wilson_interval_straddles_molloy_threshold():
    """Success is near 1 at or below ``0.9·c*_q`` and near 0 at or above
    ``1.1·c*_q``, for ``q = 3`` and 4."""
    sides = set()
    for point in swept("iblt-threshold"):
        q, load = point.point["q"], point.point["load"]
        _, (low, high) = success_rate([result.success for result in point.results])
        if load <= 0.9 * molloy_threshold(q):
            assert low >= 0.75, (q, load, low)
            sides.add((q, "below"))
        elif load >= 1.1 * molloy_threshold(q):
            assert high <= 0.25, (q, load, high)
            sides.add((q, "above"))
    assert sides == {(q, side) for q in (3, 4) for side in ("below", "above")}


@pytest.mark.parametrize("campaign, growth", [("emd-n", 2.5), ("emd-l2-n", 2.0)])
def test_emd_succeeds_within_log_n_of_emd_k(campaign, growth):
    """Success at least 5/8, ``EMD(S_A, S'_B) <= 6·log2(n)·max(EMD_k, 1)``
    on every success, and mean bits from the smallest to the largest ``n``
    grow by less than ``growth`` (the naive transfer grows by the ratio of
    the ``n``s)."""
    points = swept(campaign)
    trials = [result for point in points for result in point.results]
    assert sum(result.success for result in trials) >= 5 / 8 * len(trials)
    for point in points:
        for result in _succeeded(point):
            ratio = result.metrics["emd_after"] / max(result.metrics["emd_k"], 1.0)
            assert ratio <= 6 * math.log2(point.point["n"]), (point.point, ratio)
    assert _mean(points[-1].results, "bits") / _mean(points[0].results, "bits") < growth


def test_gap_guarantee_holds_and_transmits_near_k():
    """Thm 4.2 on Hamming data: the guarantee holds on every success, at
    least 80% of trials succeed, and ``k <= mean transmitted <= k + n/2``."""
    points = swept("gap-n")
    trials = [result for point in points for result in point.results]
    assert sum(result.success for result in trials) >= 0.8 * len(trials)
    for point in points:
        n, k = point.point["n"], point.point["k"]
        succeeded = _succeeded(point)
        assert all(result.metrics["gap_guarantee_holds"] for result in succeeded)
        assert succeeded and k <= _mean(succeeded, "transmitted_points") <= k + n / 2


def test_lowdim_gap_keeps_the_guarantee_for_fewer_bits():
    """Thm 4.5 against the general protocol on the same l1 grids, and
    Cor 4.4: the general protocol's ``dim = 2`` trials all succeed."""
    general, lowdim = swept("gap-l1-dim"), swept("gap-lowdim-l1-dim")
    for both in zip(general, lowdim):
        for point in both:
            assert all(r.metrics["gap_guarantee_holds"] for r in _succeeded(point))
        assert both[1].successes >= len(both[1].results) - 1
        assert _mean(_succeeded(both[1]), "bits") < _mean(_succeeded(both[0]), "bits")
    assert general[0].point["dim"] == 2
    assert general[0].successes == len(general[0].results)
