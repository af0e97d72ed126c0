"""Parameter-sweep campaigns: seeded trial grids over the scenario harness.

The scenario harness (:mod:`repro.experiments.runner`) runs each protocol
family once at a fixed seed; the paper's claims, however, are *threshold
and trade-off curves* — decode success against IBLT load (the XORSAT-core
threshold), communication cost against the gap ratio ``r2/r1``, EMD cost
against the resolution-level count.  This module sweeps a parameter grid
with many independently seeded trials per grid point and aggregates the
outcomes into curves.

Layers
------
:class:`SweepSpec`
    A campaign definition: a protocol driver, fixed base parameters, a
    grid of swept axes, and a trial count per grid point.  Grid points
    expand in *canonical* order (axis names sorted, values in the given
    order) and every trial's seed derives deterministically from
    ``(sweep seed, grid point, trial index)`` — reordering the axes of
    the grid mapping changes nothing, and distinct points or trial
    indices never share :class:`~repro.hashing.PublicCoins`.

:func:`run_sweep`
    Executes the expanded trials in-process (``jobs=1``) or, for
    ``jobs > 1``, on a fork process pool opened for that call alone and
    closed before it returns.  Trials are embarrassingly parallel and
    fully determined by their :class:`ScenarioSpec` and
    ``REPRO_BACKEND``, which the freshly forked workers inherit from the
    caller's current environment; ``pool.map`` hands results back in
    input order, so a parallel run's report is byte-identical to the
    serial run's — the invariant ``tests/test_sweeps.py`` checks for
    every built-in campaign.

:func:`render_sweep_report`
    Aggregates per-point success rates (Wilson intervals) and numeric
    metrics (mean/std/min/max via :mod:`repro.analysis.stats`) into the
    canonical ``repro.sweeps/v1`` JSON document.  Worker counts and wall
    times never enter the document.

:func:`builtin_campaigns`
    The paper-style curves, exposed as ``python -m repro.cli sweep``.
    Six of them carry the paper's probabilistic claims, which
    ``benchmarks/bench_claims.py`` asserts over their seed-7 trials.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..analysis.stats import success_rate, summarize
from ..hashing import derive_seed
from .runner import run_scenario
from .scenarios import DRIVERS, ScenarioResult, ScenarioSpec, _round6

__all__ = [
    "SweepPointResult",
    "SweepSpec",
    "builtin_campaigns",
    "render_sweep_report",
    "run_sweep",
]

SWEEP_SCHEMA = "repro.sweeps/v1"


@dataclass(frozen=True)
class SweepSpec:
    """A campaign: one protocol swept over a parameter grid.

    Parameters
    ----------
    name:
        Campaign name; part of every trial's seed-derivation path.
    protocol:
        A :data:`~repro.experiments.scenarios.DRIVERS` key.
    axes:
        Mapping of axis name to the sequence of values it sweeps.  The
        cross product of all axes is the grid; axis *names* are sorted
        before expansion so the mapping's insertion order is irrelevant
        (to both trial order and trial seeds), while each axis's *value*
        order is preserved.
    base_params:
        Parameters shared by every grid point; a grid point's axis
        values override clashing keys.
    trials:
        Independently seeded runs per grid point (>= 1).
    derive:
        Optional hook mapping the merged ``base + point`` params to the
        final driver params — for axes that are *ratios* or otherwise
        feed several dependent parameters.  Seed derivation always uses
        the raw grid point, never the derived params.
    """

    name: str
    protocol: str
    axes: Mapping[str, Sequence[Any]]
    base_params: Mapping[str, Any] = field(default_factory=dict)
    trials: int = 5
    derive: Callable[[dict], dict] | None = None

    def __post_init__(self) -> None:
        if self.protocol not in DRIVERS:
            raise KeyError(f"unknown protocol {self.protocol!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        for axis, values in self.axes.items():
            if not len(values):
                raise ValueError(f"axis {axis!r} has no values")

    def grid_points(self) -> list[dict]:
        """The grid in canonical order (axis names sorted)."""
        names = sorted(self.axes)
        return [
            dict(zip(names, values))
            for values in itertools.product(*(self.axes[name] for name in names))
        ]

    def point_params(self, point: Mapping[str, Any]) -> dict:
        """Final driver params for one grid point (base ∪ point, derived)."""
        params = {**self.base_params, **point}
        return self.derive(params) if self.derive is not None else params

    def trial_seed(self, sweep_seed: int, point: Mapping[str, Any], trial: int) -> int:
        """The trial's 64-bit seed from (sweep seed, grid point, index).

        The grid point enters as its *sorted* item tuple, so two grids
        that differ only in axis ordering derive identical seeds.
        """
        canonical_point = tuple(sorted(point.items()))
        return derive_seed(sweep_seed, "sweep", self.name, canonical_point, trial)

    def trial_specs(self, sweep_seed: int) -> list[ScenarioSpec]:
        """Every trial's runnable spec in grid order.

        Each grid point contributes ``trials`` consecutive specs, trial
        index ascending, so point ``i``'s trials are the slice
        ``[i * trials, (i + 1) * trials)``.
        """
        specs = []
        for point in self.grid_points():
            params = self.point_params(point)
            label = ",".join(f"{axis}={point[axis]}" for axis in sorted(point))
            for trial in range(self.trials):
                specs.append(
                    ScenarioSpec(
                        name=f"{self.name}/{label}/t{trial}",
                        protocol=self.protocol,
                        seed=self.trial_seed(sweep_seed, point, trial),
                        params=params,
                    )
                )
        return specs


@dataclass(frozen=True)
class SweepPointResult:
    """All of one grid point's finished trials, in trial order."""

    point: Mapping[str, Any]
    params: Mapping[str, Any]
    results: tuple[ScenarioResult, ...]

    @property
    def successes(self) -> int:
        return sum(1 for result in self.results if result.success)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork workers (cheap start, inherit sys.path); else default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_sweep(sweep: SweepSpec, seed: int = 0, jobs: int = 1) -> list[SweepPointResult]:
    """Execute every trial of ``sweep`` and group results by grid point.

    ``jobs=1`` runs the trials in-process.  A larger count opens one
    process pool for this call only, with at most ``jobs`` workers (never
    more than there are trials or CPUs), and maps the trials over it in
    ``4 × jobs`` chunks.  ``map`` returns results in input order, so the
    rendered report is byte-identical either way, and workers forked
    here run on the caller's current ``REPRO_BACKEND``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    specs = sweep.trial_specs(seed)
    if jobs == 1:
        results = [run_scenario(spec) for spec in specs]
    else:
        workers = min(jobs, len(specs), os.cpu_count() or 1)
        chunksize = -(-len(specs) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context()) as pool:
            results = list(pool.map(run_scenario, specs, chunksize=chunksize))
    per_point = sweep.trials
    return [
        SweepPointResult(
            point=point,
            params=sweep.point_params(point),
            results=tuple(results[index * per_point : (index + 1) * per_point]),
        )
        for index, point in enumerate(sweep.grid_points())
    ]


def _aggregate_metrics(results: Sequence[ScenarioResult]) -> dict:
    """Mean/std/min/max for every numeric metric shared by all trials."""
    shared = set(results[0].metrics)
    for result in results[1:]:
        shared &= set(result.metrics)
    aggregated = {}
    for key in sorted(shared):
        values = [result.metrics[key] for result in results]
        if not all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in values
        ):
            continue
        summary = summarize(values)
        aggregated[key] = {
            "mean": _round6(summary.mean),
            "std": _round6(summary.std),
            "min": _round6(summary.minimum),
            "max": _round6(summary.maximum),
        }
    return aggregated


def render_sweep_report(
    sweep: SweepSpec,
    point_results: Sequence[SweepPointResult],
    seed: int,
) -> str:
    """The canonical ``repro.sweeps/v1`` JSON document (ends with a newline).

    Byte-deterministic for a fixed campaign/seed/backend:
    keys sorted, points in canonical grid order, floats rounded, and
    nothing execution-dependent (worker count, timings) included.
    """
    all_results = [result for point in point_results for result in point.results]
    points = []
    for point_result in point_results:
        outcomes = [result.success for result in point_result.results]
        rate, (low, high) = success_rate(outcomes)
        points.append(
            {
                "point": dict(point_result.point),
                "params": dict(point_result.params),
                "trials": len(outcomes),
                "successes": point_result.successes,
                "success_rate": _round6(rate),
                "success_ci": [_round6(low), _round6(high)],
                "metrics": _aggregate_metrics(point_result.results),
            }
        )
    document = {
        "schema": SWEEP_SCHEMA,
        "campaign": sweep.name,
        "protocol": sweep.protocol,
        "seed": seed,
        "trials_per_point": sweep.trials,
        "axes": {axis: list(values) for axis, values in sorted(sweep.axes.items())},
        "base_params": dict(sweep.base_params),
        "backends": sorted({result.backend for result in all_results}),
        "point_count": len(points),
        "points": points,
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


# -- built-in campaigns -----------------------------------------------------


def _derive_fault_rate(params: dict) -> dict:
    """Split the swept ``fault_rate`` axis into the component fault rates.

    One scalar axis traces the whole damage spectrum: 40% of the rate
    goes to drops, 30% to truncations, 20% to duplications and 10% to
    bit flips, so the curve mixes fully detectable faults (drop,
    truncate — typed decode errors) with silent ones (flips on the
    unchecksummed point list), which is what makes the measured
    success-rate-vs-corruption curve honest.
    """
    params = dict(params)
    rate = params.pop("fault_rate")
    params["drop_rate"] = round(0.4 * rate, 6)
    params["truncate_rate"] = round(0.3 * rate, 6)
    params["duplicate_rate"] = round(0.2 * rate, 6)
    params["flip_rate"] = round(0.1 * rate, 6)
    return params


def _derive_iblt_load(params: dict) -> dict:
    """Turn the swept ``load`` axis into the driver's set sizes.

    The driver's load is ``2·differences/cells``, so each point plants
    ``round(load·cells/2)`` differences on each side.  The sets share no
    key (``n = differences``): shared keys cancel in the subtraction, so
    they would only add insert work, not change the peel.
    """
    params = dict(params)
    params["differences"] = round(params.pop("load") * params["cells"] / 2)
    params["n"] = params["differences"]
    return params


#: The l1 grid of each swept dimension: ``(side, r2, far_radius)``.  At
#: ``dim = 2`` this is Corollary 4.4's configuration.
_L1_GAP_GRIDS = {2: (4096, 512.0, 700.0), 3: (1024, 384.0, 500.0)}


def _derive_l1_grid(params: dict) -> dict:
    """Give the swept ``dim`` its grid side, ``r2`` and far radius."""
    params = dict(params)
    params["side"], params["r2"], params["far_radius"] = _L1_GAP_GRIDS[params["dim"]]
    return params


def _derive_gap_ratio(params: dict) -> dict:
    """Turn the swept ``ratio`` axis into the dependent gap parameters.

    ``r2 = r1 * ratio`` and the planted far points sit safely beyond
    ``r2`` so the workload stays valid across the whole axis.
    """
    params = dict(params)
    ratio = params.pop("ratio")
    params["r2"] = params["r1"] * ratio
    params["far_radius"] = params["r2"] * 1.25
    return params


def builtin_campaigns() -> dict[str, SweepSpec]:
    """The paper-style curves ``python -m repro.cli sweep`` ships with.

    ``iblt-threshold``
        Decode success against IBLT load (2·differences/cells) for two
        branching factors ``q`` — the XORSAT-core peeling threshold
        (~0.82 of cells at q=3, ~0.77 at q=4; Theorem 2.6).
    ``gap-ratio``
        Communication cost of the Gap Guarantee protocol against the
        distance ratio ``r2/r1`` (smaller gaps need more LSH rounds).
    ``emd-levels``
        Algorithm 1's cost against its resolution-level count, driven by
        tightening the prior distance bound ``D2`` (t = ceil(log2 D2)+1
        levels at D1 = 1).
    ``emd-branching``
        The interval-scaled protocol's cost against its branching factor
        ``b`` (Corollary 3.5's geometric interval ratio): smaller ``b``
        means more parallel Algorithm 1 instances, each cheaper —
        ``[D1, D2]`` splits into ``ceil(log_b(D2/D1))`` intervals.
    ``emd-n`` / ``emd-l2-n``
        Algorithm 1 on Hamming data (Corollary 3.5) and the scaled
        protocol on an l2 grid (Corollary 3.6) against ``n``: success
        rate, ``EMD/EMD_k`` and bits, which should grow only in log n.
    ``gap-n``
        The Gap Guarantee protocol (Theorem 4.2) on Hamming data over
        ``n × k``: guarantee on success and points transmitted.
    ``gap-l1-dim`` / ``gap-lowdim-l1-dim``
        The general and the one-sided low-dimensional Gap protocol
        (Theorem 4.5) on the same l1 grids in dimensions 2 and 3
        (:func:`_derive_l1_grid`; dimension 2 is Corollary 4.4's).
    ``fault-rate``
        Success rate and total recovery bits of the resilient
        reconciliation controller against the per-message fault
        probability (split across drop/truncate/duplicate/flip by
        :func:`_derive_fault_rate`): the measured cost of self-healing
        as the channel degrades.
    ``multiparty-parties``
        Total star-topology cost against the party count: the
        multi-party lift runs one two-party Gap reconciliation per
        non-centre party, so cost should scale near-linearly.
    ``store-churn``
        The sketch store's recompute cost against churn rate × LRU
        capacity: warm hit rate and keys hashed per run as mutation
        pressure rises and residency shrinks — the trade-off curve the
        store's incremental-maintenance path exists to bend.
    ``churn-topology``
        Streaming gossip cost against churn rate × topology × Zipf
        skew: the same event stream replayed over star, ring, tree and
        random regular graphs, itemised per edge.
    """
    campaigns = [
        SweepSpec(
            name="iblt-threshold",
            protocol="iblt-load",
            # Loads from 0.3 to 1.1 keys per cell: well below 0.9·c*_q and
            # well above 1.1·c*_q for both q (c*_3 ≈ 0.818, c*_4 ≈ 0.772).
            axes={"load": (0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.1), "q": (3, 4)},
            base_params={"cells": 300},
            trials=25,
            derive=_derive_iblt_load,
        ),
        SweepSpec(
            name="gap-ratio",
            protocol="gap",
            # dim 96: far points at r2·1.25 = 40 (the ratio-16 end) stay
            # placeable — a random Hamming point sits ~dim/2 from
            # everything, so dim 64 starves the far-point sampler there.
            axes={"ratio": (4, 8, 12, 16)},
            base_params={
                "dim": 96,
                "n": 16,
                "k": 1,
                "r1": 2.0,
                "close_radius": 2.0,
            },
            trials=3,
            derive=_derive_gap_ratio,
        ),
        SweepSpec(
            name="emd-levels",
            protocol="emd",
            axes={"d2": (8, 16, 32, 64, 128)},
            base_params={
                "space": "hamming",
                "dim": 48,
                "n": 16,
                "k": 1,
                "d1": 1,
                "close_radius": 1.0,
                "far_radius": 16.0,
            },
            trials=3,
        ),
        SweepSpec(
            name="emd-branching",
            protocol="emd",
            # b from 2 to 8 over [1, 64]: 6 intervals down to 2, so the
            # curve spans the many-cheap-instances and few-wide-instances
            # regimes of Corollary 3.5.
            axes={"ratio": (2, 3, 4, 8)},
            base_params={
                "scaled": True,
                "space": "hamming",
                "dim": 48,
                "n": 16,
                "k": 1,
                "d1": 1,
                "d2": 64,
                "close_radius": 1.0,
                "far_radius": 16.0,
            },
            trials=3,
        ),
        SweepSpec(
            name="emd-n",
            protocol="emd",
            axes={"n": (16, 32, 64)},
            base_params={
                "space": "hamming",
                "dim": 64,
                "k": 2,
                "close_radius": 1,
                "far_radius": 20,
            },
            trials=3,
        ),
        SweepSpec(
            name="emd-l2-n",
            protocol="emd",
            # D2 defaults to n·diameter, the no-prior-knowledge bound.
            axes={"n": (16, 32)},
            base_params={
                "scaled": True,
                "space": "l2",
                "side": 4096,
                "dim": 2,
                "k": 2,
                "d1": 4.0,
                "ratio": 8.0,
                "close_radius": 3,
                "far_radius": 500,
            },
            trials=3,
        ),
        SweepSpec(
            name="gap-n",
            protocol="gap",
            axes={"n": (32, 64), "k": (2, 4)},
            base_params={
                "dim": 128,
                "r1": 2.0,
                "r2": 32.0,
                "close_radius": 2,
                "far_radius": 40.0,
            },
            trials=3,
        ),
        *(
            SweepSpec(
                name=f"{protocol}-l1-dim",
                protocol=protocol,
                axes={"dim": (2, 3)},
                base_params={"space": "l1", "n": 32, "k": 2, "r1": 4.0, "close_radius": 4},
                trials=3,
                derive=_derive_l1_grid,
            )
            for protocol in ("gap", "gap-lowdim")
        ),
        SweepSpec(
            name="fault-rate",
            protocol="resilient-recon",
            # 0 is the no-fault control point (recovery engages only on
            # the rare small-table 2-core); the top of the axis damages
            # roughly every other message, where recovery is exercised
            # hard but the retry budget still usually lands the union.
            axes={"fault_rate": (0.0, 0.15, 0.3, 0.45)},
            base_params={
                "dim": 40,
                "n": 48,
                "delta": 8,
                "delta_bound": 16,
                "max_attempts": 10,
                "max_escalations": 2,
            },
            trials=6,
            derive=_derive_fault_rate,
        ),
        SweepSpec(
            name="multiparty-parties",
            protocol="multiparty",
            axes={"parties": (2, 3, 4, 5)},
            # dim 96 keeps far points at r2 + 8 placeable for every party
            # count (see the multiparty-star builtin scenario note).
            base_params={"dim": 96, "n": 12, "r1": 2.0, "r2": 32.0},
            trials=3,
        ),
        SweepSpec(
            name="store-churn",
            protocol="store-churn",
            # churn spans gentle (half the base bound decodes first try)
            # to violent (every window escalates); capacity spans
            # thrashing (2 slots per shard for 2 hot sets plus guests)
            # to fully resident.
            axes={"churn": (4, 8, 16), "capacity": (2, 4, 8)},
            base_params={
                "sets": 6,
                "n": 48,
                "windows": 4,
                "guests": 2,
                "shards": 3,
                "delta_bound": 2,
                "max_escalations": 3,
                "max_attempts": 6,
                "key_bits": 55,
            },
            trials=3,
        ),
        SweepSpec(
            name="churn-topology",
            protocol="stream-churn",
            # Gossip cost against churn pressure × graph shape × key
            # skew: the star pays its whole transcript through the hub,
            # ring/tree/random spread it across edges at the price of
            # gossip depth; higher skew concentrates deletes on hot
            # recent keys without changing the per-window delta size.
            axes={
                "topology": ("star", "ring", "tree", "random"),
                "rate": (4, 12),
                "skew": (0.0, 1.5),
            },
            base_params={
                "parties": 5,
                "n": 24,
                "windows": 3,
                "delta_bound": 8,
                "key_bits": 55,
                "k_regular": 2,
            },
            trials=2,
        ),
    ]
    return {campaign.name: campaign for campaign in campaigns}
