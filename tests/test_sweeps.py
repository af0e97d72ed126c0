"""The sweep subsystem: grid expansion, seeds, parallelism, aggregation."""

from __future__ import annotations

import json

import pytest

from repro.analysis.stats import summarize, wilson_interval
from repro.experiments import (
    ScenarioSpec,
    SweepSpec,
    builtin_campaigns,
    render_sweep_report,
    run_scenario,
    run_sweep,
)
from repro.experiments import sweeps
from repro.iblt import molloy_threshold

SEED = 7

#: Small and threshold-straddling: 16 difference keys over 16..48 cells.
TINY_AXES = {"cells": (16, 48), "q": (3, 4)}
TINY_BASE = {"n": 32, "differences": 8}


def tiny_sweep(trials: int = 2, axes=None) -> SweepSpec:
    return SweepSpec(
        name="tiny",
        protocol="iblt-load",
        axes=TINY_AXES if axes is None else axes,
        base_params=TINY_BASE,
        trials=trials,
    )


@pytest.fixture(autouse=True)
def numpy_backend(monkeypatch):
    """Every sweep here runs on the numpy backend unless a test resets it."""
    monkeypatch.setenv("REPRO_BACKEND", "numpy")


@pytest.fixture(scope="module")
def tiny_points():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_BACKEND", "numpy")
        return run_sweep(tiny_sweep(trials=3), seed=SEED)


class TestSpec:
    def test_grid_is_cross_product_in_canonical_order(self):
        points = tiny_sweep().grid_points()
        assert points == [
            {"cells": 16, "q": 3},
            {"cells": 16, "q": 4},
            {"cells": 48, "q": 3},
            {"cells": 48, "q": 4},
        ]

    def test_axis_value_order_is_preserved(self):
        points = tiny_sweep(axes={"cells": (48, 16)}).grid_points()
        assert [p["cells"] for p in points] == [48, 16]

    def test_point_params_merge_and_override(self):
        sweep = tiny_sweep()
        params = sweep.point_params({"cells": 16, "q": 4, "n": 64})
        assert params == {"n": 64, "differences": 8, "cells": 16, "q": 4}

    def test_validation(self):
        with pytest.raises(KeyError):
            SweepSpec("x", "no-such-protocol", axes={"a": (1,)})
        with pytest.raises(ValueError):
            tiny_sweep(trials=0)
        with pytest.raises(ValueError):
            SweepSpec("x", "iblt-load", axes={})
        with pytest.raises(ValueError):
            SweepSpec("x", "iblt-load", axes={"cells": ()})
        with pytest.raises(ValueError):
            run_sweep(tiny_sweep(), jobs=0)


class TestSeedDerivation:
    def test_distinct_points_and_trials_distinct_coins(self):
        """Every (grid point, trial) pair gets its own PublicCoins."""
        specs = tiny_sweep(trials=3).trial_specs(SEED)
        coins = [spec.coins() for spec in specs]
        assert len(specs) == 4 * 3
        assert len({c.seed for c in coins}) == len(coins)
        seeds = [spec.seed for spec in specs]
        assert len(set(seeds)) == len(seeds)

    def test_sweep_seed_changes_every_trial_seed(self):
        sweep = tiny_sweep()
        seeds_a = {spec.seed for spec in sweep.trial_specs(1)}
        seeds_b = {spec.seed for spec in sweep.trial_specs(2)}
        assert not seeds_a & seeds_b

    def test_axis_reordering_is_seed_invariant(self):
        """The grid mapping's insertion order must not matter at all."""
        forward = tiny_sweep(axes={"cells": (16, 48), "q": (3, 4)})
        reversed_axes = tiny_sweep(axes={"q": (3, 4), "cells": (16, 48)})
        assert forward.trial_specs(SEED) == reversed_axes.trial_specs(SEED)

    def test_trial_seed_uses_sorted_point_items(self):
        sweep = tiny_sweep()
        point = {"cells": 16, "q": 3}
        shuffled = {"q": 3, "cells": 16}
        assert sweep.trial_seed(SEED, point, 0) == sweep.trial_seed(SEED, shuffled, 0)
        assert sweep.trial_seed(SEED, point, 0) != sweep.trial_seed(SEED, point, 1)

    def test_trials_run_through_scenario_runner_identically(self, tiny_points):
        """A sweep trial is exactly a ``run_scenario`` call on its spec."""
        first = tiny_points[0].results[0]
        again = run_scenario(first.spec)
        assert again.metrics == first.metrics


class TestRunner:
    def test_groups_by_point_in_grid_order(self, tiny_points):
        sweep = tiny_sweep(trials=3)
        assert [dict(p.point) for p in tiny_points] == sweep.grid_points()
        assert all(len(p.results) == 3 for p in tiny_points)

    def test_trial_specs_are_grouped_by_point(self, tiny_points):
        """Point i owns trial_specs' slice [i * trials, (i + 1) * trials)."""
        sweep = tiny_sweep(trials=3)
        specs = sweep.trial_specs(SEED)
        for index, point in enumerate(tiny_points):
            owned = specs[index * 3 : (index + 1) * 3]
            assert [result.spec for result in point.results] == owned
            assert all(dict(spec.params) == dict(point.params) for spec in owned)

    def test_serial_run_starts_no_pool(self, monkeypatch):
        """``jobs=1`` runs every trial in-process: no pool is opened."""

        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 must not open a process pool")

        monkeypatch.setattr(sweeps, "ProcessPoolExecutor", no_pool)
        points = run_sweep(tiny_sweep(trials=1), seed=SEED, jobs=1)
        assert sum(len(point.results) for point in points) == 4

    def test_overload_is_an_outcome_not_an_error(self, tiny_points):
        """16 difference keys in ~16 cells is far over threshold."""
        by_point = {tuple(sorted(p.point.items())): p for p in tiny_points}
        overloaded = by_point[(("cells", 16), ("q", 4))]
        assert overloaded.successes < len(overloaded.results)

    def test_parallel_report_is_byte_identical_to_serial(self):
        sweep = tiny_sweep(trials=2)
        serial = run_sweep(sweep, seed=SEED, jobs=1)
        parallel = run_sweep(sweep, seed=SEED, jobs=2)
        assert render_sweep_report(sweep, parallel, seed=SEED) == render_sweep_report(
            sweep, serial, seed=SEED
        )

    def test_chunk_sizes_cannot_change_reports(self):
        """Chunking is transport only: every worker count, same bytes."""
        sweep = tiny_sweep(trials=2)
        baseline = render_sweep_report(sweep, run_sweep(sweep, seed=SEED), seed=SEED)
        for jobs in (2, 3, 4):
            report = render_sweep_report(sweep, run_sweep(sweep, seed=SEED, jobs=jobs), seed=SEED)
            assert report == baseline

    def test_pool_is_capped_by_trials_and_cpus(self, monkeypatch):
        """``jobs`` asks for workers; the trial and CPU counts cap them,
        and the chunk size still derives from ``jobs``.  The pool here is
        an in-process stand-in, so no process starts."""
        calls = []

        class InProcessPool:
            def __init__(self, max_workers, **kwargs):
                calls.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def map(self, fn, iterable, chunksize):
                calls.append(chunksize)
                return map(fn, iterable)

        monkeypatch.setattr(sweeps, "ProcessPoolExecutor", InProcessPool)
        sweep = tiny_sweep(trials=4)  # 16 trials
        serial = render_sweep_report(sweep, run_sweep(sweep, seed=SEED), seed=SEED)
        for cpus, jobs, expected in (
            (64, 10_000, [16, 1]),  # capped by the trial count
            (3, 10_000, [3, 1]),  # capped by the CPU count
            (None, 10_000, [1, 1]),  # unknown CPU count: one worker
            (64, 2, [2, 2]),  # ceil(16 / (4 * 2)) trials per chunk
        ):
            monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
            calls.clear()
            points = run_sweep(sweep, seed=SEED, jobs=jobs)
            assert calls == expected
            assert render_sweep_report(sweep, points, seed=SEED) == serial

    def test_backend_recorded(self, tiny_points):
        assert all(result.backend == "numpy" for point in tiny_points for result in point.results)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_runners_record_the_env_backend(self, monkeypatch, backend):
        """``REPRO_BACKEND`` is the one switch: ``run_scenario`` and a
        pool's forked workers both run on, and record, what it names."""
        monkeypatch.setenv("REPRO_BACKEND", backend)
        sweep = tiny_sweep(trials=1)
        assert run_scenario(sweep.trial_specs(SEED)[0]).backend == backend
        points = run_sweep(sweep, seed=SEED, jobs=2)
        assert {result.backend for point in points for result in point.results} == {backend}
        document = json.loads(render_sweep_report(sweep, points, seed=SEED))
        assert document["backends"] == [backend]

    def test_each_parallel_call_forks_on_the_current_backend(self, monkeypatch):
        """Every ``jobs > 1`` call forks fresh workers, so switching
        ``REPRO_BACKEND`` between two calls switches what they record."""
        sweep = tiny_sweep(trials=1)
        recorded = []
        for backend in ("numpy", "python"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            points = run_sweep(sweep, seed=SEED, jobs=2)
            recorded.append({result.backend for point in points for result in point.results})
        assert recorded == [{"numpy"}, {"python"}]


class TestReport:
    def test_schema_and_determinism(self, tiny_points):
        sweep = tiny_sweep(trials=3)
        first = render_sweep_report(sweep, tiny_points, seed=SEED)
        second = render_sweep_report(sweep, tiny_points, seed=SEED)
        assert first == second
        assert first.endswith("\n")
        document = json.loads(first)
        assert document["schema"] == "repro.sweeps/v1"
        assert document["campaign"] == "tiny"
        assert document["protocol"] == "iblt-load"
        assert document["seed"] == SEED
        assert document["trials_per_point"] == 3
        assert document["axes"] == {"cells": [16, 48], "q": [3, 4]}
        assert document["point_count"] == 4
        assert document["backends"] == ["numpy"]
        for entry in document["points"]:
            assert set(entry) == {
                "point", "params", "trials", "successes",
                "success_rate", "success_ci", "metrics",
            }

    def test_aggregates_match_analysis_stats(self, tiny_points):
        sweep = tiny_sweep(trials=3)
        document = json.loads(render_sweep_report(sweep, tiny_points, seed=SEED))
        for entry, point in zip(document["points"], tiny_points):
            successes = point.successes
            low, high = wilson_interval(successes, len(point.results))
            assert entry["successes"] == successes
            assert entry["success_rate"] == round(successes / len(point.results), 6)
            assert entry["success_ci"] == [round(low, 6), round(high, 6)]
            bits = summarize([r.metrics["bits"] for r in point.results])
            assert entry["metrics"]["bits"]["mean"] == round(bits.mean, 6)
            assert entry["metrics"]["bits"]["std"] == round(bits.std, 6)
            # Booleans (success) aggregate as a rate, never as a Summary.
            assert "success" not in entry["metrics"]


class TestBuiltinCampaigns:
    def test_all_thirteen_exist(self):
        campaigns = builtin_campaigns()
        assert set(campaigns) == {
            "iblt-threshold",
            "gap-ratio",
            "emd-levels",
            "emd-branching",
            "emd-n",
            "emd-l2-n",
            "gap-n",
            "gap-l1-dim",
            "gap-lowdim-l1-dim",
            "fault-rate",
            "multiparty-parties",
            "store-churn",
            "churn-topology",
        }
        for name, campaign in campaigns.items():
            assert campaign.name == name
            assert campaign.trials >= 1
            assert campaign.grid_points()

    @pytest.mark.parametrize("name", list(builtin_campaigns()))
    def test_pooled_report_is_byte_identical_to_serial(self, name):
        """Each campaign at its shipped trial count: a 2-worker pool and
        the serial run render the same report."""
        campaign = builtin_campaigns()[name]
        serial = render_sweep_report(campaign, run_sweep(campaign, seed=SEED, jobs=1), seed=SEED)
        pooled = render_sweep_report(campaign, run_sweep(campaign, seed=SEED, jobs=2), seed=SEED)
        assert pooled == serial

    def test_gap_ratio_derives_dependent_params(self):
        campaign = builtin_campaigns()["gap-ratio"]
        params = campaign.point_params({"ratio": 8})
        assert params["r2"] == params["r1"] * 8
        assert params["far_radius"] > params["r2"]
        assert "ratio" not in params

    def test_emd_levels_axis_controls_level_count(self):
        """d2 is exactly the level-count knob (t = ceil(log2 d2) + 1)."""
        campaign = builtin_campaigns()["emd-levels"]
        spec = campaign.trial_specs(SEED)[0]
        assert spec.params["d2"] == 8
        assert spec.params["d1"] == 1

    def test_iblt_threshold_straddles_the_threshold(self):
        """Every q has loads at or below 0.9·c*_q and at or above
        1.1·c*_q, and each point plants 2·differences = load·cells keys."""
        campaign = builtin_campaigns()["iblt-threshold"]
        for q in campaign.axes["q"]:
            loads = []
            for point in campaign.grid_points():
                if point["q"] == q:
                    params = campaign.point_params(point)
                    assert 2 * params["differences"] == round(point["load"] * params["cells"])
                    loads.append(point["load"])
            assert min(loads) <= 0.9 * molloy_threshold(q) < 1.1 * molloy_threshold(q) <= max(loads)

    def test_campaign_trial_is_a_plain_scenario(self):
        """Campaign trials stay runnable outside the sweep machinery."""
        campaign = builtin_campaigns()["iblt-threshold"]
        spec = campaign.trial_specs(SEED)[0]
        result = run_scenario(spec)
        assert isinstance(spec, ScenarioSpec)
        assert result.metrics["true_differences"] == 90
        assert result.metrics["load"] == 0.3

    def test_l1_gap_campaigns_share_their_grids(self):
        """The general and low-dimensional Gap campaigns sweep the same
        l1 grids; their ``dim = 2`` point is Corollary 4.4's."""
        general = builtin_campaigns()["gap-l1-dim"]
        lowdim = builtin_campaigns()["gap-lowdim-l1-dim"]
        assert (general.protocol, lowdim.protocol) == ("gap", "gap-lowdim")
        for point in general.grid_points():
            assert general.point_params(point) == lowdim.point_params(point)
        cor44 = general.point_params({"dim": 2})
        assert (cor44["side"], cor44["r1"], cor44["r2"]) == (4096, 4.0, 512.0)

    def test_emd_branching_rides_the_scaled_wrapper(self):
        """The branching-factor axis drives the interval-scaled protocol:
        the interval count must shrink as the ratio grows."""
        campaign = builtin_campaigns()["emd-branching"]
        assert campaign.base_params["scaled"] is True
        first_trials = campaign.trial_specs(SEED)[:: campaign.trials]
        specs = {spec.params["ratio"]: spec for spec in first_trials}
        intervals = {}
        for ratio in (2, 8):
            result = run_scenario(specs[ratio])
            assert result.success
            intervals[ratio] = result.metrics["intervals"]
        assert intervals[2] > intervals[8]

    def test_multiparty_campaign_cost_grows_with_parties(self):
        campaign = builtin_campaigns()["multiparty-parties"]
        first_trials = campaign.trial_specs(SEED)[:: campaign.trials]
        specs = {spec.params["parties"]: spec for spec in first_trials}
        bits = {}
        for parties in (2, 4):
            result = run_scenario(specs[parties])
            assert result.success
            assert result.metrics["parties"] == parties
            bits[parties] = result.metrics["bits"]
        assert bits[4] > bits[2]
