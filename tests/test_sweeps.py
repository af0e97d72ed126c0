"""The sweep subsystem: grid expansion, seeds, parallelism, aggregation."""

from __future__ import annotations

import json

import pytest

from repro.analysis.stats import summarize, wilson_interval
from repro.experiments import (
    ScenarioRunner,
    ScenarioSpec,
    SweepRunner,
    SweepSpec,
    builtin_campaigns,
    render_sweep_report,
)
from repro.experiments.sweeps import with_trials

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
        return SweepRunner().run(tiny_sweep(trials=3), seed=SEED)


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
            SweepRunner(jobs=0)

    def test_with_trials(self):
        assert with_trials(tiny_sweep(), 9).trials == 9
        assert tiny_sweep().trials == 2


class TestSeedDerivation:
    def test_distinct_points_and_trials_distinct_coins(self):
        """Every (grid point, trial) pair gets its own PublicCoins."""
        trials = tiny_sweep(trials=3).trial_specs(SEED)
        coins = [trial.spec.coins() for trial in trials]
        assert len(trials) == 4 * 3
        assert len({c.seed for c in coins}) == len(coins)
        seeds = [trial.spec.seed for trial in trials]
        assert len(set(seeds)) == len(seeds)

    def test_sweep_seed_changes_every_trial_seed(self):
        sweep = tiny_sweep()
        seeds_a = {t.spec.seed for t in sweep.trial_specs(1)}
        seeds_b = {t.spec.seed for t in sweep.trial_specs(2)}
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
        """A sweep trial is exactly a ScenarioRunner run of its spec."""
        first = tiny_points[0].results[0]
        again = ScenarioRunner().run(first.spec)
        assert again.metrics == first.metrics


class TestRunner:
    def test_groups_by_point_in_grid_order(self, tiny_points):
        sweep = tiny_sweep(trials=3)
        assert [dict(p.point) for p in tiny_points] == sweep.grid_points()
        assert all(len(p.results) == 3 for p in tiny_points)

    def test_overload_is_an_outcome_not_an_error(self, tiny_points):
        """16 difference keys in ~16 cells is far over threshold."""
        by_point = {tuple(sorted(p.point.items())): p for p in tiny_points}
        overloaded = by_point[(("cells", 16), ("q", 4))]
        assert overloaded.successes < len(overloaded.results)

    def test_parallel_report_is_byte_identical_to_serial(self):
        sweep = tiny_sweep(trials=2)
        serial = SweepRunner(jobs=1).run(sweep, seed=SEED)
        with SweepRunner(jobs=2) as runner:
            parallel = runner.run(sweep, seed=SEED)
        assert render_sweep_report(sweep, parallel, seed=SEED) == render_sweep_report(
            sweep, serial, seed=SEED
        )

    def test_persistent_pool_survives_campaigns(self):
        """One pool serves consecutive campaigns and every chunking."""
        first = tiny_sweep(trials=2)
        second = tiny_sweep(trials=3)
        serial = SweepRunner(jobs=1)
        with SweepRunner(jobs=2) as runner:
            assert runner._pool is None  # lazy until the first parallel run
            results_first = runner.run(first, seed=SEED)
            pool = runner._pool
            assert pool is not None
            results_second = runner.run(second, seed=SEED)
            assert runner._pool is pool  # reused, not rebuilt
            for sweep, results in ((first, results_first), (second, results_second)):
                assert render_sweep_report(
                    sweep, results, seed=SEED
                ) == render_sweep_report(sweep, serial.run(sweep, seed=SEED), seed=SEED)
        assert runner._pool is None  # context exit closed it

    def test_chunk_sizes_cannot_change_reports(self):
        """Chunking is transport only: every worker count, same bytes."""
        sweep = tiny_sweep(trials=2)
        baseline = render_sweep_report(
            sweep, SweepRunner(jobs=1).run(sweep, seed=SEED), seed=SEED
        )
        for jobs in (2, 3, 4):
            with SweepRunner(jobs=jobs) as runner:
                report = render_sweep_report(
                    sweep, runner.run(sweep, seed=SEED), seed=SEED
                )
            assert report == baseline

    def test_chunk_trials_validated(self):
        assert SweepRunner(jobs=2)._chunk_size(16) == 2
        assert SweepRunner(jobs=4)._chunk_size(1) == 1

    def test_close_is_idempotent(self):
        runner = SweepRunner(jobs=2)
        runner.run(tiny_sweep(trials=2), seed=SEED)
        runner.close()
        runner.close()
        # and a closed runner can lazily re-open on the next run
        runner.run(tiny_sweep(trials=2), seed=SEED)
        runner.close()

    def test_backend_recorded(self, tiny_points):
        assert all(
            result.backend == "numpy"
            for point in tiny_points
            for result in point.results
        )

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_runners_record_the_env_backend(self, monkeypatch, backend):
        """``REPRO_BACKEND`` is the one switch: the scenario runner and a
        pool's forked workers both run on, and record, what it names."""
        monkeypatch.setenv("REPRO_BACKEND", backend)
        sweep = tiny_sweep(trials=1)
        assert ScenarioRunner().run(sweep.trial_specs(SEED)[0].spec).backend == backend
        with SweepRunner(jobs=2) as runner:
            points = runner.run(sweep, seed=SEED)
        assert {result.backend for point in points for result in point.results} == {backend}
        document = json.loads(render_sweep_report(sweep, points, seed=SEED))
        assert document["backends"] == [backend]


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
    def test_all_eight_exist(self):
        campaigns = builtin_campaigns()
        assert set(campaigns) == {
            "iblt-threshold",
            "gap-ratio",
            "emd-levels",
            "emd-branching",
            "fault-rate",
            "multiparty-parties",
            "store-churn",
            "churn-topology",
        }
        for name, campaign in campaigns.items():
            assert campaign.name == name
            assert campaign.trials >= 1
            assert campaign.grid_points()

    def test_gap_ratio_derives_dependent_params(self):
        campaign = builtin_campaigns()["gap-ratio"]
        params = campaign.point_params({"ratio": 8})
        assert params["r2"] == params["r1"] * 8
        assert params["far_radius"] > params["r2"]
        assert "ratio" not in params

    def test_emd_levels_axis_controls_level_count(self):
        """d2 is exactly the level-count knob (t = ceil(log2 d2) + 1)."""
        campaign = builtin_campaigns()["emd-levels"]
        trial = campaign.trial_specs(SEED)[0]
        assert trial.spec.params["d2"] == 8
        assert trial.spec.params["d1"] == 1

    def test_iblt_threshold_straddles_the_threshold(self):
        campaign = builtin_campaigns()["iblt-threshold"]
        loads = sorted(
            2 * campaign.base_params["differences"] / point["cells"]
            for point in campaign.grid_points()
        )
        assert loads[0] < 0.6 < 0.82 < loads[-1]

    def test_campaign_trial_is_a_plain_scenario(self):
        """Campaign trials stay runnable outside the sweep machinery."""
        campaign = builtin_campaigns()["iblt-threshold"]
        trial = campaign.trial_specs(SEED)[0]
        result = ScenarioRunner().run(trial.spec)
        assert isinstance(trial.spec, ScenarioSpec)
        assert result.metrics["true_differences"] == 64

    def test_emd_branching_rides_the_scaled_wrapper(self):
        """The branching-factor axis drives the interval-scaled protocol:
        the interval count must shrink as the ratio grows."""
        campaign = builtin_campaigns()["emd-branching"]
        assert campaign.base_params["scaled"] is True
        trials = {
            trial.point["ratio"]: trial
            for trial in campaign.trial_specs(SEED)
            if trial.trial_index == 0
        }
        intervals = {}
        for ratio in (2, 8):
            result = ScenarioRunner().run(trials[ratio].spec)
            assert result.success
            intervals[ratio] = result.metrics["intervals"]
        assert intervals[2] > intervals[8]

    def test_multiparty_campaign_cost_grows_with_parties(self):
        campaign = builtin_campaigns()["multiparty-parties"]
        trials = {
            trial.point["parties"]: trial
            for trial in campaign.trial_specs(SEED)
            if trial.trial_index == 0
        }
        bits = {}
        for parties in (2, 4):
            result = ScenarioRunner().run(trials[parties].spec)
            assert result.success
            assert result.metrics["parties"] == parties
            bits[parties] = result.metrics["bits"]
        assert bits[4] > bits[2]
