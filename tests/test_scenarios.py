"""The scenario harness: determinism, backend parity, report schema."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.experiments import (
    DRIVERS,
    ScenarioRunner,
    ScenarioSpec,
    builtin_scenarios,
    render_report,
)
from repro.experiments import scenarios
from repro.experiments.scenarios import _space
from repro.metric import GridSpace, HammingSpace

SEED = 7

#: A cheap cross-backend subset (the python backend is ~10x slower on the
#: sketch-heavy scenarios; these cover multiset, strata and XOR tables).
CROSS_BACKEND = (
    "setsofsets-patch",
    "strata-estimate",
    "exact-iblt-hamming",
    "exact-cpi-hamming",
    "iblt-load-peel",
)

GOLDENS = Path(__file__).parent / "goldens"


@pytest.fixture(scope="module")
def numpy_results():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_BACKEND", "numpy")
        return ScenarioRunner().run_all(builtin_scenarios(SEED))


class TestSpec:
    def test_builtin_matrix_covers_every_driver(self):
        protocols = {spec.protocol for spec in builtin_scenarios(0)}
        assert protocols == set(DRIVERS)

    def test_names_are_unique(self):
        names = [spec.name for spec in builtin_scenarios(0)]
        assert len(names) == len(set(names))

    def test_rng_depends_on_seed_and_name(self):
        a = ScenarioSpec("x", "gap", seed=1).rng().integers(0, 1 << 30)
        b = ScenarioSpec("x", "gap", seed=2).rng().integers(0, 1 << 30)
        c = ScenarioSpec("y", "gap", seed=1).rng().integers(0, 1 << 30)
        same = ScenarioSpec("x", "gap", seed=1).rng().integers(0, 1 << 30)
        assert a == same
        assert len({int(a), int(b), int(c)}) == 3

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            ScenarioRunner().run(ScenarioSpec("nope", "no-such-protocol"))


class TestRunner:
    def test_matrix_succeeds_on_numpy(self, numpy_results):
        failures = [r.spec.name for r in numpy_results if not r.success]
        assert failures == []
        assert all(r.backend == "numpy" for r in numpy_results)

    def test_metrics_are_json_safe(self, numpy_results):
        for result in numpy_results:
            round_tripped = json.loads(json.dumps(result.metrics))
            assert round_tripped == dict(result.metrics)
            assert result.metrics["bits"] > 0
            assert result.metrics["rounds"] >= 1
            assert result.wall_time_s >= 0.0

    def test_rerun_is_identical(self, numpy_results, monkeypatch):
        """Same seed, same backend: metrics (not timings) repeat exactly."""
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        runner = ScenarioRunner()
        for previous in numpy_results[:3]:
            again = runner.run(previous.spec)
            assert again.metrics == previous.metrics

    def test_cross_backend_metrics_identical(self, numpy_results, monkeypatch):
        by_name = {r.spec.name: r for r in numpy_results}
        monkeypatch.setenv("REPRO_BACKEND", "python")
        runner = ScenarioRunner()
        for spec in builtin_scenarios(SEED):
            if spec.name not in CROSS_BACKEND:
                continue
            python_result = runner.run(spec)
            assert python_result.backend == "python"
            assert python_result.metrics == by_name[spec.name].metrics


class TestReport:
    def test_byte_identical_across_renders(self, numpy_results):
        first = render_report(numpy_results, seed=SEED)
        second = render_report(numpy_results, seed=SEED)
        assert first == second
        assert first.endswith("\n")

    def test_schema(self, numpy_results):
        document = json.loads(render_report(numpy_results, seed=SEED))
        assert document["schema"] == "repro.scenarios/v1"
        assert document["seed"] == SEED
        assert document["backends"] == ["numpy"]
        assert document["failures"] == []
        assert document["scenario_count"] == len(numpy_results)
        for entry in document["scenarios"]:
            assert set(entry) == {"name", "protocol", "seed", "backend", "params", "metrics"}
            assert "wall_time_s" not in entry

    def test_matches_committed_golden(self, numpy_results):
        """The in-repo golden pins the full report byte-for-byte.

        CI's goldens-drift job enforces the same invariant through the
        CLI; this test catches drift at ``pytest`` time.
        """
        golden = GOLDENS / "scenarios-numpy.json"
        report = render_report(numpy_results, seed=SEED)
        assert report == golden.read_text(), (
            "scenario report drifted from the golden; if the change is "
            "intentional, re-baseline with: REPRO_BACKEND=numpy PYTHONPATH=src "
            f"python -m repro.cli scenarios --seed {SEED} --output {golden}"
        )

    def test_timings_are_opt_in(self, numpy_results):
        document = json.loads(
            render_report(numpy_results, seed=SEED, include_timings=True)
        )
        assert all("wall_time_s" in entry for entry in document["scenarios"])


class TestDrivers:
    """One driver per protocol family; each family's methods differ only in
    how the protocol is built."""

    def test_gap_constructions_share_one_driver(self):
        assert DRIVERS["gap"] is DRIVERS["gap-lowdim"]

    def test_exact_methods_share_one_driver(self):
        assert DRIVERS["exact-iblt"] is DRIVERS["exact-auto"] is DRIVERS["exact-cpi"]

    @pytest.mark.parametrize(
        "params,kind,p,diameter",
        [
            ({"space": "hamming", "dim": 40}, HammingSpace, None, 40.0),
            ({"space": "l1", "dim": 2, "side": 64}, GridSpace, 1.0, 126.0),
            ({"space": "l2", "dim": 2, "side": 64}, GridSpace, 2.0, 63 * math.sqrt(2)),
            ({"dim": 24}, HammingSpace, None, 24.0),
        ],
        ids=["hamming", "l1", "l2", "default"],
    )
    def test_space_rule(self, params, kind, p, diameter):
        space = _space(params)
        assert isinstance(space, kind)
        if p is not None:
            assert space.p == p
        assert space.diameter == pytest.approx(diameter)

    def test_space_rule_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown space"):
            _space({"space": "linf", "dim": 2, "side": 8})

    def test_general_gap_rejects_l2(self):
        spec = ScenarioSpec("gap-l2", "gap", SEED, {
            "space": "l2", "dim": 2, "side": 64, "n": 8, "k": 1,
            "close_radius": 1.0, "far_radius": 40.0, "r1": 2.0, "r2": 32.0,
        })
        with pytest.raises(ValueError, match="hamming or l1"):
            ScenarioRunner().run(spec)

    @pytest.mark.parametrize(
        "protocol,name,factor",
        [("exact-iblt", "exact_iblt_reconcile", 4), ("exact-cpi", "cpi_reconcile", 2)],
    )
    def test_exact_bound_per_method(self, monkeypatch, protocol, name, factor):
        """IBLT is sized from ``4·delta``, CPI from ``2·delta``."""
        real = getattr(scenarios, name)
        bounds = []

        def recording(space, alice, bob, bound, coins):
            bounds.append(bound)
            return real(space, alice, bob, bound, coins)

        monkeypatch.setattr(scenarios, name, recording)
        spec = ScenarioSpec("bound", protocol, SEED, {"dim": 40, "n": 60, "delta": 5})
        assert ScenarioRunner().run(spec).success
        assert bounds == [factor * 5]
