"""The scenario harness: determinism, backend parity, report schema."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.experiments import (
    DRIVERS,
    ScenarioSpec,
    builtin_scenarios,
    render_report,
    run_scenario,
)
from repro.experiments import scenarios
from repro.experiments.scenarios import _space
from repro.metric import GridSpace, HammingSpace, emd_k

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
        return [run_scenario(spec) for spec in builtin_scenarios(SEED)]


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
            run_scenario(ScenarioSpec("nope", "no-such-protocol"))


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
        for previous in numpy_results[:3]:
            again = run_scenario(previous.spec)
            assert again.metrics == previous.metrics

    def test_cross_backend_metrics_identical(self, numpy_results, monkeypatch):
        by_name = {r.spec.name: r for r in numpy_results}
        monkeypatch.setenv("REPRO_BACKEND", "python")
        for spec in builtin_scenarios(SEED):
            if spec.name not in CROSS_BACKEND:
                continue
            python_result = run_scenario(spec)
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

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_matches_committed_golden(self, numpy_results, monkeypatch, backend):
        """Each backend's in-repo golden pins its full report byte-for-byte.

        The report is what ``scenarios --seed 7`` writes, so a rerun that
        drifts, or a scenario that stops decoding, fails here.
        """
        results = numpy_results
        if backend != "numpy":
            monkeypatch.setenv("REPRO_BACKEND", backend)
            results = [run_scenario(spec) for spec in builtin_scenarios(SEED)]
        golden = GOLDENS / f"scenarios-{backend}.json"
        report = render_report(results, seed=SEED)
        assert report == golden.read_text(), (
            "scenario report drifted from the golden; if the change is "
            f"intentional, re-baseline with: REPRO_BACKEND={backend} PYTHONPATH=src "
            f"python -m repro.cli scenarios --seed {SEED} --output {golden}"
        )

    def test_timings_are_opt_in(self, numpy_results):
        document = json.loads(render_report(numpy_results, seed=SEED, include_timings=True))
        assert all("wall_time_s" in entry for entry in document["scenarios"])


class TestEngagement:
    """The paths the scenarios exist to exercise really ran.

    A golden re-baseline pins whatever a run produced; these checks stop
    one from accepting a run whose recovery or cache never engaged.
    """

    @staticmethod
    def _metrics(results, name):
        (result,) = [r for r in results if r.spec.name == name]
        assert result.success
        return result.metrics

    def test_recovery_engaged_under_faults(self, numpy_results):
        metrics = self._metrics(numpy_results, "resilient-recon-faulty")
        assert metrics["union_reached"]
        assert metrics["attempts"] >= 2
        assert metrics["rerequests"] >= 1
        assert metrics["breaker_tripped"]
        assert metrics["recovery_bits"] > 0
        assert metrics["fault_events"] >= 1

    def test_store_cache_engaged(self, numpy_results):
        metrics = self._metrics(numpy_results, "store-churn-lru")
        for counter in (
            "store_hits",
            "store_hit_rate",
            "rebuilds_avoided",
            "incremental_refreshes",
            "evictions",
        ):
            assert metrics[counter] > 0, counter

    @pytest.mark.parametrize("topology", ["star", "ring", "tree", "random"])
    def test_every_topology_converged_warm_equals_cold(self, numpy_results, topology):
        metrics = self._metrics(numpy_results, "stream-churn-gossip")
        assert metrics[f"converged_{topology}"]
        assert metrics[f"matches_cold_rebuild_{topology}"]


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

    def test_emd_k_is_the_metric_on_the_drivers_workload(self):
        """``emd_k`` is ``repro.metric.emd_k`` on the workload the driver
        itself draws from the spec's generator."""
        (spec,) = [s for s in builtin_scenarios(SEED) if s.name == "emd-hamming"]
        space = _space(spec.params)
        workload = scenarios._replica_pair(space, spec.params, spec.rng())
        expected = emd_k(space, workload.alice, workload.bob, spec.params["k"])
        metrics = run_scenario(spec).metrics
        assert metrics["emd_k"] == round(expected, 6)
        assert metrics["emd_k"] <= metrics["emd_before"]

    def test_space_rule_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown space"):
            _space({"space": "linf", "dim": 2, "side": 8})

    def test_general_gap_rejects_l2(self):
        spec = ScenarioSpec(
            "gap-l2",
            "gap",
            SEED,
            {
                "space": "l2",
                "dim": 2,
                "side": 64,
                "n": 8,
                "k": 1,
                "close_radius": 1.0,
                "far_radius": 40.0,
                "r1": 2.0,
                "r2": 32.0,
            },
        )
        with pytest.raises(ValueError, match="hamming or l1"):
            run_scenario(spec)

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
        assert run_scenario(spec).success
        assert bounds == [factor * 5]
