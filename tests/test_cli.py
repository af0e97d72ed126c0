"""Tests for the command-line driver."""

from __future__ import annotations

import argparse
import json
import math
from types import SimpleNamespace

import pytest

from repro import cli
from repro.analysis import format_cell
from repro.cli import build_parser, main
from repro.experiments import ScenarioRunner, ScenarioSpec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_emd_defaults(self):
        args = build_parser().parse_args(["emd"])
        assert args.space == "hamming"
        assert args.n == 32

    def test_gap_options(self):
        args = build_parser().parse_args(
            ["gap", "--space", "l1", "--r1", "4", "--r2", "512", "--lowdim"]
        )
        assert args.lowdim
        assert args.r2 == 512.0

    def test_exact_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exact", "--method", "bogus"])


def _subparsers(parser):
    """The ``{name: subparser}`` choices of a parser's subcommand action."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _options(parser):
    return {flag for action in parser._actions for flag in action.option_strings}


_COMMON = {"--space", "--dim", "--side", "--n", "--k", "--close-radius", "--far-radius",
           "--seed"}

#: Every subcommand's flags (``-h``/``--help`` aside): the CLI's option surface.
OPTION_SURFACE = {
    ("emd",): _COMMON,
    ("gap",): _COMMON | {"--r1", "--r2", "--lowdim"},
    ("exact",): {"--method", "--dim", "--n", "--delta", "--seed"},
    ("scenarios",): {"--seed", "--only", "--list", "--timings", "--output"},
    ("sweep",): {"--campaign", "--seed", "--jobs", "--trials", "--list", "--output",
                 "--output-dir"},
    ("serve",): {"--host", "--port", "--store", "--store-shards", "--store-capacity",
                 "--seed"},
    ("client",): {"--host", "--port", "--sessions", "--seed", "--protocol", "--dim", "--n",
                  "--delta", "--delta-bound", "--max-attempts", "--max-escalations",
                  "--loss-rate", "--corrupt-rate", "--duplicate-rate", "--reorder-rate",
                  "--base-latency-ms", "--jitter-ms", "--timeout", "--output"},
    ("stream", "record"): {"--output", "--seed", "--n", "--windows", "--rate", "--skew",
                           "--insert-fraction", "--sources", "--key-bits"},
    ("stream", "replay"): {"--input", "--topology", "--parties", "--branching",
                           "--k-regular", "--delta-bound", "--q", "--max-attempts", "--seed",
                           "--output"},
}


class TestOptionSurface:
    def test_subcommands(self):
        parser = build_parser()
        assert list(_subparsers(parser)) == [
            "emd", "gap", "exact", "scenarios", "sweep", "serve", "client", "stream",
        ]
        assert list(_subparsers(_subparsers(parser)["stream"])) == ["record", "replay"]

    @pytest.mark.parametrize("path", list(OPTION_SURFACE), ids=" ".join)
    def test_subcommand_options(self, path):
        parser = build_parser()
        for name in path:
            parser = _subparsers(parser)[name]
        assert _options(parser) - {"-h", "--help"} == OPTION_SURFACE[path]


@pytest.fixture
def recorded_specs(monkeypatch):
    """Specs the protocol commands hand to the scenario runner (not run)."""
    specs = []

    class RecordingRunner:
        def run(self, spec):
            specs.append(spec)
            return SimpleNamespace(metrics={"success": True}, success=True)

    monkeypatch.setattr(cli, "ScenarioRunner", RecordingRunner)
    return specs


class TestSpecMapping:
    """Flags -> the ad-hoc scenario spec, without running the protocol."""

    @pytest.mark.parametrize(
        "argv,far_radius",
        [
            (["emd"], 16.0),  # hamming 64: a quarter of the diameter
            (["emd", "--dim", "16"], 8.0),  # never under 8
            (["emd", "--space", "l1", "--dim", "2"], 2 * 4095 / 4),
            (["emd", "--space", "l2", "--dim", "2"], 4095 * math.sqrt(2) / 4),
            (["gap", "--r2", "40"], 50.0),  # gap: beyond r2
            (["emd", "--far-radius", "5"], 5.0),
        ],
        ids=["hamming", "floor", "l1", "l2", "gap", "explicit"],
    )
    def test_far_radius_default(self, recorded_specs, argv, far_radius):
        assert main(argv) == 0
        (spec,) = recorded_specs
        assert spec.params["far_radius"] == pytest.approx(far_radius)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--space", "hamming", "--lowdim"],
            ["gap", "--space", "l2"],
        ],
        ids=["lowdim-hamming", "general-l2"],
    )
    def test_refused_input_runs_nothing(self, recorded_specs, argv):
        assert main(argv) == 2
        assert recorded_specs == []

    def test_lowdim_on_l2_runs_gap_lowdim(self, recorded_specs):
        assert main(["gap", "--space", "l2", "--dim", "2", "--lowdim"]) == 0
        (spec,) = recorded_specs
        assert (spec.name, spec.protocol, spec.params["space"]) == ("gap", "gap-lowdim", "l2")


class TestCommands:
    def test_emd_runs(self, capsys):
        code = main(["emd", "--dim", "48", "--n", "16", "--k", "1",
                     "--close-radius", "1", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "EMD protocol" in out
        assert "emd_after" in out

    def test_gap_lowdim_runs(self, capsys):
        code = main([
            "gap", "--space", "l1", "--side", "4096", "--dim", "2",
            "--n", "24", "--k", "2", "--r1", "4", "--r2", "512",
            "--close-radius", "4", "--far-radius", "700", "--lowdim",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "gap_guarantee_holds | yes" in out

    def test_gap_hamming_runs(self, capsys):
        code = main([
            "gap", "--space", "hamming", "--dim", "96", "--n", "16",
            "--k", "1", "--r1", "2", "--r2", "32", "--seed", "5",
        ])
        assert code == 0
        assert "Gap Guarantee" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["iblt", "auto", "cpi"])
    def test_exact_methods_run(self, capsys, method):
        code = main(["exact", "--method", method, "--n", "60", "--delta", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "union_reached | yes" in out

    def test_gap_l1_general_runs(self, capsys):
        """The general protocol on an L1 grid (grid MLSH, not Theorem 4.5)."""
        code = main([
            "gap", "--space", "l1", "--side", "4096", "--dim", "2",
            "--n", "24", "--k", "2", "--r1", "4", "--r2", "512",
            "--close-radius", "4", "--far-radius", "700",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[gap]" in out
        assert "gap_guarantee_holds | yes" in out

    def test_lowdim_requires_grid(self, capsys):
        code = main(["gap", "--space", "hamming", "--lowdim", "--n", "8", "--k", "1"])
        assert code == 2

    def test_general_gap_rejects_l2(self, capsys):
        code = main(["gap", "--space", "l2", "--n", "8", "--k", "1"])
        assert code == 2
        assert "hamming or l1" in capsys.readouterr().err


def _printed_rows(out):
    """``(label, value)`` rows of a printed two-column metric table."""
    lines = out.strip().splitlines()
    assert lines[1].split() == ["metric", "|", "value"]
    return [tuple(cell.strip() for cell in line.split(" | ")) for line in lines[3:]]


#: CLI argv -> the scenario spec the command must run.
PARITY = [
    (
        ["emd", "--dim", "48", "--n", "16", "--k", "1", "--close-radius", "1",
         "--seed", "3"],
        ScenarioSpec("emd", "emd", 3, {
            "space": "hamming", "dim": 48, "side": 4096, "n": 16, "k": 1,
            "close_radius": 1.0, "far_radius": 12.0,
        }),
    ),
    (
        ["gap", "--dim", "96", "--n", "16", "--k", "1", "--r1", "2", "--r2", "32",
         "--seed", "5"],
        ScenarioSpec("gap", "gap", 5, {
            "space": "hamming", "dim": 96, "side": 4096, "n": 16, "k": 1,
            "close_radius": 2.0, "far_radius": 40.0, "r1": 2.0, "r2": 32.0,
        }),
    ),
    (
        ["gap", "--space", "l1", "--dim", "2", "--n", "24", "--k", "2", "--r1", "4",
         "--r2", "512", "--close-radius", "4", "--far-radius", "700", "--lowdim"],
        ScenarioSpec("gap", "gap-lowdim", 0, {
            "space": "l1", "dim": 2, "side": 4096, "n": 24, "k": 2,
            "close_radius": 4.0, "far_radius": 700.0, "r1": 4.0, "r2": 512.0,
        }),
    ),
] + [
    (
        ["exact", "--method", method, "--n", "60", "--delta", "6", "--seed", "2"],
        ScenarioSpec("exact", protocol, 2, {"dim": 40, "n": 60, "delta": 6}),
    )
    for method, protocol in (
        ("iblt", "exact-iblt"), ("auto", "exact-auto"), ("cpi", "exact-cpi")
    )
]


class TestScenarioParity:
    """``emd``/``gap``/``exact`` print exactly the metrics of the scenario
    driver run on the equivalent spec: one implementation per protocol."""

    @pytest.mark.parametrize("argv,spec", PARITY, ids=[spec.protocol for _, spec in PARITY])
    def test_printed_rows_equal_driver_metrics(self, capsys, argv, spec):
        code = main(argv)
        rows = _printed_rows(capsys.readouterr().out)
        metrics = ScenarioRunner().run(spec).metrics
        assert rows == [(key, format_cell(value)) for key, value in metrics.items()]
        assert code == (0 if metrics["success"] else 1)


class TestBackendSwitch:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scenarios", "--only", "exact-iblt-hamming"],
            ["emd"],
            ["sweep", "--campaign", "iblt-threshold", "--trials", "1"],
        ],
        ids=["scenarios", "emd", "sweep"],
    )
    def test_bad_backend_is_one_stderr_line_and_exit_2(
        self, monkeypatch, capsys, recorded_specs, argv
    ):
        """A typo in ``REPRO_BACKEND`` fails before any scenario runs."""
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "REPRO_BACKEND" in line and "fortran" in line
        assert recorded_specs == []


class TestScenariosCommand:
    def test_list_names(self, capsys):
        code = main(["scenarios", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gap-hamming" in out
        assert "multiparty-star" in out

    def test_single_scenario_emits_canonical_json(self, capsys):
        code = main([
            "scenarios", "--only", "exact-iblt-hamming", "--seed", "7",
        ])
        captured = capsys.readouterr()
        assert code == 0
        document = json.loads(captured.out)
        assert document["schema"] == "repro.scenarios/v1"
        assert document["failures"] == []
        assert [s["name"] for s in document["scenarios"]] == ["exact-iblt-hamming"]
        # Progress/status lines must stay off stdout (byte-determinism).
        assert "ok" in captured.err

    def test_output_file_and_determinism(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        args = ["scenarios", "--only", "strata-estimate", "--seed", "7"]
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_timings_flag_adds_wall_time(self, capsys):
        code = main([
            "scenarios", "--only", "setsofsets-patch", "--seed", "7", "--timings",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert "wall_time_s" in document["scenarios"][0]

    def test_unknown_scenario_name(self, capsys):
        code = main(["scenarios", "--only", "nope"])
        assert code == 2
        assert "unknown scenarios" in capsys.readouterr().err


class TestSweepCommand:
    def test_list_campaigns(self, capsys):
        code = main(["sweep", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "iblt-threshold" in out
        assert "gap-ratio" in out
        assert "emd-levels" in out

    def test_campaign_required(self, capsys):
        code = main(["sweep"])
        assert code == 2
        assert "--campaign" in capsys.readouterr().err

    def test_unknown_campaign_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--campaign", "bogus"])

    def test_run_emits_canonical_json(self, capsys):
        code = main([
            "sweep", "--campaign", "iblt-threshold", "--seed", "7", "--trials", "1",
        ])
        captured = capsys.readouterr()
        assert code == 0
        document = json.loads(captured.out)
        assert document["schema"] == "repro.sweeps/v1"
        assert document["campaign"] == "iblt-threshold"
        assert document["trials_per_point"] == 1
        assert document["point_count"] == 8
        # Execution knobs must never leak into the canonical report.
        assert "jobs" not in document
        assert "success" in captured.err

    def test_jobs_do_not_change_report_bytes(self, tmp_path):
        serial, parallel = tmp_path / "j1.json", tmp_path / "j2.json"
        args = ["sweep", "--campaign", "iblt-threshold", "--seed", "7",
                "--trials", "1"]
        assert main(args + ["--jobs", "1", "--output", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--output", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_multiple_campaigns_share_one_runner(self, tmp_path):
        """Repeatable --campaign writes one report per campaign through a
        single persistent pool; bytes match single-campaign runs."""
        outdir = tmp_path / "sweeps"
        code = main([
            "sweep", "--campaign", "iblt-threshold", "--campaign", "emd-levels",
            "--seed", "7", "--trials", "1", "--jobs", "2",
            "--output-dir", str(outdir),
        ])
        assert code == 0
        multi = {
            "iblt-threshold": (outdir / "sweep-iblt-threshold.json").read_bytes(),
            "emd-levels": (outdir / "sweep-emd-levels.json").read_bytes(),
        }
        for name, payload in multi.items():
            single = tmp_path / f"single-{name}.json"
            assert main([
                "sweep", "--campaign", name, "--seed", "7", "--trials", "1",
                "--output", str(single),
            ]) == 0
            assert payload == single.read_bytes()

    def test_output_rejects_multiple_campaigns(self, tmp_path, capsys):
        code = main([
            "sweep", "--campaign", "iblt-threshold", "--campaign", "emd-levels",
            "--output", str(tmp_path / "one.json"),
        ])
        assert code == 2
        assert "--output-dir" in capsys.readouterr().err

    def test_stdout_rejects_multiple_campaigns(self, capsys):
        code = main([
            "sweep", "--campaign", "iblt-threshold", "--campaign", "emd-levels",
            "--trials", "1",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "--output-dir" in captured.err
        assert captured.out == ""  # no half-written JSON stream

    def test_output_and_output_dir_mutually_exclusive(self, tmp_path, capsys):
        code = main([
            "sweep", "--campaign", "iblt-threshold", "--campaign", "emd-levels",
            "--output", str(tmp_path / "one.json"),
            "--output-dir", str(tmp_path / "dir"),
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert not (tmp_path / "one.json").exists()
        assert not (tmp_path / "dir").exists()

    def test_new_campaigns_listed(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "emd-branching" in out
        assert "multiparty-parties" in out
        assert "churn-topology" in out


class TestCountRefusals:
    """An out-of-range value is refused in one stderr line with exit 2,
    before the client connects or any replay runs (port 1 is closed; a
    count below its floor is refused before the replay reads its log)."""

    def test_client_zero_sessions(self, capsys):
        assert main(["client", "--port", "1", "--sessions", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "--sessions must be >= 1, got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value,floor", [
        ("--parties", "1", 2),
        ("--delta-bound", "0", 1),
        ("--max-attempts", "0", 1),
    ])
    def test_replay_counts(self, tmp_path, capsys, flag, value, floor):
        code = main([
            "stream", "replay", "--input", str(tmp_path / "absent.ndjson"), flag, value,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"{flag} must be >= {floor}, got {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags,message", [
        (["--q", "0"], "--q must be >= 2, got 0"),
        (["--q", "1"], "--q must be >= 2, got 1"),
        (["--topology", "tree", "--branching", "0"], "--branching must be >= 1, got 0"),
        (["--topology", "random", "--k-regular", "0"], "--k-regular must be >= 1, got 0"),
        (["--topology", "random", "--k-regular", "5"],
         "--k-regular must be < --parties, with an even --parties * --k-regular; "
         "got --k-regular 5, --parties 5"),
        (["--topology", "random", "--k-regular", "3"],
         "--k-regular must be < --parties, with an even --parties * --k-regular; "
         "got --k-regular 3, --parties 5"),
    ])
    def test_replay_constructor_values(self, tmp_path, capsys, flags, message):
        log = tmp_path / "churn.ndjson"
        assert main(["stream", "record", "--output", str(log), "--n", "8", "--windows", "1"]) == 0
        capsys.readouterr()
        code = main(["stream", "replay", "--input", str(log), "--parties", "5", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags,message", [
        (["--dim", "0"], "--dim must be >= 1, got 0"),
        (["--n", "-1"], "--n must be >= 0, got -1"),
        (["--delta", "-1"], "--delta must be >= 0, got -1"),
        (["--delta-bound", "0"], "--delta-bound must be >= 1, got 0"),
        (["--max-attempts", "0"], "--max-attempts must be >= 1, got 0"),
        (["--max-escalations", "-1"], "--max-escalations must be >= 0, got -1"),
    ])
    def test_client_session_values(self, capsys, flags, message):
        assert main(["client", "--port", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""


class TestStreamReplayCommand:
    def test_failed_sync_reports_unconverged(self, tmp_path, capsys):
        log = tmp_path / "churn.ndjson"
        assert main([
            "stream", "record", "--output", str(log), "--seed", "7", "--n", "32",
            "--windows", "3", "--rate", "6", "--skew", "1.2", "--sources", "5",
        ]) == 0
        code = main([
            "stream", "replay", "--input", str(log), "--seed", "7", "--topology", "ring",
            "--parties", "5", "--delta-bound", "1", "--max-attempts", "3",
        ])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is False
