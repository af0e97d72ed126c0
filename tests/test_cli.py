"""Tests for the command-line driver."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


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


class TestCommands:
    def test_emd_runs(self, capsys):
        code = main(["emd", "--dim", "48", "--n", "16", "--k", "1",
                     "--close-radius", "1", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "EMD protocol" in out
        assert "EMD after" in out

    def test_gap_lowdim_runs(self, capsys):
        code = main([
            "gap", "--space", "l1", "--side", "4096", "--dim", "2",
            "--n", "24", "--k", "2", "--r1", "4", "--r2", "512",
            "--close-radius", "4", "--far-radius", "700", "--lowdim",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "gap guarantee holds | yes" in out

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
        assert "union reached    | yes" in out

    def test_lowdim_requires_grid(self, capsys):
        code = main(["gap", "--space", "hamming", "--lowdim", "--n", "8", "--k", "1"])
        assert code == 2


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
