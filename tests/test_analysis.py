"""Tests for the analysis helpers (stats, tables) and the public API."""

from __future__ import annotations


import pytest

from repro.analysis import (
    format_cell,
    format_table,
    success_rate,
    summarize,
    wilson_interval,
)


class TestSummarize:
    def test_basic(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0

    def test_single_value(self):
        summary = summarize([5.0])
        assert summary.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str(self):
        assert "n=2" in str(summarize([1.0, 2.0]))


class TestWilson:
    def test_bounds(self):
        low, high = wilson_interval(5, 10)
        assert 0 <= low <= 0.5 <= high <= 1

    def test_extremes(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0
        low, high = wilson_interval(20, 20)
        assert high == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_success_rate(self):
        rate, (low, high) = success_rate([True, True, False, True])
        assert rate == pytest.approx(0.75)
        assert low <= rate <= high

    def test_success_rate_empty(self):
        with pytest.raises(ValueError):
            success_rate([])


class TestTables:
    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell(0.123456) == "0.1235"
        assert format_cell(0.0) == "0"
        assert format_cell("abc") == "abc"
        assert format_cell(42) == "42"

    def test_format_table_alignment(self):
        table = format_table(["a", "long_header"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_title(self):
        table = format_table(["x"], [[1]], title="T1")
        assert table.startswith("T1\n")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestPublicAPI:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_exports_resolve(self):
        import importlib

        for module_name in (
            "repro.hashing",
            "repro.metric",
            "repro.lsh",
            "repro.iblt",
            "repro.branching",
            "repro.protocol",
            "repro.reconcile",
            "repro.setsofsets",
            "repro.workloads",
            "repro.analysis",
            "repro.core",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (module_name, name)

    def test_docstrings_on_public_classes(self):
        import repro

        for name in (
            "EMDProtocol",
            "GapProtocol",
            "RIBLT",
            "IBLT",
            "PublicCoins",
            "SetsOfSetsReconciler",
        ):
            assert getattr(repro, name).__doc__, f"{name} lacks a docstring"
