"""Benchmark-suite plumbing.

Each experiment module computes its paper-shaped table (the rows a reader
would compare against the paper's claims) and registers it here;
``pytest_terminal_summary`` prints every registered table at the end of
the run.  Timing lives in ``run_perf.py``, not here.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis import format_table

_TABLES: list[str] = []


def record_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> None:
    """Register an experiment table for the end-of-run summary."""
    _TABLES.append(format_table(headers, rows, title=title))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "reproduction tables")
    for table in _TABLES:
        terminalreporter.write_line("")
        for line in table.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
