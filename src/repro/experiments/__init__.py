"""Seeded scenario harness: one API over every protocol in the repo.

A :class:`ScenarioSpec` names a workload generator, a protocol driver,
its parameters, and a seed; :func:`run_scenario` executes a spec on the
process-wide backend (``REPRO_BACKEND``) and returns a
:class:`ScenarioResult` whose canonical JSON rendering is byte-identical
across runs with the same seed (wall-clock timings are carried
separately and excluded from the canonical form).  ``python -m repro.cli
scenarios`` exposes the built-in matrix on the command line; CI
smoke-tests it on both backends and diffs it against the golden reports
pinned in ``tests/goldens/``.

On top of single runs, :func:`run_sweep` expands a parameter *grid* into
many independently seeded trials per grid point, executes them
in-process or on a process pool opened for the call (bit-identically
either way), and :func:`render_sweep_report` aggregates success-rate and
cost curves into ``repro.sweeps/v1`` reports — ``python -m repro.cli
sweep`` ships eight paper-style campaigns.
"""

from .runner import render_report, run_scenario
from .scenarios import (
    DRIVERS,
    ScenarioResult,
    ScenarioSpec,
    builtin_scenarios,
)
from .sweeps import (
    SweepPointResult,
    SweepSpec,
    builtin_campaigns,
    render_sweep_report,
    run_sweep,
)

__all__ = [
    "DRIVERS",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepPointResult",
    "SweepSpec",
    "builtin_campaigns",
    "builtin_scenarios",
    "render_report",
    "render_sweep_report",
    "run_scenario",
    "run_sweep",
]
