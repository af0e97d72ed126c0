"""Seeded scenario harness: one API over every protocol in the repo.

A :class:`ScenarioSpec` names a workload generator, a protocol driver,
its parameters, and a seed; a :class:`ScenarioRunner` executes specs on
a chosen backend and returns :class:`ScenarioResult` objects whose
canonical JSON rendering is byte-identical across runs with the same
seed (wall-clock timings are carried separately and excluded from the
canonical form).  ``python -m repro.cli scenarios`` exposes the built-in
matrix on the command line; CI smoke-tests it on both backends and diffs
it against the golden reports pinned in ``tests/goldens/``.

On top of single runs, :mod:`repro.experiments.sweeps` expands parameter
*grids* into many independently seeded trials per grid point, executes
them serially or on a process pool (bit-identically either way), and
aggregates success-rate and cost curves into ``repro.sweeps/v1`` reports
— ``python -m repro.cli sweep`` ships eight paper-style campaigns.
"""

from .runner import ScenarioRunner, render_report
from .scenarios import (
    DRIVERS,
    ScenarioResult,
    ScenarioSpec,
    builtin_scenarios,
)
from .sweeps import (
    SweepPointResult,
    SweepRunner,
    SweepSpec,
    SweepTrial,
    builtin_campaigns,
    render_sweep_report,
)

__all__ = [
    "DRIVERS",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SweepPointResult",
    "SweepRunner",
    "SweepSpec",
    "SweepTrial",
    "builtin_campaigns",
    "builtin_scenarios",
    "render_report",
    "render_sweep_report",
]
