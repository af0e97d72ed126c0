"""Run one scenario, and render a batch as the canonical JSON report.

:func:`run_scenario` executes a :class:`~repro.experiments.scenarios.ScenarioSpec`
on the process-wide backend (``REPRO_BACKEND``, the knob CI's test
matrix sets) and times it.  :func:`render_report` turns results into the
canonical JSON document: keys sorted, floats pre-rounded by the drivers,
timings excluded unless asked for — so two runs with the same seed and
backend produce byte-identical reports, which is the invariant the
committed goldens in ``tests/goldens/`` pin.
"""

from __future__ import annotations

import json
import time
from typing import Sequence

from ..iblt.backend import default_backend
from .scenarios import DRIVERS, ScenarioResult, ScenarioSpec

__all__ = ["render_report", "run_scenario"]

SCHEMA = "repro.scenarios/v1"


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one spec; raises ``KeyError`` for an unknown protocol."""
    driver = DRIVERS[spec.protocol]
    backend = default_backend()
    start = time.perf_counter()
    metrics = driver(spec, spec.rng(), spec.coins())
    elapsed = time.perf_counter() - start
    return ScenarioResult(spec=spec, backend=backend, metrics=metrics, wall_time_s=elapsed)


def render_report(
    results: Sequence[ScenarioResult],
    seed: int,
    include_timings: bool = False,
) -> str:
    """The canonical JSON report (ends with a newline).

    Byte-deterministic for a fixed seed/backend unless
    ``include_timings`` is set: keys are sorted, scenario order follows
    the input order, and all metric floats were rounded by the drivers.
    Every result records its resolved ``backend`` (next to the
    document-level ``backends`` set).
    """
    document = {
        "schema": SCHEMA,
        "seed": seed,
        "backends": sorted({result.backend for result in results}),
        "scenario_count": len(results),
        "failures": sorted(result.spec.name for result in results if not result.success),
        "scenarios": [result.to_dict(include_timings) for result in results],
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
