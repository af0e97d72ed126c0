"""Statistics helpers shared by the experiment harness.

Small, dependency-light utilities: summary statistics and success-rate
estimation with Wilson intervals at 95% confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Summary", "summarize", "success_rate", "wilson_interval"]

#: Normal quantile of the 95% Wilson interval.
Z_95 = 1.96


@dataclass(frozen=True)
class Summary:
    """Mean / spread summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"{self.mean:.3g} ± {self.std:.2g} (n={self.count})"


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary`; raises on empty input."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarize an empty sample")
    count = len(data)
    mean = sum(data) / count
    if count > 1:
        variance = sum((v - mean) ** 2 for v in data) / (count - 1)
    else:
        variance = 0.0
    return Summary(
        count=count,
        mean=mean,
        std=math.sqrt(variance),
        minimum=min(data),
        maximum=max(data),
    )


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in [0, trials]")
    z = Z_95
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, centre - half), min(1.0, centre + half))


def success_rate(outcomes: Sequence[bool]) -> tuple[float, tuple[float, float]]:
    """Empirical rate plus its Wilson interval."""
    if not outcomes:
        raise ValueError("cannot compute a rate over no outcomes")
    successes = sum(1 for outcome in outcomes if outcome)
    return successes / len(outcomes), wilson_interval(successes, len(outcomes))
