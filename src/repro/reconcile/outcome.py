"""One result type for every exact reconciler.

:func:`~repro.reconcile.exact_iblt.exact_iblt_reconcile`, its auto-sized
variant, :func:`~repro.reconcile.cpi.cpi_reconcile` and
:func:`~repro.reconcile.resilient.resilient_reconcile` all return a
:class:`ReconcileResult`; only the resilient controller fills in its
``report``.  ``outcome_metrics`` is the flat JSON-safe metrics dict
every exact-reconciliation scenario driver shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..metric.spaces import Point
    from .resilient import RecoveryReport

__all__ = ["ReconcileResult", "outcome_metrics"]


@dataclass(frozen=True)
class ReconcileResult:
    """Outcome of one exact one-way reconciliation run.

    ``alice_only`` holds the points only Alice had (what round 2 ships
    to Bob), ``bob_only`` the points only Bob had.  On failure Bob's set
    is unchanged and both sides are empty.  ``report`` is the recovery
    path of a :func:`~repro.reconcile.resilient.resilient_reconcile` run
    and ``None`` for every single-shot reconciler.
    """

    success: bool
    bob_final: "list[Point]"
    alice_only: "list[Point]"
    bob_only: "list[Point]"
    total_bits: int
    rounds: int
    report: "RecoveryReport | None" = None


def outcome_metrics(
    result: ReconcileResult,
    alice: "Sequence[Point]",
    bob: "Sequence[Point]",
) -> "dict[str, Any]":
    """The flat metrics every exact-reconciliation scenario driver shares.

    Reads only the :class:`ReconcileResult` fields, so any object that
    carries them works.
    """
    return {
        "success": bool(result.success),
        "rounds": int(result.rounds),
        "bits": int(result.total_bits),
        "alice_only": len(result.alice_only),
        "bob_only": len(result.bob_only),
        "union_reached": bool(set(result.bob_final) == set(alice) | set(bob)),
    }
