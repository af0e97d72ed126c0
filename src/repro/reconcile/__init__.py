"""Classical reconciliation baselines: naive, exact IBLT, quadtree ([7])."""

from .exact_iblt import (
    ExactReconcileResult,
    decode_point,
    encode_point,
    exact_iblt_reconcile,
    exact_iblt_reconcile_auto,
)
from .cpi import CPIResult, cpi_reconcile, evaluate_characteristic
from .outcome import ReconcileOutcome, outcome_metrics
from .resilient import (
    AttemptRecord,
    BreakerState,
    RecoveryReport,
    ResilienceConfig,
    ResilientReconcileResult,
    resilient_reconcile,
)
from .strata import StrataEstimator
from .naive import NaiveTransferResult, naive_full_transfer, naive_union_transfer
from .quadtree import QuadtreeEMDProtocol, QuadtreeResult

__all__ = [
    "AttemptRecord",
    "BreakerState",
    "RecoveryReport",
    "ResilienceConfig",
    "ResilientReconcileResult",
    "resilient_reconcile",
    "ExactReconcileResult",
    "ReconcileOutcome",
    "outcome_metrics",
    "decode_point",
    "encode_point",
    "exact_iblt_reconcile",
    "exact_iblt_reconcile_auto",
    "StrataEstimator",
    "CPIResult",
    "cpi_reconcile",
    "evaluate_characteristic",
    "NaiveTransferResult",
    "naive_full_transfer",
    "naive_union_transfer",
    "QuadtreeEMDProtocol",
    "QuadtreeResult",
]
