"""Classical reconciliation baselines: naive, exact IBLT, quadtree ([7])."""

from .exact_iblt import (
    decode_point,
    decode_points,
    encode_point,
    encode_points,
    exact_iblt_reconcile,
)
from .cpi import cpi_reconcile, evaluate_characteristic
from .outcome import ReconcileResult, outcome_metrics
from .resilient import (
    AttemptRecord,
    BreakerState,
    Recovery,
    RecoveryReport,
    ResilienceConfig,
    exact_iblt_reconcile_auto,
    resilient_reconcile,
)
from .strata import StrataEstimator
from .naive import NaiveTransferResult, naive_full_transfer, naive_union_transfer
from .quadtree import QuadtreeEMDProtocol, QuadtreeResult

__all__ = [
    "AttemptRecord",
    "BreakerState",
    "Recovery",
    "RecoveryReport",
    "ResilienceConfig",
    "resilient_reconcile",
    "ReconcileResult",
    "outcome_metrics",
    "decode_point",
    "decode_points",
    "encode_point",
    "encode_points",
    "exact_iblt_reconcile",
    "exact_iblt_reconcile_auto",
    "StrataEstimator",
    "cpi_reconcile",
    "evaluate_characteristic",
    "NaiveTransferResult",
    "naive_full_transfer",
    "naive_union_transfer",
    "QuadtreeEMDProtocol",
    "QuadtreeResult",
]
