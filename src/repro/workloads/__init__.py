"""Synthetic workload generators for both reconciliation models."""

from .churn import ChurnGenerator, ChurnWorkload
from .generators import (
    ReconciliationWorkload,
    clustered_points,
    noisy_replica_pair,
    perturb_point,
    random_far_point,
    split_difference_pair,
)

__all__ = [
    "ChurnGenerator",
    "ChurnWorkload",
    "ReconciliationWorkload",
    "clustered_points",
    "noisy_replica_pair",
    "perturb_point",
    "random_far_point",
    "split_difference_pair",
]
