"""repro — Robust Set Reconciliation via Locality Sensitive Hashing.

A faithful reimplementation of Mitzenmacher & Morgan (PODS 2019,
arXiv:1807.09694): two-party reconciliation of point sets in a metric
space where *close* points should be treated as equal.

Quickstart
----------
>>> import numpy as np
>>> from repro import (HammingSpace, EMDProtocol, PublicCoins,
...                    noisy_replica_pair)
>>> space = HammingSpace(64)
>>> wl = noisy_replica_pair(space, n=32, k=2, close_radius=1,
...                         far_radius=24, rng=np.random.default_rng(0))
>>> result = EMDProtocol.for_instance(space, n=32, k=2).run(
...     wl.alice, wl.bob, PublicCoins(0))
>>> result.success
True

The two protocol families:

* :class:`EMDProtocol` / :class:`ScaledEMDProtocol` — Bob's final set is
  close to Alice's in earth mover's distance (Section 3).
* :class:`GapProtocol` — Bob ends with a point within ``r2`` of every
  input point (Section 4); :meth:`GapProtocol.for_instance` (Theorem 4.2)
  and :func:`low_dimensional_gap_protocol` (Theorem 4.5) build it.

Substrates (all reimplemented from scratch): multi-scale LSH families
(:mod:`repro.lsh`), robust invertible Bloom lookup tables
(:mod:`repro.iblt`), branching-process analysis (:mod:`repro.branching`),
a bit-measured protocol channel (:mod:`repro.protocol`), baselines
(:mod:`repro.reconcile`), and the sets-of-sets reconciliation layer
(:mod:`repro.setsofsets`).
"""

from .core import (
    EMDParameters,
    EMDProtocol,
    EMDResult,
    GapProtocol,
    GapResult,
    ScaledEMDProtocol,
    ScaledEMDResult,
    derive_emd_parameters,
    low_dimensional_gap_protocol,
    make_index_instance,
    one_round_subset_protocol,
    repair_point_set,
    solve_index_via_gap,
    verify_gap_guarantee,
)
from .errors import (
    DecodeError,
    MalformedPayloadError,
    SketchUndecodableError,
    TruncatedPayloadError,
)
from .experiments import (
    ScenarioResult,
    ScenarioSpec,
    builtin_scenarios,
    run_scenario,
)
from .hashing import PublicCoins
from .iblt import IBLT, RIBLT, MultisetIBLT
from .lsh import (
    BitSamplingMLSH,
    GridMLSH,
    LSHParams,
    OneSidedGridLSH,
    PStableMLSH,
)
from .metric import GridSpace, HammingSpace, MetricSpace, Point, emd, emd_k
from .protocol import Channel, FaultSpec, FaultyChannel
from .reconcile import (
    QuadtreeEMDProtocol,
    RecoveryReport,
    ResilienceConfig,
    exact_iblt_reconcile,
    naive_full_transfer,
    naive_union_transfer,
    resilient_reconcile,
)
from .setsofsets import SetsOfSetsReconciler
from .workloads import ReconciliationWorkload, noisy_replica_pair, perturb_point

__version__ = "1.0.0"

__all__ = [
    "EMDParameters",
    "EMDProtocol",
    "EMDResult",
    "GapProtocol",
    "GapResult",
    "ScaledEMDProtocol",
    "ScaledEMDResult",
    "derive_emd_parameters",
    "low_dimensional_gap_protocol",
    "make_index_instance",
    "one_round_subset_protocol",
    "repair_point_set",
    "solve_index_via_gap",
    "verify_gap_guarantee",
    "ScenarioResult",
    "ScenarioSpec",
    "builtin_scenarios",
    "run_scenario",
    "PublicCoins",
    "IBLT",
    "RIBLT",
    "MultisetIBLT",
    "BitSamplingMLSH",
    "GridMLSH",
    "LSHParams",
    "OneSidedGridLSH",
    "PStableMLSH",
    "GridSpace",
    "HammingSpace",
    "MetricSpace",
    "Point",
    "emd",
    "emd_k",
    "Channel",
    "DecodeError",
    "MalformedPayloadError",
    "SketchUndecodableError",
    "TruncatedPayloadError",
    "FaultSpec",
    "FaultyChannel",
    "QuadtreeEMDProtocol",
    "RecoveryReport",
    "ResilienceConfig",
    "exact_iblt_reconcile",
    "naive_full_transfer",
    "naive_union_transfer",
    "resilient_reconcile",
    "SetsOfSetsReconciler",
    "ReconciliationWorkload",
    "noisy_replica_pair",
    "perturb_point",
    "__version__",
]
