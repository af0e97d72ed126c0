"""Invertible Bloom lookup tables: classic IBLT, robust RIBLT, hypergraphs."""

from .hypergraph import (
    Component,
    classify_component,
    component_census,
    components,
    molloy_threshold,
    peel_order,
    peel_steps,
    random_hypergraph,
    riblt_sparsity_threshold,
    two_core,
)
from .backend import BACKENDS, default_backend, resolve_backend
from .counting import MultisetDecodeResult, MultisetIBLT
from .frontier import PeelQueue
from .iblt import IBLT, IBLTDecodeResult, cells_for_differences
from .riblt import RIBLT, RIBLTDecodeResult, riblt_cells_for_pairs

__all__ = [
    "BACKENDS",
    "default_backend",
    "resolve_backend",
    "PeelQueue",
    "Component",
    "classify_component",
    "component_census",
    "components",
    "molloy_threshold",
    "peel_order",
    "peel_steps",
    "random_hypergraph",
    "riblt_sparsity_threshold",
    "two_core",
    "MultisetDecodeResult",
    "MultisetIBLT",
    "IBLT",
    "IBLTDecodeResult",
    "cells_for_differences",
    "RIBLT",
    "RIBLTDecodeResult",
    "riblt_cells_for_pairs",
]
