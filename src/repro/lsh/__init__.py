"""Locality sensitive hashing: classic LSH, multi-scale LSH, key builders."""

from .base import LSHBatch, LSHFamily, LSHParams, MLSHFamily, batches_for_p2_half
from .bit_sampling import BitSamplingBatch, BitSamplingMLSH
from .grid import GridBatch, GridMLSH, fold_cells
from .keys import BatchKeyBuilder, PrefixKeyBuilder, key_bits_for
from .onesided import OneSidedGridLSH
from .pstable import PStableBatch, PStableMLSH, pstable_collision_probability

__all__ = [
    "LSHBatch",
    "LSHFamily",
    "LSHParams",
    "MLSHFamily",
    "batches_for_p2_half",
    "BitSamplingBatch",
    "BitSamplingMLSH",
    "GridBatch",
    "GridMLSH",
    "fold_cells",
    "BatchKeyBuilder",
    "PrefixKeyBuilder",
    "key_bits_for",
    "OneSidedGridLSH",
    "PStableBatch",
    "PStableMLSH",
    "pstable_collision_probability",
]
