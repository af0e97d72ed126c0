"""Hashing substrate: public coins and pairwise-independent hashing.

See :mod:`repro.hashing.random_source` for the public-coin model and
:mod:`repro.hashing.universal` for the hash families used throughout the
protocols.
"""

from .mersenne import (
    add_mod_p,
    affine_mod_p,
    fold_bits,
    mul_mod_p,
    reduce_mod_p,
    to_field,
)
from .random_source import PublicCoins, derive_seed
from .universal import (
    MERSENNE_P,
    Checksum,
    PairwiseHash,
    PrefixHasher,
    VectorHash,
    check_integers,
    exact_int,
    fold_to_bits,
)

__all__ = [
    "PublicCoins",
    "derive_seed",
    "MERSENNE_P",
    "Checksum",
    "PairwiseHash",
    "PrefixHasher",
    "VectorHash",
    "fold_to_bits",
    "check_integers",
    "exact_int",
    "add_mod_p",
    "affine_mod_p",
    "fold_bits",
    "mul_mod_p",
    "reduce_mod_p",
    "to_field",
]
