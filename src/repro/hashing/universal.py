"""Universal (pairwise-independent) hashing over a Mersenne-prime field.

The paper's constructions use pairwise-independent hash functions in three
places:

* Algorithm 1 compresses a tuple of MLSH values into a ``Θ(log n)``-bit
  *key* with a pairwise-independent hash ``h`` (so distinct MLSH vectors
  collide with probability ``1/poly(n)``).
* the Gap protocol hashes each *batch* of ``m`` LSH values down to
  ``O(log n)`` bits (Section 4.1).
* IBLT/RIBLT cells carry a *checksum* of each key so that impure cells are
  detected during peeling (Section 2.2).

All of these are provided here.  We work over the Mersenne prime
``P = 2^61 - 1``, which supports exact modular arithmetic with Python ints
and fast reduction, and we expose a *prefix-evaluable* polynomial hash
(:class:`PrefixHasher`) so Algorithm 1 can derive the keys of every
resolution level ``i`` (a hash of the first ``c_i`` MLSH values) from one
pass over the longest prefix instead of rehashing each prefix.

The batch paths evaluate every polynomial in closed form: one broadcast
field multiply of the whole input matrix by a cached coefficient row,
then exact sums of the products' 32-bit limbs (a row sum for
:meth:`VectorHash.hash_rows`, a prefix sum for
:meth:`PrefixHasher.prefix_digests_many`).  The scalar ``__call__`` /
:meth:`PrefixHasher.extend` paths are the reference the batch paths are
pinned against.

Hash inputs follow one element rule (:func:`exact_int`): Python
ints and numpy integer scalars are integers; bools and floats, which
``int()`` would silently truncate, are a ``ValueError``.  Matrix inputs
take the same rule as one dtype check,
:func:`~repro.hashing.mersenne.integer_array`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .mersenne import (
    MERSENNE_P,
    add_mod_p,
    affine_mod_p,
    fold_bits,
    integer_array,
    mul_mod_p,
    prefix_sums_mod_p,
    quadratic_mod_p,
    row_products,
    sum_mod_p,
    to_field,
)
from .random_source import PublicCoins

__all__ = [
    "MERSENNE_P",
    "PairwiseHash",
    "VectorHash",
    "PrefixHasher",
    "Checksum",
    "fold_to_bits",
    "check_integers",
    "exact_int",
]


def _is_integer_type(kind: type) -> bool:
    """The element rule for keys, values and hash inputs: ``int`` and
    numpy integer scalars are integers; ``bool`` (an ``int`` subclass) and
    floats — which ``int()`` would silently truncate — are not."""
    return kind is not bool and issubclass(kind, (int, np.integer))


def check_integers(items: Iterable[object]) -> None:
    """:func:`_is_integer_type` over a whole batch, one test per distinct type."""
    for kind in set(map(type, items)):
        if not _is_integer_type(kind):
            raise ValueError(f"expected integers, got {kind.__name__}")


def exact_int(value: object) -> int:
    """``value`` as an exact Python int; ``ValueError`` unless it is one."""
    if type(value) is int:
        return value
    if not _is_integer_type(type(value)):
        raise ValueError(f"expected an integer, got {type(value).__name__} {value!r}")
    return int(value)


def _check_bits(bits: int) -> int:
    """The output-width rule shared by every hash family: ``[1, 61]``."""
    if not 1 <= bits <= 61:
        raise ValueError(f"bits must be in [1, 61], got {bits}")
    return bits


def _mod_p(x: int) -> int:
    """Reduce ``x`` modulo the Mersenne prime ``2^61 - 1``."""
    return x % MERSENNE_P


def _field_row(values: Sequence[int]) -> np.ndarray:
    """Field elements (Python ints in ``[0, P)``) as a ``uint64`` row."""
    return np.array(values, dtype=np.uint64)


def _integer_matrix(values: np.ndarray, columns: int | None = None) -> np.ndarray:
    """``values`` as a 2-d integer array (``integer_array``'s dtype rule)."""
    matrix = integer_array(values)
    if matrix.ndim != 2 or (columns is not None and matrix.shape[1] != columns):
        expected = f"(n, {columns})" if columns is not None else "a 2-d matrix"
        raise ValueError(f"expected shape {expected}, got {matrix.shape}")
    return matrix


def fold_to_bits(value: int, bits: int) -> int:
    """Fold a field element down to ``bits`` bits (for key truncation)."""
    if bits >= 61:
        return value
    return value & ((1 << bits) - 1)


class PairwiseHash:
    """A pairwise-independent hash ``x -> (a*x + b) mod P`` folded to ``bits``.

    Drawn from the classic Carter–Wegman family, which is pairwise
    independent over the field of size :data:`MERSENNE_P`.  Inputs may be
    arbitrary (possibly negative or > P) integers; they are reduced into the
    field first.

    Parameters
    ----------
    coins:
        Shared randomness; both parties derive the same ``(a, b)``.
    label:
        Stream label distinguishing this hash from others.
    bits:
        Output width in bits (<= 61).
    """

    def __init__(self, coins: PublicCoins, label: object, bits: int = 61):
        self.bits = _check_bits(bits)
        rng = coins.python_rng("pairwise", label)
        self.a = rng.randrange(1, MERSENNE_P)
        self.b = rng.randrange(0, MERSENNE_P)

    def __call__(self, x: int) -> int:
        return fold_to_bits(_mod_p(self.a * _mod_p(x) + self.b), self.bits)

    def hash_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised evaluation, exact in ``uint64`` via limb splitting.

        Bit-identical to mapping :meth:`__call__` over the array for any
        non-negative inputs below ``2^64`` (see :mod:`repro.hashing.mersenne`
        for the arithmetic).  Returns a ``uint64`` array.
        """
        out = affine_mod_p(np.uint64(self.a), np.uint64(self.b), to_field(xs))
        return fold_bits(out, self.bits)


class VectorHash:
    """Hash a fixed-length tuple of field elements to ``bits`` bits.

    Implements ``h(x_1..x_k) = (b + sum_i a_i * x_i) mod P`` with independent
    ``a_i``, which is pairwise independent over tuples.  Used by the Gap
    protocol to compress a batch of ``m`` LSH values into one key entry.
    """

    def __init__(self, coins: PublicCoins, label: object, arity: int, bits: int = 61):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.bits = _check_bits(bits)
        rng = coins.python_rng("vector", label)
        self.coeffs = [rng.randrange(1, MERSENNE_P) for _ in range(arity)]
        self.b = rng.randrange(0, MERSENNE_P)
        self.arity = arity
        self.coeff_row = _field_row(self.coeffs)

    def __call__(self, xs: Sequence[int]) -> int:
        """Scalar reference evaluation (the oracle :meth:`hash_rows` matches)."""
        if len(xs) != self.arity:
            raise ValueError(f"expected {self.arity} inputs, got {len(xs)}")
        acc = self.b
        for coeff, x in zip(self.coeffs, xs):
            acc += coeff * _mod_p(exact_int(x))
        return fold_to_bits(_mod_p(acc), self.bits)

    def hash_rows(self, matrix: np.ndarray) -> np.ndarray:
        """Hash each row of an ``(n, arity)`` integer matrix; returns ``uint64``.

        Bit-identical to mapping :meth:`__call__` over the rows for any
        ``int64``/``uint64`` entries.  Closed form: one blockwise field
        multiply by the coefficient row
        (:func:`~repro.hashing.mersenne.row_products`), then an exact
        limb-split row sum (:func:`~repro.hashing.mersenne.sum_mod_p`)
        plus ``b``.
        """
        matrix = _integer_matrix(matrix, self.arity)
        sums = np.empty(len(matrix), dtype=np.uint64)
        for rows, products in row_products(matrix, self.coeff_row):
            sums[rows] = sum_mod_p(products)
        return fold_bits(add_mod_p(sums, self.b), self.bits)


class PrefixHasher:
    """Polynomial rolling hash supporting incremental prefix evaluation.

    ``state_0 = b``; ``state_j = (state_{j-1} * r + x_j) mod P``.  The hash
    of the length-``j`` prefix is ``state_j`` folded to ``bits`` bits.

    Algorithm 1 keys level ``i`` by a hash of the first ``c_i`` MLSH values
    of a point, with ``c_1 < c_2 < ... < c_t``.  Rather than hashing each
    prefix from scratch (quadratic), callers feed values once via
    :meth:`extend` and snapshot the state at each required prefix length,
    which is linear in ``c_t``.  :meth:`prefix_digests_many` does the same
    for a whole matrix in closed form.

    The family is universal for unequal-length or differing prefixes up to
    collision probability ``len/P`` — comfortably ``1/poly(n)`` for the
    ``Θ(log n)``-bit keys the protocol requires.
    """

    def __init__(self, coins: PublicCoins, label: object, bits: int = 61):
        self.bits = _check_bits(bits)
        rng = coins.python_rng("prefix", label)
        self.r = rng.randrange(2, MERSENNE_P)
        self.b = rng.randrange(0, MERSENNE_P)
        self._r_inverse = pow(self.r, MERSENNE_P - 2, MERSENNE_P)
        self._inverse_powers = _field_row([])  # r^-1, r^-2, ... (see _weights)

    def initial_state(self) -> int:
        """The state corresponding to the empty prefix."""
        return self.b

    def extend(self, state: int, value: int) -> int:
        """Absorb one more value into the rolling state."""
        return _mod_p(state * self.r + _mod_p(exact_int(value)))

    def extend_many(self, state: int, values: Iterable[int]) -> int:
        """Absorb a sequence of values into the rolling state."""
        for value in values:
            state = self.extend(state, value)
        return state

    def digest(self, state: int) -> int:
        """Fold a rolling state into the output key width."""
        return fold_to_bits(state, self.bits)

    def hash_prefix(self, values: Sequence[int], length: int) -> int:
        """Hash the first ``length`` entries of ``values`` from scratch."""
        if length > len(values):
            raise ValueError(f"prefix length {length} exceeds {len(values)} values")
        return self.digest(self.extend_many(self.initial_state(), values[:length]))

    def prefix_digests(self, values: Sequence[int], lengths: Sequence[int]) -> list[int]:
        """Digests for several (sorted, increasing) prefix lengths in one pass.

        This is the scalar reference :meth:`prefix_digests_many` is pinned
        against.
        """
        digests: list[int] = []
        state = self.initial_state()
        consumed = 0
        for length in lengths:
            if length < consumed:
                raise ValueError("prefix lengths must be non-decreasing")
            if length > len(values):
                raise ValueError(f"prefix length {length} exceeds {len(values)} values")
            state = self.extend_many(state, values[consumed:length])
            consumed = length
            digests.append(self.digest(state))
        return digests

    def _weights(self, width: int) -> np.ndarray:
        """The cached inverse powers ``r^-1 .. r^-width`` as a ``uint64`` row."""
        if len(self._inverse_powers) < width:
            power, powers = 1, []
            for _ in range(width):
                power = power * self._r_inverse % MERSENNE_P
                powers.append(power)
            self._inverse_powers = _field_row(powers)
        return self._inverse_powers[:width]

    def prefix_digests_many(
        self, values: np.ndarray, lengths: Sequence[int]
    ) -> np.ndarray:
        """Vectorised :meth:`prefix_digests` over every row of a matrix.

        ``values`` is an ``(n, width)`` ``int64``/``uint64`` matrix; the
        return is the ``(n, len(lengths))`` ``uint64`` matrix whose row
        ``i`` equals ``prefix_digests(values[i], lengths)``.

        Closed form: the state after ``c`` values is
        ``r^c · (b + Σ_{j≤c} x_j · r^-j) mod P``.  One blockwise field
        multiply (:func:`~repro.hashing.mersenne.row_products`) weights
        every column by its cached ``r^-j``; exact prefix sums of the
        products' 32-bit limbs
        (:func:`~repro.hashing.mersenne.prefix_sums_mod_p`, exact for any
        width below ``2^32``) give ``Σ_{j≤c}`` at every requested length,
        and each distinct length costs one multiply by ``r^c``.
        """
        values = _integer_matrix(values)
        rows, width = values.shape
        lengths = [int(length) for length in lengths]
        consumed = 0
        for length in lengths:
            if length < consumed:
                raise ValueError("prefix lengths must be non-decreasing")
            if length > width:
                raise ValueError(f"prefix length {length} exceeds {width} values")
            consumed = length
        distinct, level = np.unique(np.array(lengths, dtype=np.int64), return_inverse=True)
        summed = distinct > 0  # the empty prefix sums nothing
        ends = distinct[summed] - 1
        scales = _field_row([pow(self.r, int(c), MERSENNE_P) for c in distinct])
        sums = np.zeros((rows, len(distinct)), dtype=np.uint64)
        for block, products in row_products(values[:, :consumed], self._weights(consumed)):
            sums[block, summed] = prefix_sums_mod_p(products, ends)
        states = mul_mod_p(add_mod_p(sums, self.b), scales)
        return fold_bits(states[:, level], self.bits)


class Checksum:
    """Key checksum for IBLT/RIBLT cells.

    A cell is recognised as *pure* when its key-sum is consistent with its
    checksum-sum (Section 2.2, item 5).  The checksum must be a deterministic
    function of the key such that distinct keys rarely agree; we use an
    independent Carter–Wegman hash with a quadratic term, which also breaks
    the linearity that would otherwise make sums of keys fool the test
    (``checksum(k1) + checksum(k2) = checksum(k1 + k2)`` must *not* hold).
    """

    def __init__(self, coins: PublicCoins, label: object, bits: int = 61):
        self.bits = _check_bits(bits)
        rng = coins.python_rng("checksum", label)
        self.a1 = rng.randrange(1, MERSENNE_P)
        self.a2 = rng.randrange(1, MERSENNE_P)
        self.b = rng.randrange(0, MERSENNE_P)

    def __call__(self, key: int) -> int:
        x = _mod_p(int(key))
        return fold_to_bits(_mod_p(self.a2 * x * x + self.a1 * x + self.b), self.bits)

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised checksums, exact in ``uint64``; matches :meth:`__call__`.

        Horner form ``((a2·x + a1)·x + b) mod P`` through the fused
        :func:`~repro.hashing.mersenne.quadratic_mod_p` — two exact
        field multiplications per element with the input limbs split
        once (this is the purity test the decode loop lives in).
        Returns a ``uint64`` array.
        """
        return fold_bits(quadratic_mod_p(self.a2, self.a1, self.b, keys), self.bits)
