"""Exact vectorised arithmetic over the Mersenne field ``GF(2^61 - 1)``.

numpy's 64-bit integers cannot hold the 122-bit product of two field
elements, so a naive ``(a * x) % P`` in ``uint64`` silently wraps.  The
classic fix — used by every fast Mersenne-prime hash implementation — is
*limb splitting*: write each 61-bit operand as ``hi·2^32 + lo`` with
``hi < 2^29`` and ``lo < 2^32``.  The three partial products

* ``hi_a·hi_b        < 2^58``   (weight ``2^64``)
* ``hi_a·lo_b + lo_a·hi_b < 2^62``  (weight ``2^32``)
* ``lo_a·lo_b        < 2^64``   (weight ``1``)

all fit in ``uint64``, and the Mersenne identity ``2^61 ≡ 1 (mod P)``
turns the weighted recombination into cheap shifts:

* ``2^64 ≡ 8``, so the high product contributes ``8·hi_a·hi_b``;
* ``mid·2^32 = (mid >> 29)·2^61 + (mid & (2^29-1))·2^32
            ≡ (mid >> 29) + ((mid & (2^29-1)) << 32)``;
* the low product folds as ``(lo >> 61) + (lo & P)``.

Every intermediate stays below ``2^63``, so the arithmetic is *exact* in
``uint64`` — no ``object``-dtype arrays, no Python-int round trips.  All
functions broadcast and accept scalars or arrays; results always satisfy
``0 <= out < P``.

Narrow operands need no split.  With ``0 <= x < 8`` and a field element
``a < 2^61``, ``x·a < 2^64`` is one exact ``uint64`` multiply, and one
fold ``(x·a >> 61) + (x·a & P)`` leaves it below ``2^61 + 8``, inside
the ``2^62 + 16`` bound of a split product.  :func:`row_products` uses
this for matrices of small values such as bit-sampling LSH's 0s and 1s.

This module is the substrate for the vectorised hash families in
:mod:`repro.hashing.universal` and, through them, for the numpy IBLT
backend.  Bit-exact agreement with Python's ``%`` on the same inputs is
pinned by property tests in ``tests/test_hashing.py``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "MERSENNE_P",
    "reduce_mod_p",
    "integer_array",
    "to_field",
    "add_mod_p",
    "mul_mod_p",
    "affine_mod_p",
    "quadratic_mod_p",
    "row_products",
    "sum_mod_p",
    "masked_sums_mod_p",
    "prefix_sums_mod_p",
    "fold_bits",
]

#: The Mersenne prime 2^61 - 1 (kept as a Python int; see universal.py).
MERSENNE_P = (1 << 61) - 1

#: Elements per block of :func:`row_products`.  A field multiply makes
#: about fifteen passes over ``uint64`` temporaries; on a 10^4 × 32
#: matrix it ran 11.6 ms whole vs 4.7 ms in 2^14-element blocks, whose
#: temporaries stay in cache (2-core x86_64 host).  Blocks of 2^15 were
#: as fast but raised the EMD benchmark's peak RSS by 2 MB.
_BLOCK_ELEMENTS = 1 << 14

#: :func:`row_products` entries below this bound take one ``uint64``
#: multiply: ``8 · 2^61 = 2^64``.
_NARROW = 8

_P = np.uint64(MERSENNE_P)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_S3 = np.uint64(3)
_S29 = np.uint64(29)
_S32 = np.uint64(32)
_S61 = np.uint64(61)


def reduce_mod_p(x: np.ndarray) -> np.ndarray:
    """Reduce arbitrary ``uint64`` values modulo ``P`` (exact).

    One Mersenne fold brings any 64-bit value below ``2^61 + 8 < 2P``, so
    a single masked subtraction completes the reduction.  (Masked rather
    than ``np.where``, whose eagerly-evaluated unselected branch wraps and
    trips scalar-overflow warnings on 0-d inputs.)
    """
    x = np.asarray(x, dtype=np.uint64)
    r = (x >> _S61) + (x & _P)  # < 2^61 + 8 < 2P
    return r - _P * (r >= _P)


def integer_array(x: np.ndarray) -> np.ndarray:
    """``x`` as an ndarray of an integer dtype; ``ValueError`` otherwise.

    The array form of the hashing element rule: a float, bool or object
    array is rejected because a cast would silently truncate ``1.5`` and
    ``True`` to ``1``.
    """
    arr = np.asarray(x)
    if arr.dtype.kind not in ("i", "u"):
        raise ValueError(f"expected an integer array, got dtype {arr.dtype}")
    return arr


_WRAP64 = np.uint64(MERSENNE_P - 8)  # ≡ -(2^64 mod P): undoes two's-complement wrap


def to_field(x: np.ndarray) -> np.ndarray:
    """Map an integer array into ``[0, P)``, matching Python's ``x % P``.

    Unsigned values up to ``2^64`` reduce directly.  Signed arrays may be
    negative (e.g. p-stable LSH cell indices): viewing a negative ``x`` as
    two's-complement uint64 adds ``2^64 ≡ 8 (mod P)``, so those lanes get
    ``P - 8`` added back, which reproduces floored modulo exactly.

    Float, bool and object arrays raise ``ValueError``
    (:func:`integer_array`).
    """
    arr = integer_array(x)
    if arr.dtype.kind == "i":
        reduced = reduce_mod_p(arr.astype(np.uint64))
        negative = arr < 0
        if negative.any():  # pay the correction passes only when needed
            reduced = np.where(negative, reduce_mod_p(reduced + _WRAP64), reduced)
        return reduced
    return reduce_mod_p(arr.astype(np.uint64))


def add_mod_p(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a + b) mod P`` for operands already in ``[0, P)``."""
    return reduce_mod_p(np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64))


def _mul_folded(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` folded once: the exact product mod ``P``, as a value
    below ``2^62 + 16`` (callers finish with :func:`reduce_mod_p`)."""
    a_hi = a >> _S32
    a_lo = a & _MASK32
    b_hi = b >> _S32
    b_lo = b & _MASK32
    mid = a_hi * b_lo + a_lo * b_hi  # < 2^62
    low = a_lo * b_lo  # < 2^64
    high = a_hi * b_hi  # < 2^58
    # high·2^64 ≡ 8·high;  mid·2^32 ≡ (mid >> 29) + ((mid & mask29) << 32)
    s = (high << _S3) + (mid >> _S29) + ((mid & _MASK29) << _S32)  # < 2^63
    # One shared Mersenne fold of both partial sums stays under 2^62 + 16,
    # which reduce_mod_p handles — saves two full reduction passes.
    return (s >> _S61) + (s & _P) + (low >> _S61) + (low & _P)


def mul_mod_p(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a * b) mod P`` for operands already in ``[0, P)`` (exact).

    Broadcasts; either side may be a scalar.  See the module docstring
    for the limb-splitting argument that every intermediate fits uint64.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return reduce_mod_p(_mul_folded(a, b))


def affine_mod_p(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(a * x + b) mod P`` for operands already in ``[0, P)``, fused.

    The addend rides along in the product's shared fold (sum stays below
    ``2^62 + 2^61``, comfortably inside uint64), so the affine step costs
    one reduction instead of two.  This is the workhorse of every hash
    family here: Carter–Wegman evaluation, Horner steps, rolling-hash
    extension, and vector-hash accumulation are all affine updates.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    x = np.asarray(x, dtype=np.uint64)
    return reduce_mod_p(_mul_folded(a, x) + b)


def _mul_acc_inplace(
    a_hi: np.ndarray, a_lo: np.ndarray, x_hi: np.ndarray, x_lo: np.ndarray
) -> np.ndarray:
    """``a * x`` folded once (same bound as :func:`_mul_folded`), from
    pre-split 32-bit limbs, using in-place updates on its own partials.

    The vectorised hash paths are memory-pass-bound at decode-frontier
    array sizes (a few hundred to a few thousand lanes), so the win here
    is not different arithmetic — the formulas are exactly
    :func:`_mul_folded`'s — but fewer temporaries: every shift/mask that
    can reuse a partial product's buffer does.  Exactness is unchanged
    (identical uint64 operations in the same order per lane).
    """
    mid = a_hi * x_lo
    t = a_lo * x_hi
    mid += t  # < 2^62
    high = a_hi * x_hi  # < 2^58
    low = a_lo * x_lo  # < 2^64
    np.left_shift(high, _S3, out=high)
    s = mid >> _S29
    s += high
    np.bitwise_and(mid, _MASK29, out=mid)
    np.left_shift(mid, _S32, out=mid)
    s += mid  # < 2^63
    acc = s >> _S61
    np.bitwise_and(s, _P, out=s)
    acc += s
    np.right_shift(low, _S61, out=t)
    acc += t
    np.bitwise_and(low, _P, out=low)
    acc += low  # < 2^62 + 16 (the _mul_folded bound)
    return acc


def quadratic_mod_p(a2: int, a1: int, b: int, x: np.ndarray) -> np.ndarray:
    """``(a2·x² + a1·x + b) mod P`` in Horner form, fused and exact.

    The checksum polynomial is the single hottest hash in the decode
    loop (every purity test evaluates it), so it gets a dedicated fused
    evaluation: both Horner steps run through :func:`_mul_acc_inplace`
    with the input limbs split once, which does the same uint64
    arithmetic as two :func:`affine_mod_p` calls in roughly two thirds
    of the memory passes.  Bit-identical to
    ``affine_mod_p(affine_mod_p(a2, a1, x), b, x)`` — pinned against
    the scalar reference by the hashing property tests.
    """
    xf = to_field(x)
    x_hi = xf >> _S32
    x_lo = np.bitwise_and(xf, _MASK32)
    acc = _mul_acc_inplace(
        np.uint64(a2 >> 32), np.uint64(a2 & 0xFFFFFFFF), x_hi, x_lo
    )
    acc += np.uint64(a1)
    r = acc >> _S61
    np.bitwise_and(acc, _P, out=acc)
    r += acc  # < 2P
    np.subtract(r, _P, out=r, where=r >= _P)
    r_hi = r >> _S32
    np.bitwise_and(r, _MASK32, out=r)  # r is now r_lo
    acc = _mul_acc_inplace(r_hi, r, x_hi, x_lo)
    acc += np.uint64(b)
    out = acc >> _S61
    np.bitwise_and(acc, _P, out=acc)
    out += acc
    np.subtract(out, _P, out=out, where=out >= _P)
    return out


def row_products(matrix: np.ndarray, row: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(rows, products)``: ``matrix[rows, j] · row[j]`` per block.

    ``matrix`` is an ``(n, len(row))`` integer matrix (any ``int64`` or
    ``uint64`` values, reduced with :func:`to_field`) and ``row`` holds
    field elements.  Each block covers at most ``_BLOCK_ELEMENTS`` entries
    (one row if a row alone is larger).  The products are folded once,
    not reduced: each is congruent to the exact product mod ``P`` and
    below ``2^62 + 16``, which is all :func:`sum_mod_p` needs.  The row's
    limbs are split once and tiled to the block shape, so every pass runs
    over same-shape contiguous operands instead of a short broadcast row.

    A matrix whose entries all lie in ``[0, _NARROW)`` (bit-sampling
    values are 0 or 1) skips the limb split: ``x · row < 8 · 2^61 = 2^64``
    is one exact ``uint64`` multiply, and one Mersenne fold brings it
    below ``2^61 + 8``, inside the same bound.
    """
    row = np.asarray(row, dtype=np.uint64)
    step = max(1, _BLOCK_ELEMENTS // max(len(row), 1))
    tile = (min(step, len(matrix)), 1)
    if matrix.size and matrix.max() < _NARROW and matrix.min() >= 0:
        row_tile = np.tile(row, tile)
        for start in range(0, len(matrix), step):
            products = matrix[start : start + step].astype(np.uint64)
            count = len(products)
            products *= row_tile[:count]  # < 2^64
            folded = products >> _S61
            np.bitwise_and(products, _P, out=products)
            products += folded  # < 2^61 + 8
            yield slice(start, start + count), products
        return
    row_hi = np.tile(row >> _S32, tile)
    row_lo = np.tile(row & _MASK32, tile)
    for start in range(0, len(matrix), step):
        x = to_field(matrix[start : start + step])
        count = len(x)
        products = _mul_acc_inplace(row_hi[:count], row_lo[:count], x >> _S32, x & _MASK32)
        yield slice(start, start + count), products


def _limbs_mod_p(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``(hi·2^32 + lo) mod P`` for any ``uint64`` limb sums ``lo``, ``hi``.

    The recombination step of :func:`sum_mod_p` and of the closed-form
    prefix hash: ``hi·2^32`` folds like a product's middle term,
    ``(hi >> 29) + ((hi & (2^29-1)) << 32)``, so with ``lo`` reduced first
    the total stays below ``2^62 + 2^35`` and one :func:`reduce_mod_p`
    finishes it.
    """
    return reduce_mod_p(reduce_mod_p(lo) + (hi >> _S29) + ((hi & _MASK29) << _S32))


def sum_mod_p(x: np.ndarray) -> np.ndarray:
    """``Σ x mod P`` over the last axis, for any ``uint64`` operands.

    Exact for fewer than ``2^32`` terms: the low 32-bit limbs sum below
    ``2^64`` and the high limbs below ``2^64`` too, so two plain
    ``uint64`` sums and one :func:`_limbs_mod_p` replace a field addition
    per term.  The sums run through ``einsum``, which keeps a short last
    axis (a Gap entry of ``m = 3`` values) off numpy's per-row reduction
    loop: 6x faster than ``np.sum`` on ``(303, 36, 3)``.
    """
    x = np.asarray(x, dtype=np.uint64)
    return _limbs_mod_p(np.einsum("...i->...", x & _MASK32), np.einsum("...i->...", x >> _S32))


#: Columns below which :func:`masked_sums_mod_p`'s float64 limb sums
#: stay exact: ``2^21`` limbs below ``2^32`` sum below ``2^53``.
_MASKED_COLUMNS = 1 << 21


def masked_sums_mod_p(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``Σ_i mask[j, i] · x[r, i] mod P`` for every pair of rows ``(j, r)``.

    ``mask`` is a ``(k, c)`` 0/1 matrix and ``x`` an ``(n, c)`` ``uint64``
    matrix (any values: folded products do); the result is ``(k, n)``.
    The masked twin of :func:`sum_mod_p`: two float64 matrix products of
    the mask against ``x``'s 32-bit limbs, recombined by
    :func:`_limbs_mod_p`.  Every partial sum is an integer below
    ``c·2^32 < 2^53``, so the products are exact in any summation order
    for ``c < 2^21`` columns; wider matrices are a ``ValueError``.
    """
    x = np.asarray(x, dtype=np.uint64)
    if x.shape[-1] >= _MASKED_COLUMNS:
        raise ValueError(f"masked sums are exact below {_MASKED_COLUMNS} columns")
    weights = np.asarray(mask, dtype=np.float64)
    lo = weights @ (x & _MASK32).astype(np.float64).T
    hi = weights @ (x >> _S32).astype(np.float64).T
    return _limbs_mod_p(lo.astype(np.uint64), hi.astype(np.uint64))


def prefix_sums_mod_p(x: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``Σ_{j≤e} x[..., j] mod P`` for each column ``e`` of ``ends``.

    The prefix-sum twin of :func:`sum_mod_p`, with the same limb split
    and the same exactness: over ``c < 2^32`` operands the low and high
    limbs each sum below ``c·2^32``.  ``ends`` must be strictly
    increasing.  Each limb is summed per segment between consecutive
    ends (``np.add.reduceat``) and the few segment sums are then
    accumulated, which on a 16 × 1024 block with 12 ends is 4x faster
    than a full ``cumsum``.
    """
    x = np.asarray(x, dtype=np.uint64)
    ends = np.asarray(ends, dtype=np.int64)
    if not len(ends):
        return np.zeros(x.shape[:-1] + (0,), dtype=np.uint64)
    x = x[..., : ends[-1] + 1]
    starts = np.concatenate(([0], ends[:-1] + 1))

    def prefix(limb: np.ndarray) -> np.ndarray:
        return np.cumsum(np.add.reduceat(limb, starts, axis=-1), axis=-1)

    return _limbs_mod_p(prefix(x & _MASK32), prefix(x >> _S32))


def fold_bits(x: np.ndarray, bits: int) -> np.ndarray:
    """Vectorised :func:`repro.hashing.universal.fold_to_bits`."""
    x = np.asarray(x, dtype=np.uint64)
    if bits >= 61:
        return x
    return x & np.uint64((1 << bits) - 1)
