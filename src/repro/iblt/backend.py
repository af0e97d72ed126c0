"""Backend selection for the classic IBLT.

:class:`~repro.iblt.iblt.IBLT` is the one table whose fixed-width XOR
cells admit two interchangeable layouts (the strata estimator is a stack
of IBLTs and takes whatever layout they resolve):

``"numpy"`` (default)
    Cell state lives in flat numpy arrays and the hot paths — hashing,
    batch insert/delete, subtraction, pure-cell detection — run as
    vectorised ``uint64`` operations (exact Mersenne-61 arithmetic via
    :mod:`repro.hashing.mersenne`).  Large peel rounds are vectorised
    and tail rounds scalar, over a shared hash cache
    (:mod:`repro.iblt.frontier`).

``"python"``
    The original pure-Python reference implementation: cell state in
    lists, arbitrary-precision integers everywhere, one uncached hash
    evaluation per lookup, every peel round scalar.  Kept as the ground
    truth the property tests pin the numpy layout against, and as the
    layout for keys wider than :data:`MAX_NUMPY_KEY_BITS`.

Both layouts are bit-identical for the same :class:`~repro.hashing.PublicCoins`,
decode output and its order included (``tests/test_backend_parity.py``).
There is one switch: the ``REPRO_BACKEND`` environment variable, else
``"numpy"``; the only per-object override is ``IBLT(backend=...)``,
which lets one process hold both layouts side by side.  This is the
only environment knob the package reads.

The key width is the one other input: :func:`resolve_backend` is the
single place that decides a table's keys are too wide for ``uint64``
cells and vectorised Mersenne hashing, and routes it to ``"python"``.

The sum-cell tables have no backend.  The counts and sums of
:class:`~repro.iblt.counting.MultisetIBLT` and
:class:`~repro.iblt.riblt.RIBLT` are exact Python ints (the RIBLT's
values are one ``(m, dim)`` matrix, ``int64`` while the bound the table
tracks stays below ``2^62`` and exact ``object`` ints past it).  Their
batch ingest takes the vectorised route whenever ``key_bits <=
MAX_NUMPY_KEY_BITS``, under either ``REPRO_BACKEND``; wider keys are
added one at a time.
"""

from __future__ import annotations

import os

__all__ = [
    "BACKENDS",
    "MAX_NUMPY_KEY_BITS",
    "default_backend",
    "resolve_backend",
]

BACKENDS = ("numpy", "python")

#: Widest key the numpy backend holds: its ``uint64`` cells and batch
#: hashes work on elements of the Mersenne field ``GF(2^61 - 1)``.
MAX_NUMPY_KEY_BITS = 61


def default_backend() -> str:
    """The process-wide default backend (``REPRO_BACKEND`` or ``"numpy"``)."""
    backend = os.environ.get("REPRO_BACKEND", "numpy").strip().lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"REPRO_BACKEND must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


def resolve_backend(backend: str | None, key_bits: int | None = None) -> str:
    """Validate an explicit backend choice, or fall back to the default.

    With ``key_bits`` wider than :data:`MAX_NUMPY_KEY_BITS` the answer is
    ``"python"``; asking for ``"numpy"`` explicitly for such keys is a
    ``ValueError``.
    """
    wide = key_bits is not None and key_bits > MAX_NUMPY_KEY_BITS
    if backend is None:
        default = default_backend()
        return "python" if wide else default
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "numpy" and wide:
        raise ValueError(
            f"the numpy backend holds keys of <= {MAX_NUMPY_KEY_BITS} bits, "
            f"got key_bits={key_bits}"
        )
    return backend


# Kept only for the end-to-end benchmark's report metadata, which reads it.
def default_decode_mode() -> str:
    return "frontier"
