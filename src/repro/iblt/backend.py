"""Backend selection for the IBLT family.

Every table in :mod:`repro.iblt` supports two interchangeable backends:

``"numpy"`` (default)
    Cell state lives in flat numpy arrays and the hot paths — hashing,
    batch insert/delete, subtraction, pure-cell detection — run as
    vectorised ``uint64`` operations (exact Mersenne-61 arithmetic via
    :mod:`repro.hashing.mersenne`).  The IBLT peels with the adaptive
    frontier decoder (:mod:`repro.iblt.frontier`); the sum-cell tables
    keep their exact FIFO peel and batch-prime a shared hash cache.

``"python"``
    The original pure-Python reference implementation: cell state in
    lists, arbitrary-precision integers everywhere.  Kept as the ground
    truth the property tests pin the numpy backend against, and as the
    fallback for key widths beyond what ``uint64`` cells can hold.

Both backends are bit-identical for the same :class:`~repro.hashing.PublicCoins`
(``tests/test_backend_parity.py``).  The process-wide default comes from
the ``REPRO_BACKEND`` environment variable when set, else ``"numpy"``;
individual tables can override it via their ``backend=`` parameter.
This is the only environment knob the package reads.
"""

from __future__ import annotations

import os

__all__ = [
    "BACKENDS",
    "default_backend",
    "resolve_backend",
]

BACKENDS = ("numpy", "python")


def default_backend() -> str:
    """The process-wide default backend (``REPRO_BACKEND`` or ``"numpy"``)."""
    backend = os.environ.get("REPRO_BACKEND", "numpy").strip().lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"REPRO_BACKEND must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


def resolve_backend(backend: str | None) -> str:
    """Validate an explicit backend choice, or fall back to the default."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


# Kept only for the end-to-end benchmark's report metadata, which reads it.
def default_decode_mode() -> str:
    return "frontier"
