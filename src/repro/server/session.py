"""Shared session vocabulary: config, coins, workload, JSON payloads.

Client and server never ship point sets in the clear to set a benchmark
up — a session's workload is *derived* on both sides from the HELLO
config: ``numpy.random.default_rng([seed, session_id])`` generates the
shared points and each party's extras, the client keeps Alice's half and
the server keeps Bob's.  Because the server can derive the full union,
it can verify end-to-end success and report it in RESULT, making every
session self-checking.

The workload is two ``(n, d)`` int64 matrices
(:func:`~repro.workloads.split_difference_arrays`, via
:func:`session_workload`).  The endpoints work on its keys:
:func:`session_keys` makes the same draws in 64 KiB blocks and encodes
each block as it is drawn, so no endpoint holds the matrices.  Keys
turn back into points only where points cross the wire (Alice's
shipped difference, decoded by
:func:`~repro.reconcile.exact_iblt.decode_points`).

All JSON parsing here guards against malformed input with
:class:`~repro.errors.MalformedPayloadError` — HELLO payloads arrive
off the wire and must never crash the server.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping

import numpy as np

from ..errors import MalformedPayloadError
from ..hashing import PublicCoins, derive_seed
from ..metric.spaces import HammingSpace
from ..reconcile.exact_iblt import encode_points
from ..workloads import split_difference_arrays

__all__ = [
    "SessionConfig",
    "session_configs",
    "json_payload",
    "parse_json_payload",
    "session_keys",
    "session_workload",
]

#: Protocol families a session may request.
PROTOCOLS = ("exact", "resilient")

#: Most coordinate bytes :func:`session_keys` holds at once.
KEY_BLOCK_BYTES = 1 << 16


def json_payload(obj: dict) -> bytes:
    """Canonical JSON bytes (sorted keys, compact separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def parse_json_payload(payload: bytes) -> dict:
    """Parse a JSON control payload; typed error on any damage."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedPayloadError(f"malformed JSON control payload: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedPayloadError(
            f"JSON control payload must be an object, got {type(obj).__name__}"
        )
    return obj


@dataclass(frozen=True)
class SessionConfig:
    """Everything both endpoints need to run (and verify) one session."""

    session_id: int
    seed: int
    protocol: str = "resilient"
    dim: int = 64
    n_shared: int = 256
    delta: int = 16
    delta_bound: int = 8
    q: int = 3
    max_attempts: int = 8
    max_escalations: int = 2

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        for name in ("dim", "delta_bound", "q", "max_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("session_id", "n_shared", "delta", "max_escalations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def to_json(self) -> bytes:
        return json_payload(asdict(self))

    @classmethod
    def from_payload(cls, payload: bytes) -> "SessionConfig":
        """Parse a HELLO payload; every failure is a typed decode error."""
        obj = parse_json_payload(payload)
        expected = {
            "session_id", "seed", "protocol", "dim", "n_shared",
            "delta", "delta_bound", "q", "max_attempts", "max_escalations",
        }
        if set(obj) != expected:
            raise MalformedPayloadError(
                f"HELLO config fields mismatch: got {sorted(obj)}"
            )
        if not isinstance(obj["protocol"], str):
            raise MalformedPayloadError("HELLO protocol must be a string")
        for name in expected - {"protocol"}:
            if not isinstance(obj[name], int) or isinstance(obj[name], bool):
                raise MalformedPayloadError(f"HELLO field {name!r} must be an integer")
        try:
            return cls(**obj)
        except ValueError as exc:
            raise MalformedPayloadError(f"invalid HELLO config: {exc}") from None

    # -- derived state -----------------------------------------------------

    def space(self) -> HammingSpace:
        return HammingSpace(self.dim)

    def coins(self) -> PublicCoins:
        """The session's shared protocol randomness (both endpoints)."""
        return PublicCoins(self.seed).child("recon-service", self.session_id)

    def attempt_coins(self, attempt: int) -> PublicCoins:
        """Per-attempt coins; attempt 1 uses the session coins unchanged
        (mirroring the resilient controller's zero-overhead first try)."""
        base = self.coins()
        return base if attempt == 1 else base.child("service-attempt", attempt)

    def strata_coins(self) -> PublicCoins:
        return self.coins().child("service-strata")

    @property
    def key_bits(self) -> int:
        return max(1, self.dim)

    def store_key(self) -> int:
        """Stable sketch-store key for Bob's derived set.

        Folds the workload identity — everything :meth:`workload`
        depends on — onto the store's 61-bit routing line, so any two
        sessions deriving the same Bob set share one warm entry.
        """
        return derive_seed(
            self.seed,
            "store-workload",
            self.session_id,
            self.dim,
            self.n_shared,
            self.delta,
        ) & ((1 << 61) - 1)

    def workload(self) -> "tuple[np.ndarray, np.ndarray]":
        """Derive ``(alice_points, bob_points)`` for this session."""
        return session_workload(
            self.seed, self.session_id, self.dim, self.n_shared, self.delta
        )

    def workload_keys(self) -> "tuple[np.ndarray, np.ndarray]":
        """Derive ``(alice_keys, bob_keys)``: :meth:`workload`, encoded."""
        return session_keys(self.seed, self.session_id, self.dim, self.n_shared, self.delta)


def session_configs(count: int, seed: int, params: Mapping[str, Any]) -> "list[SessionConfig]":
    """Sessions ``1..count`` as a ``client`` namespace or a scenario's
    params name them (``n`` is ``n_shared``); absent options keep their
    defaults."""
    options = ("protocol", "q", "max_attempts", "max_escalations")
    return [
        SessionConfig(
            session_id=session_id,
            seed=seed,
            dim=params["dim"],
            n_shared=params["n"],
            delta=params["delta"],
            delta_bound=params["delta_bound"],
            **{name: params[name] for name in options if name in params},
        )
        for session_id in range(1, count + 1)
    ]


def session_workload(
    seed: int, session_id: int, dim: int, n_shared: int, delta: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Deterministic per-session Hamming workload (both endpoints agree).

    The exact-reconciliation workload shape
    (:func:`~repro.workloads.split_difference_arrays`) drawn from
    ``numpy.random.default_rng([seed, session_id])``: Alice's and Bob's
    points as ``(n, d)`` int64 matrices.
    """
    rng = np.random.default_rng([seed, session_id])
    return split_difference_arrays(HammingSpace(dim), rng, n_shared, delta)


def session_keys(
    seed: int, session_id: int, dim: int, n_shared: int, delta: int
) -> "tuple[np.ndarray, np.ndarray]":
    """:func:`session_workload` as key arrays: ``(alice_keys, bob_keys)``.

    The same draws in the same order (shared points, Alice's extras,
    Bob's), each made in blocks of at most :data:`KEY_BLOCK_BYTES` of
    coordinates and encoded block by block.  ``Generator.integers`` fills
    an int64 matrix element by element, so the blocks hold exactly the
    rows one draw would; the keys equal
    :func:`~repro.reconcile.exact_iblt.encode_points` of the workload's
    matrices.  The endpoints never hold those matrices: what a session
    allocates while deriving its workload stays one block, however large
    ``n_shared`` is.
    """
    space = HammingSpace(dim)
    rng = np.random.default_rng([seed, session_id])
    block = max(1, KEY_BLOCK_BYTES // (8 * dim))

    def keys(count: int) -> np.ndarray:
        if count == 0:
            return encode_points(space, np.empty((0, dim), dtype=np.int64))
        draws = (
            rng.integers(0, space.side, size=(min(block, count - start), dim))
            for start in range(0, count, block)
        )
        return np.concatenate([encode_points(space, draw) for draw in draws])

    shared = keys(n_shared)
    return (
        np.concatenate((shared, keys(delta // 2))),
        np.concatenate((shared, keys(delta - delta // 2))),
    )
