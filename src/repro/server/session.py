"""Shared session vocabulary: config, coins, workload, JSON payloads.

Client and server never ship point sets in the clear to set a benchmark
up — a session's workload is *derived* on both sides from the HELLO
config: ``numpy.random.default_rng([seed, session_id])`` generates the
shared points and each party's extras, the client keeps Alice's half and
the server keeps Bob's.  Because the server can derive the full union,
it can verify end-to-end success and report it in RESULT, making every
session self-checking.

All JSON parsing here guards against malformed input with
:class:`~repro.errors.MalformedPayloadError` — HELLO payloads arrive
off the wire and must never crash the server.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import MalformedPayloadError
from ..hashing import PublicCoins, derive_seed
from ..metric.spaces import HammingSpace, Point
from ..workloads import split_difference_pair

__all__ = [
    "SessionConfig",
    "json_payload",
    "parse_json_payload",
    "session_workload",
]

#: Protocol families a session may request.
PROTOCOLS = ("exact", "resilient")


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

    def workload(self) -> "tuple[list[Point], list[Point]]":
        """Derive ``(alice_points, bob_points)`` for this session."""
        return session_workload(
            self.seed, self.session_id, self.dim, self.n_shared, self.delta
        )


def session_workload(
    seed: int, session_id: int, dim: int, n_shared: int, delta: int
) -> "tuple[list[Point], list[Point]]":
    """Deterministic per-session Hamming workload (both endpoints agree).

    The exact-reconciliation workload shape
    (:func:`~repro.workloads.split_difference_pair`) drawn from
    ``numpy.random.default_rng([seed, session_id])``.
    """
    rng = np.random.default_rng([seed, session_id])
    return split_difference_pair(HammingSpace(dim), rng, n_shared, delta)
