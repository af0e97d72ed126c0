"""Seeded simulated network conditions for the reconciliation service.

:class:`SimulatedNetwork` sits between a client's frame multiplexer and
its transport and damages traffic the way a lossy link would — except
deterministically.  Every decision about a frame is drawn from an RNG
keyed **only** on ``(seed, session id, direction, sequence number)``,
never on payload bytes, arrival order, or wall clock, so a multi-session
run produces the same fault pattern regardless of asyncio scheduling —
the property the service scenario's byte-identical reports rest on.

Fault semantics are chosen to preserve *framing* (a length-prefixed
stream must stay reassemblable):

* **loss** — the frame is delivered, but with its payload zeroed and its
  trailing CRC inverted: a guaranteed payload-checksum failure at the
  receiver, modelling a detected loss that triggers a protocol-level
  re-request.  (Actually withholding bytes would stall the peer's
  ``readexactly`` forever.)
* **corruption** — a few payload bits flip; detected by the payload CRC.
* **duplication** — the (possibly damaged) frame is delivered twice;
  receivers deduplicate by sequence number.
* **reordering** — modelled as a *late duplicate*: the frame is
  delivered on time and a deferred stale copy arrives after the next
  frame in the same direction, so receivers observe genuinely
  out-of-order sequence numbers.  (Deferring the *only* copy of a
  frame would stall a stop-and-wait protocol against the wall-clock
  timeout — nondeterministically.  A retransmission racing a newer
  frame is also how real links reorder under this protocol.)
* **latency** — a per-frame value ``base + jitter·U(0,1)`` is *drawn*
  and recorded; by default no wall-clock sleep happens
  (``latency_scale = 0``), so reports carry simulated latency while
  tests stay fast.

Faults never touch the 30-byte frame prelude: a damaged frame still
routes to its session, which is what lets one session recover without
poisoning its neighbours on the shared connection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Any, Mapping

from ..hashing import derive_seed
from ..protocol.wire import HEADER_LEN, FrameHeader

__all__ = ["NetworkConfig", "SessionLink", "SimulatedNetwork", "LinkDecision"]

#: Direction tags used to key fault streams.
CLIENT_TO_SERVER = "c2s"
SERVER_TO_CLIENT = "s2c"


@dataclass(frozen=True)
class NetworkConfig:
    """Seeded link conditions applied client-side in both directions."""

    seed: int
    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    base_latency_ms: float = 0.2
    jitter_ms: float = 0.0
    #: Wall-clock seconds slept per simulated millisecond (0 = never sleep).
    latency_scale: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_rate", "corrupt_rate", "duplicate_rate", "reorder_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.loss_rate + self.corrupt_rate > 1.0:
            raise ValueError("loss_rate + corrupt_rate must not exceed 1")
        if self.base_latency_ms < 0 or self.jitter_ms < 0 or self.latency_scale < 0:
            raise ValueError("latency parameters must be >= 0")

    @classmethod
    def from_params(cls, seed: int, params: Mapping[str, Any]) -> "NetworkConfig":
        """The link a ``client`` namespace or a scenario's params name;
        absent conditions keep their defaults."""
        names = [field.name for field in fields(cls) if field.name != "seed"]
        return cls(seed=seed, **{name: params[name] for name in names if name in params})

    @property
    def any_faults(self) -> bool:
        return bool(
            self.loss_rate
            or self.corrupt_rate
            or self.duplicate_rate
            or self.reorder_rate
        )


@dataclass(frozen=True)
class LinkDecision:
    """What the link did to one frame."""

    deliveries: "list[bytes]"  #: physical copies put on the wire (>= 1)
    latency_ms: float  #: drawn one-way latency for this frame
    lost: bool  #: payload zeroed + trailer inverted
    corrupted: bool  #: payload bits flipped
    duplicated: bool  #: delivered twice
    #: Stale copies to deliver *after* the next frame in this direction
    #: (the late-duplicate model of reordering); empty when none.
    deferred: "tuple[bytes, ...]" = ()

    @property
    def reordered(self) -> bool:
        return bool(self.deferred)


def _zero_payload(raw: bytes, header: FrameHeader) -> bytes:
    mutated = bytearray(raw)
    start = HEADER_LEN + header.label_len
    for index in range(start, start + header.payload_len):
        mutated[index] = 0
    # Invert the trailing CRC so even an all-zero payload is detected.
    for index in range(len(mutated) - 4, len(mutated)):
        mutated[index] ^= 0xFF
    return bytes(mutated)


def _flip_payload_bits(raw: bytes, header: FrameHeader, rng: random.Random) -> bytes:
    mutated = bytearray(raw)
    start = HEADER_LEN + header.label_len
    if header.payload_len == 0:
        # Nothing to flip in the payload; damage the trailer instead.
        mutated[len(mutated) - 1] ^= 0x01
        return bytes(mutated)
    for _ in range(1 + rng.randrange(3)):
        position = start + rng.randrange(header.payload_len)
        mutated[position] ^= 1 << rng.randrange(8)
    return bytes(mutated)


class SessionLink:
    """The deterministic fault/latency plan for one session's frames."""

    def __init__(self, config: NetworkConfig, session_id: int) -> None:
        self.config = config
        self.session_id = session_id

    def _rng(self, direction: str, seq: int) -> random.Random:
        return random.Random(
            derive_seed(self.config.seed, "link", self.session_id, direction, seq)
        )

    def apply(self, direction: str, seq: int, header: FrameHeader, raw: bytes) -> LinkDecision:
        """Decide this frame's fate; pure in ``(direction, seq)``."""
        rng = self._rng(direction, seq)
        latency_ms = self.config.base_latency_ms + self.config.jitter_ms * rng.random()
        lost = corrupted = False
        roll = rng.random()
        if roll < self.config.loss_rate:
            raw = _zero_payload(raw, header)
            lost = True
        elif roll < self.config.loss_rate + self.config.corrupt_rate:
            raw = _flip_payload_bits(raw, header, rng)
            corrupted = True
        duplicated = rng.random() < self.config.duplicate_rate
        deliveries = [raw, raw] if duplicated else [raw]
        # Reordering defers an *extra* stale copy past the next frame in
        # this direction; the draw comes last so enabling it leaves the
        # loss/corrupt/duplicate streams of a given seed untouched.
        deferred: "tuple[bytes, ...]" = ()
        if rng.random() < self.config.reorder_rate:
            deferred = (raw,)
        return LinkDecision(
            deliveries=deliveries,
            latency_ms=latency_ms,
            lost=lost,
            corrupted=corrupted,
            duplicated=duplicated,
            deferred=deferred,
        )


class SimulatedNetwork:
    """Factory handing each session its own deterministic link."""

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config

    def link(self, session_id: int) -> SessionLink:
        return SessionLink(self.config, session_id)
