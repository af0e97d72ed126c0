"""Seeded fault injection for the measured channel.

:class:`FaultyChannel` wraps a :class:`~repro.protocol.channel.Channel`
and deterministically damages messages in flight: per-message drop,
byte truncation, bit-flip corruption, and duplication, each drawn from a
:class:`~repro.hashing.PublicCoins`-derived stream.  Protocol code is
unchanged — it still calls ``send`` and parses whatever comes back — but
what comes back may be damaged, which is exactly what the typed
:class:`~repro.errors.DecodeError` surface and the resilient
reconciliation controller exist to absorb.

Determinism contract: the fault draws for message ``i`` depend only on
the injected coins and ``i`` — never on payload bytes, labels, or wall
clock — so a protocol that re-sends the same sequence of messages hits
the same sequence of faults, and the same fault seed yields byte-identical
recovery reports (the ``resilient-recon-faulty`` scenario's golden pins
this).

Accounting: the *sender* pays for what was transmitted, so the full
payload is recorded on the inner transcript even when the receiver gets
a truncated or empty delivery, and a duplicated message is recorded (and
paid for) twice.  The fault transcript (:attr:`FaultyChannel.events`)
records what happened to each damaged message alongside the message
transcript.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hashing import PublicCoins
from .channel import BaseChannel, Channel, Message

__all__ = ["FaultSpec", "FaultEvent", "FaultSummary", "FaultyChannel"]

#: Upper bound on bits flipped per corrupted message.
MAX_FLIP_BITS = 4


def _check_rate(name: str, rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {rate}")


@dataclass(frozen=True)
class FaultSpec:
    """Per-message fault probabilities (independent Bernoulli draws).

    Parameters
    ----------
    drop_rate:
        The receiver gets an empty payload (the message is paid for but
        lost in flight).
    truncate_rate:
        The receiver gets a strict byte prefix of the payload.
    flip_rate:
        1..:data:`MAX_FLIP_BITS` uniformly chosen bits of the delivered
        payload are inverted.
    duplicate_rate:
        The message is transmitted (and paid for) twice; the receiver
        still parses a single copy.
    """

    drop_rate: float = 0.0
    truncate_rate: float = 0.0
    flip_rate: float = 0.0
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_rate("drop_rate", self.drop_rate)
        _check_rate("truncate_rate", self.truncate_rate)
        _check_rate("flip_rate", self.flip_rate)
        _check_rate("duplicate_rate", self.duplicate_rate)

    @property
    def any_faults(self) -> bool:
        return (
            self.drop_rate > 0
            or self.truncate_rate > 0
            or self.flip_rate > 0
            or self.duplicate_rate > 0
        )


@dataclass(frozen=True)
class FaultEvent:
    """One damaged message: what was sent vs. what was delivered."""

    index: int  #: position of the message in the logical send sequence
    sender: str
    label: str
    kinds: tuple[str, ...]  #: subset of ("duplicate", "drop", "truncate", "flip")
    sent_bits: int
    delivered_bits: int
    flipped_bits: int = 0


@dataclass
class FaultSummary:
    """Aggregate fault transcript for a finished run."""

    messages: int = 0
    faulted: int = 0
    dropped: int = 0
    truncated: int = 0
    flipped: int = 0
    duplicated: int = 0
    bits_lost: int = 0  #: sent-but-undelivered bits (drops + truncations)

    def to_dict(self) -> dict:
        return {
            "messages": self.messages,
            "faulted": self.faulted,
            "dropped": self.dropped,
            "truncated": self.truncated,
            "flipped": self.flipped,
            "duplicated": self.duplicated,
            "bits_lost": self.bits_lost,
        }


class FaultyChannel(BaseChannel):
    """A :class:`Channel` wrapper that deterministically injects faults.

    Drop-in for ``Channel`` anywhere a protocol takes one (both sides of
    the :class:`~repro.protocol.channel.BaseChannel` contract): ``send``
    returns the (possibly damaged) delivered payload, and the transcript
    accessors delegate to the wrapped channel, so communication
    accounting is unchanged by wrapping.
    """

    def __init__(self, inner: Channel, spec: FaultSpec, coins: PublicCoins):
        # No super().__init__(): the transcript lives on the wrapped
        # channel and ``messages`` delegates to it.
        self.inner = inner
        self.spec = spec
        self.coins = coins.child("faulty-channel")
        self.events: list[FaultEvent] = []
        self._send_index = 0

    # -- transcript delegation ---------------------------------------------
    @property
    def messages(self) -> list[Message]:  # type: ignore[override]
        return self.inner.messages

    def fault_summary(self) -> FaultSummary:
        summary = FaultSummary(messages=self._send_index, faulted=len(self.events))
        for event in self.events:
            if "drop" in event.kinds:
                summary.dropped += 1
            if "truncate" in event.kinds:
                summary.truncated += 1
            if "flip" in event.kinds:
                summary.flipped += 1
            if "duplicate" in event.kinds:
                summary.duplicated += 1
            summary.bits_lost += max(0, event.sent_bits - event.delivered_bits)
        return summary

    # -- sending -----------------------------------------------------------
    def send(
        self, sender: str, label: str, payload: bytes, payload_bits: int | None = None
    ) -> bytes:
        """Transmit via the inner channel, then damage the delivery.

        The fault draws for message ``i`` come from a private stream
        keyed only on ``i``, and all four Bernoulli draws happen for
        every message, so the stream layout (hence every later message's
        fate) is independent of which faults actually fire.
        """
        index = self._send_index
        self._send_index += 1
        sent = self.inner.send(sender, label, payload, payload_bits)
        sent_bits = self.inner.messages[-1].bits

        rng = self.coins.python_rng("message", index)
        duplicate = rng.random() < self.spec.duplicate_rate
        drop = rng.random() < self.spec.drop_rate
        truncate = rng.random() < self.spec.truncate_rate
        flip = rng.random() < self.spec.flip_rate

        if duplicate:
            self.inner.send(sender, label, payload, payload_bits)

        kinds: list[str] = ["duplicate"] if duplicate else []
        delivered = sent
        delivered_bits = sent_bits
        flipped_bits = 0
        if drop:
            kinds.append("drop")
            delivered = b""
            delivered_bits = 0
        else:
            if truncate and len(delivered) > 0:
                kinds.append("truncate")
                cut = rng.randrange(len(delivered))
                delivered = delivered[:cut]
                delivered_bits = min(delivered_bits, 8 * cut)
            if flip and len(delivered) > 0:
                kinds.append("flip")
                flipped_bits = 1 + rng.randrange(MAX_FLIP_BITS)
                damaged = bytearray(delivered)
                for _ in range(flipped_bits):
                    position = rng.randrange(8 * len(damaged))
                    damaged[position // 8] ^= 1 << (position % 8)
                delivered = bytes(damaged)

        if kinds:
            self.events.append(
                FaultEvent(
                    index=index,
                    sender=sender,
                    label=label,
                    kinds=tuple(kinds),
                    sent_bits=sent_bits,
                    delivered_bits=delivered_bits,
                    flipped_bits=flipped_bits,
                )
            )
        return delivered
