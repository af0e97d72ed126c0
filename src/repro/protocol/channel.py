"""A simulated two-party channel with measured communication.

Protocols in this library are written as explicit message exchanges over a
:class:`Channel`.  Every message is a real byte payload (produced by the
serializers in :mod:`repro.protocol.serialize`), and the channel records a
transcript from which experiments read *measured* bits and round counts.

Following the paper (Section 2), the number of *rounds* of a protocol is
the number of messages sent, and a one-round protocol is a single message
from Alice to Bob (or vice versa).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["Message", "BaseChannel", "Channel", "TranscriptSummary"]

ALICE = "alice"
BOB = "bob"


@dataclass(frozen=True)
class Message:
    """One transmitted message."""

    sender: str
    label: str
    payload: bytes
    payload_bits: int

    @property
    def bits(self) -> int:
        """Exact bit size the sender declared (<= 8 * len(payload))."""
        return self.payload_bits


@dataclass
class TranscriptSummary:
    """Aggregate view of a finished protocol run."""

    total_bits: int
    rounds: int
    by_label: dict[str, int] = field(default_factory=dict)
    by_sender: dict[str, int] = field(default_factory=dict)

    @classmethod
    def merge(cls, summaries: Iterable["TranscriptSummary"]) -> "TranscriptSummary":
        """Combine summaries of several attempts into one aggregate.

        Multi-attempt runs (the resilient reconciliation controller's
        retries) summarise each attempt separately; the merged summary is
        what the whole run cost on the wire — bits and rounds add, and
        the per-label/per-sender breakdowns accumulate key-wise.
        """
        merged = cls(total_bits=0, rounds=0)
        for summary in summaries:
            merged.total_bits += summary.total_bits
            merged.rounds += summary.rounds
            for label, bits in summary.by_label.items():
                merged.by_label[label] = merged.by_label.get(label, 0) + bits
            for sender, bits in summary.by_sender.items():
                merged.by_sender[sender] = merged.by_sender.get(sender, 0) + bits
        return merged


class BaseChannel(abc.ABC):
    """The measurement contract every transport implements.

    Three transports speak it: the in-process :class:`Channel`, the
    fault-injecting :class:`~repro.protocol.faults.FaultyChannel`
    wrapper, and the wire-backed
    :class:`~repro.server.transport.AsyncChannel`.  Send-time validation
    (:meth:`validate_send`) and the transcript accessors live here, so
    every transport accounts for communication identically; subclasses
    only decide how a validated message actually moves (``send`` is sync
    on the in-process transports and a coroutine on the async one, but
    takes the same arguments and applies the same validation).

    Subclasses must expose the transcript as a ``messages`` sequence —
    either the inherited list or a delegating property.
    """

    messages: "list[Message]"

    def __init__(self) -> None:
        self.messages = []

    @staticmethod
    def validate_send(
        sender: str, label: str, payload: bytes, payload_bits: int | None = None
    ) -> int:
        """Validate a send and return the exact declared bit count."""
        if not sender:
            raise ValueError("sender must be non-empty ('alice' or 'bob')")
        if sender not in (ALICE, BOB):
            raise ValueError(f"sender must be 'alice' or 'bob', got {sender!r}")
        if not label:
            raise ValueError("message label must be a non-empty string")
        bits = 8 * len(payload) if payload_bits is None else int(payload_bits)
        if bits < 0:
            raise ValueError(f"declared payload_bits must be >= 0, got {bits}")
        if bits > 8 * len(payload):
            raise ValueError(
                f"declared {bits} bits exceeds payload of {8 * len(payload)} bits"
            )
        return bits

    @abc.abstractmethod
    def send(self, sender: str, label: str, payload: bytes, payload_bits: int | None = None):
        """Transmit ``payload`` (sync transports return the delivery)."""

    @property
    def total_bits(self) -> int:
        return sum(message.bits for message in self.messages)

    @property
    def rounds(self) -> int:
        """Number of messages sent (the paper's round count)."""
        return len(self.messages)

    def summary(self) -> TranscriptSummary:
        by_label: dict[str, int] = {}
        by_sender: dict[str, int] = {}
        for message in self.messages:
            by_label[message.label] = by_label.get(message.label, 0) + message.bits
            by_sender[message.sender] = by_sender.get(message.sender, 0) + message.bits
        return TranscriptSummary(
            total_bits=self.total_bits,
            rounds=self.rounds,
            by_label=by_label,
            by_sender=by_sender,
        )


class Channel(BaseChannel):
    """Records messages between Alice and Bob (in-process transport).

    ``send`` returns the payload so caller code naturally reads like a
    protocol: the receiving party parses exactly the bytes that were
    "sent".  ``payload_bits`` lets bit-packed messages report their exact
    bit count (the final byte of a :class:`BitWriter` buffer is padded).
    """

    def send(self, sender: str, label: str, payload: bytes, payload_bits: int | None = None) -> bytes:
        """Transmit ``payload``; returns it for the receiver to parse."""
        bits = self.validate_send(sender, label, payload, payload_bits)
        self.messages.append(
            Message(sender=sender, label=label, payload=payload, payload_bits=bits)
        )
        return payload
