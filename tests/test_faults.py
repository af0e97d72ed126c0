"""Seeded fault injection: determinism, accounting, fault semantics."""

from __future__ import annotations

import pytest

from repro.protocol import (
    ALICE,
    BOB,
    Channel,
    FaultSpec,
    FaultyChannel,
    TranscriptSummary,
)
from repro.protocol.faults import MAX_FLIP_BITS


def _run_sequence(channel):
    deliveries = []
    deliveries.append(channel.send(ALICE, "m1", b"hello world", 86))
    deliveries.append(channel.send(BOB, "m2", b"\x01\x02\x03\x04" * 8))
    deliveries.append(channel.send(ALICE, "m3", b"x" * 40))
    deliveries.append(channel.send(BOB, "m4", b""))
    return deliveries


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(truncate_rate=-0.1)

    def test_any_faults(self):
        assert not FaultSpec().any_faults
        assert FaultSpec(flip_rate=0.01).any_faults


class TestDeterminism:
    def test_same_coins_same_faults(self, coins):
        spec = FaultSpec(drop_rate=0.3, truncate_rate=0.3, flip_rate=0.2,
                         duplicate_rate=0.2)
        a = FaultyChannel(Channel(), spec, coins.child("f"))
        b = FaultyChannel(Channel(), spec, coins.child("f"))
        assert _run_sequence(a) == _run_sequence(b)
        assert a.events == b.events
        assert a.inner.messages == b.inner.messages

    def test_faults_depend_only_on_message_index(self, coins):
        """Payload bytes never influence the fault stream."""
        spec = FaultSpec(drop_rate=0.5, truncate_rate=0.5)
        a = FaultyChannel(Channel(), spec, coins.child("f"))
        b = FaultyChannel(Channel(), spec, coins.child("f"))
        for i in range(12):
            a.send(ALICE, "m", bytes([i]) * 20)
            b.send(ALICE, "m", bytes([255 - i]) * 20)
        assert [e.kinds for e in a.events] == [e.kinds for e in b.events]
        assert [e.index for e in a.events] == [e.index for e in b.events]

    def test_different_coins_differ(self, coins):
        spec = FaultSpec(drop_rate=0.5)
        a = FaultyChannel(Channel(), spec, coins.child("f", 1))
        b = FaultyChannel(Channel(), spec, coins.child("f", 2))
        for channel in (a, b):
            for _ in range(32):
                channel.send(ALICE, "m", b"payload")
        assert [e.index for e in a.events] != [e.index for e in b.events]


class TestFaultKinds:
    def test_no_faults_is_passthrough(self, coins):
        plain = Channel()
        wrapped = FaultyChannel(Channel(), FaultSpec(), coins)
        assert _run_sequence(plain) == _run_sequence(wrapped)
        assert wrapped.events == []
        assert wrapped.inner.messages == plain.messages
        assert wrapped.total_bits == plain.total_bits
        assert wrapped.rounds == plain.rounds
        assert wrapped.summary() == plain.summary()

    def test_drop_delivers_empty_but_charges_sender(self, coins):
        channel = FaultyChannel(Channel(), FaultSpec(drop_rate=1.0), coins)
        delivered = channel.send(ALICE, "m", b"hello", 40)
        assert delivered == b""
        assert channel.total_bits == 40  # the sender still paid
        (event,) = channel.events
        assert event.kinds == ("drop",)
        assert event.sent_bits == 40
        assert event.delivered_bits == 0

    def test_truncate_delivers_strict_prefix(self, coins):
        channel = FaultyChannel(Channel(), FaultSpec(truncate_rate=1.0), coins)
        payload = bytes(range(64))
        for _ in range(16):
            delivered = channel.send(ALICE, "m", payload)
            assert len(delivered) < len(payload)
            assert payload.startswith(delivered)
        assert all(e.kinds == ("truncate",) for e in channel.events)
        assert channel.total_bits == 16 * 8 * 64

    def test_flip_preserves_length_and_bounds_flips(self, coins):
        spec = FaultSpec(flip_rate=1.0)
        channel = FaultyChannel(Channel(), spec, coins)
        payload = b"\x00" * 32
        for _ in range(16):
            delivered = channel.send(ALICE, "m", payload)
            assert len(delivered) == len(payload)
            flipped = sum(bin(byte).count("1") for byte in delivered)
            # Flips can coincide and cancel, so <= drawn flips.
            assert 0 <= flipped <= MAX_FLIP_BITS
        assert all(e.kinds == ("flip",) and 1 <= e.flipped_bits <= MAX_FLIP_BITS
                   for e in channel.events)

    def test_duplicate_pays_twice_delivers_once(self, coins):
        channel = FaultyChannel(Channel(), FaultSpec(duplicate_rate=1.0), coins)
        delivered = channel.send(BOB, "m", b"abc", 20)
        assert delivered == b"abc"
        assert channel.rounds == 2
        assert channel.total_bits == 40
        (event,) = channel.events
        assert event.kinds == ("duplicate",)

    def test_empty_payload_never_truncates_or_flips(self, coins):
        spec = FaultSpec(truncate_rate=1.0, flip_rate=1.0)
        channel = FaultyChannel(Channel(), spec, coins)
        assert channel.send(ALICE, "m", b"") == b""
        assert channel.events == []


class TestFaultSummary:
    def test_counts_and_bits_lost(self, coins):
        spec = FaultSpec(drop_rate=0.4, truncate_rate=0.4, duplicate_rate=0.2)
        channel = FaultyChannel(Channel(), spec, coins.child("s"))
        for _ in range(40):
            channel.send(ALICE, "m", b"0123456789")
        summary = channel.fault_summary()
        assert summary.messages == 40
        assert summary.faulted == len(channel.events)
        assert summary.dropped > 0
        assert summary.truncated > 0
        assert summary.bits_lost > 0
        document = summary.to_dict()
        assert document["messages"] == 40
        assert document["dropped"] == summary.dropped

    def test_channel_validation_still_applies(self, coins):
        channel = FaultyChannel(Channel(), FaultSpec(), coins)
        with pytest.raises(ValueError):
            channel.send("carol", "m", b"x")
        with pytest.raises(ValueError):
            channel.send(ALICE, "m", b"x", 9)


class TestTranscriptSummaryMerge:
    def test_merge_accumulates(self):
        first = Channel()
        first.send(ALICE, "iblt", b"\xff" * 4, 30)
        first.send(BOB, "reply", b"\x01", 3)
        second = Channel()
        second.send(ALICE, "iblt", b"\xff" * 8, 61)
        merged = TranscriptSummary.merge([first.summary(), second.summary()])
        assert merged.total_bits == 94
        assert merged.rounds == 3
        assert merged.by_label == {"iblt": 91, "reply": 3}
        assert merged.by_sender == {"alice": 91, "bob": 3}

    def test_merge_empty_is_zero(self):
        merged = TranscriptSummary.merge([])
        assert merged.total_bits == 0
        assert merged.rounds == 0
        assert merged.by_label == {}
