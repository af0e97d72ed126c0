"""Seeded fuzzing of every deserializer: only DecodeError may escape.

Each wire format gets random truncations and random bit-flips of a valid
payload.  Decoding may succeed (a flip can land in dead padding) or fail,
but the *only* exception allowed out of a deserializer is the typed
:class:`repro.errors.DecodeError` family — never a raw ``IndexError``,
``struct.error``, numpy ``OverflowError``, or untyped ``ValueError`` from
deep inside the stack.  The resilient controller relies on this contract
to classify failures as "payload corrupted" and re-request.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import (
    DecodeError,
    MalformedPayloadError,
    SketchUndecodableError,
    TruncatedPayloadError,
)
from repro.hashing import PublicCoins
from repro.iblt import IBLT, RIBLT, MultisetIBLT
from repro.metric import GridSpace, HammingSpace
from repro.protocol import (
    BitReader,
    BitWriter,
    iblt_payload,
    multiset_payload,
    read_iblt_cells,
    read_multiset_cells,
    read_points,
    read_riblt_cells,
    riblt_payload,
    write_points,
)
from repro.reconcile import StrataEstimator

COINS = PublicCoins(0xF022)

TRUNCATION_TRIALS = 48
FLIP_TRIALS = 48


def _mutations(payload: bytes, seed: int):
    """Yield seeded truncations and bit-flipped copies of ``payload``."""
    rng = random.Random(seed)
    for _ in range(TRUNCATION_TRIALS):
        yield payload[: rng.randrange(len(payload))]
    for _ in range(FLIP_TRIALS):
        corrupted = bytearray(payload)
        for _ in range(1 + rng.randrange(4)):
            position = rng.randrange(8 * len(payload))
            corrupted[position // 8] ^= 1 << (position % 8)
        yield bytes(corrupted)


def _assert_only_decode_error(decode, payload: bytes, seed: int) -> None:
    for mutated in _mutations(payload, seed):
        try:
            decode(mutated)
        except DecodeError:
            pass  # the typed contract — exactly what callers handle
        except Exception as error:  # pragma: no cover - the failure branch
            raise AssertionError(
                f"untyped {type(error).__name__} escaped a deserializer: {error}"
            ) from error


class TestErrorHierarchy:
    def test_subclass_contract(self):
        assert issubclass(TruncatedPayloadError, DecodeError)
        assert issubclass(TruncatedPayloadError, EOFError)
        assert issubclass(MalformedPayloadError, DecodeError)
        assert issubclass(MalformedPayloadError, ValueError)
        assert issubclass(SketchUndecodableError, DecodeError)

    def test_truncated_stream_raises_typed_eof(self):
        reader = BitReader(b"")
        with pytest.raises(TruncatedPayloadError):
            reader.read_bit()
        with pytest.raises(DecodeError):
            BitReader(b"").read_varuint()


class TestPointsFuzz:
    @pytest.mark.parametrize(
        "space", [HammingSpace(33), GridSpace(side=64, dim=3, p=1.0)],
        ids=["hamming", "grid"],
    )
    def test_only_decode_error_escapes(self, space, rng):
        writer = BitWriter()
        write_points(writer, space, space.sample(rng, 17))
        payload = writer.getvalue()

        def decode(mutated: bytes) -> None:
            read_points(BitReader(mutated), space)

        _assert_only_decode_error(decode, payload, seed=101)

    def test_huge_count_rejected_before_allocation(self, hamming_space):
        writer = BitWriter()
        writer.write_varuint(1 << 40)  # claims ~10^12 points follow
        with pytest.raises(MalformedPayloadError):
            read_points(BitReader(writer.getvalue()), hamming_space)


class TestIBLTCellsFuzz:
    def _shell(self) -> IBLT:
        return IBLT(COINS, "fuzz-iblt", cells=24, q=3, key_bits=30)

    def test_only_decode_error_escapes(self):
        table = self._shell()
        for key in range(37):
            table.insert(key)
        payload, _ = iblt_payload(table)

        def decode(mutated: bytes) -> None:
            read_iblt_cells(BitReader(mutated), self._shell())

        _assert_only_decode_error(decode, payload, seed=202)

    def test_oversized_count_rejected(self):
        writer = BitWriter()
        writer.write_varint(1 << 64)  # varint-encodable, int64-impossible
        with pytest.raises(MalformedPayloadError):
            read_iblt_cells(BitReader(writer.getvalue()), self._shell())


class TestRIBLTCellsFuzz:
    def _shell(self) -> RIBLT:
        return RIBLT(
            COINS, "fuzz-riblt", cells=12, q=3, key_bits=30, dim=3, side=64
        )

    def test_only_decode_error_escapes(self, rng):
        table = self._shell()
        for key in range(21):
            table.insert(key, tuple(int(v) for v in rng.integers(0, 64, size=3)))
        payload, _ = riblt_payload(table)

        def decode(mutated: bytes) -> None:
            read_riblt_cells(BitReader(mutated), self._shell())

        _assert_only_decode_error(decode, payload, seed=303)


class TestMultisetCellsFuzz:
    def _shell(self) -> MultisetIBLT:
        return MultisetIBLT(COINS, "fuzz-multiset", cells=24, q=3, key_bits=30)

    def test_only_decode_error_escapes(self):
        table = self._shell()
        for key in range(19):
            table.insert(key, multiplicity=1 + key % 3)
        payload, _ = multiset_payload(table)

        def decode(mutated: bytes) -> None:
            read_multiset_cells(BitReader(mutated), self._shell())

        _assert_only_decode_error(decode, payload, seed=404)


class TestStrataFuzz:
    def _shell(self) -> StrataEstimator:
        return StrataEstimator(COINS, "fuzz-strata", strata=6, cells=12,
                               key_bits=30)

    def test_only_decode_error_escapes(self):
        estimator = self._shell()
        for key in range(50):
            estimator.insert(key)
        payload, _ = estimator.to_payload()

        def decode(mutated: bytes) -> None:
            self._shell().from_payload(mutated)

        _assert_only_decode_error(decode, payload, seed=505)
