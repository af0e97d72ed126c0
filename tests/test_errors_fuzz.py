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

import numpy as np
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
    Channel,
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
from repro.setsofsets import SetsOfSetsReconciler

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


def _assert_only_decode_error(load, payload: bytes, seed: int, shell=lambda: None) -> None:
    """``load(target, mutated)`` for every mutation of ``payload``, where
    ``target`` is a fresh ``shell()``: only a ``DecodeError`` may escape,
    and a failed load must leave the shell empty."""
    for mutated in _mutations(payload, seed):
        target = shell()
        try:
            load(target, mutated)
        except DecodeError:
            # the typed contract — exactly what callers handle
            assert target is None or target.is_empty(), "a failed load filled the shell"
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

        def decode(_target, mutated: bytes) -> None:
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

        def decode(shell: IBLT, mutated: bytes) -> None:
            read_iblt_cells(BitReader(mutated), shell)

        _assert_only_decode_error(decode, payload, seed=202, shell=self._shell)

    def test_oversized_count_rejected(self):
        writer = BitWriter()
        writer.write_varint(1 << 64)  # varint-encodable, int64-impossible
        with pytest.raises(MalformedPayloadError):
            read_iblt_cells(BitReader(writer.getvalue()), self._shell())


class TestRIBLTCellsFuzz:
    def _shell(self, key_bits: int = 30) -> RIBLT:
        return RIBLT(
            COINS, "fuzz-riblt", cells=12, q=3, key_bits=key_bits, dim=3, side=64
        )

    def _assert_fuzz(self, table: RIBLT, key_bits: int) -> None:
        payload, _ = riblt_payload(table)

        def decode(shell: RIBLT, mutated: bytes) -> None:
            read_riblt_cells(BitReader(mutated), shell)

        _assert_only_decode_error(
            decode, payload, seed=303, shell=lambda: self._shell(key_bits)
        )

    def test_only_decode_error_escapes(self, rng):
        table = self._shell()
        for key in range(21):
            table.insert(key, tuple(int(v) for v in rng.integers(0, 64, size=3)))
        self._assert_fuzz(table, 30)

    def test_oversized_count_in_a_run_rejected(self):
        """A count past int64 deep inside a table-long run is caught too."""
        shell = self._shell()
        cells = [[0] * (3 + shell.dim) for _ in range(shell.m)]
        cells[5][0] = 1 << 64
        writer = BitWriter()
        writer.write_varints(value for cell in cells for value in cell)
        with pytest.raises(MalformedPayloadError, match="does not fit int64"):
            read_riblt_cells(BitReader(writer.getvalue()), shell)
        assert shell.is_empty()

    def test_wide_sums_only_decode_error_escapes(self, rng):
        """61-bit keys: checksum sums past int64 take the run's wide limbs."""
        table = self._shell(61)
        for key in rng.integers(0, 1 << 61, size=40).tolist():
            table.insert(key, tuple(int(v) for v in rng.integers(0, 64, size=3)))
        assert max(abs(total) for total in table.check_sum) >> 63
        self._assert_fuzz(table, 61)


class TestMultisetCellsFuzz:
    def _shell(self) -> MultisetIBLT:
        return MultisetIBLT(COINS, "fuzz-multiset", cells=24, q=3, key_bits=30)

    def test_only_decode_error_escapes(self):
        table = self._shell()
        for key in range(19):
            table.insert(key, multiplicity=1 + key % 3)
        payload, _ = multiset_payload(table)

        def decode(shell: MultisetIBLT, mutated: bytes) -> None:
            read_multiset_cells(BitReader(mutated), shell)

        _assert_only_decode_error(decode, payload, seed=404, shell=self._shell)


class TestStrataFuzz:
    def _shell(self) -> StrataEstimator:
        return StrataEstimator(COINS, "fuzz-strata", strata=6, cells=12,
                               key_bits=30)

    def test_only_decode_error_escapes(self):
        estimator = self._shell()
        for key in range(50):
            estimator.insert(key)
        payload, _ = estimator.to_payload()

        def decode(shell: StrataEstimator, mutated: bytes) -> None:
            shell.from_payload(mutated)

        _assert_only_decode_error(decode, payload, seed=505, shell=self._shell)


class TestSetsOfSetsFuzz:
    """The Round-2 (``sos-query``) and Round-3 (``sos-patches``) readers,
    the latter through Alice's whole reconstruction."""

    def _run(self, bob_copies: int = 1):
        rng = np.random.default_rng(606)
        reconciler = SetsOfSetsReconciler(
            COINS, "fuzz-sos", entries=12, entry_bits=10, expected_differences=200
        )
        alice = rng.integers(0, 1 << 10, size=(20, 12))
        bob = alice.copy()
        bob[:6, 3] ^= 0x155  # six patched keys
        bob[6:8] = rng.integers(0, 1 << 10, size=(2, 12))  # two verbatim keys
        bob = np.concatenate([bob] + [bob[:1]] * (bob_copies - 1))
        channel = Channel()
        result = reconciler.run(alice, bob, channel)
        assert result.success and result.recovered
        payloads = {message.label: message.payload for message in channel.messages}
        alice_keys = reconciler._internal_matrix(alice.astype(np.uint64))
        return reconciler, payloads, alice_keys

    @pytest.mark.parametrize("bob_copies", [1, 200], ids=["fixed-stride", "multi-group"])
    def test_query_reader_only_decode_error_escapes(self, bob_copies):
        reconciler, payloads, _ = self._run(bob_copies)

        def decode(_target, mutated: bytes) -> None:
            reconciler._read_query(mutated)

        _assert_only_decode_error(decode, payloads["sos-query"], seed=606)

    def test_patch_reader_only_decode_error_escapes(self):
        reconciler, payloads, alice_keys = self._run()

        def decode(_target, mutated: bytes) -> None:
            reconciler._recover(mutated, alice_keys)

        _assert_only_decode_error(decode, payloads["sos-patches"], seed=707)
