"""The unified sketch payload surface and the shared result protocol.

Every sketch type exposes the same ``to_payload()`` / ``from_payload()``
pair, byte-compatible with the older free-function serializers (now
aliases), and every exact reconciler returns the one
:class:`~repro.reconcile.outcome.ReconcileResult` that the scenario
drivers read through ``outcome_metrics``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import DecodeError
from repro.hashing import PublicCoins
from repro.iblt import IBLT, RIBLT, MultisetIBLT
from repro.metric import HammingSpace
from repro.protocol import (
    BitReader,
    BitWriter,
    iblt_payload,
    multiset_payload,
    read_iblt_cells,
    read_multiset_cells,
    read_riblt_cells,
    riblt_payload,
)
from repro.reconcile import (
    ReconcileResult,
    StrataEstimator,
    cpi_reconcile,
    exact_iblt_reconcile,
    exact_iblt_reconcile_auto,
    outcome_metrics,
    resilient_reconcile,
)

COINS = PublicCoins(0xFACE)


class TestUnifiedPayloadSurface:
    def _iblt(self) -> IBLT:
        return IBLT(COINS, "pay-iblt", cells=24, q=3, key_bits=30)

    def _riblt(self) -> RIBLT:
        return RIBLT(COINS, "pay-riblt", cells=12, q=3, key_bits=30, dim=3, side=64)

    def _multiset(self) -> MultisetIBLT:
        return MultisetIBLT(COINS, "pay-ms", cells=24, q=3, key_bits=30)

    def test_iblt_roundtrip_matches_free_function(self):
        table = self._iblt()
        for key in range(13):
            table.insert(key)
        payload, bits = table.to_payload()
        legacy_payload, legacy_bits = iblt_payload(table)
        assert (payload, bits) == (legacy_payload, legacy_bits)

        loaded = self._iblt().from_payload(payload).decode()
        legacy = read_iblt_cells(BitReader(payload), self._iblt()).decode()
        assert loaded.success and legacy.success
        assert sorted(loaded.inserted) == list(range(13))
        assert sorted(legacy.inserted) == list(range(13))

    def test_riblt_roundtrip_matches_free_function(self):
        table = self._riblt()
        for key in range(7):
            table.insert(key, (key % 64, (2 * key) % 64, (3 * key) % 64))
        payload, bits = table.to_payload()
        assert (payload, bits) == riblt_payload(table)
        loaded = self._riblt().from_payload(payload)
        legacy = read_riblt_cells(BitReader(payload), self._riblt())
        assert sorted(k for k, _v in loaded.decode().inserted) == list(range(7))
        assert sorted(k for k, _v in legacy.decode().inserted) == list(range(7))

    def test_multiset_roundtrip_matches_free_function(self):
        table = self._multiset()
        for key in range(9):
            table.insert(key, multiplicity=1 + key % 3)
        payload, bits = table.to_payload()
        assert (payload, bits) == multiset_payload(table)
        loaded = self._multiset().from_payload(payload)
        legacy = read_multiset_cells(BitReader(payload), self._multiset())
        assert loaded.decode().success and legacy.decode().success


class TestReconcileOutcomeProtocol:
    """Every exact reconciler returns the one ``ReconcileResult``."""

    def _run(self, reconcile, *args, **kwargs):
        space = HammingSpace(24)
        coins = PublicCoins(31)
        rng = coins.numpy_rng("workload")
        shared = space.sample(rng, 40)
        alice = shared + space.sample(rng, 3)
        bob = shared + space.sample(rng, 3)
        result = reconcile(space, alice, bob, *args, coins, **kwargs)
        return result, alice, bob

    @pytest.mark.parametrize(
        "reconcile, args",
        [
            (exact_iblt_reconcile, (12,)),
            (exact_iblt_reconcile_auto, ()),
            (cpi_reconcile, (12,)),
            (resilient_reconcile, (12,)),
        ],
        ids=["exact", "auto", "cpi", "resilient"],
    )
    def test_every_exact_reconciler_returns_the_one_result_type(self, reconcile, args):
        result, alice, bob = self._run(reconcile, *args)
        assert type(result) is ReconcileResult
        assert result.success
        assert set(result.alice_only) == set(alice) - set(bob)
        assert set(result.bob_only) == set(bob) - set(alice)
        assert (result.report is not None) == (reconcile is resilient_reconcile)

    def test_outcome_metrics_is_driver_uniform(self):
        result, alice, bob = self._run(exact_iblt_reconcile, 12)
        metrics = outcome_metrics(result, alice, bob)
        assert metrics == {
            "success": True,
            "rounds": result.rounds,
            "bits": result.total_bits,
            "alice_only": len(result.alice_only),
            "bob_only": len(result.bob_only),
            "union_reached": True,
        }

    def test_outcome_metrics_on_duck_typed_result(self):
        """Any object with the result fields works — no isinstance checks."""

        class WireResult:
            success = True
            alice_only = [(1, 0)]
            bob_only = []
            bob_final = [(0, 1), (1, 0)]
            total_bits = 128
            rounds = 2

        metrics = outcome_metrics(WireResult(), [(1, 0)], [(0, 1)])
        assert metrics == {
            "success": True,
            "rounds": 2,
            "bits": 128,
            "alice_only": 1,
            "bob_only": 0,
            "union_reached": True,
        }


def _fill_riblt(table: RIBLT) -> None:
    for key in range(7):
        table.insert(key, (key % 64, (2 * key) % 64, (3 * key) % 64))


def _fill_multiset(table: MultisetIBLT) -> None:
    for key in range(9):
        table.insert(key, multiplicity=1 + key % 3)


#: (empty shell factory, filler) per sketch type.
_SKETCHES = {
    "iblt-numpy": (
        lambda: IBLT(COINS, "pay-load", cells=24, q=3, key_bits=30, backend="numpy"),
        lambda table: table.insert_all(range(11)),
    ),
    "iblt-python": (
        lambda: IBLT(COINS, "pay-load", cells=24, q=3, key_bits=30, backend="python"),
        lambda table: table.insert_all(range(11)),
    ),
    "riblt": (
        lambda: RIBLT(COINS, "pay-load", cells=12, q=3, key_bits=30, dim=3, side=64),
        _fill_riblt,
    ),
    "multiset": (
        lambda: MultisetIBLT(COINS, "pay-load", cells=24, q=3, key_bits=30),
        _fill_multiset,
    ),
    "strata": (
        lambda: StrataEstimator(COINS, "pay-load", strata=6, cells=12, key_bits=30),
        lambda estimator: estimator.insert_batch(range(40)),
    ),
}


class TestPayloadErrorContract:
    @pytest.mark.parametrize("kind", sorted(_SKETCHES))
    def test_failed_load_leaves_shell_empty(self, kind):
        """Cells are parsed in full before any is assigned, so a payload
        that fails part-way never half-fills the shell."""
        make, fill = _SKETCHES[kind]
        table = make()
        fill(table)
        payload, _ = table.to_payload()
        shell = make()
        with pytest.raises(DecodeError):
            shell.from_payload(payload[: 3 * len(payload) // 4])
        assert shell.is_empty()
        assert shell.from_payload(payload).to_payload()[0] == payload

    def test_from_payload_rejects_damage_with_typed_errors(self):
        table = IBLT(COINS, "pay-err", cells=24, q=3, key_bits=30)
        for key in range(11):
            table.insert(key)
        payload, _ = table.to_payload()
        shell = IBLT(COINS, "pay-err", cells=24, q=3, key_bits=30)
        with pytest.raises(DecodeError):
            shell.from_payload(payload[: len(payload) // 2])


_PIN_COINS = PublicCoins(0x5EED)


def _pin_keys(seed: int, count: int, bits: int) -> list[int]:
    return np.random.default_rng(seed).integers(0, 1 << bits, size=count).tolist()


def _pin_iblt(backend: str) -> IBLT:
    """Every ``|count| < 64``: one fixed-stride bit matrix."""
    table = IBLT(_PIN_COINS, "pin-iblt", cells=60, q=3, key_bits=40, backend=backend)
    table.insert_all(_pin_keys(1, 45, 40))
    table.delete_all(_pin_keys(2, 12, 40))
    return table


def _pin_heavy_iblt(backend: str) -> IBLT:
    """Counts far past 64: multi-group count varints."""
    table = IBLT(_PIN_COINS, "pin-heavy", cells=30, q=3, key_bits=40, backend=backend)
    table.insert_all(_pin_keys(3, 3000, 40))
    return table


def _pin_multiset(backend: str) -> MultisetIBLT:
    del backend  # no backend: the same cells under either REPRO_BACKEND
    table = MultisetIBLT(_PIN_COINS, "pin-multiset", cells=60, q=3, key_bits=40)
    table.insert_batch(_pin_keys(4, 40, 40), np.arange(1, 41) % 9 + 1)
    return table


def _pin_riblt(backend: str) -> RIBLT:
    """61-bit keys: checksum sums pass 2^64."""
    del backend  # no backend: the same cells under either REPRO_BACKEND
    table = RIBLT(_PIN_COINS, "pin-riblt", cells=36, q=3, key_bits=61, dim=5, side=1 << 16)
    values = np.random.default_rng(6).integers(0, 1 << 16, size=(120, 5))
    table.insert_batch(_pin_keys(5, 120, 61), values)
    return table


def _pin_strata(backend: str) -> StrataEstimator:
    del backend  # the stratum tables follow REPRO_BACKEND
    estimator = StrataEstimator(_PIN_COINS, "pin-strata", strata=8, cells=24, key_bits=32)
    for key in _pin_keys(7, 500, 32):
        estimator.insert(key)
    return estimator


class TestPayloadPins:
    """Fixed-seed payloads keep the exact bytes they had when each table
    was still coded one value at a time."""

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize(
        "make, bits, digest",
        [
            (_pin_iblt, 6540, "4a09dfe14ef4c2c1cfe27d7715cdfa34ffbb9dce3cd075e54d92efc3e59b8e73"),
            (_pin_heavy_iblt, 3510, "8d90a0f23788bb4c9b265ce68636d267a91b5eb7433f292c3a66d38d48b5bb8e"),
            (_pin_multiset, 7192, "6f381e8ef5945323877582c85f48712b3627ad3dc56b45a3d018dd0c63e2e9e2"),
            (_pin_riblt, 10368, "cf27a795af15bfd35332b2128aec15048084ba4b6b31e73881af6a6af3438228"),
            (_pin_strata, 19392, "5b5fc94ead9150cf229fdd0c1c4d2997183125fac326269577cb4d7689eefb78"),
        ],
        ids=["iblt", "iblt-heavy", "multiset", "riblt", "strata"],
    )  # fmt: skip
    def test_payload_digest(self, make, bits, digest, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        payload, bit_count = make(backend).to_payload()
        assert bit_count == bits
        assert hashlib.sha256(payload).hexdigest() == digest

    def test_heavy_iblt_has_wide_counts(self):
        assert max(abs(int(count)) for count in _pin_heavy_iblt("numpy").counts) >= 64

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_wide_riblt_round_trips_as_one_run(self, backend, monkeypatch):
        """Checksum sums past 2^64 (every emd-hamming table has them) stay
        on the run path, with the same bytes and columns back."""
        table = _pin_riblt(backend)
        assert max(table.check_sum) > 1 << 64

        def scalar(*_args):
            raise AssertionError("the cell codec fell back to the scalar loop")

        monkeypatch.setattr(BitWriter, "write_varints", scalar)
        monkeypatch.setattr(BitReader, "read_varints", scalar)
        payload, _bits = table.to_payload()
        loaded = RIBLT(
            _PIN_COINS, "pin-riblt", cells=36, q=3, key_bits=61, dim=5, side=1 << 16
        ).from_payload(payload)
        for column in ("counts", "key_sum", "check_sum"):
            assert getattr(loaded, column) == getattr(table, column)
        assert np.array_equal(loaded.value_sum, table.value_sum)
        assert loaded.to_payload()[0] == payload

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("edge", [63, 64, -64, -65])
    def test_iblt_count_edges_match_scalar_fields(self, backend, edge):
        """Counts at the one-group edge code exactly as one scalar
        ``write_varint`` and two ``write_uint`` fields per cell."""
        table = _pin_iblt(backend)
        table.counts[7] = edge
        reference = BitWriter()
        for count, key, check in zip(table.counts, table.key_xor, table.check_xor):
            reference.write_varint(int(count))
            reference.write_uint(int(key), table.key_bits)
            reference.write_uint(int(check), 61)
        payload, bits = table.to_payload()
        assert (payload, bits) == (reference.getvalue(), reference.bit_length)
        loaded = IBLT(_PIN_COINS, "pin-iblt", cells=60, q=3, key_bits=40, backend=backend)
        assert int(loaded.from_payload(payload).counts[7]) == edge

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_regular_iblt_round_trips_as_one_bit_matrix(self, backend, monkeypatch):
        table = _pin_iblt(backend)

        def scalar(*_args):
            raise AssertionError("the cell codec fell back to the scalar loop")

        monkeypatch.setattr(BitWriter, "write_varint", scalar)
        monkeypatch.setattr(BitReader, "read_varint", scalar)
        payload, _bits = table.to_payload()
        loaded = IBLT(
            _PIN_COINS, "pin-iblt", cells=60, q=3, key_bits=40, backend=backend
        ).from_payload(payload)
        for column in ("counts", "key_xor", "check_xor"):
            assert list(getattr(loaded, column)) == list(getattr(table, column))
        assert type(loaded.counts) is type(table.counts)
        if backend == "numpy":
            assert (loaded.counts.dtype, loaded.key_xor.dtype) == (np.int64, np.uint64)
