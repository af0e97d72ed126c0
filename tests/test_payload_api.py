"""The unified sketch payload surface and the shared result protocol.

Every sketch type exposes the same ``to_payload()`` / ``from_payload()``
pair, byte-compatible with the older free-function serializers (now
aliases), and every exact reconciler returns the one
:class:`~repro.reconcile.outcome.ReconcileResult` that the scenario
drivers read through ``outcome_metrics``.
"""

from __future__ import annotations

import pytest

from repro.errors import DecodeError
from repro.hashing import PublicCoins
from repro.iblt import IBLT, RIBLT, MultisetIBLT
from repro.metric import HammingSpace
from repro.protocol import (
    BitReader,
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
        lambda estimator: estimator.insert_all(range(40)),
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
