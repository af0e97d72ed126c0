"""Backend parity: the numpy fast path must be bit-identical to python.

The ``"numpy"`` backend replaces per-key Python loops with vectorised
uint64 field arithmetic; these tests pin the contract that, for the same
:class:`~repro.hashing.PublicCoins`, both backends produce the same cell
indices, the same checksums, the same cell state, and the same decode
output in the same order — including on *failed* decodes, where both
backends peel the same rounds and leave the same unpeelable 2-core.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import PublicCoins
from repro.iblt import IBLT, RIBLT, MultisetIBLT
from repro.iblt.frontier import ScalarHashes
from repro.reconcile.strata import StrataEstimator

KEY_BITS = 56
KEY_MAX = (1 << KEY_BITS) - 1


def _tables(coins, cells, q, backend_pair=("python", "numpy"), key_bits=KEY_BITS):
    return [
        IBLT(coins, "parity", cells=cells, q=q, key_bits=key_bits, backend=backend)
        for backend in backend_pair
    ]


def _assert_same_cells(python_table, numpy_table):
    assert list(python_table.counts) == numpy_table.counts.tolist()
    assert list(python_table.key_xor) == numpy_table.key_xor.tolist()
    assert list(python_table.check_xor) == numpy_table.check_xor.tolist()


class TestIBLTParity:
    def test_cell_index_matrix_matches_scalar(self, coins):
        table = IBLT(coins, "idx", cells=60, q=3, key_bits=KEY_BITS, backend="numpy")
        rng = np.random.default_rng(1)
        keys = rng.integers(0, KEY_MAX, size=200, dtype=np.uint64)
        matrix = table.cell_index_matrix(keys)
        for column, key in enumerate(keys.tolist()):
            assert matrix[:, column].tolist() == table.cell_indices(key)

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=KEY_MAX), min_size=0, max_size=60),
        q=st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=25, deadline=None)
    def test_insert_state_identical(self, keys, q):
        coins = PublicCoins(77)
        python_table, numpy_table = _tables(coins, cells=30, q=q)
        python_table.insert_all(keys)
        numpy_table.insert_batch(np.array(keys, dtype=np.uint64))
        _assert_same_cells(python_table, numpy_table)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_subtract_decode_identical(self, data):
        """Same coins → identical decode output, success or not."""
        shared = data.draw(
            st.lists(st.integers(0, KEY_MAX), min_size=0, max_size=40, unique=True)
        )
        alice_only = data.draw(
            st.lists(st.integers(0, KEY_MAX), min_size=0, max_size=15, unique=True)
        )
        bob_only = data.draw(
            st.lists(st.integers(0, KEY_MAX), min_size=0, max_size=15, unique=True)
        )
        alice = sorted(set(shared) | set(alice_only))
        bob = sorted((set(shared) | set(bob_only)) - set(alice_only))
        coins = PublicCoins(data.draw(st.integers(0, 1 << 20)))
        cells = data.draw(st.sampled_from([12, 24, 48]))

        results = {}
        for backend in ("python", "numpy"):
            table_a = IBLT(coins, "sd", cells=cells, q=3, key_bits=KEY_BITS, backend=backend)
            table_b = IBLT(coins, "sd", cells=cells, q=3, key_bits=KEY_BITS, backend=backend)
            table_a.insert_all(alice)
            table_b.insert_all(bob)
            results[backend] = table_b.subtract(table_a).decode()
        assert results["python"] == results["numpy"]

    def test_decode_failure_recovers_same_partial_set(self, coins):
        """Overload both backends: the peeled (non-2-core) keys agree."""
        rng = np.random.default_rng(9)
        keys = rng.choice(KEY_MAX, size=200, replace=False).tolist()
        outputs = {}
        for backend in ("python", "numpy"):
            table = IBLT(coins, "over", cells=60, q=3, key_bits=KEY_BITS, backend=backend)
            table.insert_all(keys)
            outputs[backend] = table.decode()
        assert not outputs["python"].success
        assert outputs["python"] == outputs["numpy"]

    def test_serialization_roundtrip_across_backends(self, coins):
        """A python-built payload loads into a numpy shell bit-for-bit."""
        from repro.protocol.serialize import BitReader
        from repro.protocol.tables import iblt_payload, read_iblt_cells

        keys = list(range(1000, 1012))
        python_table = IBLT(coins, "wire", cells=30, q=3, key_bits=KEY_BITS, backend="python")
        python_table.insert_all(keys)
        payload, _ = iblt_payload(python_table)
        shell = IBLT(coins, "wire", cells=30, q=3, key_bits=KEY_BITS, backend="numpy")
        loaded = read_iblt_cells(BitReader(payload), shell)
        _assert_same_cells(python_table, loaded)
        result = loaded.decode()
        assert result.success and sorted(result.inserted) == keys

    def test_wide_keys_fall_back_to_python(self, coins, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        table = IBLT(coins, "wide", cells=30, q=3, key_bits=80)
        assert table.backend == "python"
        with pytest.raises(ValueError):
            IBLT(coins, "wide", cells=30, q=3, key_bits=80, backend="numpy")
        # The strata estimator's tables follow the same rule.
        estimator = StrataEstimator(coins, "wide", key_bits=80)
        assert {table.backend for table in estimator.tables} == {"python"}

    def test_large_n_decode_near_threshold(self, coins):
        """A big difference table just under the q=3 peeling threshold
        (load ≈ 0.75 < c*_3 ≈ 0.818) decodes identically on both backends."""
        rng = np.random.default_rng(0xBEEF)
        differences = 3000  # symmetric difference is 2·differences keys
        cells = int(2 * differences / 0.75)
        universe = rng.choice(KEY_MAX, size=20_000 + differences, replace=False)
        alice = universe[: 20_000]
        bob = np.concatenate([universe[differences:20_000], universe[20_000:]])
        outcomes = {}
        for backend in ("python", "numpy"):
            table_a = IBLT(coins, "big", cells=cells, q=3, key_bits=KEY_BITS, backend=backend)
            table_b = IBLT(coins, "big", cells=cells, q=3, key_bits=KEY_BITS, backend=backend)
            table_a.insert_all(alice.tolist())
            table_b.insert_all(bob.tolist())
            outcomes[backend] = table_b.subtract(table_a).decode()
        assert outcomes["numpy"].success
        assert outcomes["python"].success
        assert outcomes["numpy"].difference_count == 2 * differences
        assert outcomes["python"] == outcomes["numpy"]

    @given(
        updates=st.lists(
            st.tuples(
                st.one_of(st.integers(0, 40), st.integers(0, KEY_MAX)),
                st.sampled_from([1, -1]),
            ),
            min_size=0,
            max_size=120,
        ),
        cells=st.sampled_from([6, 12, 24, 45]),
        seed=st.integers(0, 1 << 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_signed_updates_peel_identically(self, updates, cells, seed):
        """Both backends peel any signed-update state in the same rounds.

        Duplicate inserts, repeated deletes and partial cancellations
        leave |count| > 1 cells, and up to 120 updates overload the
        smaller tables.  The two backends still return the same
        verdict, the same ``inserted``/``deleted`` lists in the same
        order, and the same residual cells."""
        coins = PublicCoins(seed)
        python_table, numpy_table = _tables(coins, cells=cells, q=3)
        for table in (python_table, numpy_table):
            for key, sign in updates:
                if sign > 0:
                    table.insert(key)
                else:
                    table.delete(key)
        assert python_table.decode() == numpy_table.decode()
        _assert_same_cells(python_table, numpy_table)


class TestMultisetParity:
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, KEY_MAX), st.integers(1, 5)),
            min_size=0,
            max_size=40,
        ),
        seed=st.integers(0, 1 << 20),
    )
    @settings(max_examples=25, deadline=None)
    def test_insert_state_identical(self, entries, seed):
        """The vectorised batch ingest against a scalar insert loop."""
        coins = PublicCoins(seed)
        tables = {
            route: MultisetIBLT(coins, "mp", cells=24, q=3, key_bits=KEY_BITS)
            for route in ("scalar", "batch")
        }
        for key, mult in entries:
            tables["scalar"].insert(key, mult)
        if entries:
            keys, mults = zip(*entries)
            tables["batch"].insert_batch(
                np.array(keys, dtype=np.uint64), np.array(mults, dtype=np.int64)
            )
        assert tables["scalar"].counts == tables["batch"].counts
        assert tables["scalar"].key_sum == tables["batch"].key_sum
        assert tables["scalar"].check_sum == tables["batch"].check_sum

    def test_subtract_decode_identical(self, coins):
        """Scalar-built and batch-built tables, peeled through
        :class:`~repro.iblt.frontier.ScalarHashes` and through the cache,
        decode the same signed multiplicities in the same order."""
        rng = np.random.default_rng(4)
        alice = {int(k): int(m) for k, m in zip(rng.choice(KEY_MAX, 30, replace=False), rng.integers(1, 4, 30))}
        bob = dict(list(alice.items())[5:])
        bob.update({int(k): 2 for k in rng.choice(KEY_MAX, 5, replace=False)})
        decoded = {}
        for route in ("scalar", "batch"):
            table_a = MultisetIBLT(coins, "msd", cells=60, q=4, key_bits=KEY_BITS)
            table_b = MultisetIBLT(coins, "msd", cells=60, q=4, key_bits=KEY_BITS)
            if route == "scalar":
                for key, mult in alice.items():
                    table_a.insert(key, mult)
                for key, mult in bob.items():
                    table_b.insert(key, mult)
            else:
                for table, entries in ((table_a, alice), (table_b, bob)):
                    table.insert_batch(
                        np.array(list(entries), dtype=np.uint64),
                        np.array(list(entries.values()), dtype=np.int64),
                    )
            difference = table_a.subtract(table_b)
            if route == "scalar":
                difference._hash_cache = ScalarHashes(difference)
            decoded[route] = difference.decode()
        assert decoded["scalar"].success and decoded["batch"].success
        assert list(decoded["scalar"].multiplicities.items()) == list(
            decoded["batch"].multiplicities.items()
        )


class TestStrataParity:
    def test_stratum_assignment_matches_scalar(self, coins):
        estimator = StrataEstimator(coins, "sa")
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 1 << 60, size=500, dtype=np.uint64)
        batch = estimator._strata_of_batch(keys)
        for key, stratum in zip(keys.tolist(), batch.tolist()):
            assert estimator._stratum_of(key) == stratum

    @given(seed=st.integers(0, 1 << 20), count=st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_tables_and_estimate_identical(self, seed, count):
        coins = PublicCoins(seed)
        rng = np.random.default_rng(seed)
        alice = rng.choice(1 << 60, size=count + 50, replace=False)
        bob = alice[count // 2 :]  # overlap with a controlled difference
        estimates = {}
        sketches = {}
        for backend in ("python", "numpy"):
            # Hypothesis bodies cannot take the function-scoped monkeypatch.
            with mock.patch.dict(os.environ, {"REPRO_BACKEND": backend}):
                sketch_a = StrataEstimator(coins, "se")
                sketch_b = StrataEstimator(coins, "se")
            sketch_a.insert_batch(int(k) for k in alice)
            sketch_b.insert_batch(int(k) for k in bob)
            sketches[backend] = sketch_a
            estimates[backend] = sketch_a.subtract(sketch_b).estimate()
        for python_table, numpy_table in zip(
            sketches["python"].tables, sketches["numpy"].tables
        ):
            assert list(python_table.counts) == numpy_table.counts.tolist()
            assert list(python_table.key_xor) == numpy_table.key_xor.tolist()
        assert estimates["python"] == estimates["numpy"]


#: Every sketch takes its layout from ``REPRO_BACKEND`` (the multiset
#: table has none, so the process switch must not change it).
_SKETCHES = {
    "iblt": lambda coins, key_bits: IBLT(coins, "ingest", cells=30, q=3, key_bits=key_bits),
    "multiset": lambda coins, key_bits: MultisetIBLT(
        coins, "ingest", cells=30, q=3, key_bits=key_bits
    ),
    "strata": lambda coins, key_bits: StrataEstimator(
        coins, "ingest", strata=8, cells=12, key_bits=key_bits
    ),
}

_KEYS = [3, 17, 99, 1 << 40, (1 << 56) - 1]

#: Floats and bools that ``int()`` would silently truncate into keys.
_NON_INTEGER_KEYS = [3.5, True, np.float64(2.0)]
_BAD_KEYS = [-1, 1 << KEY_BITS, *_NON_INTEGER_KEYS]

#: Every key-sequence shape the batch methods accept (fresh per call).
_KEY_INPUTS = {
    "uint64": lambda: np.array(_KEYS, dtype=np.uint64),
    "int64": lambda: np.array(_KEYS, dtype=np.int64),
    "object": lambda: np.array(_KEYS, dtype=object),
    "list": lambda: list(_KEYS),
    "set": lambda: set(_KEYS),
    "range": lambda: range(40, 60),
    "generator": lambda: (key for key in _KEYS),
}


class TestBatchIngest:
    """One ingest path: every sketch's batch methods take any key
    sequence under either ``REPRO_BACKEND``, match scalar inserts on the
    python layout byte for byte, and reject a bad batch before touching
    a cell."""

    @pytest.mark.parametrize("form", sorted(_KEY_INPUTS))
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("kind", sorted(_SKETCHES))
    def test_batch_matches_scalar_inserts(self, coins, monkeypatch, kind, backend, form):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        scalar = _SKETCHES[kind](coins, KEY_BITS)
        for key in _KEY_INPUTS[form]():
            scalar.insert(int(key))
        monkeypatch.setenv("REPRO_BACKEND", backend)
        batched = _SKETCHES[kind](coins, KEY_BITS)
        batched.insert_batch(_KEY_INPUTS[form]())
        assert batched.to_payload() == scalar.to_payload()
        batched.delete_batch(_KEY_INPUTS[form]())
        assert batched.is_empty()

    @pytest.mark.parametrize("bad", _BAD_KEYS)
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("kind", sorted(_SKETCHES))
    def test_bad_key_rejects_whole_batch(self, coins, monkeypatch, kind, backend, bad):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        sketch = _SKETCHES[kind](coins, KEY_BITS)
        for method in (sketch.insert_batch, sketch.delete_batch):
            with pytest.raises(ValueError):
                method([5, 6, bad, 7])
            assert sketch.is_empty()

    @pytest.mark.parametrize("bad", _NON_INTEGER_KEYS)
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("kind", sorted(_SKETCHES))
    def test_non_integer_scalar_key_rejected(self, coins, monkeypatch, kind, backend, bad):
        """``insert(3.9)`` must not truncate to key 3 on either backend."""
        monkeypatch.setenv("REPRO_BACKEND", backend)
        sketch = _SKETCHES[kind](coins, KEY_BITS)
        for method in (sketch.insert, sketch.delete):
            with pytest.raises(ValueError):
                method(bad)
            assert sketch.is_empty()

    @pytest.mark.parametrize("kind", sorted(_SKETCHES))
    def test_wide_keys_take_every_form(self, coins, kind):
        wide = [1, (1 << 70) + 5, (1 << 79) + 3]
        scalar = _SKETCHES[kind](coins, 80)
        for key in wide:
            scalar.insert(key)
        for keys in (np.array(wide, dtype=object), wide, set(wide), iter(wide)):
            batched = _SKETCHES[kind](coins, 80)
            batched.insert_batch(keys)
            assert batched.to_payload() == scalar.to_payload()
        with pytest.raises(ValueError):
            _SKETCHES[kind](coins, 80).insert_batch([1 << 80])

    @pytest.mark.parametrize("kind", sorted(_SKETCHES))
    def test_all_names_alias_batch_methods(self, kind):
        """The ``*_all`` aliases survive only on the tables the e2e
        tracer names; the strata estimator has none."""
        sketch_type = type(_SKETCHES[kind](PublicCoins(1), KEY_BITS))
        if kind == "strata":
            assert not hasattr(sketch_type, "insert_all")
            return
        assert sketch_type.insert_all is sketch_type.insert_batch
        assert sketch_type.delete_all is sketch_type.delete_batch

    @pytest.mark.parametrize("kind", ["iblt", "strata"])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_apply_mutations_validates_both_deltas_first(self, coins, monkeypatch, kind, backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        sketch = _SKETCHES[kind](coins, KEY_BITS)
        with pytest.raises(ValueError):
            sketch.apply_mutations(inserts=[1, 2], deletes=[3, -4])
        assert sketch.is_empty()


def _riblt(coins, key_bits=KEY_BITS):
    return RIBLT(coins, "ingest", cells=30, q=3, key_bits=key_bits, dim=2, side=1 << 62)


class TestRIBLTBatchIngest:
    """RIBLT's one batch path takes the same key sequences as the other
    tables and matches an :meth:`RIBLT.insert` loop byte for byte."""

    @pytest.mark.parametrize("form", sorted(_KEY_INPUTS))
    @pytest.mark.parametrize("route", ["vector", "overflow-guard"])
    def test_batch_matches_scalar_inserts(self, coins, monkeypatch, form, route):
        keys = list(_KEY_INPUTS[form]())  # the order the batch sees
        scale = 1 if route == "vector" else 1 << 60  # 2^61 * n >= 2^62
        values = [((key % 3) * scale, key % 5) for key in keys]
        scalar = _riblt(coins)
        for key, value in zip(keys, values):
            scalar.insert(key, value)

        scalar_updates = []
        update = RIBLT._update

        def counted(self, *args):
            scalar_updates.append(args)
            update(self, *args)

        monkeypatch.setattr(RIBLT, "_update", counted)
        batched = _riblt(coins)
        batched.insert_batch(_KEY_INPUTS[form](), values)
        assert batched.to_payload() == scalar.to_payload()
        assert len(scalar_updates) == (0 if route == "vector" else len(keys))
        batched.delete_batch(_KEY_INPUTS[form](), np.array(values, dtype=object))
        assert batched.is_empty() and batched.residual_value_mass() == 0

    def test_wide_keys_take_object_arrays_and_lists(self, coins):
        wide = [1, (1 << 65) + 5, (1 << 69) + 3]
        values = [(1, 2), (3, 4), (5, 6)]
        scalar = _riblt(coins, key_bits=70)
        for key, value in zip(wide, values):
            scalar.insert(key, value)
        for keys in (np.array(wide, dtype=object), wide):
            table = _riblt(coins, key_bits=70)
            table.insert_batch(keys, values)
            assert table.to_payload() == scalar.to_payload()
            result = table.decode()
            assert result.success
            assert sorted(result.inserted) == sorted(zip(wide, values))
        with pytest.raises(ValueError):
            _riblt(coins, key_bits=70).insert_batch([1 << 70], [(0, 0)])

    @pytest.mark.parametrize("bad", _BAD_KEYS)
    def test_bad_key_rejects_whole_batch(self, coins, bad):
        table = _riblt(coins)
        for method in (table.insert_batch, table.delete_batch):
            with pytest.raises(ValueError):
                method([5, 6, bad, 7], np.ones((4, 2), dtype=np.int64))
            assert table.is_empty()
        with pytest.raises(ValueError):
            table.insert(bad, (1, 1))
        assert table.is_empty()

    def test_float_keys_and_values_rejected(self, coins):
        table = _riblt(coins)
        ones = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            table.insert_batch(np.array([5, 1.5]), ones)
        for values in (
            np.array([[1.5, 2.0], [1.0, 1.0]]),
            [(1.0, 2.0), (1.0, 1.0)],
            np.array([[True, False], [True, True]]),
            np.array([[1.5, 2], [1, 1]], dtype=object),
        ):
            with pytest.raises(ValueError):
                table.insert_batch([5, 6], values)
        with pytest.raises(ValueError):
            table.insert(5, (1.5, 2))
        assert table.is_empty()


class TestResolveBackend:
    def test_key_width_rule(self, monkeypatch):
        from repro.iblt.backend import MAX_NUMPY_KEY_BITS, resolve_backend

        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None, MAX_NUMPY_KEY_BITS) == "numpy"
        assert resolve_backend(None, MAX_NUMPY_KEY_BITS + 1) == "python"
        assert resolve_backend("python", 200) == "python"
        with pytest.raises(ValueError):
            resolve_backend("numpy", MAX_NUMPY_KEY_BITS + 1)
        with pytest.raises(ValueError):
            resolve_backend("fortran", 8)
