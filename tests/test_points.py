"""The one point rule: ``MetricSpace.point_array`` at every inbound seam.

Every place points enter the system (protocol runs, the key encoders,
LSH evaluation, the point serializer, ``validate``) coerces through
``point_array``, so each one rejects exactly the same inputs, and an
``(n, d)`` integer ndarray is as good as a list of tuples everywhere.
The outbound side (``sample``, the matrix ``clamp``) is pinned against
the per-element forms it replaced.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import EMDProtocol, GapProtocol, ScaledEMDProtocol
from repro.errors import MalformedPayloadError
from repro.hashing import PublicCoins
from repro.lsh import BatchKeyBuilder, BitSamplingMLSH, GridMLSH, PrefixKeyBuilder, PStableMLSH
from repro.metric import GridSpace, HammingSpace, point_tuples
from repro.protocol import BitReader, BitWriter, read_point, write_point, write_points
from repro.reconcile import (
    QuadtreeEMDProtocol,
    cpi_reconcile,
    exact_iblt_reconcile,
    exact_iblt_reconcile_auto,
    naive_union_transfer,
)
from repro.reconcile.exact_iblt import encode_point, encode_points
from repro.workloads import noisy_replica_pair, split_difference_pair

_COINS = PublicCoins(0x9017)
_N = 8


def _family(space):
    if isinstance(space, HammingSpace):
        return BitSamplingMLSH(space, w=float(space.dim))
    return GridMLSH(space, w=4.0)


def _emd_seam(space, alice, bob):
    return EMDProtocol.for_instance(space, _N, 1).run(alice, bob, _COINS)


def _gap_seam(space, alice, bob):
    family = _family(space)
    return GapProtocol(space, family, family.params, n=_N, k=1).run(alice, bob, _COINS)


def _batch(space, label="seam"):
    return _family(space).sample_batch(_COINS, label, 4)


def _key_builder(space, label="seam"):
    return BatchKeyBuilder(
        _batch(space, label), entries=2, per_entry=2, coins=_COINS, label=label, key_bits=20
    )


#: name -> (takes a point set or one point, call(space, good_set, bad)).
_SEAMS = {
    "emd-alice": ("set", lambda s, good, bad: _emd_seam(s, bad, good)),
    "emd-bob": ("set", lambda s, good, bad: _emd_seam(s, good, bad)),
    "scaled-emd": ("set", lambda s, good, bad: ScaledEMDProtocol(s, _N, 1).run(bad, good, _COINS)),
    "gap-alice": ("set", lambda s, good, bad: _gap_seam(s, bad, good)),
    "gap-bob": ("set", lambda s, good, bad: _gap_seam(s, good, bad)),
    "exact-alice": ("set", lambda s, good, bad: exact_iblt_reconcile(s, bad, good, 4, _COINS)),
    "exact-bob": ("set", lambda s, good, bad: exact_iblt_reconcile(s, good, bad, 4, _COINS)),
    "exact-auto": ("set", lambda s, good, bad: exact_iblt_reconcile_auto(s, bad, good, _COINS)),
    "quadtree": ("set", lambda s, good, bad: QuadtreeEMDProtocol(s, _N, 1).run(bad, good, _COINS)),
    "encode_points": ("set", lambda s, good, bad: encode_points(s, bad)),
    "lsh-evaluate": ("set", lambda s, good, bad: _batch(s).evaluate(bad)),
    "key_matrix_for": ("set", lambda s, good, bad: _key_builder(s).key_matrix_for(bad)),
    "write_points": ("set", lambda s, good, bad: write_points(BitWriter(), s, bad)),
    "distance_matrix": ("set", lambda s, good, bad: s.distance_matrix(good, bad)),
    "encode_point": ("point", lambda s, good, bad: encode_point(s, bad)),
    "write_point": ("point", lambda s, good, bad: write_point(BitWriter(), s, bad)),
    "validate": ("point", lambda s, good, bad: s.validate(bad)),
}


def _bad_inputs(space, good):
    """name -> (bad point set, bad single point) built from ``good``."""
    last = good[-1]
    floats = np.asarray(good, dtype=np.float64)
    bools = np.asarray(good) % 2 == 1
    tuples = {
        "float-tuple": tuple(c + 0.7 for c in last),
        "negative": (-1,) + last[1:],
        "beyond-side": (space.side,) + last[1:],
        "short": last[:-1],
        "long": last + (0,),
    }
    cases = {name: (good[:-1] + [point], point) for name, point in tuples.items()}
    cases["float-ndarray"] = (floats, floats[-1])
    cases["bool-ndarray"] = (bools, bools[-1])
    return cases


_SPACES = [HammingSpace(16), GridSpace(side=5, dim=3, p=1.0)]
_BAD = ["float-tuple", "float-ndarray", "bool-ndarray", "negative", "beyond-side", "short", "long"]


@pytest.mark.parametrize(
    "seam, bad, space",
    [
        pytest.param(seam, bad, space, id=f"{seam}-{bad}-{space!r}")
        for seam in sorted(_SEAMS)
        for bad in _BAD
        for space in _SPACES
        # The quadtree baseline is defined on grid spaces only.
        if seam != "quadtree" or isinstance(space, GridSpace)
    ],
)
def test_every_seam_rejects_bad_points(seam, bad, space):
    """Floats, bools, out-of-range and wrong-length points are a
    ``ValueError`` at every seam, never truncated or accepted."""
    kind, call = _SEAMS[seam]
    good = space.sample(np.random.default_rng(1), _N)
    bad_set, bad_point = _bad_inputs(space, good)[bad]
    with pytest.raises(ValueError):
        call(space, good, bad_set if kind == "set" else bad_point)


@pytest.mark.parametrize(
    "space",
    [GridSpace(5, 2), GridSpace(100, 2), GridSpace(8, 2), HammingSpace(3)],
    ids=repr,
)
def test_point_writer_and_reader_accept_the_same_points(space):
    """Every coordinate vector that fits the field width: the writer
    accepts it iff the reader accepts its bytes, and both round-trip."""
    bits = max(1, (space.side - 1).bit_length())
    for point in itertools.product(range(1 << bits), repeat=space.dim):
        raw = BitWriter()
        for coordinate in point:
            raw.write_uint(coordinate, bits)
        try:
            read = read_point(BitReader(raw.getvalue()), space)
        except MalformedPayloadError:
            read = None
        writer = BitWriter()
        try:
            write_point(writer, space, point)
        except ValueError:
            assert read is None, point
            continue
        assert read == point
        assert writer.getvalue() == raw.getvalue()


def _hamming_replicas(seed):
    space = HammingSpace(32)
    rng = np.random.default_rng(seed)
    wl = noisy_replica_pair(space, n=24, k=2, close_radius=1, far_radius=12, rng=rng)
    return space, wl.alice, wl.bob


def _grid_replicas(seed):
    space = GridSpace(side=2048, dim=2, p=2.0)
    rng = np.random.default_rng(seed)
    wl = noisy_replica_pair(space, n=24, k=2, close_radius=2, far_radius=300, rng=rng)
    return space, wl.alice, wl.bob


def _split(seed):
    space = HammingSpace(40)
    alice, bob = split_difference_pair(space, np.random.default_rng(seed), 64, 6)
    return space, alice, bob


def _emd(space, alice, bob, coins):
    protocol = EMDProtocol.for_instance(space, 24, 2, max_total_hashes=1024)
    return protocol.run(alice, bob, coins)


def _gap_run(space, alice, bob, coins):
    family = _family(space)
    params = family.derived_lsh_params(r1=1, r2=12)
    return GapProtocol(space, family, params, n=24, k=2).run(alice, bob, coins)


_RUNS = {
    "emd-hamming": (_hamming_replicas, _emd),
    "emd-l2": (_grid_replicas, _emd),
    "gap-hamming": (_hamming_replicas, _gap_run),
    "exact": (_split, lambda s, a, b, c: exact_iblt_reconcile(s, a, b, 8, c)),
    "cpi": (_split, lambda s, a, b, c: cpi_reconcile(s, a, b, 8, c)),
    "naive-union": (_split, lambda s, a, b, c: naive_union_transfer(s, a, b)),
    "quadtree": (_grid_replicas, lambda s, a, b, c: QuadtreeEMDProtocol(s, 24, 2).run(a, b, c)),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("run", sorted(_RUNS))
def test_ndarray_points_run_like_tuple_lists(run, seed):
    """An ``(n, d)`` ndarray is the same input as its list of tuples:
    identical transcript size and identical ``bob_final`` of tuples."""
    make, call = _RUNS[run]
    space, alice, bob = make(seed)
    coins = PublicCoins(seed)
    from_lists = call(space, alice, bob, coins)
    from_arrays = call(space, np.asarray(alice), np.asarray(bob, dtype=np.int32), coins)
    assert from_arrays.total_bits == from_lists.total_bits
    assert from_arrays.bob_final == from_lists.bob_final
    assert all(type(c) is int for point in from_arrays.bob_final for c in point)


def test_cpi_difference_sides_are_point_tuples():
    space, alice, bob = _split(0)
    result = cpi_reconcile(space, np.asarray(alice), np.asarray(bob), 8, PublicCoins(0))
    assert result.success
    assert set(result.alice_only) == set(alice) - set(bob)
    assert set(result.bob_only) == set(bob) - set(alice)
    assert all(type(c) is int for point in result.alice_only + result.bob_only for c in point)


@pytest.mark.parametrize(
    "space", [HammingSpace(24), GridSpace(side=64, dim=3, p=1.0)], ids=repr
)
def test_lsh_and_keys_take_ndarrays(space):
    points = space.sample(np.random.default_rng(5), 10)
    matrix = np.asarray(points)
    empty = np.empty((0, space.dim), dtype=np.int64)
    batch = _batch(space, "nd")
    assert np.array_equal(batch.evaluate(matrix), batch.evaluate(points))
    assert batch.evaluate(empty).shape == (0, 4)
    builder = _key_builder(space, "nd")
    assert np.array_equal(builder.key_matrix_for(matrix), builder.key_matrix_for(points))
    assert builder.key_matrix_for(empty).shape == (0, 2)
    prefix = PrefixKeyBuilder(batch, [1, 2, 4], _COINS, "nd", key_bits=20)
    assert np.array_equal(prefix.keys_for(matrix), prefix.keys_for(points))
    assert prefix.keys_for(empty).shape == (0, 3)


def test_pstable_evaluates_the_integer_matrix_as_floats():
    space = GridSpace(side=64, dim=3, p=2.0)
    batch = PStableMLSH(space, 8.0).sample_batch(_COINS, "nd", 4)
    points = space.sample(np.random.default_rng(6), 10)
    floats = np.asarray(points, dtype=np.float64)
    expected = np.floor((floats @ batch.directions.T + batch.shifts) / batch.w).astype(np.int64)
    assert np.array_equal(batch.evaluate(np.asarray(points)), expected)


_OUTBOUND_SPACES = [HammingSpace(48), GridSpace(side=4096, dim=2), GridSpace(side=5, dim=3)]


@pytest.mark.parametrize("space", _OUTBOUND_SPACES, ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_sample_matches_per_element_form(space, seed):
    raw = np.random.default_rng(seed).integers(0, space.side, size=(37, space.dim))
    expected = [tuple(int(v) for v in row) for row in raw]
    drawn = space.sample(np.random.default_rng(seed), 37)
    assert drawn == expected
    assert all(type(c) is int for point in drawn for c in point)


@pytest.mark.parametrize("space", _OUTBOUND_SPACES, ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_matrix_clamp_matches_scalar_oracle(space, seed):
    """``np.rint`` rounds half-to-even like ``round``; both clip edges."""
    rng = np.random.default_rng(seed)
    top = space.side - 1
    ties = [-1.5, -0.5, 0.5, 1.5, 2.5, top - 0.5, top + 0.5, top + 1.5]
    edges = [-1e9, -3.0, -0.49, 0.0, top, top + 0.49, top + 3.0, 1e9]
    spread = rng.uniform(-3.0, space.side + 3.0, size=5 * space.dim).tolist()
    values = ties + edges + spread
    values += [0.0] * (-len(values) % space.dim)
    matrix = np.asarray(values).reshape(-1, space.dim)
    oracle = [[min(max(int(round(x)), 0), top) for x in row] for row in matrix.tolist()]
    clamped = space.clamp(matrix)
    assert clamped.dtype == np.int64
    assert clamped.tolist() == oracle
    assert point_tuples(clamped)[0] == space.clamp(matrix[0])
