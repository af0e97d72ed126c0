#!/usr/bin/env python
"""Tracked performance baseline for the vectorised hot path.

Measures the numpy backend against the pure-Python reference on the
kernels every protocol in this repo funnels through — batch key hashing
over the Mersenne field, prefix-key and Gap key-vector construction, and
IBLT build / subtract+decode — and writes the timings to
``BENCH_core.json`` so later PRs have a trajectory to beat.

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py            # full (n = 10^5)
    PYTHONPATH=src python benchmarks/run_perf.py --quick    # CI smoke (n = 2·10^4)
    PYTHONPATH=src python benchmarks/run_perf.py \
        --compare benchmarks/BENCH_core.json                # regression gate

Besides the hash and IBLT kernels, ``emd_keys`` times per-level digests
over a real derived prefix schedule, ``gap_keys`` the Gap key vectors
against the per-row scalar ``VectorHash`` reference, ``emd_round`` one
EMD level (RIBLT batch insert/delete/decode), ``iblt_decode_tail`` the
sparse tail-dominated decode regime, and ``cell_codec`` ``to_payload`` +
``from_payload`` of an IBLT, a counting IBLT with multiplicities up to 9
and a RIBLT whose checksum sums pass ``2^64``, against a per-field scalar
``write_varint``/``write_uint``/``read_varint``/``read_uint`` reference.
Every kernel asserts that its two sides agree.

The regression gate compares *speedups* (numpy vs python on the same
machine in the same run), not absolute times, so it is robust to slow CI
hosts: it fails when any kernel's measured speedup drops below half of
the committed baseline's.  Each gate row prints both sides' times beside
the ratio, so a ratio that moved because its reference moved shows it.  It refuses a missing baseline (it never
self-baselines) and a run whose ``n`` differs from the baseline's, so
gate at full size; ``--step-summary`` appends a per-kernel markdown
speedup table.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.params import derive_emd_parameters
from repro.experiments.sweeps import SweepRunner, SweepSpec, render_sweep_report
from repro.hashing import Checksum, PairwiseHash, PrefixHasher, PublicCoins
from repro.iblt import IBLT, RIBLT, MultisetIBLT, cells_for_differences
from repro.lsh import BitSamplingMLSH
from repro.lsh.keys import BatchKeyBuilder, PrefixKeyBuilder
from repro.metric import HammingSpace
from repro.protocol import BitReader, BitWriter

FULL_N = 100_000
QUICK_N = 20_000
#: Differences decoded in the IBLT kernel (table sized for this, so the
#: decode load sits at the realistic ~0.5 of cells_for_differences).
DIFF_FRACTION = 0.01

REGRESSION_FACTOR = 2.0

#: Kernels tracked in the report but excluded from the regression floor.
#: ``sweep_trials`` compares serial vs. a 2-worker process pool, so its
#: "speedup" is parallel efficiency — a function of the *host's* core
#: count, unlike the python-vs-numpy ratios the same-machine gate was
#: designed around (a baseline recorded on a many-core box would fail
#: spuriously on a small CI runner).
#: ``stream_replay`` compares whole-stack replays on the two backends:
#: the workload is tiny and store-bookkeeping-dominated, so its ratio is
#: near 1x and host-sensitive; the kernel's real gate is the in-kernel
#: assertion that both backends render byte-identical replay reports.
UNGATED_KERNELS = frozenset({"sweep_trials", "stream_replay"})


def _best(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def bench_pairwise_hash(coins: PublicCoins, n: int, repeats: int) -> tuple[float, float]:
    """One pairwise hash + one checksum per key — the per-key IBLT hash cost."""
    rng = np.random.default_rng(0xA11CE)
    keys = rng.integers(0, 1 << 61, size=n, dtype=np.int64).astype(np.uint64)
    pairwise = PairwiseHash(coins, "bench-pairwise", bits=61)
    checksum = Checksum(coins, "bench-checksum", bits=61)
    key_list = keys.tolist()

    def python_path():
        return [pairwise(key) for key in key_list], [checksum(key) for key in key_list]

    def numpy_path():
        return pairwise.hash_array(keys), checksum.hash_array(keys)

    numpy_path()  # warm up
    return _best(python_path, max(2, repeats // 2)), _best(numpy_path, repeats)


def bench_prefix_keys(coins: PublicCoins, n: int, repeats: int) -> tuple[float, float]:
    """Multi-resolution prefix keys (Algorithm 1's key builder) per point."""
    rng = np.random.default_rng(0xB0B)
    rows = max(1, n // 10)
    values = rng.integers(0, 1 << 60, size=(rows, 32), dtype=np.int64)
    lengths = [1, 2, 4, 8, 16, 32]
    hasher = PrefixHasher(coins, "bench-prefix", bits=60)
    value_lists = values.tolist()

    def python_path():
        return [hasher.prefix_digests(row, lengths) for row in value_lists]

    def numpy_path():
        return hasher.prefix_digests_many(values, lengths)

    numpy_path()
    return _best(python_path, max(2, repeats // 2)), _best(numpy_path, repeats)


def bench_emd_keys(coins: PublicCoins, n: int, repeats: int) -> tuple[float, float]:
    """Algorithm 1's unified key stream: the Mersenne-61 PrefixKeyBuilder's
    per-level digests over a real derived prefix schedule, vectorised
    (``prefix_digests_many``) vs the scalar per-point reference."""
    space = HammingSpace(64)
    rows = max(1, n // 10)
    params = derive_emd_parameters(space, n=rows, k=4, max_total_hashes=32)
    batch = params.family.sample_batch(coins, "bench-emd-mlsh", params.total_hashes)
    builder = PrefixKeyBuilder(
        batch, params.hash_counts, coins, "bench-emd-keys", key_bits=params.key_bits
    )
    points = space.sample(np.random.default_rng(0xE3D), rows)
    values = batch.evaluate(points)
    lengths = list(params.hash_counts)
    value_lists = [[int(v) for v in row] for row in values]

    def python_path():
        return [builder.hasher.prefix_digests(row, lengths) for row in value_lists]

    def numpy_path():
        return builder.hasher.prefix_digests_many(values, lengths)

    numpy_path()
    return _best(python_path, max(2, repeats // 2)), _best(numpy_path, repeats)


def bench_gap_keys(coins: PublicCoins, n: int, repeats: int) -> tuple[float, float]:
    """The Gap protocol's key vectors (Section 4.1) at the gap-hamming
    shape (h = 36 entries of m = 3 bit samples, 32-bit keys):
    ``BatchKeyBuilder.key_matrix_for`` vs the per-row scalar
    ``VectorHash`` reference, asserted equal."""
    space = HammingSpace(128)
    rows = max(1, n // 20)
    entries, per_entry = 36, 3
    family = BitSamplingMLSH(space, w=float(space.dim))
    batch = family.sample_batch(coins, "bench-gap-lsh", entries * per_entry)
    builder = BatchKeyBuilder(batch, entries, per_entry, coins, "bench-gap-keys", key_bits=32)
    points = space.point_array(space.sample(np.random.default_rng(0x6A9), rows))

    def python_path():
        return [
            [
                entry_hash(row[j * per_entry : (j + 1) * per_entry])
                for j, entry_hash in enumerate(builder.entry_hashes)
            ]
            for row in batch.evaluate(points).tolist()
        ]

    def numpy_path():
        return builder.key_matrix_for(points)

    assert numpy_path().tolist() == python_path(), "gap key vectors diverged"
    return _best(python_path, max(2, repeats // 2)), _best(numpy_path, repeats)


def bench_emd_round(coins: PublicCoins, n: int, repeats: int) -> tuple[float, float]:
    """One EMD level round: RIBLT insert (Alice) + delete (Bob) + decode,
    per-pair scalar updates vs the array-native batch path."""
    rng = np.random.default_rng(0xE3D2)
    rows = max(32, n // 50)
    dim, side, k, q = 4, 256, 5, 3
    cells = 4 * q * q * k
    keys = rng.choice(1 << 55, size=rows, replace=False).astype(np.uint64)
    values = rng.integers(0, side, size=(rows, dim), dtype=np.int64)
    differences = 2 * k
    bob_keys = keys.copy()
    bob_keys[:differences] = rng.choice(1 << 54, size=differences, replace=False).astype(
        np.uint64
    ) + np.uint64(1 << 54)
    bob_values = values.copy()
    bob_values[:differences] = rng.integers(0, side, size=(differences, dim))
    key_list = keys.tolist()
    value_list = [tuple(row) for row in values.tolist()]
    bob_key_list = bob_keys.tolist()
    bob_value_list = [tuple(row) for row in bob_values.tolist()]

    def make_table() -> RIBLT:
        return RIBLT(
            coins, "bench-emd-round", cells=cells, q=q, key_bits=55, dim=dim, side=side
        )

    def python_path():
        table = make_table()
        for key, value in zip(key_list, value_list):
            table.insert(key, value)
        for key, value in zip(bob_key_list, bob_value_list):
            table.delete(key, value)
        result = table.decode()
        assert result.success and result.pair_count == 2 * differences

    def numpy_path():
        table = make_table()
        table.insert_batch(keys, values)
        table.delete_batch(bob_keys, bob_values)
        result = table.decode()
        assert result.success and result.pair_count == 2 * differences

    numpy_path()
    return _best(python_path, max(2, repeats // 2)), _best(numpy_path, repeats)


_CHECK_BITS = 61


def _reference_write(table) -> bytes:
    """The per-field reference codec: one public scalar call per cell field."""
    writer = BitWriter()
    if isinstance(table, IBLT):
        for count, key, check in zip(
            table.counts.tolist(), table.key_xor.tolist(), table.check_xor.tolist()
        ):
            writer.write_varint(count)
            writer.write_uint(key, table.key_bits)
            writer.write_uint(check, _CHECK_BITS)
    else:
        values = getattr(table, "value_sum", [()] * table.m)
        for cell in zip(table.counts, table.key_sum, table.check_sum, values):
            for field in (*cell[:3], *cell[3]):
                writer.write_varint(field)
    return writer.getvalue()


def _reference_read(payload: bytes, shell):
    """Load ``payload`` into ``shell`` one scalar field at a time."""
    reader = BitReader(payload)
    if isinstance(shell, IBLT):
        columns = [], [], []
        for _ in range(shell.m):
            columns[0].append(reader.read_varint())
            columns[1].append(reader.read_uint(shell.key_bits))
            columns[2].append(reader.read_uint(_CHECK_BITS))
        shell.counts = np.array(columns[0], dtype=np.int64)
        shell.key_xor = np.array(columns[1], dtype=np.uint64)
        shell.check_xor = np.array(columns[2], dtype=np.uint64)
        return shell
    dim = getattr(shell, "dim", 0)
    cells = [[reader.read_varint() for _ in range(3 + dim)] for _ in range(shell.m)]
    shell.counts, shell.key_sum, shell.check_sum = (
        [cell[index] for cell in cells] for index in range(3)
    )
    if dim:
        shell._set_values([cell[3:] for cell in cells])
    return shell


def _cell_columns(table) -> list:
    """Every cell column (the value matrix as rows) as exact Python ints."""
    names = ("counts", "key_xor", "check_xor", "key_sum", "check_sum", "value_sum")
    return [np.asarray(getattr(table, name)).tolist() for name in names if hasattr(table, name)]


def bench_cell_codec(coins: PublicCoins, n: int, repeats: int) -> tuple[float, float]:
    """The wire cell codec: ``to_payload`` + ``from_payload`` of three
    tables sized for the n-key difference set, a bench-local per-field
    reference (one scalar ``write_varint``/``write_uint``/``read_varint``/
    ``read_uint`` call per field) against the table codec.

    The tables are an IBLT holding the difference, a counting IBLT with
    multiplicities up to 9, and a RIBLT with 61-bit keys whose checksum
    sums pass 2^64.  Bytes and loaded columns are asserted identical.
    The row's ``python_s`` is the reference, ``numpy_s`` the codec."""
    alice, bob, differences = _iblt_inputs(n)
    cells = cells_for_differences(2 * differences)
    rng = np.random.default_rng(0xCE11)
    shells = {
        "iblt": lambda: IBLT(coins, "bench-cells", cells=cells, q=3, key_bits=55),
        "multiset": lambda: MultisetIBLT(coins, "bench-cells", cells=cells, q=3, key_bits=55),
        "riblt": lambda: RIBLT(
            coins, "bench-cells", cells=cells // 2, q=3, key_bits=61, dim=4, side=256
        ),
    }
    tables = {kind: make() for kind, make in shells.items()}
    tables["iblt"].insert_batch(alice)
    tables["iblt"].delete_batch(bob)
    difference = np.setxor1d(alice, bob)
    tables["multiset"].insert_batch(difference, rng.integers(1, 10, size=len(difference)))
    wide_keys = rng.integers(0, 1 << 61, size=2 * cells, dtype=np.uint64)
    tables["riblt"].insert_batch(wide_keys, rng.integers(0, 256, size=(2 * cells, 4)))
    assert max(tables["riblt"].check_sum) > 1 << 64

    def reference():
        return [
            _reference_read(_reference_write(table), shells[kind]())
            for kind, table in tables.items()
        ]

    def codec():
        return [
            shells[kind]().from_payload(table.to_payload()[0]) for kind, table in tables.items()
        ]

    for (kind, table), by_field, by_table in zip(tables.items(), reference(), codec()):
        assert _reference_write(table) == table.to_payload()[0], f"{kind} payloads diverged"
        assert _cell_columns(by_field) == _cell_columns(by_table) == _cell_columns(table), (
            f"{kind} cell codec round trip changed a cell"
        )
    return _best(reference, max(2, repeats // 2)), _best(codec, repeats)


def bench_iblt_decode_tail(
    coins: PublicCoins, n: int, repeats: int
) -> tuple[float, float]:
    """Sparse-regime IBLT decode: a small difference set whose peel is
    dominated by the geometric *tail* of the frontier, where the adaptive
    engine drops to scalar rounds.  Python backend vs numpy frontier on
    subtract+decode only (tables prebuilt), so the adaptive switch is what
    the tracked speedup measures."""
    alice, bob, differences = _iblt_inputs(n, fraction=0.00025)
    # 3x headroom: this kernel measures the tail regime, not the peeling
    # threshold, and a tiny table at load ~0.5 can draw a 2-core at a
    # fixed seed (the threshold curve is the sweep campaign's job).
    cells = cells_for_differences(2 * differences, headroom=3.0)

    tables = {}
    for backend in ("python", "numpy"):
        table_a = IBLT(
            coins, "bench-iblt-tail", cells=cells, q=3, key_bits=55, backend=backend
        )
        table_b = IBLT(
            coins, "bench-iblt-tail", cells=cells, q=3, key_bits=55, backend=backend
        )
        if backend == "numpy":
            table_a.insert_batch(alice)
            table_b.insert_batch(bob)
        else:
            table_a.insert_batch(alice.tolist())
            table_b.insert_batch(bob.tolist())
        tables[backend] = (table_a, table_b)

    def decode(backend: str):
        table_a, table_b = tables[backend]
        result = table_b.subtract(table_a).decode()
        assert result.success and result.difference_count == 2 * differences

    decode("numpy")  # warm up
    return (
        _best(lambda: decode("python"), max(2, repeats // 2)),
        _best(lambda: decode("numpy"), repeats),
    )


def bench_sweep_trials(n: int, repeats: int) -> tuple[float, float]:
    """Sweep-campaign trial throughput: serial vs a 2-worker process pool.

    Unlike the other kernels this row is not python-vs-numpy: the first
    column is ``--jobs 1`` (serial, in-process) and the second a
    ``--jobs 2`` process-pool dispatch over the *same* trials, on the
    process-wide backend (``REPRO_BACKEND``, numpy unless set), so ``speedup`` is the pool's parallel efficiency — a host
    fact the tracked baseline records, not a code property (see
    ``UNGATED_KERNELS``).  The serial and parallel reports are asserted
    byte-identical, so the perf row doubles as a determinism check.
    """
    sweep = SweepSpec(
        name="bench-sweep",
        protocol="iblt-load",
        axes={"cells": (128, 192)},
        base_params={"n": max(512, n // 2), "differences": 48, "q": 3},
        trials=4,
    )
    serial = SweepRunner(jobs=1)
    # The parallel runner's pool is *persistent*: the first run pays the
    # worker spin-up and every later campaign reuses the warm pool, which
    # is exactly how the CLI drives multi-campaign sweeps.  Best-of
    # timing therefore measures the steady state, not the cold start.
    parallel = SweepRunner(jobs=2)

    def serial_path():
        return render_sweep_report(sweep, serial.run(sweep, seed=7), seed=7)

    def parallel_path():
        return render_sweep_report(sweep, parallel.run(sweep, seed=7), seed=7)

    try:
        assert serial_path() == parallel_path(), "parallelism leaked into the report"
        return (
            _best(serial_path, max(2, repeats // 2)),
            _best(parallel_path, max(2, repeats // 2)),
        )
    finally:
        parallel.close()


def bench_stream_replay(n: int, repeats: int) -> tuple[float, float]:
    """Full streaming replay — churn stream through per-party stores over a
    ring, every window reconciled by ID-sketch gossip — on the python
    backend vs the numpy backend.  The two rendered ``repro.stream/v1``
    reports are asserted byte-identical (the report embeds no backend
    name precisely so this comparison is meaningful), so the row doubles
    as the cross-backend determinism check for the whole streaming
    stack.  The workload is small and sketch-dominated, so the ratio is
    modest and host-sensitive — tracked, not gated (``UNGATED_KERNELS``).
    """
    import os

    from repro.core import Topology
    from repro.stream import StreamReplayer, render_replay_report
    from repro.workloads import ChurnGenerator

    coins = PublicCoins(2019).child("bench-stream")
    workload = ChurnGenerator(coins.child("workload"), key_bits=55).generate(
        n=max(64, n // 250),
        windows=4,
        rate=max(8, n // 2500),
        skew=1.2,
        sources=4,
    )
    topology = Topology.ring(4)

    def replay(backend: str) -> str:
        previous = os.environ.get("REPRO_BACKEND")
        os.environ["REPRO_BACKEND"] = backend
        try:
            replayer = StreamReplayer(
                topology, coins.child("replay"), key_bits=55, delta_bound=8
            )
            report = replayer.replay(workload.events)
        finally:
            if previous is None:
                os.environ.pop("REPRO_BACKEND", None)
            else:
                os.environ["REPRO_BACKEND"] = previous
        assert report.converged and report.matches_cold_rebuild
        return render_replay_report(report, seed=2019)

    assert replay("python") == replay("numpy"), "stream replay diverged across backends"
    return (
        _best(lambda: replay("python"), max(2, repeats // 2)),
        _best(lambda: replay("numpy"), repeats),
    )


def _iblt_inputs(
    n: int, fraction: float = DIFF_FRACTION
) -> tuple[np.ndarray, np.ndarray, int]:
    rng = np.random.default_rng(0x5EED)
    differences = max(16, int(n * fraction))
    universe = rng.choice(1 << 55, size=n + differences, replace=False)
    alice = universe[:n]
    bob = np.concatenate([universe[differences:n], universe[n:]])
    return alice.astype(np.uint64), bob.astype(np.uint64), differences


def bench_iblt(
    coins: PublicCoins, n: int, repeats: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """IBLT build (two tables of n keys) and subtract+decode, per backend."""
    alice, bob, differences = _iblt_inputs(n)
    cells = cells_for_differences(2 * differences)

    def build(backend: str) -> tuple[IBLT, IBLT]:
        table_a = IBLT(coins, "bench-iblt", cells=cells, q=3, key_bits=55, backend=backend)
        table_b = IBLT(coins, "bench-iblt", cells=cells, q=3, key_bits=55, backend=backend)
        if backend == "numpy":
            table_a.insert_batch(alice)
            table_b.insert_batch(bob)
        else:
            table_a.insert_batch(alice.tolist())
            table_b.insert_batch(bob.tolist())
        return table_a, table_b

    def decode(tables: tuple[IBLT, IBLT]) -> None:
        table_a, table_b = tables
        result = table_b.subtract(table_a).decode()
        assert result.success and result.difference_count == 2 * differences

    build_times = {}
    decode_times = {}
    for backend, backend_repeats in (("python", max(2, repeats // 2)), ("numpy", repeats)):
        build(backend)  # warm up
        build_times[backend] = _best(lambda: build(backend), backend_repeats)
        tables = build(backend)
        decode_times[backend] = _best(lambda: decode(tables), backend_repeats)
    return (
        (build_times["python"], build_times["numpy"]),
        (decode_times["python"], decode_times["numpy"]),
    )


def run(n: int, repeats: int, quick: bool) -> dict:
    coins = PublicCoins(2019)
    results: dict[str, dict[str, float]] = {}

    def record(name: str, python_s: float, numpy_s: float) -> None:
        results[name] = {
            "python_s": round(python_s, 6),
            "numpy_s": round(numpy_s, 6),
            "speedup": round(python_s / numpy_s, 2),
        }

    record("sweep_trials", *bench_sweep_trials(n, repeats))
    record("pairwise_hash", *bench_pairwise_hash(coins, n, repeats))
    record("prefix_keys", *bench_prefix_keys(coins, n, repeats))
    record("emd_keys", *bench_emd_keys(coins, n, repeats))
    record("gap_keys", *bench_gap_keys(coins, n, repeats))
    record("emd_round", *bench_emd_round(coins, n, repeats))
    record("iblt_decode_tail", *bench_iblt_decode_tail(coins, n, repeats))
    record("stream_replay", *bench_stream_replay(n, repeats))
    (build_py, build_np), (decode_py, decode_np) = bench_iblt(coins, n, repeats)
    record("iblt_build", build_py, build_np)
    record("iblt_decode", decode_py, decode_np)
    record("iblt_build_decode", build_py + decode_py, build_np + decode_np)
    record("cell_codec", *bench_cell_codec(coins, n, repeats))

    return {
        "meta": {
            "n": n,
            "quick": quick,
            "repeats": repeats,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": results,
    }


def kernel_status(name: str, measured: float, baseline_entry: dict | None) -> tuple[bool, str]:
    """The regression verdict for one kernel: ``(passed, label)``.

    Single source of the gating rule — :func:`compare` (the CI gate)
    and :func:`render_step_summary` (the markdown table) must never
    disagree about what counts as a regression.
    """
    if name in UNGATED_KERNELS:
        return True, "host-dependent (not gated)"
    if baseline_entry is None:
        return True, "new kernel (no baseline)"
    if measured >= baseline_entry["speedup"] / REGRESSION_FACTOR:
        return True, "ok"
    return False, "REGRESSION"


def render_step_summary(report: dict, baseline: dict | None) -> str:
    """A GitHub-flavoured markdown speedup table for the CI step summary.

    One row per kernel: measured timings and speedup, the committed
    baseline's speedup when available, and the :func:`kernel_status`
    verdict the regression gate itself uses.
    """
    baseline_results = (baseline or {}).get("results", {})
    lines = [
        f"### Benchmark speedups (n={report['meta']['n']})",
        "",
        "| kernel | python/serial | numpy/engine | speedup | baseline | status |",
        "| --- | ---: | ---: | ---: | ---: | :-- |",
    ]
    for name, entry in report["results"].items():
        base = baseline_results.get(name)
        passed, status = kernel_status(name, entry["speedup"], base)
        baseline_cell = f"{base['speedup']:.1f}x" if base is not None else "—"
        lines.append(
            f"| {name} | {entry['python_s'] * 1e3:.2f} ms "
            f"| {entry['numpy_s'] * 1e3:.2f} ms "
            f"| {entry['speedup']:.1f}x | {baseline_cell} "
            f"| {status if passed else f'**{status}**'} |"
        )
    return "\n".join(lines) + "\n"


def compare(report: dict, baseline_path: Path) -> int:
    if not baseline_path.is_file():
        print(
            f"FAIL: baseline {baseline_path} does not exist. The regression "
            "gate must compare against the *committed* baseline — refusing "
            "to continue (CI must never self-baseline). Run without "
            "--compare locally to record a new baseline, then commit it."
        )
        return 1
    baseline = json.loads(baseline_path.read_text())
    baseline_n = baseline.get("meta", {}).get("n")
    if baseline_n != report["meta"]["n"]:
        print(
            f"FAIL: baseline was measured at n={baseline_n} but this run used "
            f"n={report['meta']['n']}; speedups are only comparable at equal n "
            f"(rerun with --n {baseline_n})"
        )
        return 1
    failures = []
    for name, entry in baseline.get("results", {}).items():
        if name not in report["results"]:
            continue
        row = report["results"][name]
        measured = row["speedup"]
        passed, status = kernel_status(name, measured, entry)
        # Both sides' times beside the ratio: a ratio that moved because
        # its python reference moved shows it.
        times = f"python {row['python_s'] * 1e3:9.2f} ms  numpy {row['numpy_s'] * 1e3:8.2f} ms"
        if name in UNGATED_KERNELS:
            print(f"  {name:18s} {times}  speedup {measured:7.1f}x  (baseline {entry['speedup']:.1f}x, {status})")
            continue
        floor = entry["speedup"] / REGRESSION_FACTOR
        print(
            f"  {name:18s} {times}  speedup {measured:7.1f}x  "
            f"(baseline {entry['speedup']:.1f}x, floor {floor:.1f}x)  {status}"
        )
        if not passed:
            failures.append(name)
    if failures:
        print(f"FAIL: speedup regressed >={REGRESSION_FACTOR}x on: {', '.join(failures)}")
        return 1
    print("benchmark regression gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help=f"CI smoke run (n={QUICK_N})")
    parser.add_argument("--n", type=int, default=None, help="override the key count")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    parser.add_argument("--output", type=Path, default=Path("BENCH_core.json"))
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        help="baseline BENCH_core.json; exit 1 if any speedup fell below half of it",
    )
    parser.add_argument(
        "--step-summary",
        type=Path,
        default=None,
        help="append a per-kernel markdown speedup table to this file "
        "(pass \"$GITHUB_STEP_SUMMARY\" in CI)",
    )
    args = parser.parse_args(argv)

    # Fail fast on a missing baseline *before* burning benchmark time;
    # compare() repeats the check for callers that invoke it directly.
    if args.compare is not None and not args.compare.is_file():
        print(
            f"FAIL: baseline {args.compare} does not exist; refusing to run "
            "the regression gate without a committed baseline (CI must "
            "never self-baseline)."
        )
        return 1

    n = args.n if args.n is not None else (QUICK_N if args.quick else FULL_N)
    report = run(n=n, repeats=args.repeats, quick=args.quick)

    print(f"n={n} (quick={args.quick}):")
    for name, entry in report["results"].items():
        print(
            f"  {name:18s} python {entry['python_s']*1e3:9.1f} ms   "
            f"numpy {entry['numpy_s']*1e3:8.2f} ms   {entry['speedup']:7.1f}x"
        )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.step_summary is not None:
        baseline = None
        if args.compare is not None and args.compare.is_file():
            baseline = json.loads(args.compare.read_text())
            if baseline.get("meta", {}).get("n") != report["meta"]["n"]:
                # Speedups at different n are incomparable; compare()
                # rejects such a baseline, so the table must not render
                # verdicts the gate never issued.
                baseline = None
        with args.step_summary.open("a") as handle:
            handle.write(render_step_summary(report, baseline))
        print(f"appended speedup table to {args.step_summary}")

    if args.compare is not None:
        return compare(report, args.compare)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
