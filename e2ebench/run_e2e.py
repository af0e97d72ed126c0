#!/usr/bin/env python3
"""End-to-end benchmark: closed-loop workloads, calibrated timings, per-layer trace.

One workload, one run (the last stdout line is the JSON result)::

    python3 e2ebench/run_e2e.py --workload emd-hamming --seed 2019 --seconds 20 --trace 0

Every workload, each in a fresh child process, reports kept in a file::

    python3 e2ebench/run_e2e.py --seed 2019 --output e2e.json [--runs 3] [--trace 1]

Two report files compared (each may hold several runs)::

    python3 e2ebench/run_e2e.py --compare base.json new.json

Metric names, units and bounds come from ``BENCHMARK.json`` at the
repository root; ``e2ebench/README.md`` explains the workloads, metrics
and calibration.  The program under test is imported from ``src/`` of
this checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibration import REFERENCE_MS, Calibrator, scale
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SCHEMA = "repro.e2e/v1"

#: Workload names in report order (kept here so that listing them does
#: not import the program under test).
WORKLOAD_NAMES = ("recon-warm", "recon-cold", "stream-churn", "emd-hamming", "gap-hamming")

#: Set-up samples per run: this process plus fresh child processes.
SETUP_SAMPLES = 3

#: Ambient settings that would change which code paths run.
REPRO_ENV = ("REPRO_BACKEND", "REPRO_DECODE", "REPRO_KERNELS")

#: Reported besides the gated metrics of BENCHMARK.json, where they apply.
EXTRA_METRICS = {"wire_bytes_per_op": "bytes", "approx_ratio": "ratio", "fail_rate": "ratio"}

CHILD_TIMEOUT_S = 600


def clean_env() -> dict:
    return {key: value for key, value in os.environ.items() if key not in REPRO_ENV}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values: "list[float]", fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- one workload ----------------------------------------------------------------


def prepare_source() -> None:
    """Import the program from this checkout's ``src/`` only."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SOURCE}/repro; nothing to benchmark")
    for key in REPRO_ENV:
        os.environ.pop(key, None)
    sys.path.insert(0, str(SOURCE))


def timed_setup(name: str, seed: int, calibrator: Calibrator):
    """Import ``repro``, construct the long-lived objects and run the warm-up
    op (priming the store where there is one).  Input generation is not
    timed.  Returns ``(workload, raw_s, calibrated_s)``."""
    before = calibrator.read()
    start = time.perf_counter()
    import workloads  # imports repro (and numpy): part of what a user waits for

    workload = workloads.WORKLOADS[name](seed)
    imported = time.perf_counter()
    warmup = workload.warmup_inputs()
    resumed = time.perf_counter()
    workload.setup(warmup)
    end = time.perf_counter()
    after = calibrator.read()
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not from {SOURCE}")
    raw = (imported - start) + (end - resumed)
    return workload, raw, raw * scale(before, after)


def probe_setup(name: str, seed: int) -> "tuple[float, float]":
    """One set-up in a fresh interpreter: ``(raw_s, calibrated_s)``."""
    completed = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
        cwd=ROOT,
        env=clean_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
    sample = json.loads(completed.stdout.strip().splitlines()[-1])
    return sample["raw_setup_s"], sample["setup_s"]


@dataclass
class Phase:
    """The batches of one measurement, each with its calibration factor."""

    batches: list = field(default_factory=list)
    factors: "list[float]" = field(default_factory=list)
    span_ranges: "list[tuple[int, int]]" = field(default_factory=list)

    def ops(self, calibrated: bool = True):
        for batch, factor in zip(self.batches, self.factors):
            for op in batch.ops:
                yield op, (factor if calibrated else 1.0)

    def op_count(self) -> int:
        return sum(len(batch.ops) for batch in self.batches)

    def prefix(self, prefix_batches: int) -> list:
        """The ops of the fixed prefix: the same ops on every commit."""
        return [op for batch in self.batches[:prefix_batches] for op in batch.ops]

    def latencies_ms(self, calibrated: bool = True) -> "list[float]":
        return [op.latency_s * factor * 1e3 for op, factor in self.ops(calibrated)]

    def wall_s(self, calibrated: bool = True) -> float:
        return sum(
            batch.wall_s * (factor if calibrated else 1.0)
            for batch, factor in zip(self.batches, self.factors)
        )

    def fingerprint(self) -> list:
        return [(batch.detail, [op.fingerprint() for op in batch.ops]) for batch in self.batches]


def measure(
    workload,
    calibrator: Calibrator,
    seconds: float = 0.0,
    batches: "int | None" = None,
    tracer: "Tracer | None" = None,
) -> Phase:
    """Closed loop: run batches for ``seconds`` (never fewer than the
    workload's prefix), or exactly ``batches`` of them."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    before = calibrator.read()
    index = 0
    while True:
        if batches is not None:
            if index >= batches:
                break
        elif index >= workload.prefix_batches and time.perf_counter() >= deadline:
            break
        inputs = workload.inputs(index)
        first_span = len(tracer.spans) if tracer else 0
        batch = workload.run(index, inputs)
        last_span = len(tracer.spans) if tracer else 0
        after = calibrator.read()
        phase.batches.append(batch)
        phase.factors.append(scale(before, after))
        phase.span_ranges.append((first_span, last_span))
        before = after
        index += 1
    return phase


def timing_metrics(phase: Phase, calibrated: bool = True) -> dict:
    latencies = phase.latencies_ms(calibrated)
    return {
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
        "throughput_ops_s": len(latencies) / phase.wall_s(calibrated),
    }


def cost_metrics(prefix: list) -> dict:
    """Deterministic costs of the prefix ops."""
    metrics = {"bits_per_op": statistics.fmean(op.bits for op in prefix)}
    if any(op.wire_bytes for op in prefix):
        metrics["wire_bytes_per_op"] = statistics.fmean(op.wire_bytes for op in prefix)
    ratios = [op.approx_ratio for op in prefix if op.approx_ratio is not None]
    if ratios:
        metrics["approx_ratio"] = statistics.median(ratios)
    return metrics


def layer_metrics(traced: Phase, untraced: Phase, tracer: Tracer) -> "tuple[dict, list[str]]":
    """Per-layer busy time and work counts of the traced phase, the extras,
    and the problems found (self time beyond op latency)."""
    self_times = tracer.self_times()
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    outcomes: "dict[str, list[bool]]" = {"iblt.decode": [], "store.serve": []}
    per_op_raw: "dict[object, float]" = {}
    for (first, last), factor in zip(traced.span_ranges, traced.factors):
        for index in range(first, last):
            layer, _, _, _, op, outcome = tracer.spans[index]
            busy[layer] += self_times[index] * factor
            calls[layer] += tracer.is_call(index)
            if layer in outcomes:
                outcomes[layer].append(bool(outcome))
            per_op_raw[op] = per_op_raw.get(op, 0.0) + self_times[index]

    problems = []
    for op, _ in traced.ops(calibrated=False):
        if per_op_raw.get(op.op_id, 0.0) > op.latency_s:
            problems.append(f"op {op.op_id}: traced self time exceeds its latency")
    if sum(per_op_raw.values()) > traced.wall_s(calibrated=False):
        problems.append("traced self time exceeds the measured wall time")

    ops = traced.op_count()
    all_ops = [op for op, _ in traced.ops()]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = busy[layer] * 1e3 / ops
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    # The cell codec as a whole: every workload reads cells, while the
    # store-backed server writes none per op, so only the sum is busy
    # on every workload.
    metrics["protocol.cells.self_ms_per_op"] = (
        metrics["protocol.cells.write.self_ms_per_op"]
        + metrics["protocol.cells.read.self_ms_per_op"]
    )
    decodes, serves = outcomes["iblt.decode"], outcomes["store.serve"]
    metrics["iblt.decode.success_ratio"] = sum(decodes) / len(decodes) if decodes else 0.0
    metrics["store.hit_ratio"] = sum(serves) / len(serves) if serves else 0.0
    metrics["server.attempts_per_op"] = statistics.fmean(op.attempts for op in all_ops)
    metrics["server.rerequests_per_op"] = statistics.fmean(op.rerequests for op in all_ops)
    metrics["server.escalations_per_op"] = statistics.fmean(op.escalations for op in all_ops)
    metrics["protocol.wire.framing_bytes_per_op"] = statistics.fmean(
        op.framing_bytes for op in all_ops
    )
    wall_ms = traced.wall_s() * 1e3
    metrics["session.wait_ms_per_op"] = statistics.fmean(traced.latencies_ms()) - wall_ms / ops
    metrics["untraced.self_ms_per_op"] = (wall_ms - sum(busy.values()) * 1e3) / ops
    metrics["trace.overhead_ratio"] = (
        timing_metrics(traced)["latency_p50_ms"] / timing_metrics(untraced)["latency_p50_ms"] - 1
    )
    return metrics, problems


def run_meta(name: str, seed: int, phase: Phase, prefix_batches: int) -> dict:
    import numpy

    from repro.iblt import _kernels
    from repro.iblt.backend import default_backend, default_decode_mode

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": default_backend(),
        "decode_mode": default_decode_mode(),
        "kernels": _kernels.kernel_status()["resolved"],
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": name,
        "ops": phase.op_count(),
        "prefix_ops": len(phase.prefix(prefix_batches)),
        "commit": git_commit(),
        "calibration_reference_ms": REFERENCE_MS,
    }


def entry(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_ms_per_op"):
        return "ms"
    if name.endswith("_bytes_per_op"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure_untraced(args, spec: dict, workload, calibrator: Calibrator, setups: list):
    """The end-to-end metrics: ``(phase, gated, extras)``."""
    phase = measure(workload, calibrator, seconds=args.seconds)
    prefix = phase.prefix(workload.prefix_batches)
    values = timing_metrics(phase)
    values.update(cost_metrics(prefix))
    values["setup_s"] = statistics.median(calibrated for _, calibrated in setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    samples.update(dict.fromkeys(("bits_per_op", "wire_bytes_per_op", "approx_ratio"), len(prefix)))
    ops = phase.op_count()
    gated = {
        metric["name"]: entry(
            values[metric["name"]], metric["unit"], samples.get(metric["name"], ops)
        )
        for metric in spec["end_to_end"]
    }
    extras = {
        name: entry(values[name], unit, samples[name])
        for name, unit in EXTRA_METRICS.items()
        if name in values
    }
    return phase, gated, extras


def measure_traced(args, spec: dict, workload, calibrator: Calibrator):
    """Half the time untraced, then the same ops traced: ``(phases, gated,
    extras, problems)``."""
    untraced = measure(workload, calibrator, seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, calibrator, batches=len(untraced.batches), tracer=tracer)
    finally:
        tracer.uninstall()
    problems = []
    if not tracer.restored():
        problems.append("a traced attribute was not restored")
    if traced.fingerprint() != untraced.fingerprint():
        problems.append("tracing changed a deterministic output")
    values, found = layer_metrics(traced, untraced, tracer)
    problems.extend(found)
    problems.extend(
        f"BENCHMARK.json gives {metric['name']} unit {metric['unit']!r}"
        for metric in spec["per_layer"]
        if metric["unit"] != layer_unit(metric["name"])
    )
    ops = traced.op_count()
    gated = {
        metric["name"]: entry(values[metric["name"]], metric["unit"], ops)
        for metric in spec["per_layer"]
    }
    extras = {
        name: entry(value, layer_unit(name), ops)
        for name, value in values.items()
        if name not in gated
    }
    if args.spans:
        write_spans(Path(args.spans), tracer, traced)
    return (untraced, traced), gated, extras, problems


def run_workload(args, spec: dict) -> int:
    """Measure one workload; print the report and the JSON result line."""
    calibrator = Calibrator()
    workload, setup_raw, setup_calibrated = timed_setup(args.workload, args.seed, calibrator)
    if args.trace:
        phases, gated, extras, problems = measure_traced(args, spec, workload, calibrator)
        setup_raws = [setup_raw]
    else:
        setups = [(setup_raw, setup_calibrated)]
        setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        phase, gated, extras = measure_untraced(args, spec, workload, calibrator, setups)
        phases, problems = (phase,), []
        setup_raws = [raw for raw, _ in setups]
    phase = phases[-1]

    attempted = sum(p.op_count() for p in phases)
    failed = sum(not op.ok for p in phases for op, _ in p.ops())
    if failed:
        problems.append(f"{failed} of {attempted} ops failed their check")
    if not args.trace:
        extras["fail_rate"] = entry(failed / attempted, "ratio", attempted)
    correct = not problems

    report = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": gated,
        "extra": extras,
        "raw": {
            **timing_metrics(phase, calibrated=False),
            "setup_s": setup_raws,
            "calibration_ms": [reading * 1e3 for reading in calibrator.readings],
        },
        "meta": run_meta(args.workload, args.seed, phase, workload.prefix_batches),
    }
    print_report(report)
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": e["value"], "unit": e["unit"]} for name, e in gated.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def print_report(report: dict) -> None:
    meta = report["meta"]
    print(
        f"{report['workload']}  seed {report['seed']}  trace {report['trace']}: "
        f"{meta['ops']} ops ({meta['prefix_ops']} in the fixed prefix), "
        f"{report['failed']} of {report['attempted']} failed"
    )
    for name, item in {**report["metrics"], **report["extra"]}.items():
        print(f"  {name:40s} {item['value']:14.4f} {item['unit']:8s} n={item['samples']}")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")


def write_spans(path: Path, tracer: Tracer, phase: Phase) -> None:
    path.write_text(
        json.dumps(
            {
                "fields": ["layer", "start_s", "end_s", "parent", "op", "outcome"],
                "spans": tracer.spans,
                "batches": [
                    [first, last, factor]
                    for (first, last), factor in zip(phase.span_ranges, phase.factors)
                ],
            }
        )
        + "\n"
    )


# -- every workload --------------------------------------------------------------


def run_suite(args) -> int:
    """Each workload in a fresh child process, one at a time."""
    reports = []
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for run in range(args.runs):
            for name in WORKLOAD_NAMES:
                for trace in (0, 1) if args.trace else (0,):
                    output = Path(scratch) / f"{run}-{name}-{trace}.json"
                    command = [
                        sys.executable,
                        __file__,
                        "--workload",
                        name,
                        "--seed",
                        str(args.seed),
                        "--seconds",
                        str(args.seconds),
                        "--trace",
                        str(trace),
                        "--output",
                        str(output),
                    ]
                    if trace and args.spans:
                        command += ["--spans", f"{args.spans}.{name}.json"]
                    completed = subprocess.run(
                        command,
                        cwd=ROOT,
                        env=clean_env(),
                        capture_output=True,
                        text=True,
                        timeout=CHILD_TIMEOUT_S,
                        check=False,
                    )
                    sys.stdout.write("\n".join(completed.stdout.splitlines()[:-1]) + "\n")
                    sys.stderr.write(completed.stderr)
                    if completed.returncode != 0:
                        status = 1
                    if output.is_file():
                        reports.append(json.loads(output.read_text()))
                    else:
                        status = 1
    if args.output:
        document = {"schema": SCHEMA, "reports": reports}
        Path(args.output).write_text(json.dumps(document, indent=2) + "\n")
    return status


# -- comparison ------------------------------------------------------------------


def load_reports(path: Path) -> list:
    document = json.loads(path.read_text())
    documents = document if isinstance(document, list) else [document]
    reports = []
    for item in documents:
        reports.extend(item["reports"] if "reports" in item else [item])
    return [report for report in reports if not report.get("trace")]


def compare(base_path: Path, new_path: Path, spec: dict) -> int:
    """One row per workload x end-to-end metric: medians, quartiles, verdict."""
    samples: "dict[tuple[str, str], dict]" = {}
    for side, path in (("base", base_path), ("new", new_path)):
        for report in load_reports(path):
            for name, item in report["metrics"].items():
                key = (report["workload"], name)
                samples.setdefault(key, {"base": [], "new": []})[side].append(item["value"])

    def cell(values: "list[float]") -> str:
        q1, median, q3 = quartiles(values)
        return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"

    print(
        f"{'workload':13s} {'metric':17s} {'base median [q1, q3]':>34s} "
        f"{'new median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict"
    )
    regressions = 0
    for name in WORKLOAD_NAMES:
        for metric in spec["end_to_end"]:
            sides = samples.get((name, metric["name"]))
            if not sides or not sides["base"] or not sides["new"]:
                print(f"{name:13s} {metric['name']:17s} missing on one side")
                continue
            verdict, change = judge(sides["base"], sides["new"], metric)
            regressions += verdict == "regression"
            print(
                f"{name:13s} {metric['name']:17s} {cell(sides['base']):>34s} "
                f"{cell(sides['new']):>34s} {change:+8.1%} {metric['bound']:6.0%}  {verdict}"
            )
    return 1 if regressions else 0


def judge(base: "list[float]", new: "list[float]", metric: dict) -> "tuple[str, float]":
    """``ok``, ``regression`` (worse by more than the bound) or ``unresolved``
    (the base's own quartile spread exceeds the bound)."""
    base_q1, base_median, base_q3 = quartiles(base)
    new_median = quartiles(new)[1]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (new_median - base_median) / base_median
    if all(sign * (n - b) < 0 for n in new for b in base):
        return "ok", worse
    if (base_q3 - base_q1) / base_median > metric["bound"]:
        return "unresolved", worse
    if worse > metric["bound"]:
        return "regression", worse
    return "ok", worse


# -- entry point -----------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run this workload only")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: rerun the same ops under the layer tracer and report per-layer metrics",
    )
    parser.add_argument("--output", help="write the full report(s) as JSON to this file")
    parser.add_argument("--spans", help="with --trace 1: write every span as JSON to this file")
    parser.add_argument("--runs", type=int, default=1, help="suite mode: repeat the suite")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]), spec)
    prepare_source()
    if args.setup_probe:
        raw, calibrated = timed_setup(args.workload, args.seed, Calibrator())[1:]
        print(json.dumps({"raw_setup_s": raw, "setup_s": calibrated}))
        return 0
    if args.workload:
        return run_workload(args, spec)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
