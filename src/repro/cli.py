"""Command-line demo driver: ``python -m repro.cli <command> [options]``.

Runs the paper's protocols on generated noisy-replica workloads and
prints measured outcomes — handy for quick experimentation without
writing a script.

Commands
--------
``emd``        Algorithm 1 on Hamming or grid data.
``gap``        The Gap Guarantee protocol (general or low-dimensional).
``exact``      Exact baselines: IBLT, auto-sized IBLT, characteristic
               polynomial (CPI).
``scenarios``  The seeded scenario matrix (every protocol family) as
               deterministic JSON — what CI's smoke job runs.
``sweep``      A parameter-sweep campaign: many seeded trials per grid
               point, optionally on a process pool (``--jobs``),
               aggregated into a ``repro.sweeps/v1`` curve report.
``serve``      The asyncio reconciliation server (Bob as a service) on a
               TCP port, speaking the framed wire protocol; ``--store``
               attaches a sharded sketch store for warm repeat serves.
``client``     Run N concurrent reconciliation sessions against a
               server, optionally over a seeded simulated lossy link,
               and emit a canonical ``repro.recon-service/v1`` report.
``stream``     ``record`` a seeded Zipf-churn stream into a crc-stamped
               ``repro.events/v1`` event log; ``replay`` a log through
               per-party sketch stores over a gossip topology and emit
               a canonical ``repro.stream/v1`` report.

``emd``, ``gap`` and ``exact`` each run one ad-hoc scenario through the
scenario drivers (``emd``; ``gap``, or ``gap-lowdim`` with ``--lowdim``;
``exact-iblt``/``exact-auto``/``exact-cpi`` by ``--method``) and print
its metrics.

Every command runs on the process-wide backend, ``REPRO_BACKEND``
(``numpy`` unless set to ``python``); any other value exits 2.

Examples
--------
::

    python -m repro.cli emd --space hamming --dim 64 --n 32 --k 2
    python -m repro.cli gap --space l1 --side 4096 --dim 2 --n 48 --k 3 \\
        --r1 4 --r2 512 --lowdim
    python -m repro.cli exact --method cpi --n 100 --delta 8
    REPRO_BACKEND=python python -m repro.cli scenarios --seed 7 --output out.json
    python -m repro.cli sweep --campaign iblt-threshold --seed 7 --jobs 2
    python -m repro.cli serve --port 8377 --store
    python -m repro.cli client --port 8377 --sessions 8 --seed 7 \\
        --loss-rate 0.1 --duplicate-rate 0.05 --reorder-rate 0.1
    python -m repro.cli stream record --output churn.ndjson --seed 7 \\
        --n 32 --windows 3 --rate 6 --skew 1.2 --sources 5
    python -m repro.cli stream replay --input churn.ndjson --seed 7 \\
        --topology ring --parties 5
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path
from typing import Sequence

from .analysis import format_table
from .experiments import (
    ScenarioRunner,
    ScenarioSpec,
    SweepRunner,
    builtin_campaigns,
    builtin_scenarios,
    render_report,
    render_sweep_report,
)
from .experiments.scenarios import _space
from .experiments.sweeps import with_trials
from .hashing import PublicCoins
from .iblt.backend import default_backend

__all__ = ["main", "build_parser"]


#: ``exact --method`` -> the scenario driver that runs it.
_EXACT_PROTOCOLS = {"iblt": "exact-iblt", "auto": "exact-auto", "cpi": "exact-cpi"}

_TITLES = {
    "emd": "EMD protocol (Alg. 1)",
    "gap": "Gap Guarantee protocol",
    "exact": "Exact reconciliation",
}


def _too_small(args: argparse.Namespace, **floors: int) -> bool:
    """Refuse, in one stderr line, the first given count below its floor."""
    for name, floor in floors.items():
        value = getattr(args, name)
        if value is not None and value < floor:
            print(f"--{name.replace('_', '-')} must be >= {floor}, got {value}", file=sys.stderr)
            return True
    return False


def _emit(document: str, path: "Path | None") -> None:
    """Write a canonical report to ``path``, or to stdout without one."""
    if path is None:
        sys.stdout.write(document)
        return
    path.write_text(document)
    print(f"wrote {path}", file=sys.stderr)


def _cmd_protocol(args: argparse.Namespace) -> int:
    """``emd``/``gap``/``exact``: run one ad-hoc scenario, print its metrics."""
    if args.command == "exact":
        protocol = _EXACT_PROTOCOLS[args.method]
        params = {"dim": args.dim, "n": args.n, "delta": args.delta}
    else:
        protocol = args.command
        params = {
            "space": args.space,
            "dim": args.dim,
            "side": args.side,
            "n": args.n,
            "k": args.k,
            "close_radius": args.close_radius,
            "far_radius": args.far_radius,
        }
        if args.command == "gap":
            params.update(r1=args.r1, r2=args.r2)
            if args.lowdim:
                if args.space == "hamming":
                    print("--lowdim requires a grid space", file=sys.stderr)
                    return 2
                protocol = "gap-lowdim"
            elif args.space == "l2":
                print("general gap CLI supports hamming or l1 spaces", file=sys.stderr)
                return 2
    spec = ScenarioSpec(args.command, protocol, args.seed, params)
    result = ScenarioRunner().run(spec)
    title = f"{_TITLES[args.command]} [{protocol}]"
    print(format_table(["metric", "value"], list(result.metrics.items()), title=title))
    return 0 if result.success else 1


def _cmd_scenarios(args: argparse.Namespace) -> int:
    specs = builtin_scenarios(args.seed)
    if args.only:
        wanted = set(args.only)
        unknown = wanted - {spec.name for spec in specs}
        if unknown:
            print(f"unknown scenarios: {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        specs = [spec for spec in specs if spec.name in wanted]
    if args.list:
        for spec in specs:
            print(f"{spec.name:22s} {spec.protocol}")
        return 0

    results = ScenarioRunner().run_all(specs)
    # Human-readable progress goes to stderr; stdout (or --output) carries
    # only the canonical JSON so same-seed runs stay byte-identical.
    for result in results:
        status = "ok" if result.success else "FAIL"
        print(
            f"  {result.spec.name:22s} [{result.backend}] {status:4s} "
            f"bits={result.metrics.get('bits', '-'):>8} "
            f"rounds={result.metrics.get('rounds', '-')} "
            f"({result.wall_time_s * 1e3:.1f} ms)",
            file=sys.stderr,
        )
    _emit(render_report(results, seed=args.seed, include_timings=args.timings), args.output)
    failures = [result.spec.name for result in results if not result.success]
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    campaigns = builtin_campaigns()
    if args.list:
        for name, campaign in campaigns.items():
            grid = " x ".join(
                f"{axis}[{len(values)}]" for axis, values in sorted(campaign.axes.items())
            )
            print(f"{name:20s} {campaign.protocol:12s} {grid} x {campaign.trials} trials")
        return 0
    if not args.campaign:
        print("--campaign is required (or --list)", file=sys.stderr)
        return 2
    selected = list(dict.fromkeys(args.campaign))  # preserve order, dedupe
    if args.output is not None and args.output_dir is not None:
        print("--output and --output-dir are mutually exclusive", file=sys.stderr)
        return 2
    if len(selected) > 1 and args.output_dir is None:
        # Concatenated JSON documents on stdout (or in one --output file)
        # would be unparseable as canonical output.
        print(
            "multiple campaigns need --output-dir (one report file per "
            "campaign); --output and stdout hold a single report",
            file=sys.stderr,
        )
        return 2
    if _too_small(args, jobs=1, trials=1):
        return 2
    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)

    # One runner for every requested campaign: with --jobs > 1 the
    # persistent worker pool spins up once and every campaign reuses
    # the warm workers.
    with SweepRunner(jobs=args.jobs) as runner:
        for name in selected:
            sweep = campaigns[name]
            if args.trials is not None:
                sweep = with_trials(sweep, args.trials)
            point_results = runner.run(sweep, seed=args.seed)
            # Progress goes to stderr; stdout (or --output) carries only
            # the canonical JSON, which never depends on --jobs.
            print(f"campaign {name}:", file=sys.stderr)
            for point_result in point_results:
                rate = point_result.successes / len(point_result.results)
                bits = [result.metrics.get("bits") for result in point_result.results]
                mean_bits = (
                    sum(bits) / len(bits) if all(b is not None for b in bits) else None
                )
                label = ", ".join(
                    f"{k}={v}" for k, v in sorted(point_result.point.items())
                )
                print(
                    f"  {label:28s} success {rate:5.0%} "
                    f"({point_result.successes}/{len(point_result.results)})"
                    + (f"  mean bits {mean_bits:10.0f}" if mean_bits is not None else ""),
                    file=sys.stderr,
                )
            path = args.output_dir / f"sweep-{name}.json" if args.output_dir else args.output
            _emit(render_sweep_report(sweep, point_results, seed=args.seed), path)
    # Decode failures are measured outcomes here (the curves include the
    # over-threshold regime), so completion is success.
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import ReconcileServer

    store = None
    if args.store:
        from .store import SketchStore, StoreConfig

        store = SketchStore(
            StoreConfig(
                seed=args.seed,
                shards=args.store_shards,
                capacity=args.store_capacity,
            )
        )

    async def run() -> None:
        server = ReconcileServer(store=store)
        tcp_server = await server.serve_tcp(args.host, args.port)
        bound = tcp_server.sockets[0].getsockname()
        mode = "store-backed" if store is not None else "stateless"
        # Readiness line on stderr: CI's server-smoke gate waits for it.
        print(f"recon-service ({mode}) listening on {bound[0]}:{bound[1]}",
              file=sys.stderr, flush=True)
        async with tcp_server:
            await tcp_server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .hashing import derive_seed
    from .server import (
        FrameConnection,
        NetworkConfig,
        SimulatedNetwork,
        render_session_reports,
        run_client,
        session_configs,
    )

    if _too_small(
        args, sessions=1, dim=1, n=0, delta=0, delta_bound=1, max_attempts=1, max_escalations=0
    ):
        return 2
    try:
        configs = session_configs(args.sessions, args.seed, vars(args))
        network = SimulatedNetwork(
            NetworkConfig.from_params(derive_seed(args.seed, "recon-service-cli"), vars(args))
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    async def run():
        reader, writer = await asyncio.open_connection(args.host, args.port)
        return await run_client(
            FrameConnection(reader, writer), configs, network=network, timeout=args.timeout
        )

    reports = asyncio.run(run())
    for report in sorted(reports, key=lambda r: r.session_id):
        status = "ok" if (report.success and report.union_ok) else "FAIL"
        print(
            f"  session {report.session_id:3d} {status:4s} "
            f"attempts={report.attempts} rerequests={report.rerequests} "
            f"bits={report.transcript_bits} wire={report.wire.wire_bytes}B",
            file=sys.stderr,
        )
    _emit(render_session_reports(reports, seed=args.seed), args.output)
    return 0 if all(r.success and r.union_ok for r in reports) else 1


def _cmd_stream_record(args: argparse.Namespace) -> int:
    from .stream import write_event_log
    from .workloads import ChurnGenerator

    coins = PublicCoins(args.seed).child("stream-record")
    workload = ChurnGenerator(coins, key_bits=args.key_bits).generate(
        n=args.n,
        windows=args.windows,
        rate=args.rate,
        skew=args.skew,
        insert_fraction=args.insert_fraction,
        sources=args.sources,
    )
    count = write_event_log(
        args.output,
        workload.events,
        key_bits=args.key_bits,
        meta={
            "seed": args.seed,
            "n": args.n,
            "windows": args.windows,
            "rate": args.rate,
            "skew": args.skew,
            "insert_fraction": args.insert_fraction,
            "sources": args.sources,
        },
    )
    print(
        f"recorded {count} events over {workload.windows} windows "
        f"(final membership {len(workload.final_membership)}) -> {args.output}",
        file=sys.stderr,
    )
    return 0


def _cmd_stream_replay(args: argparse.Namespace) -> int:
    from .core import Topology
    from .stream import EventLogReader, StreamReplayer, render_replay_report

    # The topology's own count flag is checked only where it applies.
    shape = {"tree": {"branching": 1}, "random": {"k_regular": 1}}.get(args.topology, {})
    if _too_small(args, parties=2, delta_bound=1, q=2, max_attempts=1, **shape):
        return 2
    k, parties = args.k_regular, args.parties
    if args.topology == "random" and (k >= parties or parties * k % 2):
        print(
            "--k-regular must be < --parties, with an even --parties * --k-regular; "
            f"got --k-regular {k}, --parties {parties}",
            file=sys.stderr,
        )
        return 2
    reader = EventLogReader.open(args.input)
    header = reader.header()
    events = reader.read_all()
    coins = PublicCoins(args.seed)
    try:
        topology = Topology.build(
            args.topology,
            args.parties,
            coins=coins.child("stream-topology"),
            branching=args.branching,
            k=args.k_regular,
        )
        replayer = StreamReplayer(
            topology,
            coins.child("stream-replay"),
            key_bits=header["key_bits"],
            delta_bound=args.delta_bound,
            q=args.q,
            max_attempts=args.max_attempts,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    report = replayer.replay(events)
    print(
        f"replayed {report.events} events over {args.topology} "
        f"(depth {report.depth}): converged={report.converged} "
        f"warm==cold={report.matches_cold_rebuild} bits={report.total_bits}",
        file=sys.stderr,
    )
    _emit(render_replay_report(report, seed=args.seed, meta=dict(header["meta"])), args.output)
    return 0 if report.success else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Robust set reconciliation via LSH — protocol demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--space", choices=("hamming", "l1", "l2"), default="hamming")
        p.add_argument("--dim", type=int, default=64)
        p.add_argument("--side", type=int, default=4096, help="grid side Δ")
        p.add_argument("--n", type=int, default=32)
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--close-radius", type=float, default=2.0)
        p.add_argument("--far-radius", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)

    emd_parser = sub.add_parser("emd", help="run Algorithm 1")
    common(emd_parser)
    emd_parser.set_defaults(handler=_cmd_protocol)

    gap_parser = sub.add_parser("gap", help="run the Gap Guarantee protocol")
    common(gap_parser)
    gap_parser.add_argument("--r1", type=float, default=2.0)
    gap_parser.add_argument("--r2", type=float, default=32.0)
    gap_parser.add_argument("--lowdim", action="store_true",
                            help="use the one-sided Theorem 4.5 variant")
    gap_parser.set_defaults(handler=_cmd_protocol)

    exact_parser = sub.add_parser("exact", help="run exact baselines")
    exact_parser.add_argument("--method", choices=("iblt", "auto", "cpi"),
                              default="iblt")
    exact_parser.add_argument("--dim", type=int, default=40)
    exact_parser.add_argument("--n", type=int, default=100)
    exact_parser.add_argument("--delta", type=int, default=8)
    exact_parser.add_argument("--seed", type=int, default=0)
    exact_parser.set_defaults(handler=_cmd_protocol)

    scen_parser = sub.add_parser(
        "scenarios", help="run the seeded scenario matrix, emit canonical JSON"
    )
    scen_parser.add_argument("--seed", type=int, default=0)
    scen_parser.add_argument("--only", action="append", metavar="NAME",
                             help="run only the named scenario (repeatable)")
    scen_parser.add_argument("--list", action="store_true",
                             help="list scenario names and exit")
    scen_parser.add_argument("--timings", action="store_true",
                             help="include wall times (breaks byte-determinism)")
    scen_parser.add_argument("--output", type=Path, default=None,
                             help="write the JSON report here instead of stdout")
    scen_parser.set_defaults(handler=_cmd_scenarios)

    sweep_parser = sub.add_parser(
        "sweep", help="run parameter-sweep campaigns, emit canonical JSON"
    )
    sweep_parser.add_argument("--campaign", action="append",
                              choices=sorted(builtin_campaigns()), default=None,
                              help="built-in campaign to run (repeatable; one "
                                   "persistent worker pool serves all of them)")
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument("--jobs", type=int, default=1,
                              help="worker processes (1 = serial, in-process; "
                                   "reports are byte-identical regardless)")
    sweep_parser.add_argument("--trials", type=int, default=None,
                              help="override the campaigns' trials per grid point")
    sweep_parser.add_argument("--list", action="store_true",
                              help="list campaigns and exit")
    sweep_parser.add_argument("--output", type=Path, default=None,
                              help="write the JSON report here instead of stdout "
                                   "(single campaign only)")
    sweep_parser.add_argument("--output-dir", type=Path, default=None,
                              help="write one sweep-<campaign>.json per campaign "
                                   "into this directory")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    serve_parser = sub.add_parser(
        "serve", help="run the reconciliation server (Bob as a service)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8377)
    serve_parser.add_argument("--store", action="store_true",
                              help="attach a sketch store: repeat sketch requests "
                                   "for unchanged workloads become warm cache hits "
                                   "(wire bytes are pinned identical to stateless)")
    serve_parser.add_argument("--store-shards", type=int, default=8,
                              help="key-range shards in the store")
    serve_parser.add_argument("--store-capacity", type=int, default=32,
                              help="LRU entry capacity per shard")
    serve_parser.add_argument("--seed", type=int, default=0,
                              help="store identity seed (shard routing)")
    serve_parser.set_defaults(handler=_cmd_serve)

    client_parser = sub.add_parser(
        "client", help="reconcile N sessions against a running server"
    )
    client_parser.add_argument("--host", default="127.0.0.1")
    client_parser.add_argument("--port", type=int, default=8377)
    client_parser.add_argument("--sessions", type=int, default=4,
                               help="concurrent sessions on one connection")
    client_parser.add_argument("--seed", type=int, default=0)
    client_parser.add_argument("--protocol", choices=("exact", "resilient"),
                               default="resilient")
    client_parser.add_argument("--dim", type=int, default=48)
    client_parser.add_argument("--n", type=int, default=96,
                               help="shared points per session")
    client_parser.add_argument("--delta", type=int, default=12,
                               help="true symmetric difference per session")
    client_parser.add_argument("--delta-bound", type=int, default=8,
                               help="Alice's initial difference bound")
    client_parser.add_argument("--max-attempts", type=int, default=10)
    client_parser.add_argument("--max-escalations", type=int, default=2)
    client_parser.add_argument("--loss-rate", type=float, default=0.0)
    client_parser.add_argument("--corrupt-rate", type=float, default=0.0)
    client_parser.add_argument("--duplicate-rate", type=float, default=0.0)
    client_parser.add_argument("--reorder-rate", type=float, default=0.0)
    client_parser.add_argument("--base-latency-ms", type=float, default=0.2)
    client_parser.add_argument("--jitter-ms", type=float, default=0.0)
    client_parser.add_argument("--timeout", type=float, default=30.0,
                               help="per-receive timeout in seconds")
    client_parser.add_argument("--output", type=Path, default=None,
                               help="write the JSON report here instead of stdout")
    client_parser.set_defaults(handler=_cmd_client)

    stream_parser = sub.add_parser(
        "stream", help="record / replay append-only churn event logs"
    )
    stream_sub = stream_parser.add_subparsers(dest="stream_command", required=True)

    record_parser = stream_sub.add_parser(
        "record", help="generate a seeded churn stream and write an event log"
    )
    record_parser.add_argument("--output", type=Path, required=True,
                               help="event-log path (repro.events/v1 NDJSON)")
    record_parser.add_argument("--seed", type=int, default=0)
    record_parser.add_argument("--n", type=int, default=32,
                               help="initial population (window 0 inserts)")
    record_parser.add_argument("--windows", type=int, default=3,
                               help="churn windows after the population")
    record_parser.add_argument("--rate", type=int, default=6,
                               help="mutations per churn window")
    record_parser.add_argument("--skew", type=float, default=1.0,
                               help="Zipf skew of delete victims over recency "
                                    "(0 = uniform)")
    record_parser.add_argument("--insert-fraction", type=float, default=0.5,
                               help="probability a mutation is a fresh insert")
    record_parser.add_argument("--sources", type=int, default=4,
                               help="observing parties events are attributed to")
    record_parser.add_argument("--key-bits", type=int, default=55)
    record_parser.set_defaults(handler=_cmd_stream_record)

    replay_parser = stream_sub.add_parser(
        "replay", help="replay an event log through per-party stores over gossip"
    )
    replay_parser.add_argument("--input", type=Path, required=True,
                               help="event-log path to replay")
    replay_parser.add_argument("--topology",
                               choices=("star", "ring", "tree", "random"),
                               default="star")
    replay_parser.add_argument("--parties", type=int, default=4)
    replay_parser.add_argument("--branching", type=int, default=2,
                               help="tree topology branching factor")
    replay_parser.add_argument("--k-regular", type=int, default=2,
                               help="degree of the random regular topology")
    replay_parser.add_argument("--delta-bound", type=int, default=8,
                               help="initial per-edge ID-sketch difference bound")
    replay_parser.add_argument("--q", type=int, default=3)
    replay_parser.add_argument("--max-attempts", type=int, default=6,
                               help="ID-sketch escalation attempts per sync")
    replay_parser.add_argument("--seed", type=int, default=0)
    replay_parser.add_argument("--output", type=Path, default=None,
                               help="write the JSON report here instead of stdout")
    replay_parser.set_defaults(handler=_cmd_stream_replay)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        default_backend()  # a bad REPRO_BACKEND fails before any command runs
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if getattr(args, "far_radius", None) is None and hasattr(args, "far_radius"):
        # Default far radius: beyond r2 for gap; otherwise a quarter of
        # the space's diameter (at least 8).
        if args.command == "gap":
            args.far_radius = args.r2 * 1.25
        else:
            args.far_radius = max(8.0, _space(vars(args)).diameter / 4)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
