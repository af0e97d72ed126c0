"""The five closed-loop workloads of the end-to-end benchmark.

Each workload makes its inputs from the seed (the program only ever
receives those inputs), builds its long-lived objects in
:meth:`Workload.setup`, and runs one *batch* per :meth:`Workload.run`:
one op, or for ``recon-*`` one round of sessions on a fresh connection.
Every op is checked against its postcondition after its timed region.

All load comes from one process with one thread: one op in flight, or
two sessions on one connection for ``recon-*``.
"""

from __future__ import annotations

import asyncio
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.core import EMDProtocol, GapProtocol, Topology, verify_gap_guarantee
from repro.hashing import PublicCoins, derive_seed
from repro.lsh import BitSamplingMLSH
from repro.metric import HammingSpace, emd, emd_k
from repro.server import (
    NetworkConfig,
    ReconcileClient,
    ReconcileServer,
    SessionConfig,
    SimulatedNetwork,
    memory_pipe,
)
from repro.store import SketchStore, StoreConfig
from repro.stream import StreamReplayer
from repro.workloads import ChurnGenerator, noisy_replica_pair
from tracer import CURRENT_OP

#: Input streams: the warm-up op never shares an input with a timed op.
_WARMUP, _TIMED = 0, 1


@dataclass
class Op:
    """One op's raw latency, verdict and deterministic outputs."""

    op_id: int
    latency_s: float
    ok: bool
    bits: int = 0  #: analytical transcript bits, the paper's cost
    wire_bytes: int = 0  #: recon-*: physical bytes including framing
    framing_bytes: int = 0
    attempts: int = 0
    rerequests: int = 0
    escalations: int = 0
    approx_ratio: "float | None" = None  #: emd-hamming: EMD(S_A, S'_B) / EMD_k(S_A, S_B)
    detail: tuple = ()  #: further deterministic outputs of the op

    def fingerprint(self) -> tuple:
        """Every deterministic output; tracing must not change any of them."""
        return (
            self.ok,
            self.bits,
            self.wire_bytes,
            self.framing_bytes,
            self.attempts,
            self.rerequests,
            self.escalations,
            self.approx_ratio,
            self.detail,
        )


@dataclass
class Batch:
    ops: "list[Op]"
    wall_s: float
    detail: tuple = ()  #: batch-level deterministic outputs (store hits and misses)


def _print_failure(exc: BaseException) -> None:
    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


class Workload:
    """Inputs from the seed, long-lived objects, one batch per :meth:`run`."""

    name = ""
    #: Batches every run executes however short ``--seconds`` is.  The
    #: deterministic metrics are computed over exactly these, so their op
    #: count is identical on every commit.
    prefix_batches = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _instance(self, stream: int, index: int):
        """The inputs numbered ``index`` in input ``stream``."""
        raise NotImplementedError

    def warmup_inputs(self):
        """Inputs of the untimed warm-up op (made outside the set-up timing)."""
        return self._instance(_WARMUP, 0)

    def inputs(self, index: int):
        """Inputs of batch ``index``."""
        return self._instance(_TIMED, index)

    def setup(self, warmup) -> None:
        """Construct the long-lived objects and run the warm-up op."""
        raise NotImplementedError

    def run(self, index: int, inputs) -> Batch:
        raise NotImplementedError

    def _warm_up(self, warmup) -> None:
        if not all(op.ok for op in self.run(-1, warmup).ops):
            raise RuntimeError(f"{self.name}: the warm-up op failed its check")


class _SingleOp(Workload):
    """A batch is one op: closed loop, one op in flight."""

    def op(self, inputs):
        raise NotImplementedError

    def check(self, op_id: int, inputs, output, latency_s: float) -> Op:
        raise NotImplementedError

    def run(self, index: int, inputs) -> Batch:
        token = CURRENT_OP.set(index)
        failure = None
        start = time.perf_counter()
        try:
            output = self.op(inputs)
        except Exception as exc:  # a failed op is counted, never fatal
            output, failure = None, exc
        latency = time.perf_counter() - start
        CURRENT_OP.reset(token)
        if failure is not None:
            _print_failure(failure)
            return Batch([Op(index, latency, ok=False)], latency)
        return Batch([self.check(index, inputs, output, latency)], latency)


class _ReplicaPair(_SingleOp):
    """One protocol run on a ``noisy_replica_pair`` in ``HammingSpace(dim)``:
    ``n`` points, ``k`` of Alice's replaced by far outliers."""

    dim = n = k = close_radius = far_radius = 0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.space = HammingSpace(self.dim)

    def _instance(self, stream: int, index: int):
        pair = noisy_replica_pair(
            self.space,
            n=self.n,
            k=self.k,
            close_radius=self.close_radius,
            far_radius=self.far_radius,
            rng=np.random.default_rng([self.seed, stream, index]),
        )
        coins = PublicCoins(derive_seed(self.seed, self.name, stream, index))
        return pair.alice, pair.bob, coins

    def op(self, inputs):
        alice, bob, coins = inputs
        return self.protocol.run(alice, bob, coins)


class EMDHamming(_ReplicaPair):
    """One ``EMDProtocol.run`` (Algorithm 1)."""

    name = "emd-hamming"
    dim, n, k, close_radius, far_radius = 64, 64, 1, 1, 16

    def setup(self, warmup) -> None:
        # Uncapped, the derivation asks for ~10^6 hashes per point at
        # n = 256; the cap keeps the op at the paper's shape and in memory.
        self.protocol = EMDProtocol.for_instance(
            self.space, n=self.n, k=self.k, max_total_hashes=1024
        )
        self._warm_up(warmup)

    def check(self, op_id, inputs, result, latency_s) -> Op:
        alice, bob, _ = inputs
        ratio = None
        if result.success:
            baseline = emd_k(self.space, alice, bob, self.k)
            if baseline > 0:
                ratio = emd(self.space, alice, result.bob_final) / baseline
        return Op(
            op_id,
            latency_s,
            ok=result.success,
            bits=result.total_bits,
            approx_ratio=ratio,
            detail=(result.decoded_level, result.decoded_pairs),
        )


class GapHamming(_ReplicaPair):
    """One ``GapProtocol.run`` (Theorem 4.2) with bit-sampling MLSH."""

    name = "gap-hamming"
    dim, n, k, close_radius, far_radius = 128, 64, 2, 2, 48
    r1, r2 = 2, 40

    def setup(self, warmup) -> None:
        family = BitSamplingMLSH(self.space, w=float(self.space.dim))
        params = family.derived_lsh_params(r1=self.r1, r2=self.r2)
        self.protocol = GapProtocol(self.space, family, params, n=self.n, k=self.k)
        self._warm_up(warmup)

    def check(self, op_id, inputs, result, latency_s) -> Op:
        alice = inputs[0]
        holds = result.success and verify_gap_guarantee(
            self.space, alice, result.bob_final, self.r2
        )
        return Op(
            op_id,
            latency_s,
            ok=bool(holds),
            bits=result.total_bits,
            detail=(len(result.transmitted), result.sos_unresolved, result.pair_difference),
        )


class StreamChurn(_SingleOp):
    """One ``StreamReplayer.replay`` of a fresh churn stream over a 4-ring.

    Every op gets its own replay coins: the ID-sketch hashes decide how
    often gossip must escalate, so one set of coins per run would make a
    whole run's cost a property of its seed.
    """

    name = "stream-churn"
    prefix_batches = 30

    def _instance(self, stream: int, index: int):
        coins = PublicCoins(derive_seed(self.seed, self.name, stream, index))
        churn = ChurnGenerator(coins.child("churn"), key_bits=55).generate(
            n=32, windows=2, rate=6, skew=1.2, sources=4
        )
        return churn.events, coins.child("replay")

    def setup(self, warmup) -> None:
        self.topology = Topology.ring(4)
        self._warm_up(warmup)

    def op(self, inputs):
        events, coins = inputs
        replayer = StreamReplayer(self.topology, coins, key_bits=55, delta_bound=8)
        return replayer.replay(events)

    def check(self, op_id, inputs, report, latency_s) -> Op:
        return Op(
            op_id,
            latency_s,
            ok=report.converged and report.matches_cold_rebuild,
            bits=report.total_bits,
            detail=(
                report.syncs,
                report.decode_failures,
                report.events_shipped,
                report.store_hits,
                report.incremental_refreshes,
                report.keys_hashed,
            ),
        )


class _Recon(Workload):
    """One op is one ``ReconcileClient.run_session``.

    A batch is two sessions in flight on a fresh ``memory_pipe()``
    connection; the next batch starts when both have finished.  Short
    batches keep the speed calibration local: a round of twenty sessions
    lasts seconds, long enough for the host to change speed state midway.
    A connection never forgets a closed session's sequence numbers, so a
    session id reused on one connection would have its HELLO dropped as
    a duplicate; every batch therefore opens its own connection.
    """

    in_flight = 2
    session_params: dict = {}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.store: "SketchStore | None" = None

    def _configs(self, first_id: int, seed: int) -> "list[SessionConfig]":
        return [
            SessionConfig(session_id=first_id + offset, seed=seed, **self.session_params)
            for offset in range(self.in_flight)
        ]

    def _store_counts(self) -> "tuple[int, int]":
        if self.store is None:
            return 0, 0
        return self.store.stats.hits, self.store.stats.misses

    def run(self, index: int, inputs) -> Batch:
        configs, network = inputs
        hits, misses = self._store_counts()
        start = time.perf_counter()
        outcomes = asyncio.run(self._sessions(index, configs, network))
        wall = time.perf_counter() - start
        ops = [self._check(op_id, latency, report) for op_id, latency, report in outcomes]
        after_hits, after_misses = self._store_counts()
        return Batch(ops, wall, detail=(after_hits - hits, after_misses - misses))

    async def _sessions(self, index: int, configs, network):
        client_conn, server_conn = memory_pipe()
        server_task = asyncio.ensure_future(self.server.serve_connection(server_conn))
        client = ReconcileClient(client_conn, network=network)
        client.start()

        async def timed(op_id: int, config: SessionConfig):
            # gather() runs each session in its own task, so the op id
            # set here reaches only this session's spans.
            CURRENT_OP.set(op_id)
            start = time.perf_counter()
            try:
                report = await client.run_session(config)
            except Exception as exc:  # a failed op is counted, never fatal
                report = exc
            return op_id, time.perf_counter() - start, report

        try:
            return await asyncio.gather(
                *(
                    timed(index * len(configs) + position, config)
                    for position, config in enumerate(configs)
                )
            )
        finally:
            await client.aclose()
            server_task.cancel()
            try:
                await server_task
            except asyncio.CancelledError:
                pass

    @staticmethod
    def _check(op_id: int, latency_s: float, report) -> Op:
        if isinstance(report, Exception):
            _print_failure(report)
            return Op(op_id, latency_s, ok=False)
        return Op(
            op_id,
            latency_s,
            ok=report.success and report.union_ok,
            bits=report.transcript_bits,
            wire_bytes=report.wire.wire_bytes,
            framing_bytes=report.wire.framing_bytes,
            attempts=report.attempts,
            rerequests=report.rerequests,
            escalations=report.escalations,
            detail=(report.breaker_tripped, report.transcript_rounds, report.bob_size),
        )


class ReconWarm(_Recon):
    """Store-backed server; the same 20 session identities, cycled.

    ``delta_bound`` is twice ``delta``: at a tight bound about one session
    in twenty escalates, and with only twenty identities per seed the
    number that do would make a run's cost and tail a property of its
    seed.  Escalation is exercised by ``recon-cold``.
    """

    name = "recon-warm"
    identities = 20
    prefix_batches = identities // _Recon.in_flight  # every identity once
    session_params = {"dim": 48, "n_shared": 2048, "delta": 16, "delta_bound": 32}

    def inputs(self, index: int):
        first = (index * self.in_flight) % self.identities
        return self._configs(first + 1, self.seed), None

    def warmup_inputs(self):
        return [self.inputs(index) for index in range(self.prefix_batches)]

    def setup(self, warmup) -> None:
        self.store = SketchStore(StoreConfig(seed=self.seed, shards=4, capacity=32))
        self.server = ReconcileServer(store=self.store)
        # The warm-up pass is the priming: every identity's set and
        # sketches enter the store.
        for inputs in warmup:
            self._warm_up(inputs)


class ReconCold(_Recon):
    """Stateless server; fresh sessions every batch over a lossy link."""

    name = "recon-cold"
    prefix_batches = 60
    session_params = {"dim": 48, "n_shared": 1024, "delta": 256, "delta_bound": 256}

    def _instance(self, stream: int, index: int):
        batch_seed = derive_seed(self.seed, self.name, stream, index)
        network = SimulatedNetwork(
            NetworkConfig(
                seed=derive_seed(batch_seed, "network"),
                loss_rate=0.05,
                corrupt_rate=0.05,
                duplicate_rate=0.05,
                reorder_rate=0.05,
                latency_scale=0.0,
            )
        )
        return self._configs(1, batch_seed), network

    def setup(self, warmup) -> None:
        self.server = ReconcileServer()
        self._warm_up(warmup)


#: Every workload, in report order.
WORKLOADS: "dict[str, type[Workload]]" = {
    cls.name: cls for cls in (ReconWarm, ReconCold, StreamChurn, EMDHamming, GapHamming)
}
