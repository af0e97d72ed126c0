"""Scenario specifications and per-protocol drivers.

A *scenario* is a fully seeded, self-contained protocol run: generate a
workload from the spec's seed, execute one protocol, and report a flat
dict of JSON-safe metrics (bits exchanged, rounds, decode success, and
protocol-specific outcomes).  Every protocol family in the repo has a
driver here — the Gap Guarantee protocol (general and low-dimensional),
Algorithm 1 (EMD), sets-of-sets reconciliation, the strata estimator,
exact reconciliation (fixed-bound IBLT, strata-sized IBLT and the
characteristic-polynomial baseline), raw IBLT peeling, the multi-party
lift, the self-healing controller, the reconciliation service, the
sketch store and the churn-stream replayer — so CI, experiments and the
CLI's protocol demos exercise them all through one API instead of one
ad-hoc script each.

Determinism contract: for a fixed spec (including its seed) a driver
must return identical metrics on every run and on every backend — the
backends are bit-identical, workload randomness comes only from the
spec-derived generator, and floats are rounded before reporting so the
canonical JSON is byte-stable.  Wall-clock time is measured by the
runner, *outside* the metrics dict.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..core import (
    EMDProtocol,
    GapProtocol,
    ScaledEMDProtocol,
    low_dimensional_gap_protocol,
    verify_gap_guarantee,
)
from ..core.multiparty import Topology, multi_party_gap, verify_multi_party_guarantee
from ..hashing import PublicCoins, derive_seed
from ..iblt import IBLT
from ..metric import GridSpace, HammingSpace, MetricSpace, emd, emd_k
from ..protocol import Channel, FaultSpec, FaultyChannel
from ..reconcile import (
    cpi_reconcile,
    exact_iblt_reconcile,
    exact_iblt_reconcile_auto,
    outcome_metrics,
)
from ..reconcile.resilient import Recovery, ResilienceConfig, resilient_reconcile
from ..reconcile.strata import StrataEstimator
from ..setsofsets import SetsOfSetsReconciler
from ..workloads import (
    noisy_replica_pair,
    perturb_point,
    random_far_point,
    split_difference_pair,
)

__all__ = ["DRIVERS", "ScenarioResult", "ScenarioSpec", "builtin_scenarios"]


@dataclass(frozen=True)
class ScenarioSpec:
    """One seeded protocol run: workload + protocol + params + seed."""

    name: str
    protocol: str
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)

    def rng(self) -> np.random.Generator:
        """The workload generator: derived from the seed *and* the name
        (stable across runs and platforms via crc32, unlike ``hash``)."""
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode())])

    def coins(self) -> PublicCoins:
        """The protocol's shared randomness, likewise name-scoped."""
        return PublicCoins(self.seed).child("scenario", self.name)


@dataclass(frozen=True)
class ScenarioResult:
    """A finished scenario: the spec, its metrics, and the wall time.

    ``backend`` records the resolved ``REPRO_BACKEND``.
    ``metrics`` is flat and JSON-safe; ``wall_time_s`` lives outside it
    so the canonical report can stay byte-deterministic.
    """

    spec: ScenarioSpec
    backend: str
    metrics: Mapping[str, Any]
    wall_time_s: float

    @property
    def success(self) -> bool:
        return bool(self.metrics.get("success", False))

    def to_dict(self, include_timings: bool = False) -> dict:
        entry = {
            "name": self.spec.name,
            "protocol": self.spec.protocol,
            "seed": self.spec.seed,
            "backend": self.backend,
            "params": dict(self.spec.params),
            "metrics": dict(self.metrics),
        }
        if include_timings:
            entry["wall_time_s"] = round(self.wall_time_s, 6)
        return entry


def _space(params: Mapping[str, Any], default: str = "hamming") -> MetricSpace:
    """The metric space a scenario's params name (``space``: hamming, l1, l2)."""
    kind = params.get("space", default)
    if kind == "hamming":
        return HammingSpace(params["dim"])
    if kind in ("l1", "l2"):
        return GridSpace(side=params["side"], dim=params["dim"], p=1.0 if kind == "l1" else 2.0)
    raise ValueError(f"unknown space {kind!r}")


def _round6(value: float) -> float:
    """A float rounded for the canonical reports (byte-stable JSON)."""
    return round(float(value), 6)


def _replica_pair(space: MetricSpace, p: Mapping[str, Any], rng: np.random.Generator):
    """The gap and emd workload: ``k`` far points apart, the rest close."""
    return noisy_replica_pair(
        space,
        n=p["n"],
        k=p["k"],
        close_radius=p["close_radius"],
        far_radius=p["far_radius"],
        rng=rng,
    )


def _split_universe(
    rng: np.random.Generator, n: int, differences: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Two ``n``-key sets that differ in ``differences`` keys each way."""
    universe = rng.choice(1 << 55, size=n + differences, replace=False).astype(np.uint64)
    return universe[:n], np.concatenate([universe[differences:n], universe[n:]])


# -- drivers ----------------------------------------------------------------


def _drive_gap(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """The Gap Guarantee protocol, in either construction.

    ``gap`` is the general protocol (Theorem 4.2) on Hamming data (bit
    sampling) or an L1 grid (grid MLSH of width ``r2``); ``gap-lowdim``
    is Theorem 4.5's one-sided low-dimensional variant on a grid (L1
    unless ``space`` says otherwise).  Only the protocol differs.
    """
    p = spec.params
    if spec.protocol == "gap-lowdim":
        space = _space(p, default="l1")
        protocol = low_dimensional_gap_protocol(space, n=p["n"], k=p["k"], r1=p["r1"], r2=p["r2"])
    else:
        space = _space(p)
        protocol = GapProtocol.for_instance(space, n=p["n"], k=p["k"], r1=p["r1"], r2=p["r2"])
    workload = _replica_pair(space, p, rng)
    result = protocol.run(workload.alice, workload.bob, coins)
    holds = result.success and verify_gap_guarantee(
        space, workload.alice, result.bob_final, p["r2"]
    )
    return {
        "success": bool(result.success),
        "rounds": result.rounds,
        "bits": result.total_bits,
        "transmitted_points": len(result.transmitted),
        "gap_guarantee_holds": bool(holds),
    }


def _drive_emd(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """Algorithm 1: reconciliation under an earth-mover's-distance bound.

    With ``scaled: true`` the run goes through the interval-scaled
    wrapper (Corollaries 3.5/3.6) instead: ``[D1, D2]`` is split into
    geometric intervals of ratio ``ratio`` (the scaled protocol's
    branching factor) and Algorithm 1 runs once per interval in a single
    round — the knob the ``emd-branching`` sweep campaign traces
    communication cost against.
    """
    p = spec.params
    space = _space(p)
    workload = _replica_pair(space, p, rng)
    # Optional prior knowledge (Corollary 3.5-style tighter bounds): d1/d2
    # shrink the level schedule, which the emd-levels sweep campaign uses
    # to trace communication cost against the level count.
    shared = dict(
        n=p["n"],
        k=p["k"],
        d1=p.get("d1"),
        d2=p.get("d2"),
    )
    if p.get("scaled", False):
        scaled = ScaledEMDProtocol(space, ratio=p.get("ratio", 8.0), **shared)
        result = scaled.run(workload.alice, workload.bob, coins)
        shape = {"intervals": scaled.intervals}
        if result.chosen_interval is not None:
            shape["chosen_interval"] = result.chosen_interval
    else:
        protocol = EMDProtocol.for_instance(space, **shared)
        result = protocol.run(workload.alice, workload.bob, coins)
        shape = {"levels": protocol.parameters.levels}
    metrics = {
        "success": bool(result.success),
        "rounds": result.rounds,
        "bits": result.total_bits,
        "decoded_level": result.decoded_level,
        **shape,
        "emd_before": _round6(emd(space, workload.alice, workload.bob)),
        # EMD_k (Def. 3.3): the baseline of Corollary 3.5's approximation
        # ratio EMD(S_A, S'_B) / EMD_k(S_A, S_B).
        "emd_k": _round6(emd_k(space, workload.alice, workload.bob, p["k"])),
    }
    if result.success:
        metrics["emd_after"] = _round6(emd(space, workload.alice, result.bob_final))
    return metrics


def _drive_setsofsets(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """Multiset-of-keys reconciliation (the Gap protocol's middle layer)."""
    p = spec.params
    entries, entry_bits = p["entries"], p["entry_bits"]
    alice = [
        tuple(int(v) for v in rng.integers(0, 1 << entry_bits, size=entries))
        for _ in range(p["keys"])
    ]
    bob = list(alice)
    for index in range(p["modified"]):
        mutated = list(bob[index])
        mutated[index % entries] ^= int(rng.integers(1, 1 << entry_bits))
        bob[index] = tuple(mutated)
    for _ in range(p["extra"]):
        bob.append(tuple(int(v) for v in rng.integers(0, 1 << entry_bits, size=entries)))
    reconciler = SetsOfSetsReconciler(
        coins,
        "scenario-sos",
        entries=entries,
        entry_bits=entry_bits,
        expected_differences=(p["modified"] + p["extra"] + 1) * (entries + 1),
    )
    result = reconciler.run(alice, bob, Channel())
    return {
        "success": bool(result.success),
        "rounds": result.rounds,
        "bits": result.total_bits,
        "recovered_keys": len(result.recovered),
        "unresolved": result.unresolved,
    }


def _drive_strata(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """Strata estimation of an unknown symmetric-difference size."""
    p = spec.params
    n, differences = p["n"], p["differences"]
    alice, bob = _split_universe(rng, n, differences)
    alice_sketch = StrataEstimator(coins, "scenario-strata", key_bits=55)
    bob_sketch = StrataEstimator(coins, "scenario-strata", key_bits=55)
    alice_sketch.insert_batch(alice)
    bob_sketch.insert_batch(bob)
    _, sketch_bits = alice_sketch.to_payload()
    estimate = alice_sketch.subtract(bob_sketch).estimate()
    true_difference = 2 * differences
    return {
        # "success" for an estimator: it returned a usable (covering)
        # upper bound, which is what exact reconciliation sizes from.
        "success": bool(estimate >= true_difference),
        "rounds": 1,
        "bits": sketch_bits,
        "estimate": int(estimate),
        "true_difference": true_difference,
    }


def _drive_exact(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """Exact reconciliation of a Hamming workload, one method per protocol.

    ``exact-iblt`` sizes an IBLT from a fixed bound of ``4·delta``: tiny
    tables draw occasional 2-cores and, unlike ``exact-auto``, it has no
    estimate/retry loop to absorb an unlucky seed.  ``exact-auto`` has
    *no* prior bound and sizes its IBLT from a strata estimate.
    ``exact-cpi`` is the characteristic-polynomial baseline at a bound of
    ``2·delta``, the true symmetric difference.
    """
    p = spec.params
    space = HammingSpace(p["dim"])
    alice, bob = split_difference_pair(space, rng, p["n"], p["delta"])
    if spec.protocol == "exact-auto":
        result = exact_iblt_reconcile_auto(space, alice, bob, coins)
    elif spec.protocol == "exact-cpi":
        result = cpi_reconcile(space, alice, bob, 2 * p["delta"], coins)
    else:
        result = exact_iblt_reconcile(space, alice, bob, 4 * p["delta"], coins)
    return outcome_metrics(result, alice, bob)


def _drive_iblt_load(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """Raw IBLT peeling at a controlled load (the XORSAT-core threshold).

    Two tables share ``n`` keys and differ in ``2 * differences`` of them,
    so after subtraction the peeler faces exactly ``2 * differences`` keys
    spread over ``cells`` cells with ``q`` hashes each — the load
    ``2 * differences / cells`` is the quantity whose decode-success
    threshold the iblt-threshold sweep campaign traces.  Decode failure is
    a *measured outcome* here (the curve's upper branch), not an error.
    """
    p = spec.params
    n, differences, q = p["n"], p["differences"], p.get("q", 3)
    alice, bob = _split_universe(rng, n, differences)
    table_a = IBLT(coins, "scenario-iblt-load", cells=p["cells"], q=q, key_bits=55)
    table_b = IBLT(coins, "scenario-iblt-load", cells=p["cells"], q=q, key_bits=55)
    table_a.insert_batch(alice)
    table_b.insert_batch(bob)
    _, table_bits = table_b.to_payload()
    decoded = table_b.subtract(table_a).decode()
    true_differences = 2 * differences
    return {
        "success": bool(decoded.success),
        "rounds": 1,
        "bits": table_bits,
        "cells": table_a.m,
        "decoded_differences": decoded.difference_count,
        "true_differences": true_differences,
        "load": _round6(true_differences / table_a.m),
    }


def _drive_resilient(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """Self-healing reconciliation over a (possibly faulty) channel.

    Runs :func:`~repro.reconcile.resilient.resilient_reconcile` on a
    Hamming workload; with any fault rate set the channel is wrapped in a
    :class:`~repro.protocol.faults.FaultyChannel` whose fault stream is
    derived from the scenario coins, so every metric — including the
    recovery path — is deterministic for a fixed spec.  ``success`` is
    the controller's end-to-end verdict (Bob reached the union despite
    faults/overload); the recovery-path metrics are what the fault-rate
    sweep campaign aggregates.
    """
    p = spec.params
    space = HammingSpace(p["dim"])
    alice, bob = split_difference_pair(space, rng, p["n"], p["delta"])
    fault_spec = FaultSpec(
        drop_rate=p.get("drop_rate", 0.0),
        truncate_rate=p.get("truncate_rate", 0.0),
        flip_rate=p.get("flip_rate", 0.0),
        duplicate_rate=p.get("duplicate_rate", 0.0),
    )
    channel: Channel | FaultyChannel = Channel()
    if fault_spec.any_faults:
        channel = FaultyChannel(channel, fault_spec, coins.child("scenario-faults"))
    config = ResilienceConfig(
        max_attempts=p.get("max_attempts", 8),
        max_escalations=p.get("max_escalations", 2),
    )
    result = resilient_reconcile(
        space,
        alice,
        bob,
        delta_bound=p["delta_bound"],
        coins=coins.child("resilient"),
        channel=channel,
        config=config,
    )
    report = result.report
    metrics = outcome_metrics(result, alice, bob)
    metrics.update(
        {
            "attempts": len(report.attempts),
            "escalations": report.escalations,
            "rerequests": report.rerequests,
            "breaker_tripped": bool(report.breaker_tripped),
            "recovery_bits": report.recovery_bits,
        }
    )
    if report.faults:
        metrics["fault_events"] = report.faults["faulted"]
        metrics["faults_dropped"] = report.faults["dropped"]
        metrics["faults_truncated"] = report.faults["truncated"]
        metrics["faults_flipped"] = report.faults["flipped"]
        metrics["faults_duplicated"] = report.faults["duplicated"]
        metrics["fault_bits_lost"] = report.faults["bits_lost"]
    return metrics


def _drive_recon_service(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """The full reconciliation service over a seeded simulated network.

    ``sessions`` concurrent reconciliations share one in-memory
    connection to a live server (:func:`~repro.server.serve_in_memory`),
    and the metrics are the service report's aggregate plus per-frame
    fault counts.  ``success`` requires every session to reconcile *and*
    the server to verify each union against its derived ground truth.
    """
    from ..server import (
        NetworkConfig,
        ReconcileServer,
        SimulatedNetwork,
        serve_in_memory,
        session_aggregate,
        session_configs,
    )

    p = spec.params
    link = NetworkConfig.from_params(derive_seed(spec.seed, "recon-service", spec.name), p)
    reports = asyncio.run(
        serve_in_memory(
            ReconcileServer(),
            session_configs(p["sessions"], spec.seed, p),
            network=SimulatedNetwork(link),
            timeout=30.0,
        )
    )
    metrics = session_aggregate(reports)
    metrics["success"] = metrics.pop("all_reconciled")
    metrics["bits"] = metrics.pop("transcript_bits")
    metrics.update(
        rounds=sum(r.transcript_rounds for r in reports),
        sessions=len(reports),
        sessions_reconciled=sum(1 for r in reports if r.success and r.union_ok),
        attempts=sum(r.attempts for r in reports),
        frames_lost=sum(r.wire.frames_lost for r in reports),
        frames_corrupted=sum(r.wire.frames_corrupted for r in reports),
        frames_duplicated=sum(r.wire.frames_duplicated for r in reports),
    )
    return metrics


def _drive_store_churn(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """Windowed reconciliation against the sharded sketch store under churn.

    ``sets`` hot keyed sets live in a :class:`~repro.store.SketchStore`
    whose per-shard LRU capacity is deliberately tight.  Each window
    (1) applies a seeded insert/delete delta to every hot set through
    ``apply_mutations`` — incrementally refreshing warm sketches instead
    of rebuilding them, (2) registers throwaway *guest* sets to pressure
    the LRU (an evicted hot set must be re-registered from its
    membership, which the report counts), and (3) reconciles each hot
    set against a lagging replica: the store serves the sketch (warm
    where resident), the replica deletes its stale view and peels.  An
    undecodable table escalates the bound through the shared
    :class:`~repro.reconcile.resilient.Recovery` loop; a tripped breaker
    falls back to a store-served strata measurement, taken right after
    the failing attempt, and the final breaker state is kept per replica
    in the store — so a set whose churn outruns its bound starts *later
    windows* at the escalated bound.
    ``success`` requires every recovered difference to match ground
    truth exactly and every replica to end the run converged.  Cache
    accounting (hits, rebuilds avoided, incremental refreshes,
    evictions) is reported but never affects served bytes.
    """
    from ..iblt.iblt import cells_for_differences
    from ..store import SketchStore, StoreConfig

    p = spec.params
    n, churn, windows = p["n"], p["churn"], p["windows"]
    key_bits = p.get("key_bits", 55)
    guests = p.get("guests", 2)
    policy = ResilienceConfig(
        max_attempts=p.get("max_attempts", 6),
        max_escalations=p.get("max_escalations", 3),
    )
    q = policy.q
    store = SketchStore(
        StoreConfig(
            seed=spec.seed,
            shards=p.get("shards", 2),
            capacity=p.get("capacity", 4),
        )
    )
    mask = (1 << 61) - 1
    taken: "set[int]" = set()

    def fresh_keys(count: int) -> "list[int]":
        """``count`` universe-unique keys, in draw order (seeded)."""
        out: "list[int]" = []
        while len(out) < count:
            drawn = rng.integers(0, 1 << key_bits, size=max(8, 2 * count))
            for key in (int(k) for k in drawn):
                if key not in taken:
                    taken.add(key)
                    out.append(key)
                    if len(out) == count:
                        break
        return out

    truths: "list[set[int]]" = []
    replicas: "list[set[int]]" = []
    store_keys: "list[int]" = []
    set_coins: "list[PublicCoins]" = []
    for index in range(p["sets"]):
        keys = fresh_keys(n)
        truths.append(set(keys))
        replicas.append(set(keys))
        store_keys.append(derive_seed(spec.seed, "store-churn-set", index) & mask)
        store.put_set(store_keys[index], keys, key_bits=key_bits)
        # Coins are per *set*, not per window: the slot survives churn
        # (refreshed in place), which is what makes repeat serves warm.
        set_coins.append(coins.child("store-set", index))

    serves = decode_failures = escalations = 0
    strata_fallbacks = reregistrations = 0
    bits_total = 0
    all_exact = True
    for window in range(windows):
        # -- churn phase: mutate every hot set, incrementally when warm.
        for index in range(p["sets"]):
            truth = truths[index]
            dels = [int(k) for k in rng.choice(sorted(truth), size=churn // 2, replace=False)]
            ins = fresh_keys(churn - churn // 2)
            truth.difference_update(dels)
            truth.update(ins)
            if store.contains(store_keys[index]):
                store.apply_mutations(store_keys[index], inserts=ins, deletes=dels)
            else:
                store.put_set(store_keys[index], sorted(truth), key_bits=key_bits)
                reregistrations += 1
        # -- guest phase: one-shot registrations pressure the LRU.
        for guest in range(guests):
            gkey = derive_seed(spec.seed, "store-churn-guest", window, guest) & mask
            store.put_set(gkey, fresh_keys(n), key_bits=key_bits)
        # -- reconcile phase: each replica catches up through the store.
        for index in range(p["sets"]):
            skey, truth, replica = store_keys[index], truths[index], replicas[index]
            if not store.contains(skey):
                store.put_set(skey, sorted(truth), key_bits=key_bits)
                reregistrations += 1
            peer = ("replica", index)
            recovery = Recovery(policy, p["delta_bound"], store.load_breaker(peer))
            stale_view = np.asarray(sorted(replica), dtype=np.uint64)
            decoded = None
            for _attempt in recovery:
                cells = cells_for_differences(recovery.bound, q=q)
                payload, bits = store.serve_iblt(
                    skey, set_coins[index], "store-churn", cells=cells, q=q
                )
                serves += 1
                bits_total += bits
                view = IBLT(
                    set_coins[index], "store-churn", cells=cells, q=q, key_bits=key_bits
                ).from_payload(payload)
                view.delete_batch(stale_view)
                result = view.decode()
                recovery.record("decoded" if result.success else "undecodable")
                if result.success:
                    decoded = result
                elif recovery.needs_fallback:
                    # Escalation budget exhausted: measure the difference
                    # with the store-served strata estimator (read-only;
                    # ``difference_bound`` subtracts into a fresh result).
                    served = store.serve_strata(
                        skey, set_coins[index].child("strata"), "store-churn-strata"
                    )
                    local = StrataEstimator(
                        set_coins[index].child("strata"),
                        "store-churn-strata",
                        key_bits=key_bits,
                    )
                    local.insert_batch(stale_view)
                    bits_total += served.to_payload()[1]
                    recovery.adopt_fallback(served.difference_bound(local))
            store.save_breaker(peer, recovery.state)
            decode_failures += recovery.undecodable
            escalations += recovery.escalations
            strata_fallbacks += recovery.fallbacks
            if decoded is None:
                all_exact = False  # replica stays stale; churn compounds
                continue
            missing = {int(key) for key in decoded.inserted}
            stale = {int(key) for key in decoded.deleted}
            if missing != truth - replica or stale != replica - truth:
                all_exact = False
            replica -= stale
            replica |= missing

    converged = all(replicas[i] == truths[i] for i in range(p["sets"]))
    stats = store.stats
    return {
        "success": bool(all_exact and converged),
        "rounds": windows,
        "bits": bits_total,
        "sets": p["sets"],
        "serves": serves,
        "decode_failures": decode_failures,
        "escalations": escalations,
        "strata_fallbacks": strata_fallbacks,
        "reregistrations": reregistrations,
        "store_hits": stats.hits,
        "store_misses": stats.misses,
        "store_hit_rate": _round6(stats.hit_rate),
        "rebuilds_avoided": stats.rebuilds_avoided,
        "incremental_refreshes": stats.incremental_refreshes,
        "keys_hashed": stats.keys_hashed,
        "evictions": stats.evictions,
        "sketch_evictions": stats.sketch_evictions,
    }


def _drive_multiparty(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """The multi-party lift of the Gap protocol over the star.

    The report itemises the transcript per star edge; the topology and
    gossip depth keys name the star and its single hop.
    """
    p = spec.params
    space = HammingSpace(p["dim"])
    r1, r2 = p["r1"], p["r2"]
    base = space.sample(rng, p["n"])
    party_sets = []
    anchors = list(base)
    for _party in range(p["parties"]):
        observations = [perturb_point(space, point, int(r1), rng) for point in base]
        private = random_far_point(space, anchors, r2 + 8, rng)
        observations.append(private)
        anchors.append(private)
        party_sets.append(observations)
    protocol = GapProtocol.for_instance(
        space, n=p["n"] + p["parties"], k=p["parties"], r1=r1, r2=r2, sos_size_multiplier=6.0
    )
    result = multi_party_gap(protocol, party_sets, coins)
    holds = result.success and verify_multi_party_guarantee(space, party_sets, result, r2)
    metrics = {
        "success": bool(result.success),
        "rounds": result.protocol_runs,
        "bits": result.total_bits,
        "parties": p["parties"],
        "multi_party_guarantee_holds": bool(holds),
        "topology": "star",
        "gossip_depth": 1,
    }
    for u, v, bits in result.edge_bits:
        metrics[f"edge_bits_{u}_{v}"] = bits
    return metrics


def _drive_stream_churn(spec: ScenarioSpec, rng: np.random.Generator, coins: PublicCoins) -> dict:
    """Replay a churn event stream over gossip topologies.

    A seeded :class:`~repro.workloads.ChurnGenerator` stream (Zipf
    delete skew, multi-source) is replayed through per-party
    :class:`~repro.store.SketchStore`\\ s by
    :class:`~repro.stream.StreamReplayer`, reconciling event IDs across
    the topology each window.  ``topology`` may name one kind or
    ``"all"`` (the default), which replays the *same* stream over every
    kind and reports each under a ``_<kind>`` suffix — the scenario's
    gate is that all of them converge *and* every party's warm
    membership sketch ends byte-identical to a cold rebuild.
    """
    from ..stream import StreamReplayer
    from ..workloads import ChurnGenerator

    p = spec.params
    key_bits = p.get("key_bits", 55)
    parties = p.get("parties", 4)
    workload = ChurnGenerator(coins.child("churn"), key_bits=key_bits).generate(
        n=p["n"],
        windows=p.get("windows", 3),
        rate=p.get("rate", 6),
        skew=p.get("skew", 1.0),
        sources=parties,
    )
    kinds = (
        ("star", "ring", "tree", "random")
        if p.get("topology", "all") == "all"
        else (p["topology"],)
    )
    metrics: dict = {
        "parties": parties,
        "windows": workload.windows,
        "events": len(workload.events),
        "final_size": len(workload.final_membership),
    }
    overall = True
    bits_total = 0
    for kind in kinds:
        replayer = StreamReplayer(
            Topology.build(
                kind,
                parties,
                coins=coins.child("topology"),
                branching=p.get("branching", 2),
                k=p.get("k_regular", 2),
            ),
            coins.child("replay"),
            key_bits=key_bits,
            delta_bound=p.get("delta_bound", 8),
        )
        report = replayer.replay(workload.events)
        overall = overall and report.success
        bits_total += report.total_bits
        suffix = f"_{kind}" if len(kinds) > 1 else ""
        metrics.update(report.to_metrics(suffix))
        if len(kinds) == 1:
            metrics["topology"] = kind
    # Every scenario reports unsuffixed totals: "bits" across all
    # replayed topologies, "rounds" as the gossip waves (one per window).
    metrics["bits"] = bits_total
    metrics["rounds"] = max(1, workload.windows)
    metrics["success"] = bool(overall)
    return metrics


DRIVERS: dict[str, Callable[[ScenarioSpec, np.random.Generator, PublicCoins], dict]] = {
    "gap": _drive_gap,
    "gap-lowdim": _drive_gap,
    "emd": _drive_emd,
    "setsofsets": _drive_setsofsets,
    "strata": _drive_strata,
    "exact-iblt": _drive_exact,
    "exact-auto": _drive_exact,
    "exact-cpi": _drive_exact,
    "iblt-load": _drive_iblt_load,
    "multiparty": _drive_multiparty,
    "resilient-recon": _drive_resilient,
    "recon-service": _drive_recon_service,
    "store-churn": _drive_store_churn,
    "stream-churn": _drive_stream_churn,
}


def builtin_scenarios(seed: int = 0) -> list[ScenarioSpec]:
    """The fixed scenario matrix CI smoke-tests (small, seconds-fast).

    One spec per protocol family, sized so the whole matrix runs in a
    few seconds on either backend while still exercising the real
    end-to-end paths (sketch serialization, channel accounting, decode).
    """
    return [
        ScenarioSpec(
            "gap-hamming",
            "gap",
            seed,
            {
                "dim": 64,
                "n": 24,
                "k": 2,
                "r1": 2.0,
                "r2": 24.0,
                "close_radius": 2.0,
                "far_radius": 30.0,
            },
        ),
        ScenarioSpec(
            "gap-lowdim-l1",
            "gap-lowdim",
            seed,
            {
                "side": 4096,
                "dim": 2,
                "n": 24,
                "k": 2,
                "r1": 4.0,
                "r2": 512.0,
                "close_radius": 4.0,
                "far_radius": 700.0,
            },
        ),
        ScenarioSpec(
            "emd-hamming",
            "emd",
            seed,
            {
                "space": "hamming",
                "dim": 48,
                "n": 16,
                "k": 1,
                "close_radius": 1.0,
                "far_radius": 16.0,
            },
        ),
        ScenarioSpec(
            "emd-grid-l1",
            "emd",
            seed,
            # far_radius 64: an L1 ball of radius 64 covers ~12.5% of the
            # 256x256 grid, so rejection sampling against 16 anchors
            # converges at any seed (96 starves on crowded draws).
            {
                "space": "l1",
                "side": 256,
                "dim": 2,
                "n": 16,
                "k": 1,
                "close_radius": 2.0,
                "far_radius": 64.0,
            },
        ),
        ScenarioSpec(
            "setsofsets-patch",
            "setsofsets",
            seed,
            {"keys": 12, "entries": 8, "entry_bits": 20, "modified": 2, "extra": 1},
        ),
        ScenarioSpec(
            "strata-estimate",
            "strata",
            seed,
            {"n": 600, "differences": 40},
        ),
        ScenarioSpec(
            "exact-iblt-hamming",
            "exact-iblt",
            seed,
            {"dim": 40, "n": 80, "delta": 8},
        ),
        ScenarioSpec(
            "exact-auto-hamming",
            "exact-auto",
            seed,
            {"dim": 40, "n": 80, "delta": 8},
        ),
        ScenarioSpec(
            "exact-cpi-hamming",
            "exact-cpi",
            seed,
            {"dim": 40, "n": 80, "delta": 8},
        ),
        # load 40/96 ≈ 0.42, far below the q=3 peeling threshold (~0.82),
        # so this smoke point decodes at any seed; the sweep campaign is
        # what walks the load up through the threshold.
        ScenarioSpec(
            "iblt-load-peel",
            "iblt-load",
            seed,
            {"n": 128, "differences": 20, "cells": 96, "q": 3},
        ),
        # dim 96: a random Hamming point sits ~dim/2 from everything, so
        # far points at r2 + 8 = 40 are easy to place; at dim 64 the
        # far-point sampler starves (distance >= 32 is the median).
        ScenarioSpec(
            "multiparty-star",
            "multiparty",
            seed,
            {"dim": 96, "n": 12, "parties": 3, "r1": 2.0, "r2": 32.0},
        ),
        # delta_bound 1 against 12 true differences forces the primary
        # attempt (and the single allowed escalation) to fail, tripping
        # the breaker into the strata-sized fallback; drop/truncate
        # faults on top force re-requests.  The smoke point must *still*
        # recover — tests/test_scenarios.py's TestEngagement checks that
        # it does, through the recovery path.
        ScenarioSpec(
            "resilient-recon-faulty",
            "resilient-recon",
            seed,
            {
                "dim": 40,
                "n": 64,
                "delta": 12,
                "delta_bound": 1,
                "max_escalations": 1,
                "max_attempts": 10,
                "drop_rate": 0.25,
                "truncate_rate": 0.25,
                "duplicate_rate": 0.1,
            },
        ),
        # The whole service stack: asyncio server + multiplexed client
        # sessions over an in-memory framed transport, with seeded
        # loss/corruption/duplication on the link.  delta_bound 4 against
        # ~12 true differences forces escalations (and, on unlucky
        # sessions, the strata fallback) to happen *over the wire*; the
        # gate is that every session still reconciles and the measured
        # wire bytes cover the analytical transcript.
        ScenarioSpec(
            "recon-service-network",
            "recon-service",
            seed,
            {
                "sessions": 6,
                "dim": 48,
                "n": 96,
                "delta": 12,
                "delta_bound": 4,
                "max_escalations": 1,
                "max_attempts": 10,
                "loss_rate": 0.15,
                "corrupt_rate": 0.1,
                "duplicate_rate": 0.1,
                "reorder_rate": 0.1,
                "jitter_ms": 0.4,
            },
        ),
        # The sketch store under churn: 6 hot sets across 3 shards of LRU
        # capacity 4, with per-window guest registrations forcing real
        # evictions while the hot sets stay warm (tests/test_scenarios.py's
        # TestEngagement checks hits, evictions and refreshes).  delta_bound
        # 2 against 8 differences per window forces escalations whose
        # BreakerState persists in the store, so later windows open at the
        # escalated bound — which is exactly what keeps their sketch shape
        # stable and warm.
        ScenarioSpec(
            "store-churn-lru",
            "store-churn",
            seed,
            {
                "sets": 6,
                "n": 64,
                "windows": 5,
                "churn": 8,
                "guests": 2,
                "shards": 3,
                "capacity": 4,
                "delta_bound": 2,
                "max_escalations": 3,
                "max_attempts": 6,
                "key_bits": 55,
            },
        ),
        # One Zipf-skewed churn stream replayed over all four gossip
        # topologies (topology "all"): 5 parties each observe ~1/5 of
        # the events, gossip converges every window, and the gate is
        # convergence plus warm-equals-cold bit-identity on every
        # party's membership sketch — per topology, under suffixed
        # metrics.  delta_bound 8 sizes the ID sketches for the ~6
        # events a window spreads across an edge.
        ScenarioSpec(
            "stream-churn-gossip",
            "stream-churn",
            seed,
            {
                "parties": 5,
                "n": 32,
                "windows": 3,
                "rate": 6,
                "skew": 1.2,
                "delta_bound": 8,
                "key_bits": 55,
                "k_regular": 2,
                "branching": 2,
            },
        ),
    ]
