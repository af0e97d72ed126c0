"""Replay an event stream through warm stores over gossip topologies.

:class:`StreamReplayer` is the end-to-end streaming pipeline: a recorded
(or generated) :class:`~repro.stream.events.MutationEvent` stream is cut
into its time windows; each party ingests the events it *observed*
(``source`` mod parties) into a per-party
:class:`~repro.store.SketchStore`; and each window closes with one
gossip wave over a :class:`~repro.core.multiparty.Topology` that brings
every party to the union of all observed events.

The anti-entropy plane reconciles **event IDs** (sequence numbers), not
membership: event streams only ever grow, so the per-edge difference is
exactly the events one side has not yet heard — a monotone set union,
decoded from a small IBLT whose size escalates through a
:class:`~repro.reconcile.resilient.Recovery` (and stays escalated for
that edge).  Decoded IDs are then settled by shipping the missing
events in their canonical crc-stamped log-line form, so wire accounting
uses the exact bytes a log replica would.  A sync out of attempts ends
gossip after its window, and the replay reports ``converged: false``.

Two pins make the replay honest:

* **convergence** — after the final window every party's membership
  equals the ground truth derived from the event stream;
* **warm = cold** — every party's warm membership sketch (built empty
  at window 0 and only ever refreshed in place through
  :meth:`~repro.store.SketchStore.apply_events`) serialises
  byte-identical to a cold IBLT built from the final ground truth.

Reports carry per-edge transcript bits and never embed the backend
name, so numpy and pure-python replays of the same stream render
byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..core.multiparty import Topology, _edge
from ..hashing import PublicCoins, derive_seed
from ..iblt.iblt import IBLT, cells_for_differences
from ..reconcile.resilient import Recovery, ResilienceConfig
from .events import MutationEvent, events_by_window
from .log import record_line

__all__ = ["ID_KEY_BITS", "ReplayReport", "StreamReplayer", "render_replay_report"]

#: Event sequence numbers ride a 32-bit ID universe on the wire.
ID_KEY_BITS = 32

#: Bits to request one missing event by its sequence number.
_REQUEST_BITS_PER_ID = 32

_MASK_61 = (1 << 61) - 1


@dataclass(frozen=True)
class ReplayReport:
    """Outcome and transcript accounting of one stream replay."""

    topology: str
    parties: int
    depth: int
    windows: int
    events: int
    total_bits: int
    edge_bits: tuple[tuple[int, int, int], ...]
    syncs: int
    decode_failures: int
    events_shipped: int
    converged: bool
    matches_cold_rebuild: bool
    store_hits: int
    incremental_refreshes: int
    keys_hashed: int

    @property
    def success(self) -> bool:
        return self.converged and self.matches_cold_rebuild

    def to_metrics(self, suffix: str = "") -> dict:
        """Flat scalar metrics (scenario-report shape), optionally suffixed."""
        metrics = {
            "converged": self.converged,
            "matches_cold_rebuild": self.matches_cold_rebuild,
            "bits": self.total_bits,
            "syncs": self.syncs,
            "decode_failures": self.decode_failures,
            "events_shipped": self.events_shipped,
            "gossip_depth": self.depth,
            "max_edge_bits": max((bits for _, _, bits in self.edge_bits), default=0),
        }
        return {f"{name}{suffix}": value for name, value in metrics.items()}


class _Party:
    """One replica: its warm store, its event knowledge, its ID set."""

    __slots__ = ("index", "known", "store")

    def __init__(self, index: int, store: "object"):
        self.index = index
        self.store = store
        self.known: dict[int, MutationEvent] = {}


class StreamReplayer:
    """Drive an event stream through per-party stores and gossip.

    Parameters
    ----------
    topology:
        The gossip graph; waves follow its BFS spanning tree rooted at
        party 0 (convergecast then broadcast, the
        :meth:`~repro.core.multiparty.Topology.gossip_schedule` order).
    coins:
        Public coins shared by all parties — sketch shapes, labels and
        cell hashes derive from them, never from private state.
    key_bits:
        Membership key universe (must match the event log's header).
    delta_bound:
        Initial per-edge difference bound for the ID sketches.
    """

    def __init__(
        self,
        topology: Topology,
        coins: PublicCoins,
        key_bits: int = 55,
        delta_bound: int = 8,
        q: int = 3,
        max_attempts: int = 6,
    ):
        if delta_bound < 1:
            raise ValueError(f"delta_bound must be >= 1, got {delta_bound}")
        self.topology = topology
        self.coins = coins
        self.key_bits = key_bits
        self.delta_bound = delta_bound
        self.q = q
        # Every failed attempt doubles the bound, the last one included.
        self.policy = ResilienceConfig(
            max_attempts=max_attempts, max_escalations=max_attempts, q=q
        )
        self.mem_coins = coins.child("stream-membership")
        self.id_coins = coins.child("stream-ids")
        self.mem_key = derive_seed(coins.seed, "stream-membership-key") & _MASK_61
        self.id_key = derive_seed(coins.seed, "stream-id-key") & _MASK_61

    # -- per-party state -----------------------------------------------------
    def _make_parties(self, check_cells: int) -> list[_Party]:
        from ..store import SketchStore, StoreConfig

        parties: list[_Party] = []
        for index in range(self.topology.parties):
            store = SketchStore(
                StoreConfig(seed=derive_seed(self.coins.seed, "stream-store", index))
            )
            store.put_set(self.mem_key, (), key_bits=self.key_bits)
            store.put_set(self.id_key, (), key_bits=ID_KEY_BITS)
            # Build the membership slot now, over the empty set: from
            # here on it is only ever refreshed in place, which is what
            # the warm-equals-cold pin at the end actually exercises.
            store.serve_iblt(self.mem_key, self.mem_coins, "membership", check_cells, q=self.q)
            parties.append(_Party(index, store))
        return parties

    def _ingest(self, party: _Party, batch: "list[tuple[int, MutationEvent]]") -> None:
        """Apply ``(seq, event)`` pairs this party just learned."""
        if not batch:
            return
        party.store.apply_events(self.mem_key, [event for _, event in batch])
        party.store.apply_mutations(self.id_key, inserts=[seq for seq, _ in batch])
        for seq, event in batch:
            party.known[seq] = event

    # -- the anti-entropy edge sync ------------------------------------------
    def _sync_edge(
        self,
        sender: _Party,
        receiver: _Party,
        bounds: dict,
        edge_bits: dict,
        counters: dict,
    ) -> None:
        """Reconcile two parties' event-ID sets across one edge.

        ``sender`` serves its ID sketch; ``receiver`` subtracts its own
        and peels.  Both sides end up with the union: receiver-missing
        events are requested by ID and shipped as log lines,
        sender-missing events are shipped back unprompted.  All of it
        is charged to the edge.
        """
        edge = _edge(sender.index, receiver.index)
        counters["syncs"] += 1
        recovery = Recovery(self.policy, bounds[edge])
        decoded = None
        for _ in recovery:
            cells = cells_for_differences(recovery.bound, q=self.q)
            payload, bits = sender.store.serve_iblt(
                self.id_key, self.id_coins, "ids", cells, q=self.q
            )
            edge_bits[edge] += bits
            local_payload, _ = receiver.store.serve_iblt(
                self.id_key, self.id_coins, "ids", cells, q=self.q
            )
            shell = IBLT(self.id_coins, "ids", cells=cells, q=self.q, key_bits=ID_KEY_BITS)
            remote = shell.from_payload(payload)
            local_shell = IBLT(
                self.id_coins, "ids", cells=cells, q=self.q, key_bits=ID_KEY_BITS
            )
            local = local_shell.from_payload(local_payload)
            result = remote.subtract(local).decode()
            recovery.record("decoded" if result.success else "undecodable")
            if result.success:
                decoded = result
        bounds[edge] = recovery.bound
        counters["decode_failures"] += recovery.undecodable
        if decoded is None:
            counters["sync_failures"] += 1
            return

        sender_only = sorted(int(seq) for seq in decoded.inserted)
        receiver_only = sorted(int(seq) for seq in decoded.deleted)
        # Receiver asks for the events it is missing, by ID…
        edge_bits[edge] += _REQUEST_BITS_PER_ID * len(sender_only)
        to_receiver = [(seq, sender.known[seq]) for seq in sender_only]
        # …and ships the ones the sender is missing unprompted.
        to_sender = [(seq, receiver.known[seq]) for seq in receiver_only]
        for seq, event in to_receiver + to_sender:
            edge_bits[edge] += 8 * len(record_line(event.to_record(seq)))
        counters["events_shipped"] += len(to_receiver) + len(to_sender)
        self._ingest(receiver, to_receiver)
        self._ingest(sender, to_sender)

    # -- the replay loop -----------------------------------------------------
    def replay(self, events: "list[MutationEvent] | tuple[MutationEvent, ...]") -> ReplayReport:
        """Run the full stream; returns the pinned report."""
        events = list(events)
        truth: set[int] = set()
        for event in events:
            if event.op == "insert":
                truth.add(event.key)
            else:
                truth.discard(event.key)
        check_cells = cells_for_differences(max(1, len(truth)), q=self.q)

        parties = self._make_parties(check_cells)
        count = self.topology.parties
        parent_of, depth_of = self.topology.spanning_tree(0)
        up_order, down_order = self.topology.gossip_schedule(0)
        bounds = {edge: self.delta_bound for edge in self.topology.edges}
        edge_bits = {edge: 0 for edge in self.topology.edges}
        counters = {
            "syncs": 0,
            "decode_failures": 0,
            "sync_failures": 0,
            "events_shipped": 0,
        }

        grouped = events_by_window(events)
        windows = sorted(grouped)
        for window in windows:
            for party in parties:
                own = [
                    (seq, event)
                    for seq, event in grouped[window]
                    if event.source % count == party.index
                ]
                self._ingest(party, own)
            for child in up_order:
                self._sync_edge(
                    parties[child], parties[parent_of[child]], bounds, edge_bits, counters
                )
            for child in down_order:
                self._sync_edge(
                    parties[parent_of[child]], parties[child], bounds, edge_bits, counters
                )
            if counters["sync_failures"]:
                break  # a later window could delete a key a party never got

        converged = counters["sync_failures"] == 0 and all(
            party.store.keys_of(self.mem_key) == truth for party in parties
        )

        cold = IBLT(
            self.mem_coins, "membership", cells=check_cells, q=self.q, key_bits=self.key_bits
        )
        cold.insert_batch(sorted(truth))
        cold_payload, _ = cold.to_payload()
        matches = True
        for party in parties:
            warm_payload, _ = party.store.serve_iblt(
                self.mem_key, self.mem_coins, "membership", check_cells, q=self.q
            )
            if warm_payload != cold_payload:
                matches = False

        stats = [party.store.stats for party in parties]
        return ReplayReport(
            topology=self.topology.kind,
            parties=count,
            depth=max(depth_of.values()) if depth_of else 0,
            windows=len(windows),
            events=len(events),
            total_bits=sum(edge_bits.values()),
            edge_bits=tuple((u, v, edge_bits[(u, v)]) for u, v in self.topology.edges),
            syncs=counters["syncs"],
            decode_failures=counters["decode_failures"],
            events_shipped=counters["events_shipped"],
            converged=converged,
            matches_cold_rebuild=matches,
            store_hits=sum(s.hits for s in stats),
            incremental_refreshes=sum(s.incremental_refreshes for s in stats),
            keys_hashed=sum(s.keys_hashed for s in stats),
        )


def render_replay_report(report: ReplayReport, seed: int, meta: "dict | None" = None) -> str:
    """Canonical-JSON replay report (``repro.stream/v1``).

    Deliberately backend-free: the same stream replayed on the numpy
    and pure-python backends must render byte-identical text — CI
    compares them with ``cmp``.
    """
    payload = {
        "schema": "repro.stream/v1",
        "seed": seed,
        "meta": dict(meta or {}),
        "topology": report.topology,
        "parties": report.parties,
        "depth": report.depth,
        "windows": report.windows,
        "events": report.events,
        "converged": report.converged,
        "matches_cold_rebuild": report.matches_cold_rebuild,
        "total_bits": report.total_bits,
        "edge_bits": [[u, v, bits] for u, v, bits in report.edge_bits],
        "syncs": report.syncs,
        "decode_failures": report.decode_failures,
        "events_shipped": report.events_shipped,
        "store_hits": report.store_hits,
        "incremental_refreshes": report.incremental_refreshes,
        "keys_hashed": report.keys_hashed,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
