"""A sharded, LRU-bounded store of warm sketch state.

The service path (PR 7) rebuilds every sketch from scratch: each
request re-hashes the full key set even when the set has not changed
since the last session.  :class:`SketchStore` turns that repeated work
into cache hits under a bounded memory budget — the choice–memory
trade-off of PAPERS.md's "Choice-Memory Tradeoff in Allocations",
spent where it saves the most hashing:

* **Sharding** — store keys are routed to shards by *key range on the
  Mersenne-61 hash line*: one :class:`~repro.hashing.PairwiseHash`
  maps the key to ``[0, 2^61)`` and contiguous ranges of that line map
  to shards.  The hash is exact integer arithmetic seeded by
  :func:`~repro.hashing.derive_seed` (SHA-256), so routing is stable
  across Python versions, platforms and processes (pinned by tests).
* **Warm entries** — each shard keeps an LRU-bounded map of
  :class:`StoreEntry` values: the key set itself, live IBLT tables with
  their serialised payload bytes, strata estimates, and primed
  :class:`~repro.iblt.frontier.KeyHashCache`\\ s.  Serving a repeat
  sketch for an unchanged entry is a dictionary lookup — **zero fresh
  Mersenne hash passes** (asserted via :class:`StoreStats`).
* **Incremental maintenance** — :meth:`SketchStore.apply_mutations`
  applies an insert/delete delta to every cached sketch *in place*
  through the ``apply_mutations`` APIs of
  :class:`~repro.iblt.iblt.IBLT` and
  :class:`~repro.reconcile.strata.StrataEstimator`.  IBLT cell updates
  are commuting exact operations with exact inverses, so a mutated
  snapshot is pinned bit-identical to a cold rebuild of the mutated
  set; only the delta is hashed.
* **Peer memory** — the PR-6 circuit breaker's learning is persisted
  per peer as a serialisable
  :class:`~repro.reconcile.resilient.BreakerState`, so a flaky peer's
  next session starts at its last escalated bound.

Determinism: the store only ever changes *where* bytes come from
(cache vs. rebuild), never the bytes themselves.  Cache hits land in
the accounting, not on the wire.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..hashing import PairwiseHash, PublicCoins, derive_seed
from ..iblt.backend import MAX_NUMPY_KEY_BITS
from ..iblt.iblt import IBLT, key_list
from ..reconcile.resilient import BreakerState
from ..reconcile.strata import StrataEstimator
from ..stream.events import MutationEvent, split_mutations

__all__ = ["ShardRouter", "SketchStore", "StoreConfig", "StoreEntry", "StoreStats"]

#: Output span of the 61-bit routing hash; shard ``i`` owns the range
#: ``[i * width, (i + 1) * width)`` of this line.
MERSENNE_SPAN = 1 << 61


@dataclass(frozen=True)
class StoreConfig:
    """Shape and budget of a :class:`SketchStore`.

    Parameters
    ----------
    seed:
        Root seed for the routing hash (and nothing else — the store
        never influences sketch contents).
    shards:
        Number of key-range shards.
    capacity:
        LRU entry budget *per shard*.
    sketches_per_entry:
        LRU budget for distinct warm sketches (per shape/coins) held by
        one entry; escalation retries at new table sizes stay bounded.
    breaker_capacity:
        Per-shard budget for persisted per-peer breaker states.
    """

    seed: int = 0
    shards: int = 8
    capacity: int = 32
    sketches_per_entry: int = 8
    breaker_capacity: int = 256

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.sketches_per_entry < 1:
            raise ValueError(
                f"sketches_per_entry must be >= 1, got {self.sketches_per_entry}"
            )
        if self.breaker_capacity < 1:
            raise ValueError(
                f"breaker_capacity must be >= 1, got {self.breaker_capacity}"
            )


@dataclass
class StoreStats:
    """Cache accounting; every counter is exact and deterministic."""

    hits: int = 0  #: warm serves (sketch or strata already cached)
    misses: int = 0  #: cold serves (sketch or strata built from the key set)
    rebuilds_avoided: int = 0  #: hits that replaced a full rebuild
    incremental_refreshes: int = 0  #: cached sketches updated in place
    keys_hashed: int = 0  #: keys run through fresh Mersenne hash passes
    evictions: int = 0  #: entries dropped by shard LRU pressure
    sketch_evictions: int = 0  #: per-entry sketch slots dropped

    @property
    def hit_rate(self) -> float:
        served = self.hits + self.misses
        return self.hits / served if served else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rebuilds_avoided": self.rebuilds_avoided,
            "incremental_refreshes": self.incremental_refreshes,
            "keys_hashed": self.keys_hashed,
            "evictions": self.evictions,
            "sketch_evictions": self.sketch_evictions,
        }


class ShardRouter:
    """Stable key-range routing on the Mersenne-61 hash line.

    ``shard_of`` is a pure function of ``(seed, key)`` built from exact
    integer arithmetic (SHA-256 seed derivation + pairwise Mersenne
    hashing), so the same key lands on the same shard on every Python
    version, platform and process — the property that lets warm state
    survive across sessions and machines.
    """

    def __init__(self, coins: PublicCoins, shards: int):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self._hash = PairwiseHash(coins, "store-shard", bits=61)
        self._width = -(-MERSENNE_SPAN // shards)  # ceil: last range may be short

    def position(self, store_key: int) -> int:
        """The key's position on the ``[0, 2^61)`` routing line."""
        key = int(store_key)
        if key < 0:
            raise ValueError(f"store keys must be >= 0, got {key}")
        return self._hash(key)

    def shard_of(self, store_key: int) -> int:
        return self.position(store_key) // self._width


class _SketchSlot:
    """One warm sketch: the live table plus its lazily cached payload."""

    __slots__ = ("payload", "sketch")

    def __init__(self, sketch: IBLT):
        self.sketch = sketch
        self.payload: "tuple[bytes, int] | None" = None

    def serve(self) -> tuple[bytes, int]:
        if self.payload is None:
            self.payload = self.sketch.to_payload()
        return self.payload


class StoreEntry:
    """Warm state for one keyed set: membership, sketches, estimates."""

    def __init__(self, store_key: int, keys: Iterable[int], key_bits: int):
        if key_bits < 1:
            raise ValueError(f"key_bits must be >= 1, got {key_bits}")
        self.store_key = store_key
        self.key_bits = key_bits
        self.keys: set[int] = set(key_list(keys, key_bits))
        self._sorted: "list[int] | np.ndarray | None" = None
        self.iblts: "OrderedDict[tuple, _SketchSlot]" = OrderedDict()
        self.stratas: "OrderedDict[tuple, StrataEstimator]" = OrderedDict()

    def sorted_keys(self) -> "list[int] | np.ndarray":
        """The membership as a sorted array (uint64 when it fits).

        Cached between mutations so cold sketch builds share one sort
        and one dtype conversion.  Sorting is for reproducibility of the
        *work*; cell contents are order-independent either way.
        """
        if self._sorted is None:
            ordered = sorted(self.keys)
            if self.key_bits <= MAX_NUMPY_KEY_BITS:
                self._sorted = np.array(ordered, dtype=np.uint64)
            else:
                self._sorted = ordered
        return self._sorted

    def invalidate_order(self) -> None:
        self._sorted = None


class _Shard:
    """One shard's LRU maps (entries and per-peer breaker states)."""

    __slots__ = ("breakers", "entries")

    def __init__(self) -> None:
        self.entries: "OrderedDict[int, StoreEntry]" = OrderedDict()
        self.breakers: "OrderedDict[int, BreakerState]" = OrderedDict()


class SketchStore:
    """Sharded LRU store of warm sketch state (see module docstring).

    All serving methods are keyed by ``(coins, label, shape)`` so two
    sessions agreeing on public coins share warm state, while sessions
    with different coins can never be served each other's bytes.
    """

    def __init__(self, config: StoreConfig = StoreConfig()):
        self.config = config
        self.coins = PublicCoins(derive_seed(config.seed, "sketch-store"))
        self.router = ShardRouter(self.coins, config.shards)
        self._shards = [_Shard() for _ in range(config.shards)]
        self.stats = StoreStats()

    # -- entry lifecycle -----------------------------------------------------
    def _shard(self, store_key: int) -> _Shard:
        return self._shards[self.router.shard_of(store_key)]

    def contains(self, store_key: int) -> bool:
        """Membership test; does *not* touch LRU recency."""
        return int(store_key) in self._shard(store_key).entries

    def put_set(
        self, store_key: int, keys: Iterable[int], key_bits: int = 61
    ) -> StoreEntry:
        """(Re)register a keyed set; replaces any existing entry whole."""
        store_key = int(store_key)
        entry = StoreEntry(store_key, keys, key_bits)
        shard = self._shard(store_key)
        shard.entries[store_key] = entry
        shard.entries.move_to_end(store_key)
        while len(shard.entries) > self.config.capacity:
            shard.entries.popitem(last=False)
            self.stats.evictions += 1
        return entry

    def _entry(self, store_key: int) -> StoreEntry:
        shard = self._shard(store_key)
        entry = shard.entries.get(int(store_key))
        if entry is None:
            raise KeyError(f"store key {store_key} is not resident")
        shard.entries.move_to_end(int(store_key))
        return entry

    def keys_of(self, store_key: int) -> set[int]:
        """A copy of the entry's current membership."""
        return set(self._entry(store_key).keys)

    # -- mutation ------------------------------------------------------------
    def apply_mutations(
        self,
        store_key: int,
        inserts: Iterable[int] = (),
        deletes: Iterable[int] = (),
    ) -> None:
        """Apply an insert/delete delta to the entry and all warm state.

        Set discipline is strict — inserting a resident key or deleting
        an absent one raises ``ValueError`` *before* anything mutates,
        because it would silently desynchronise every cached sketch
        from the membership.  Each cached IBLT and strata estimate is
        updated in place (hashing only the delta).
        """
        entry = self._entry(store_key)
        ins = key_list(inserts, entry.key_bits)
        dels = key_list(deletes, entry.key_bits)
        if len(set(ins)) != len(ins) or len(set(dels)) != len(dels):
            raise ValueError("mutation delta contains duplicate keys")
        for key in ins:
            if key in entry.keys:
                raise ValueError(f"insert of resident key {key}")
        for key in dels:
            if key not in entry.keys:
                raise ValueError(f"delete of absent key {key}")
        if not ins and not dels:
            return

        entry.keys.update(ins)
        entry.keys.difference_update(dels)
        entry.invalidate_order()
        delta = len(ins) + len(dels)
        for slot in entry.iblts.values():
            slot.sketch.apply_mutations(ins, dels)
            slot.payload = None
            self.stats.incremental_refreshes += 1
            self.stats.keys_hashed += delta
        for estimator in entry.stratas.values():
            estimator.apply_mutations(ins, dels)
            self.stats.incremental_refreshes += 1
            self.stats.keys_hashed += delta

    def apply_events(self, store_key: int, events: Iterable[MutationEvent]) -> int:
        """Apply a batch of :class:`~repro.stream.events.MutationEvent`\\ s.

        The unified mutation surface: the event log, the churn
        generator and live callers all speak events, and this method
        reduces them to the raw ``(inserts, deletes)`` delta that
        :meth:`apply_mutations` has always taken — same validation,
        same in-place refreshes, same bytes.  Returns the number of
        events applied.
        """
        inserts, deletes = split_mutations(events)
        self.apply_mutations(store_key, inserts=inserts, deletes=deletes)
        return len(inserts) + len(deletes)

    # -- serving -------------------------------------------------------------
    def _slot_key(self, coins: PublicCoins, label: object, *shape: int) -> tuple:
        return (coins.seed, repr(label), *shape)

    def _bound_slots(self, slots: "OrderedDict[tuple, object]") -> None:
        while len(slots) > self.config.sketches_per_entry:
            slots.popitem(last=False)
            self.stats.sketch_evictions += 1

    def serve_iblt(
        self,
        store_key: int,
        coins: PublicCoins,
        label: object,
        cells: int,
        q: int = 3,
    ) -> tuple[bytes, int]:
        """The entry's IBLT payload for this shape — warm if possible.

        Byte-identical to building a fresh table over the entry's keys
        and serialising it; a warm serve just skips the hashing.
        """
        entry = self._entry(store_key)
        slot_key = self._slot_key(coins, label, cells, q)
        slot = entry.iblts.get(slot_key)
        if slot is None:
            table = IBLT(coins, label, cells=cells, q=q, key_bits=entry.key_bits)
            keys = entry.sorted_keys()
            table.insert_batch(keys)
            self.stats.misses += 1
            self.stats.keys_hashed += len(entry.keys)
            if entry.key_bits <= MAX_NUMPY_KEY_BITS and len(entry.keys):
                # Warm the decode-side hash cache too (shared by every
                # clone `subtract` hands out); behaviour-neutral.
                primed = keys.tolist()
                table._hash_cache.prime(primed)
                self.stats.keys_hashed += len(primed)
            slot = _SketchSlot(table)
            entry.iblts[slot_key] = slot
            self._bound_slots(entry.iblts)
        else:
            entry.iblts.move_to_end(slot_key)
            self.stats.hits += 1
            self.stats.rebuilds_avoided += 1
        return slot.serve()

    def serve_strata(
        self,
        store_key: int,
        coins: PublicCoins,
        label: object,
        strata: int = 24,
        cells: int = 48,
    ) -> StrataEstimator:
        """The entry's strata estimator — warm if possible.

        The returned estimator is shared warm state: callers must treat
        it as read-only (``subtract`` already returns a fresh result).
        """
        entry = self._entry(store_key)
        slot_key = self._slot_key(coins, label, strata, cells)
        estimator = entry.stratas.get(slot_key)
        if estimator is None:
            estimator = StrataEstimator(
                coins, label, strata=strata, cells=cells, key_bits=entry.key_bits
            )
            estimator.insert_batch(entry.sorted_keys())
            self.stats.misses += 1
            self.stats.keys_hashed += len(entry.keys)
            entry.stratas[slot_key] = estimator
            self._bound_slots(entry.stratas)
        else:
            entry.stratas.move_to_end(slot_key)
            self.stats.hits += 1
            self.stats.rebuilds_avoided += 1
        return estimator

    # -- per-peer breaker persistence ----------------------------------------
    def _peer_slot(self, peer: object) -> tuple[_Shard, int]:
        routed = derive_seed(self.config.seed, "breaker-peer", peer) & (
            MERSENNE_SPAN - 1
        )
        return self._shards[self.router.shard_of(routed)], routed

    def save_breaker(self, peer: object, state: BreakerState) -> None:
        """Persist a peer's final breaker state for its next session."""
        if not isinstance(state, BreakerState):
            raise TypeError(f"expected BreakerState, got {type(state).__name__}")
        shard, routed = self._peer_slot(peer)
        shard.breakers[routed] = state
        shard.breakers.move_to_end(routed)
        while len(shard.breakers) > self.config.breaker_capacity:
            shard.breakers.popitem(last=False)
            self.stats.evictions += 1

    def load_breaker(self, peer: object) -> "BreakerState | None":
        """The peer's persisted breaker state, or ``None`` if unknown."""
        shard, routed = self._peer_slot(peer)
        state = shard.breakers.get(routed)
        if state is not None:
            shard.breakers.move_to_end(routed)
        return state
