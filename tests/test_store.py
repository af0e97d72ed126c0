"""The sharded sketch store: routing, LRU, warm parity, breaker memory,
and the store-churn scenario that drives them."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ScenarioRunner, ScenarioSpec, builtin_campaigns
from repro.hashing import PublicCoins
from repro.iblt import IBLT
from repro.reconcile import BreakerState, ResilienceConfig
from repro.reconcile.strata import StrataEstimator
from repro.store import ShardRouter, SketchStore, StoreConfig


def _keys(seed: int, n: int, bits: int = 55) -> list[int]:
    rng = np.random.default_rng(seed)
    drawn = rng.choice(1 << bits, size=n, replace=False)
    return [int(k) for k in drawn]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StoreConfig(shards=0)
        with pytest.raises(ValueError):
            StoreConfig(capacity=0)


class TestShardRouter:
    def test_routing_is_pinned_across_versions(self):
        """Shard assignments derive from Mersenne-61 pairwise hashing over
        SHA-256-seeded coins — pure arithmetic with no dependence on
        Python's ``hash`` — so these literal expectations must hold on
        every Python version and platform.  A change here silently
        re-homes every persisted entry; that is a breaking change."""
        probe = [0, 1, 2, 12345, 1 << 40, (1 << 61) - 1,
                 987654321987654321 % (1 << 61)]
        router8 = ShardRouter(PublicCoins(2019), 8)
        assert [router8.shard_of(k) for k in probe] == [5, 0, 2, 3, 7, 5, 0]
        router4 = ShardRouter(PublicCoins(7).child("x"), 4)
        assert [router4.shard_of(k) for k in probe] == [3, 1, 0, 2, 1, 3, 0]

    def test_every_key_lands_in_range(self):
        router = ShardRouter(PublicCoins(5), 7)
        rng = np.random.default_rng(1)
        for key in rng.choice(1 << 61, size=200, replace=False):
            assert 0 <= router.shard_of(int(key)) < 7

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(PublicCoins(5), 4).shard_of(-1)


class TestLRU:
    def test_eviction_order_is_deterministic(self):
        """Two stores fed the identical touch sequence evict identically:
        residency depends only on the operation order, never on dict
        iteration quirks or timing."""

        def drive(store: SketchStore) -> list[tuple[int, bool]]:
            keys = list(range(1, 11))
            for key in keys:
                store.put_set(key, _keys(key, 8), key_bits=55)
            # Touch a stable subset so the LRU order is non-trivial.
            for key in (3, 1, 7):
                if store.contains(key):
                    store.keys_of(key)
            for key in range(11, 15):
                store.put_set(key, _keys(key, 8), key_bits=55)
            return [(key, store.contains(key)) for key in range(1, 15)]

        config = StoreConfig(seed=9, shards=2, capacity=3)
        first, second = drive(SketchStore(config)), drive(SketchStore(config))
        assert first == second
        resident = sum(1 for _, present in first if present)
        assert resident <= 2 * 3
        assert resident < 14  # capacity pressure actually evicted

    def test_touched_entries_survive_untouched_evict_first(self):
        store = SketchStore(StoreConfig(seed=0, shards=1, capacity=3))
        for key in (1, 2, 3):
            store.put_set(key, _keys(key, 4), key_bits=55)
        store.keys_of(1)  # 1 becomes most-recently-used
        store.put_set(4, _keys(4, 4), key_bits=55)  # evicts LRU = 2
        assert store.contains(1) and store.contains(3) and store.contains(4)
        assert not store.contains(2)
        assert store.stats.evictions == 1

    def test_contains_does_not_touch(self):
        store = SketchStore(StoreConfig(seed=0, shards=1, capacity=2))
        store.put_set(1, _keys(1, 4), key_bits=55)
        store.put_set(2, _keys(2, 4), key_bits=55)
        store.contains(1)  # a peek, not a touch: 1 stays LRU
        store.put_set(3, _keys(3, 4), key_bits=55)
        assert not store.contains(1)
        assert store.contains(2) and store.contains(3)


class TestWarmServeParity:
    def test_warm_serve_is_byte_identical_and_hash_free(self, coins):
        """Acceptance: a repeat serve returns the identical payload with
        *zero* fresh Mersenne hash passes — the cache accounting proves
        the warm path never re-entered the field arithmetic."""
        store = SketchStore(StoreConfig(seed=1, shards=2, capacity=4))
        keys = _keys(42, 300)
        store.put_set(77, keys, key_bits=55)

        cold_table = IBLT(coins, "parity", cells=24, q=3, key_bits=55)
        cold_table.insert_batch(np.asarray(sorted(keys), dtype=np.uint64))
        cold_payload = cold_table.to_payload()

        first = store.serve_iblt(77, coins, "parity", cells=24, q=3)
        assert first == cold_payload
        assert store.stats.misses == 1 and store.stats.hits == 0

        hashed = store.stats.keys_hashed
        again = store.serve_iblt(77, coins, "parity", cells=24, q=3)
        assert again == cold_payload
        assert store.stats.hits == 1
        assert store.stats.rebuilds_avoided == 1
        assert store.stats.keys_hashed == hashed  # zero fresh hashing

    def test_strata_serve_warm_and_read_only_contract(self, coins):
        store = SketchStore(StoreConfig(seed=1, shards=2, capacity=4))
        keys = _keys(43, 200)
        store.put_set(5, keys, key_bits=55)
        served = store.serve_strata(5, coins, "strata")
        reference = StrataEstimator(coins, "strata", key_bits=55)
        reference.insert_batch(np.asarray(sorted(keys), dtype=np.uint64))
        assert served.to_payload() == reference.to_payload()
        assert store.serve_strata(5, coins, "strata") is served
        assert store.stats.hits == 1


class TestApplyMutations:
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_snapshot_pinned_to_cold_rebuild(self, coins, backend):
        """Acceptance: after a mutation delta, every cached sketch equals a
        cold rebuild of the mutated set bit for bit — the commuting
        count/XOR cell updates make insert/delete order irrelevant."""
        keys = _keys(7, 120)
        live = IBLT(coins, "mut", cells=30, q=3, key_bits=55, backend=backend)
        for key in keys:
            live.insert(key)
        dels, ins = keys[:10], _keys(8, 10)
        live.apply_mutations(inserts=ins, deletes=dels)

        rebuilt = IBLT(coins, "mut", cells=30, q=3, key_bits=55, backend=backend)
        for key in keys[10:] + ins:
            rebuilt.insert(key)
        assert live.to_payload() == rebuilt.to_payload()

    def test_store_mutation_refreshes_all_warm_state(self, coins):
        store = SketchStore(StoreConfig(seed=2, shards=1, capacity=4))
        keys = _keys(11, 150)
        store.put_set(9, keys, key_bits=55)
        store.serve_iblt(9, coins, "a", cells=24, q=3)
        store.serve_iblt(9, coins, "a", cells=48, q=3)
        store.serve_strata(9, coins, "s")
        dels, ins = keys[:6], _keys(12, 6)
        store.apply_mutations(9, inserts=ins, deletes=dels)
        assert store.stats.incremental_refreshes == 3

        mutated = sorted(set(keys[6:]) | set(ins))
        for cells in (24, 48):
            cold = IBLT(coins, "a", cells=cells, q=3, key_bits=55)
            cold.insert_batch(np.asarray(mutated, dtype=np.uint64))
            hits = store.stats.hits
            assert store.serve_iblt(9, coins, "a", cells=cells, q=3) == cold.to_payload()
            assert store.stats.hits == hits + 1  # refreshed in place, no rebuild
        cold_strata = StrataEstimator(coins, "s", key_bits=55)
        cold_strata.insert_batch(np.asarray(mutated, dtype=np.uint64))
        assert store.serve_strata(9, coins, "s").to_payload() == cold_strata.to_payload()

    def test_set_discipline_validates_before_mutating(self, coins):
        store = SketchStore(StoreConfig(seed=2, shards=1, capacity=4))
        keys = _keys(13, 50)
        store.put_set(1, keys, key_bits=55)
        baseline = store.serve_iblt(1, coins, "d", cells=12, q=3)
        fresh = _keys(14, 2)
        with pytest.raises(ValueError):
            store.apply_mutations(1, inserts=[keys[0]])  # resident insert
        with pytest.raises(ValueError):
            store.apply_mutations(1, deletes=[fresh[0]])  # absent delete
        with pytest.raises(ValueError):
            store.apply_mutations(1, inserts=[fresh[0], fresh[0]])  # duplicate
        with pytest.raises(ValueError):
            store.apply_mutations(1, inserts=[1 << 55])  # out of range
        # A rejected delta must leave warm state untouched.
        assert store.keys_of(1) == set(keys)
        assert store.serve_iblt(1, coins, "d", cells=12, q=3) == baseline

    @pytest.mark.parametrize("bad", [3.9, True, np.float64(2.0)])
    def test_non_integer_keys_rejected(self, coins, bad):
        """Floats and bools are not keys: ``int()`` would truncate them
        into a different (possibly resident) key."""
        store = SketchStore(StoreConfig(seed=2, shards=1, capacity=4))
        with pytest.raises(ValueError):
            store.put_set(1, [5, bad])
        assert not store.contains(1)
        store.put_set(1, [2, 3], key_bits=55)
        baseline = store.serve_iblt(1, coins, "f", cells=12, q=3)
        with pytest.raises(ValueError):
            store.apply_mutations(1, inserts=[7, bad])
        with pytest.raises(ValueError):
            store.apply_mutations(1, deletes=[bad])
        assert store.keys_of(1) == {2, 3}
        assert store.serve_iblt(1, coins, "f", cells=12, q=3) == baseline


class TestBreakerMemory:
    def test_store_persists_per_peer(self):
        store = SketchStore(StoreConfig(seed=5, shards=2, capacity=4))
        assert store.load_breaker("peer-a") is None
        escalated = BreakerState(bound=2).after_undecodable(ResilienceConfig())
        store.save_breaker("peer-a", escalated)
        store.save_breaker("peer-b", BreakerState(bound=16))
        assert store.load_breaker("peer-a") == escalated
        assert store.load_breaker("peer-b") == BreakerState(bound=16)
        with pytest.raises(TypeError):
            store.save_breaker("peer-c", {"bound": 2})

    def test_returning_peer_starts_at_escalated_bound(self, coins):
        """Acceptance: a flaky peer whose run escalated to bound B comes
        back, and its first sketch is sized for B — not the configured
        initial bound."""
        store = SketchStore(StoreConfig(seed=6, shards=2, capacity=4))
        policy = ResilienceConfig(max_attempts=8, max_escalations=3)

        # Session 1: two undecodable attempts escalate 2 -> 4 -> 8.
        state = BreakerState(bound=2)
        state = state.after_undecodable(policy).after_undecodable(policy)
        assert state.bound == 8
        store.save_breaker("flaky", state)

        # Session 2 (a fresh client of the same store): resumes at 8.
        resumed = store.load_breaker("flaky")
        assert resumed is not None and resumed.bound == 8
        assert resumed.escalations == 2
        # And its remaining escalation budget is already spent down.
        third = resumed.after_undecodable(policy)
        assert third.bound == 16 and third.escalations == 3
        assert third.after_undecodable(policy).breaker_open


class TestStoreChurnFallback:
    """The store-churn scenario's strata-fallback branch, pinned.

    The sweep's ``churn=16, capacity=4`` point outruns the escalation
    budget, so replicas trip the breaker and measure a fallback with the
    store-served strata estimator right after the failing attempt.
    """

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_fallback_metrics(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        params = builtin_campaigns()["store-churn"].point_params({"churn": 16, "capacity": 4})
        spec = ScenarioSpec("store-churn-fallback", "store-churn", seed=0, params=params)
        metrics = ScenarioRunner().run(spec).metrics
        assert metrics == {
            "success": True,
            "rounds": 4,
            "bits": 589248,
            "sets": 6,
            "serves": 45,
            "decode_failures": 21,
            "escalations": 18,
            "strata_fallbacks": 3,
            "reregistrations": 0,
            "store_hits": 18,
            "store_misses": 30,
            "store_hit_rate": 0.375,
            "rebuilds_avoided": 18,
            "incremental_refreshes": 70,
            "keys_hashed": 2560,
            "evictions": 4,
            "sketch_evictions": 0,
        }
