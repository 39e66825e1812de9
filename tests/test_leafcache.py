"""The leaf-location hint cache: unit behavior and engine integration."""

import pytest

from repro.core.client import DBTreeCluster
from repro.core.keys import NEG_INF, POS_INF
from repro.core.leafcache import LeafHintCache


class TestLeafHintCache:
    def test_learn_and_lookup(self):
        cache = LeafHintCache()
        cache.learn(10, 20, leaf_id=7)
        assert cache.lookup(10) == (7, 10, 20)
        assert cache.lookup(15) == (7, 10, 20)
        assert cache.lookup(19) == (7, 10, 20)
        assert cache.lookup(20) is None
        assert cache.lookup(9) is None

    def test_replace_by_low_keeps_newest_sighting(self):
        cache = LeafHintCache()
        cache.learn(10, 50, leaf_id=7)
        cache.learn(10, 30, leaf_id=7)  # leaf split: high shrank
        assert cache.lookup(40) is None
        assert cache.lookup(20) == (7, 10, 30)
        assert len(cache) == 1

    def test_sentinel_bounds(self):
        cache = LeafHintCache()
        cache.learn(NEG_INF, 100, leaf_id=1)
        cache.learn(100, POS_INF, leaf_id=2)
        assert cache.lookup(-5)[0] == 1
        assert cache.lookup(99)[0] == 1
        assert cache.lookup(100)[0] == 2
        assert cache.lookup(10**9)[0] == 2

    def test_overflow_halves_instead_of_clearing(self):
        cache = LeafHintCache(max_entries=8)
        for low in range(0, 80, 10):
            cache.learn(low, low + 10, leaf_id=low)
        assert len(cache) == 8
        cache.learn(100, 110, leaf_id=100)
        # Half the old entries survive plus the new one.
        assert len(cache) == 5
        assert cache.lookup(105) == (100, 100, 110)
        survivors = sum(
            1 for low in range(0, 80, 10) if cache.lookup(low) is not None
        )
        assert survivors == 4

    def test_learn_known_low_at_exactly_max_entries(self):
        # Replace-by-low at capacity must not trip the eviction: the
        # low is already resident, so nothing is added.
        cache = LeafHintCache(max_entries=8)
        for low in range(0, 80, 10):
            cache.learn(low, low + 10, leaf_id=low)
        assert len(cache) == 8
        cache.learn(30, 35, leaf_id=30)  # split shrank the leaf
        assert len(cache) == 8
        assert cache.lookup(32) == (30, 30, 35)
        assert cache.lookup(37) is None
        for low in range(0, 80, 10):
            if low != 30:
                assert cache.lookup(low) == (low, low, low + 10)

    def test_eviction_at_capacity_stays_consistent(self):
        # The 9th distinct low halves the cache; survivors are the
        # even-ranked lows, lookups stay consistent, and an evicted
        # low can be re-learned.
        cache = LeafHintCache(max_entries=8)
        for low in range(0, 80, 10):
            cache.learn(low, low + 10, leaf_id=low)
        cache.learn(45, 47, leaf_id=99)
        assert len(cache) == 5
        assert cache.lookup(46) == (99, 45, 47)
        for low in (0, 20, 40, 60):  # even ranks survive
            assert cache.lookup(low) == (low, low, low + 10)
        for low in (10, 30, 50, 70):  # odd ranks evicted
            assert cache.lookup(low) is None
        cache.learn(10, 20, leaf_id=10)
        assert cache.lookup(15) == (10, 10, 20)
        assert len(cache) == 6

    def test_clear(self):
        cache = LeafHintCache()
        cache.learn(1, 2, leaf_id=3)
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup(1) is None


def run_mixed_workload(cluster, count=300):
    """Inserts, overwrites-by-reinsert, deletes, searches; returns oracle."""
    expected = {}
    for index in range(count):
        key = (index * 37) % 1009
        expected[key] = index
        cluster.insert(key, index, client=index % cluster.num_processors)
    cluster.run()
    for key in list(expected)[::5]:
        del expected[key]
        cluster.delete(key, client=key % cluster.num_processors)
    cluster.run()
    return expected


class TestEngineIntegration:
    def test_cache_is_correctness_neutral_semisync(self):
        expected = {}
        results = {}
        for leaf_cache in (False, True):
            cluster = DBTreeCluster(
                num_processors=4, capacity=4, seed=2, leaf_cache=leaf_cache
            )
            expected = run_mixed_workload(cluster)
            report = cluster.check(expected=expected)
            assert report.ok, report.problems[:5]
            results[leaf_cache] = {
                key: cluster.search_sync(key, client=key % 4)
                for key in sorted(expected)[:50]
            }
        assert results[False] == results[True]

    def test_cache_hits_on_repeated_keys(self):
        cluster = DBTreeCluster(
            num_processors=4, capacity=4, seed=0, leaf_cache=True
        )
        for key in range(100):
            cluster.insert(key, key, client=key % 4)
        cluster.run()
        # Second touch of every key comes from the cache.
        for key in range(100):
            assert cluster.search_sync(key, client=key % 4) == key
        stats = cluster.cache_stats()
        assert stats["enabled"]
        assert stats["hits"] > 0
        assert stats["hit_rate"] > 0.3

    def test_stale_hints_recover_under_mobile_protocol(self):
        # Single-copy leaves + migration: hints go stale and must heal
        # via out-of-range forwarding, never wrong answers.
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="mobile",
            capacity=4,
            seed=5,
            leaf_cache=True,
        )
        expected = {}
        for index in range(200):
            key = (index * 13) % 509
            expected[key] = index
            cluster.insert(key, index, client=index % 4)
        cluster.run()
        # Migrate a few leaves to invalidate location knowledge.
        moved = 0
        for pid in range(4):
            store = cluster.kernel.processor(pid).state["store"]
            for copy in list(store.values()):
                if copy.is_leaf and copy.is_pc and moved < 6:
                    cluster.migrate_node(copy.node_id, pid, (pid + 1) % 4)
                    moved += 1
        cluster.run()
        for key, value in sorted(expected.items())[:80]:
            assert cluster.search_sync(key, client=key % 4) == value
        report = cluster.check(expected=expected)
        assert report.ok, report.problems[:5]

    def test_a_submission_to_a_remote_leaf_leaves_at_once(self):
        # A client submission runs outside any action, so its message
        # is not held for an action's end.
        cluster = DBTreeCluster(
            num_processors=4, protocol="variable", capacity=4, seed=3, leaf_cache=True
        )
        for key in range(30):
            cluster.insert(key, key, client=2)
        cluster.run()
        stats = cluster.kernel.network.stats
        before = stats.sent
        cluster.search(5, client=2)
        assert stats.sent == before + 1
        assert cluster.run().ok

    def test_fixed_seed_results_identical_with_cache(self):
        # Same seed, cache on: two runs produce identical answers and
        # identical virtual completion time (determinism guard).
        outcomes = []
        for _attempt in range(2):
            cluster = DBTreeCluster(
                num_processors=4, capacity=4, seed=9, leaf_cache=True
            )
            for key in range(150):
                cluster.insert(key, key * 2, client=key % 4)
            results = cluster.run()
            outcomes.append((cluster.now, dict(results.completed)))
        assert outcomes[0] == outcomes[1]

    def test_cache_disabled_stats_shape(self):
        cluster = DBTreeCluster(num_processors=2, capacity=4, seed=0)
        assert cluster.cache_stats()["enabled"] is False

    def test_shortcut_counter_monotone(self):
        cluster = DBTreeCluster(
            num_processors=4, capacity=4, seed=1, leaf_cache=True
        )
        for key in range(400):
            cluster.insert(key, key, client=key % 4)
        cluster.run()
        stats = cluster.cache_stats()
        assert stats["stale_recoveries"] >= 0
        assert stats["hits"] + stats["misses"] > 0
