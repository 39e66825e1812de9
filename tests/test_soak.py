"""Soak tests: everything at once, for a long simulated time.

One scenario per protocol family combining concurrent inserts and
searches, deletes at quiescent points, jittered links, leaf
balancing/migrations, copy crashes, and scans -- then the full audit.
These are the closest runs to 'production traffic' in the suite.
"""

import pytest

from tests.helpers import assert_clean
from repro import DBTreeCluster, ShardedCluster, UniformLatency
from repro.workloads import DiffusiveBalancer, uniform_keys

# Every pair view the repair layer keeps is held to the from-scratch
# derivation on every call (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("checked_views")


@pytest.mark.soak
@pytest.mark.parametrize("seed", [3, 17])
def test_variable_protocol_full_stack_soak(seed):
    cluster = DBTreeCluster(
        num_processors=8,
        protocol="variable",
        capacity=8,
        seed=seed,
    )
    expected = {}

    # Phase 1: paced mixed load with live searches.
    keys = uniform_keys(700, seed=seed + 1)
    for index, key in enumerate(keys):
        expected[key] = index
        cluster.schedule(index * 1.2, "insert", key, index, client=index % 8)
        if index % 5 == 0:
            cluster.schedule(
                index * 1.2 + 400.0, "search", keys[index // 2], client=(index + 3) % 8
            )
    cluster.run()

    # Phase 2: rebalance the leaves.
    balancer = DiffusiveBalancer(cluster, period=100.0, rounds=15, threshold=8, seed=2)
    balancer.start()
    cluster.run()
    assert balancer.migrated_leaves > 0

    # Phase 3: crash two copies of the rightmost interior node, then
    # heal them with fresh rightward traffic (healing rides on the
    # relays that leaf splits send; two waves cover bounced heals).
    engine = cluster.engine
    from repro.core.keys import POS_INF

    rightmost = next(
        c
        for c in engine.all_copies()
        if c.level == 1 and c.is_pc and c.range.high is POS_INF
    )
    victims = [p for p in rightmost.copy_pids if p != rightmost.pc_pid][:2]
    for pid in victims:
        engine.crash_copy(pid, rightmost.node_id)
    fresh = 10**8
    for wave in range(2):
        for index in range(120):
            key = fresh + wave * 1000 + index * 3
            expected[key] = index
            cluster.insert(key, index, client=index % 8)
        cluster.run()
    holders = {
        c.home_pid for c in engine.all_copies() if c.node_id == rightmost.node_id
    }
    assert set(victims) <= holders, "crashed copies should have healed"

    # Phase 4: deletes and scans at quiescence.
    doomed_keys = sorted(expected)[::9]
    for index, key in enumerate(doomed_keys):
        cluster.delete(key, client=index % 8)
        del expected[key]
    cluster.run()
    low, high = sorted(expected)[10], sorted(expected)[210]
    scanned = cluster.scan_sync(low, high)
    assert [k for k, _v in scanned] == [k for k in sorted(expected) if low <= k < high]

    # Final audit.
    report = assert_clean(cluster, expected=expected)
    assert report.ok
    # Everything actually happened.
    counters = cluster.trace.counters
    assert counters["half_splits"] > 80
    assert counters.get("migrations", 0) > 0
    assert counters.get("crashed_copies", 0) == len(victims)
    assert not cluster.engine.in_flight


@pytest.mark.soak
def test_semisync_soak_under_jitter():
    cluster = DBTreeCluster(
        num_processors=6,
        protocol="semisync",
        capacity=6,
        seed=9,
        latency_model=UniformLatency(jitter=8.0),
    )
    expected = {}
    keys = uniform_keys(900, seed=4)
    for index, key in enumerate(keys):
        expected[key] = index
        cluster.insert(key, index, client=index % 6)
    cluster.run()
    for index, key in enumerate(sorted(expected)[::7]):
        cluster.delete(key, client=index % 6)
        del expected[key]
    cluster.run()
    assert_clean(cluster, expected=expected)
    assert cluster.kernel.network.stats.piggybacked > 50


@pytest.mark.soak
def test_sync_protocol_soak_under_jitter():
    cluster = DBTreeCluster(
        num_processors=4,
        protocol="sync",
        capacity=4,
        seed=21,
        latency_model=UniformLatency(jitter=20.0),
    )
    expected = {}
    keys = uniform_keys(600, seed=8)
    for index, key in enumerate(keys):
        expected[key] = index
        cluster.schedule(index * 0.7, "insert", key, index, client=index % 4)
    cluster.run()
    assert_clean(cluster, expected=expected)
    assert cluster.trace.counters.get("blocked_initial_updates", 0) > 0
    assert cluster.trace.blocked_time > 0


@pytest.mark.soak
def test_sharded_forest_soak():
    """The full shard lifecycle under sustained mixed traffic.

    Paced inserts with live searches grow the forest (splits), scans
    stitch results across the moving shard boundaries, then a heavy
    delete wave shrinks it back (merges) -- and the complete audit,
    per-shard ``check_all`` plus ``check_shard_coverage``, is clean.
    """
    forest = ShardedCluster(
        num_processors=6,
        protocol="semisync",
        capacity=6,
        seed=13,
        shards=2,
        initial_boundaries=(3200,),
        shard_split_threshold=60,
        shard_merge_threshold=20,
    )
    expected = {}

    # Phase 1: paced mixed load with live searches, spread over every
    # client so each processor's directory view sees real traffic.
    keys = uniform_keys(400, seed=14)
    for index, key in enumerate(keys):
        expected[key] = index
        forest.schedule(index * 1.5, "insert", key, index, client=index % 6)
        if index % 6 == 0:
            forest.schedule(
                index * 1.5 + 300.0, "search", keys[index // 2], client=(index + 2) % 6
            )
    assert forest.run().ok
    assert forest.counters["shard_splits"] >= 1
    splits_after_growth = forest.counters["shard_splits"]

    # Phase 2: cross-shard scans across the moving boundaries.
    ordered = sorted(expected)
    low, high = ordered[5], ordered[-5]
    scanned = forest.scan_sync(low, high)
    assert [k for k, _v in scanned] == [k for k in ordered if low <= k < high]

    # Phase 3: heavy delete wave with interleaved searches shrinks
    # the forest back down.
    doomed = [key for index, key in enumerate(ordered) if index % 8]
    for index, key in enumerate(doomed):
        forest.delete(key, client=index % 6)
        del expected[key]
        if index % 9 == 0 and expected:
            forest.search(min(expected), client=(index + 4) % 6)
    assert forest.run().ok
    assert forest.counters["shard_merges"] >= 1

    # Phase 4: post-merge scans and spread searches still agree.
    remaining = sorted(expected)
    scanned = forest.scan_sync(remaining[0], remaining[-1] + 1)
    assert [k for k, _v in scanned] == remaining
    for index, key in enumerate(remaining[::7]):
        forest.search(key, client=index % 6)
    assert forest.run().ok

    # Final audit: every shard's tree invariants plus the directory.
    assert_clean(forest, expected=expected)
    summary = forest.shard_summary()
    assert summary["splits"] == splits_after_growth
    assert summary["merges"] >= 1
    assert summary["keys_migrated"] > 0
