"""Free-at-empty leaf reclamation (the dE-tree direction)."""

from tests.helpers import assert_clean, run_insert_workload
from repro import DBTreeCluster
from repro.protocols.variable import VariableCopiesProtocol
from repro.verify.invariants import representative_nodes


def fae_cluster(seed=3, capacity=4):
    return DBTreeCluster(
        num_processors=4,
        protocol=VariableCopiesProtocol(free_at_empty=True),
        capacity=capacity,
        seed=seed,
    )


def live_leaves(cluster):
    return [n for n in representative_nodes(cluster.engine).values() if n.is_leaf]


def empty_a_band(cluster, expected, low, high):
    victims = [k for k in sorted(expected) if low <= k < high]
    for index, key in enumerate(victims):
        cluster.delete(key, client=index % 4)
        del expected[key]
    cluster.run()
    return victims


class TestRetirement:
    def test_band_deletion_reclaims_leaves(self):
        cluster = fae_cluster()
        expected = run_insert_workload(cluster, count=200)
        before = len(live_leaves(cluster))
        empty_a_band(cluster, expected, 500, 1800)
        after = len(live_leaves(cluster))
        assert after < before
        assert cluster.trace.counters.get("leaves_retired", 0) > 5
        assert cluster.trace.counters.get("absorbs", 0) == cluster.trace.counters.get(
            "leaves_retired", 0
        )
        assert_clean(cluster, expected=expected)

    def test_chain_skips_retired_leaves(self):
        cluster = fae_cluster()
        expected = run_insert_workload(cluster, count=200)
        empty_a_band(cluster, expected, 500, 1800)
        leaves = live_leaves(cluster)
        from repro.core.keys import NEG_INF, POS_INF

        ordered = sorted(
            leaves, key=lambda n: (n.range.low is not NEG_INF, n.range.low)
        )
        assert ordered[0].range.low is NEG_INF
        assert ordered[-1].range.high is POS_INF
        for left, right in zip(ordered, ordered[1:]):
            assert left.range.high == right.range.low
            assert left.right_id == right.node_id

    def test_scans_cross_reclaimed_regions(self):
        cluster = fae_cluster()
        expected = run_insert_workload(cluster, count=200)
        empty_a_band(cluster, expected, 500, 1800)
        result = cluster.scan_sync(0, 3000)
        assert [k for k, _v in result] == [k for k in sorted(expected) if k < 3000]

    def test_inserting_back_into_reclaimed_range(self):
        cluster = fae_cluster()
        expected = run_insert_workload(cluster, count=200)
        empty_a_band(cluster, expected, 500, 1800)
        for index in range(40):
            key = 600 + index * 13
            if key in expected:
                continue
            expected[key] = f"back-{index}"
            cluster.insert(key, f"back-{index}", client=index % 4)
        cluster.run()
        assert_clean(cluster, expected=expected)
        assert cluster.search_sync(600) == "back-0"

    def test_leftmost_leaf_never_retires(self):
        cluster = fae_cluster()
        expected = run_insert_workload(cluster, count=100)
        # Empty everything: the leftmost leaf survives as the empty tree.
        for index, key in enumerate(list(expected)):
            cluster.delete(key, client=index % 4)
            del expected[key]
        cluster.run()
        leaves = live_leaves(cluster)
        assert len(leaves) >= 1
        assert cluster.trace.counters.get("retire_skipped_leftmost", 0) >= 1
        assert_clean(cluster, expected={})
        # The empty tree still accepts data.
        cluster.insert_sync(42, "phoenix")
        assert cluster.search_sync(42) == "phoenix"

    def test_disabled_by_default(self):
        cluster = DBTreeCluster(
            num_processors=4, protocol="variable", capacity=4, seed=3
        )
        expected = run_insert_workload(cluster, count=200)
        before = len(live_leaves(cluster))
        empty_a_band(cluster, expected, 500, 1800)
        assert len(live_leaves(cluster)) == before  # never-merge: no reclaim
        assert cluster.trace.counters.get("leaves_retired", 0) == 0
        assert_clean(cluster, expected=expected)


class TestZombiesAndGC:
    def test_gc_collects_zombies_and_ops_still_work(self):
        cluster = fae_cluster(seed=7)
        expected = run_insert_workload(cluster, count=200)
        empty_a_band(cluster, expected, 500, 1800)
        retired = cluster.trace.counters.get("leaves_retired", 0)
        collected = cluster.engine.gc_retired(older_than=float("inf"))
        # Zombies still named by an immortal leftmost entry are kept
        # as forwarders; everything unreferenced is reclaimed.
        assert 0 < collected <= retired
        survivors = [c for c in cluster.engine.all_copies() if c.retired]
        assert len(survivors) == retired - collected
        referenced = {
            child
            for c in cluster.engine.all_copies()
            if not c.is_leaf
            for _k, child in c.entries()
        }
        assert all(z.node_id in referenced for z in survivors)
        for key in list(expected)[::11]:
            assert cluster.search_sync(key, client=key % 4) == expected[key]
        assert_clean(cluster, expected=expected)

    def test_gc_respects_cutoff(self):
        cluster = fae_cluster(seed=7)
        expected = run_insert_workload(cluster, count=200)
        cutoff = cluster.now
        empty_a_band(cluster, expected, 500, 1800)
        assert cluster.engine.gc_retired(older_than=cutoff) == 0
        assert cluster.engine.gc_retired(older_than=float("inf")) > 0

    def test_retired_leaf_refuses_migration(self):
        cluster = fae_cluster(seed=7)
        expected = run_insert_workload(cluster, count=200)
        empty_a_band(cluster, expected, 500, 1800)
        zombie = next(
            c for c in cluster.engine.all_copies() if c.retired
        )
        cluster.migrate_node(zombie.node_id, zombie.home_pid, (zombie.home_pid + 1) % 4)
        cluster.run()
        assert cluster.trace.counters.get("migrate_retired_skipped", 0) == 1


class TestSpaceUtilization:
    def test_reclamation_restores_utilization(self):
        from repro.stats import space_utilization

        never_merge = DBTreeCluster(
            num_processors=4, protocol="variable", capacity=8, seed=3
        )
        reclaiming = fae_cluster(seed=3, capacity=8)
        for cluster in (never_merge, reclaiming):
            expected = run_insert_workload(cluster, count=300)
            empty_a_band(cluster, expected, 800, 4000)
            cluster._final_expected = expected  # type: ignore[attr-defined]
        assert space_utilization(reclaiming.engine) > space_utilization(
            never_merge.engine
        )
        for cluster in (never_merge, reclaiming):
            assert_clean(cluster, expected=cluster._final_expected)
