"""Mobile single-copy nodes: migration, forwarding, version ordering."""

from tests.helpers import assert_clean, run_insert_workload
from repro import DBTreeCluster


def mobile_cluster(seed=3, procs=4, capacity=4):
    return DBTreeCluster(
        num_processors=procs, protocol="mobile", capacity=capacity, seed=seed
    )


def pick_leaf(cluster):
    """A leaf copy and its holder, chosen deterministically."""
    leaves = sorted(
        (c for c in cluster.engine.all_copies() if c.is_leaf),
        key=lambda c: c.node_id,
    )
    return leaves[0]


class TestBasics:
    def test_single_copy_everywhere(self):
        cluster = mobile_cluster()
        run_insert_workload(cluster, count=150)
        from collections import Counter

        holders = Counter(c.node_id for c in cluster.engine.all_copies())
        assert set(holders.values()) == {1}

    def test_workload_correct(self):
        cluster = mobile_cluster()
        expected = run_insert_workload(cluster, count=200)
        assert_clean(cluster, expected=expected)

    def test_left_links_maintained(self):
        cluster = mobile_cluster()
        run_insert_workload(cluster, count=100)
        from repro.verify.invariants import representative_nodes
        from repro.core.keys import NEG_INF

        leaves = sorted(
            (n for n in representative_nodes(cluster.engine).values() if n.is_leaf),
            key=lambda n: (n.range.low is not NEG_INF, n.range.low),
        )
        for left, right in zip(leaves, leaves[1:]):
            assert right.left_id == left.node_id


class TestMigration:
    def test_migrate_leaf_and_still_searchable(self):
        cluster = mobile_cluster()
        expected = run_insert_workload(cluster, count=120)
        leaf = pick_leaf(cluster)
        target = (leaf.home_pid + 1) % cluster.num_processors
        cluster.migrate_node(leaf.node_id, leaf.home_pid, target)
        cluster.run()
        assert cluster.trace.counters.get("migrations", 0) == 1
        assert_clean(cluster, expected=expected)
        moved = [
            c for c in cluster.engine.all_copies() if c.node_id == leaf.node_id
        ]
        assert [c.home_pid for c in moved] == [target]

    def test_migration_bumps_version(self):
        cluster = mobile_cluster()
        run_insert_workload(cluster, count=60)
        leaf = pick_leaf(cluster)
        before = leaf.version
        target = (leaf.home_pid + 2) % cluster.num_processors
        cluster.migrate_node(leaf.node_id, leaf.home_pid, target)
        cluster.run()
        after = [
            c for c in cluster.engine.all_copies() if c.node_id == leaf.node_id
        ][0]
        assert after.version == before + 1

    def test_forwarding_address_routes_stale_messages(self):
        cluster = mobile_cluster(seed=9)
        expected = run_insert_workload(cluster, count=120)
        leaf = pick_leaf(cluster)
        source = leaf.home_pid
        target = (source + 1) % cluster.num_processors
        cluster.migrate_node(leaf.node_id, source, target)
        cluster.run()
        # Probe from clients whose locators may be stale: forwarding
        # addresses (or recovery) must route them to the new home.
        for k in list(expected)[:30]:
            assert cluster.search_sync(k, client=source) == expected[k]

    def test_migrations_after_workload_stay_correct(self):
        cluster = mobile_cluster(seed=13)
        expected = run_insert_workload(cluster, count=150)
        leaves = sorted(
            (c for c in cluster.engine.all_copies() if c.is_leaf),
            key=lambda c: c.node_id,
        )
        for index, leaf in enumerate(leaves[:8]):
            cluster.migrate_node(
                leaf.node_id, leaf.home_pid, (leaf.home_pid + index + 1) % 4
            )
        cluster.run()
        assert_clean(cluster, expected=expected)

    def test_migrate_then_insert_into_moved_leaf(self):
        cluster = mobile_cluster(seed=4)
        expected = run_insert_workload(cluster, count=80)
        leaf = pick_leaf(cluster)
        target = (leaf.home_pid + 1) % cluster.num_processors
        keys_in_leaf = leaf.keys()
        cluster.migrate_node(leaf.node_id, leaf.home_pid, target)
        cluster.run()
        probe = -(10**9)  # leftmost leaf covers -inf side
        cluster.insert_sync(probe, "moved-home")
        expected[probe] = "moved-home"
        assert cluster.search_sync(probe) == "moved-home"
        assert_clean(cluster, expected=expected)
        assert keys_in_leaf  # sanity


class TestForwardingGC:
    def test_gc_collects_and_recovery_still_works(self):
        cluster = mobile_cluster(seed=5)
        expected = run_insert_workload(cluster, count=120)
        leaves = sorted(
            (c for c in cluster.engine.all_copies() if c.is_leaf),
            key=lambda c: c.node_id,
        )
        for leaf in leaves[:5]:
            cluster.migrate_node(
                leaf.node_id, leaf.home_pid, (leaf.home_pid + 1) % 4
            )
        cluster.run()
        collected = cluster.engine.gc_forwarding(older_than=float("inf"))
        assert collected >= 5
        # Forwarding gone; operations must still find everything via
        # missing-node recovery (the paper: forwarding addresses are
        # not required for correctness).
        for k in list(expected)[:40]:
            assert cluster.search_sync(k, client=3) == expected[k]
        assert_clean(cluster, expected=expected)

    def test_search_quiesces_after_forwarding_gc(self):
        # bench_c5_migration.measure("mobile", 4), up to the first
        # search of its post-GC sweep that never returns.
        cluster = mobile_cluster(seed=3)
        expected = {(i * 7) % 3201: i for i in range(200)}
        for key, value in expected.items():
            cluster.insert(key, value, client=value % 4)
        cluster.run()

        def leaves():
            return sorted(cluster.engine.leaves(), key=lambda c: c.node_id)

        for index, leaf in enumerate(leaves()):
            cluster.migrate_node(leaf.node_id, leaf.home_pid, index % 4)
        cluster.run()
        for index, leaf in enumerate(leaves()[:12]):
            cluster.migrate_node(
                leaf.node_id, leaf.home_pid, (leaf.home_pid + index + 1) % 4
            )
        cluster.run()
        assert cluster.engine.gc_forwarding(older_than=float("inf")) > 0
        op = cluster.search(350, client=2)
        assert cluster.run(max_events=20_000).result_of(op) == expected[350]
