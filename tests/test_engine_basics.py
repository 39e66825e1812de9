"""Engine fundamentals: bootstrap, descent, splits, root growth,
out-of-range forwarding, missing-node recovery."""

import pytest

from tests.helpers import assert_clean, run_insert_workload
from repro import DBTreeCluster, FullReplication, SingleCopy
from repro.core.keys import NEG_INF, POS_INF


class TestBootstrap:
    def test_initial_tree_shape(self, small_cluster):
        engine = small_cluster.engine
        levels = {copy.level for copy in engine.all_copies()}
        assert levels == {0, 1}
        roots = [c for c in engine.all_copies() if c.level == 1]
        assert len(roots) == small_cluster.num_processors  # root everywhere
        leaves = [c for c in engine.all_copies() if c.level == 0]
        assert len(leaves) == small_cluster.num_processors  # full replication

    def test_every_processor_knows_the_root(self, small_cluster):
        for proc in small_cluster.kernel.processors.values():
            assert proc.state["root_id"] is not None
            assert proc.state["root_level"] == 1

    def test_leaf_parent_points_at_root(self, small_cluster):
        engine = small_cluster.engine
        root_id = small_cluster.kernel.processor(0).state["root_id"]
        for copy in engine.all_copies():
            if copy.is_leaf:
                assert copy.parent_id == root_id


class TestBasicOperations:
    def test_search_on_empty_tree(self, small_cluster):
        assert small_cluster.search_sync(5) is None

    def test_search_from_every_client(self, small_cluster):
        small_cluster.insert_sync(5, "five")
        for pid in small_cluster.kernel.pids:
            assert small_cluster.search_sync(5, client=pid) == "five"

    def test_string_keys(self):
        cluster = DBTreeCluster(num_processors=2, capacity=4, seed=1)
        words = ["pear", "apple", "mango", "fig", "lime", "kiwi", "date"]
        for word in words:
            cluster.insert(word, word.upper())
        cluster.run()
        assert cluster.search_sync("fig") == "FIG"
        assert_clean(cluster, expected={w: w.upper() for w in words})

    def test_operation_kinds_validated(self, small_cluster):
        with pytest.raises(ValueError):
            small_cluster.engine.submit_operation("upsert", 1)


class TestLeafWork:
    """An op's leaf work runs in the search action that finds its leaf."""

    def test_updates_and_scans_cost_what_a_search_costs(self):
        # One processor: the root, the leaf, the return -- three
        # actions for every kind (a queued update made it four).
        cluster = DBTreeCluster(num_processors=1, protocol="semisync", seed=0)
        proc = cluster.kernel.processor(0)

        def actions(submit):
            before = proc.stats.actions_executed
            submit()
            cluster.run()
            return proc.stats.actions_executed - before

        assert actions(lambda: cluster.search(5)) == 3
        assert actions(lambda: cluster.insert(5, "five")) == 3
        assert actions(lambda: cluster.scan(0, 10)) == 3
        assert actions(lambda: cluster.delete(5)) == 3
        assert cluster.search_sync(5) is None

    def test_an_insert_that_finds_its_leaf_mid_split_still_blocks(self):
        # Sync protocol, both processors hold the leaf.  The fifth key
        # starts a split AAS at the primary copy; the sixth insert
        # reaches the leaf while it is active, is deferred, and runs
        # once the split ends.
        cluster = DBTreeCluster(num_processors=2, protocol="sync", capacity=4, seed=0)
        for index in range(4):
            cluster.insert(index * 10, index)
        cluster.run()
        start = cluster.now
        cluster.insert(45, "a")
        cluster.schedule(start + 10.0, "insert", 55, "b", client=0)
        cluster.kernel.run_until(start + 20.0)
        counters = cluster.trace.counters
        assert counters["split_aas_started"] == 1
        assert counters["blocked_initial_updates"] == 1
        [blocked] = [
            action
            for copy in cluster.engine.all_copies()
            if "aas" in copy.proto
            for action in copy.proto["aas"].pending
        ]
        assert (blocked.key, blocked.payload) == (55, "b")
        assert len(cluster.engine.in_flight) == 1
        assert cluster.run().incomplete == ()
        assert cluster.trace.blocked_time > 0
        assert cluster.search_sync(55) == "b"
        assert_clean(cluster, expected={0: 0, 10: 1, 20: 2, 30: 3, 45: "a", 55: "b"})


class TestSplitsAndGrowth:
    def test_splits_create_leaf_chain(self, small_cluster):
        expected = run_insert_workload(small_cluster, count=60)
        assert small_cluster.trace.counters["half_splits"] > 10
        assert_clean(small_cluster, expected=expected)

    def test_root_growth_raises_level(self, small_cluster):
        run_insert_workload(small_cluster, count=120)
        assert small_cluster.engine.current_root_level() >= 2
        assert small_cluster.trace.counters["root_growths"] >= 1

    def test_sequential_keys_grow_rightmost(self, small_cluster):
        expected = run_insert_workload(small_cluster, count=80, key_fn=lambda i: i)
        assert_clean(small_cluster, expected=expected)

    def test_reverse_sequential_keys(self, small_cluster):
        expected = run_insert_workload(small_cluster, count=80, key_fn=lambda i: -i)
        assert_clean(small_cluster, expected=expected)

    def test_no_overfull_nodes_at_quiescence(self, small_cluster):
        run_insert_workload(small_cluster, count=150)
        for copy in small_cluster.engine.all_copies():
            assert not copy.is_overfull, f"{copy!r} overfull at quiescence"

    def test_leaf_chain_partitions_keyspace(self, small_cluster):
        run_insert_workload(small_cluster, count=100)
        from repro.verify.invariants import representative_nodes

        leaves = sorted(
            (n for n in representative_nodes(small_cluster.engine).values() if n.is_leaf),
            key=lambda n: (n.range.low is not NEG_INF, n.range.low),
        )
        assert leaves[0].range.low is NEG_INF
        assert leaves[-1].range.high is POS_INF
        for left, right in zip(leaves, leaves[1:]):
            assert left.range.high == right.range.low
            assert left.right_id == right.node_id


class TestRoutingAndRecovery:
    def test_out_of_range_insert_forwards_right(self, small_cluster):
        run_insert_workload(small_cluster, count=120)
        # Under a concurrent burst some inserts must have chased links.
        assert small_cluster.trace.counters.get("forward_right", 0) > 0

    def test_single_copy_tree_remote_clients(self):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            replication=SingleCopy(pin_to=2),
            seed=5,
        )
        expected = run_insert_workload(cluster, count=60)
        assert_clean(cluster, expected=expected)
        # All tree nodes live on processor 2.
        assert {c.home_pid for c in cluster.engine.all_copies()} == {2}

    def test_locator_learned_from_parent_inserts(self, small_cluster):
        run_insert_workload(small_cluster, count=60)
        locator = small_cluster.kernel.processor(0).state["locator"]
        node_ids = {c.node_id for c in small_cluster.engine.all_copies()}
        # Processor 0 can locate most of the tree (full replication).
        assert node_ids <= set(locator.keys())

    def test_deterministic_replay(self):
        def build():
            cluster = DBTreeCluster(
                num_processors=4, protocol="semisync", capacity=4, seed=99
            )
            run_insert_workload(cluster, count=80)
            return (
                cluster.kernel.now,
                cluster.kernel.network.stats.sent,
                sorted(
                    c.value_fingerprint()
                    for c in cluster.engine.all_copies()
                    if c.is_leaf
                ),
            )

        assert build() == build()

    def test_full_replication_search_is_local(self):
        cluster = DBTreeCluster(
            num_processors=4,
            capacity=8,
            replication=FullReplication(),
            seed=2,
        )
        expected = run_insert_workload(cluster, count=40, concurrent=False)
        cluster.kernel.network.reset_stats()
        for key in list(expected)[:10]:
            cluster.search_sync(key, client=1)
        # Every node is on every processor: searches need no messages
        # except none at all.
        assert cluster.kernel.network.stats.by_kind.get("search", 0) == 0
