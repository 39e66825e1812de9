"""The paper's foils: vigorous replication, single root, eager broadcast."""

from tests.helpers import assert_clean, run_insert_workload
from repro import DBTreeCluster
from repro.baselines import (
    AvailableCopiesProtocol,
    EagerBroadcastProtocol,
    centralized_cluster,
)


class TestAvailableCopies:
    def make(self, seed=3):
        return DBTreeCluster(
            num_processors=4,
            protocol=AvailableCopiesProtocol(),
            capacity=4,
            seed=seed,
        )

    def test_correct_under_concurrency(self):
        cluster = self.make()
        expected = run_insert_workload(cluster, count=250)
        assert_clean(cluster, expected=expected)

    def test_blocks_concurrent_searches(self):
        cluster = self.make(seed=9)
        expected = {}
        for index in range(150):
            key = index * 7
            expected[key] = index
            cluster.insert(key, index, client=index % 4)
        # Stagger the searches through the insert burst so they meet
        # lock windows (a search queued at t=0 would run before any
        # lock message is even processed).
        for index in range(150):
            cluster.schedule(
                5.0 + index * 9.0, "search", index * 7, client=(index + 2) % 4
            )
        cluster.run()
        # Vigorous replication pays with blocked reads; lazy never does.
        assert cluster.trace.counters.get("blocked_searches", 0) > 0
        assert_clean(cluster, expected=expected)

    def test_costs_more_messages_than_lazy(self):
        lazy = DBTreeCluster(num_processors=4, protocol="semisync", capacity=4, seed=3)
        run_insert_workload(lazy, count=250)
        vigorous = self.make()
        run_insert_workload(vigorous, count=250)
        assert (
            vigorous.kernel.network.stats.sent
            > 1.5 * lazy.kernel.network.stats.sent
        )

    def test_lock_round_message_kinds(self):
        cluster = self.make()
        run_insert_workload(cluster, count=100)
        by_kind = cluster.kernel.network.stats.by_kind
        assert by_kind.get("lock_request", 0) > 0
        assert by_kind.get("lock_request") == by_kind.get("lock_grant")
        assert by_kind.get("apply_unlock") == by_kind.get("update_ack")

    def test_deletes_work(self):
        cluster = self.make(seed=5)
        expected = run_insert_workload(cluster, count=100)
        victims = sorted(expected)[::4]
        for index, key in enumerate(victims):
            cluster.delete(key, client=index % 4)
            del expected[key]
        cluster.run()
        assert_clean(cluster, expected=expected)

    def test_no_locks_left_at_quiescence(self):
        cluster = self.make()
        run_insert_workload(cluster, count=200)
        for copy in cluster.engine.all_copies():
            state = copy.proto.get("vigorous")
            if state is not None:
                assert not state["locked"]
                assert state["round"] is None
                assert not state["queue"]
                assert not state["blocked_searches"]


class TestSingleRoot:
    def test_everything_on_the_server(self):
        cluster = centralized_cluster(num_processors=4, server_pid=2, seed=3)
        expected = run_insert_workload(cluster, count=150)
        assert {c.home_pid for c in cluster.engine.all_copies()} == {2}
        assert_clean(cluster, expected=expected)

    def test_server_is_the_bottleneck(self):
        cluster = centralized_cluster(num_processors=4, server_pid=0, seed=3)
        run_insert_workload(cluster, count=200)
        utilization = cluster.utilization()
        server = utilization[0]
        others = [utilization[p] for p in (1, 2, 3)]
        assert server > 4 * max(others)

    def test_replicated_index_beats_single_root_search_throughput(self):
        from repro.workloads import ClosedLoopDriver, Workload

        keys = [(i * 7) % 2003 for i in range(200)]

        def measure(make_cluster):
            cluster = make_cluster()
            for key in keys:
                cluster.insert(key, key)
            cluster.run()
            operations = tuple(
                ("search", keys[i % len(keys)], None) for i in range(400)
            )
            workload = Workload(
                operations=operations, clients=tuple(cluster.kernel.pids)
            )
            start = cluster.now
            ClosedLoopDriver(cluster, workload, depth=2).run()
            searches = cluster.trace.latencies("search")
            return len(searches) / (cluster.now - start)

        fast = measure(
            lambda: DBTreeCluster(
                num_processors=8, protocol="semisync", capacity=8, seed=3
            )
        )
        slow = measure(
            lambda: centralized_cluster(num_processors=8, capacity=8, seed=3)
        )
        # With a replicated index every search is local; against a
        # single server the gap is large (the paper's bottleneck).
        assert fast > 2.0 * slow


class TestEagerBroadcast:
    def make(self, seed=3):
        return DBTreeCluster(
            num_processors=6,
            protocol=EagerBroadcastProtocol(),
            capacity=4,
            seed=seed,
        )

    def test_correct_after_migrations(self):
        cluster = self.make()
        expected = run_insert_workload(cluster, count=150)
        leaves = sorted(
            (c for c in cluster.engine.all_copies() if c.is_leaf),
            key=lambda c: c.node_id,
        )
        for index, leaf in enumerate(leaves[:6]):
            cluster.migrate_node(
                leaf.node_id, leaf.home_pid, (leaf.home_pid + index + 1) % 6
            )
        cluster.run()
        assert_clean(cluster, expected=expected)

    def test_broadcast_costs_cluster_size_per_migration(self):
        cluster = self.make()
        run_insert_workload(cluster, count=150)
        cluster.kernel.network.reset_stats()
        leaf = sorted(
            (c for c in cluster.engine.all_copies() if c.is_leaf),
            key=lambda c: c.node_id,
        )[0]
        cluster.migrate_node(leaf.node_id, leaf.home_pid, (leaf.home_pid + 1) % 6)
        cluster.run()
        by_kind = cluster.kernel.network.stats.by_kind
        assert by_kind.get("location_broadcast", 0) == cluster.num_processors - 1

    def test_no_forwarding_addresses_left(self):
        cluster = self.make()
        run_insert_workload(cluster, count=100)
        leaf = sorted(
            (c for c in cluster.engine.all_copies() if c.is_leaf),
            key=lambda c: c.node_id,
        )[0]
        source = leaf.home_pid
        cluster.migrate_node(leaf.node_id, source, (source + 1) % 6)
        cluster.run()
        assert not cluster.kernel.processor(source).state["forward"]
