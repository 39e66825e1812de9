"""Synchronous protocol: AAS blocking, 3-round splits, correctness."""

from tests.helpers import assert_clean, run_insert_workload
from repro import DBTreeCluster


def sync_cluster(seed=3, procs=4, capacity=4):
    return DBTreeCluster(
        num_processors=procs, protocol="sync", capacity=capacity, seed=seed
    )


class TestCorrectness:
    def test_concurrent_burst_is_correct(self):
        cluster = sync_cluster()
        expected = run_insert_workload(cluster, count=300)
        assert_clean(cluster, expected=expected)

    def test_sequential_keys(self):
        cluster = sync_cluster(seed=5)
        expected = run_insert_workload(cluster, count=150, key_fn=lambda i: i)
        assert_clean(cluster, expected=expected)

    def test_relayed_inserts_at_pc_always_in_range(self):
        # Theorem 1's key step: with the AAS ordering, the PC never
        # sees an out-of-range relayed insert, so nothing is dropped
        # and no history rewriting is needed.
        cluster = sync_cluster()
        run_insert_workload(cluster, count=300)
        assert cluster.trace.counters.get("history_rewrites", 0) == 0


class TestBlocking:
    def test_initial_inserts_do_block(self):
        cluster = sync_cluster()
        run_insert_workload(cluster, count=300)
        assert cluster.trace.counters.get("blocked_initial_updates", 0) > 0
        assert cluster.trace.blocked_time > 0

    def test_all_blocked_inserts_eventually_run(self):
        cluster = sync_cluster()
        expected = run_insert_workload(cluster, count=300)
        # No operation left behind despite the blocking.
        assert not cluster.engine.in_flight
        assert_clean(cluster, expected=expected)

    def test_searches_never_blocked(self):
        cluster = sync_cluster(seed=8)
        expected = {}
        for index in range(150):
            key = index * 7
            expected[key] = index
            cluster.insert(key, index, client=index % 4)
        for index in range(100):
            cluster.search(index * 11, client=(index + 1) % 4)
        cluster.run()
        assert cluster.trace.counters.get("blocked_searches", 0) == 0
        assert_clean(cluster, expected=expected)


class TestMessageCost:
    def test_three_rounds_per_split(self):
        cluster = sync_cluster()
        run_insert_workload(cluster, count=300)
        by_kind = cluster.kernel.network.stats.by_kind
        splits = cluster.trace.counters["half_splits"]
        peers = cluster.num_processors - 1
        assert by_kind.get("split_start", 0) == splits * peers
        assert by_kind.get("split_ack", 0) == splits * peers
        assert by_kind.get("split_end", 0) == splits * peers
        assert by_kind.get("relayed_split", 0) == 0

    def test_sync_costs_3x_semisync_coordination(self):
        from repro.stats import split_message_cost

        results = {}
        for protocol in ("sync", "semisync"):
            cluster = DBTreeCluster(
                num_processors=4, protocol=protocol, capacity=4, seed=3
            )
            run_insert_workload(cluster, count=300)
            results[protocol] = split_message_cost(cluster.engine)["coordination"]
        assert results["sync"] == 3 * results["semisync"]


class TestAASLifecycle:
    def test_aas_started_once_per_replicated_split(self):
        cluster = sync_cluster()
        run_insert_workload(cluster, count=300)
        assert (
            cluster.trace.counters.get("split_aas_started", 0)
            == cluster.trace.counters["half_splits"]
        )

    def test_no_aas_left_active(self):
        cluster = sync_cluster()
        run_insert_workload(cluster, count=300)
        for copy in cluster.engine.all_copies():
            registry = copy.proto.get("aas")
            if registry is not None:
                assert not registry.any_active
                assert not registry.pending
