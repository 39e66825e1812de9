"""Engine edge cases: recovery, locators, forwarding, root growth."""

import pytest

from tests.helpers import assert_clean, run_insert_workload
from repro import DBTreeCluster, FixedFactor, SingleCopy
from repro.core.actions import SearchStep
from repro.sim.network import TopologyLatency


class TestLocatorRecovery:
    def test_poisoned_locator_recovers_via_key(self):
        """A stale locator entry routes to the wrong processor; the
        missing-node path re-navigates and the op still succeeds."""
        cluster = DBTreeCluster(
            num_processors=4,
            capacity=4,
            replication=FixedFactor(2),
            seed=3,
        )
        expected = run_insert_workload(cluster, count=100)
        engine = cluster.engine
        # Poison every locator entry on processor 3 to name one live
        # processor that does not hold the node, so each search from 3
        # that leaves it misses once.
        proc = cluster.kernel.processor(3)
        locator = proc.state["locator"]
        poisoned = 0
        for node_id, (version, _pids) in list(locator.items()):
            holders = {copy.home_pid for copy in engine.copies_of(node_id)}
            wrong = [pid for pid in (0, 1, 2) if pid not in holders]
            if wrong:
                locator[node_id] = (version + 100, (wrong[0],))
                poisoned += 1
        assert poisoned > 0
        before = cluster.trace.counters.get("missing_node_recovery", 0)
        for key in list(expected)[:30]:
            assert cluster.search_sync(key, client=3) == expected[key]
        assert cluster.trace.counters["missing_node_recovery"] > before
        assert cluster.trace.counters.get("dead_ends", 0) == 0
        assert_clean(cluster, expected=expected)

    def test_recovery_counter_fires_on_erased_locator(self):
        cluster = DBTreeCluster(
            num_processors=4,
            capacity=4,
            replication=SingleCopy(pin_to=1),
            seed=3,
        )
        expected = run_insert_workload(cluster, count=60)
        proc = cluster.kernel.processor(2)
        root_id = proc.state["root_id"]
        # Erase everything except the root from pid 2's locator.
        locator = proc.state["locator"]
        for node_id in list(locator):
            if node_id != root_id:
                del locator[node_id]
        for key in list(expected)[:10]:
            assert cluster.search_sync(key, client=2) == expected[key]

    def test_unknown_processor_message_rejected(self):
        cluster = DBTreeCluster(num_processors=2, seed=1)
        with pytest.raises(RuntimeError):
            cluster.kernel._on_delivery(99, object())


class TestRootGrowth:
    def test_multiple_growths_keep_single_root(self):
        cluster = DBTreeCluster(num_processors=4, capacity=2, seed=5)
        expected = run_insert_workload(cluster, count=300, key_fn=lambda i: i)
        assert cluster.engine.current_root_level() >= 4
        root_ids = {
            proc.state["root_id"] for proc in cluster.kernel.processors.values()
        }
        assert len(root_ids) == 1
        assert_clean(cluster, expected=expected)

    def test_set_root_never_regresses(self):
        cluster = DBTreeCluster(num_processors=4, capacity=4, seed=5)
        run_insert_workload(cluster, count=200)
        level = cluster.engine.current_root_level()
        from repro.core.actions import SetRoot

        proc = cluster.kernel.processor(1)
        stale = SetRoot(root_id=2, root_level=1, root_pids=(0,), version=1)
        proc.submit(stale)
        cluster.run()
        assert proc.state["root_level"] == level  # stale announce ignored


class TestSingleProcessor:
    def test_cluster_of_one(self):
        cluster = DBTreeCluster(num_processors=1, capacity=4, seed=1)
        expected = run_insert_workload(cluster, count=100)
        assert cluster.kernel.network.stats.sent == 0  # everything local
        assert_clean(cluster, expected=expected)

    def test_zero_processors_rejected(self):
        with pytest.raises(ValueError):
            DBTreeCluster(num_processors=0)


class TestForwardingTables:
    def test_gc_only_collects_older_entries(self):
        cluster = DBTreeCluster(num_processors=4, protocol="mobile", capacity=4, seed=5)
        run_insert_workload(cluster, count=80)
        leaves = sorted(
            (c for c in cluster.engine.all_copies() if c.is_leaf),
            key=lambda c: c.node_id,
        )
        first = leaves[0]
        cluster.migrate_node(first.node_id, first.home_pid, (first.home_pid + 1) % 4)
        cluster.run()
        cutoff = cluster.now
        second = leaves[1]
        cluster.migrate_node(second.node_id, second.home_pid, (second.home_pid + 1) % 4)
        cluster.run()
        collected = cluster.engine.gc_forwarding(older_than=cutoff)
        assert collected == 1  # only the first migration's address
        remaining = sum(
            len(proc.state["forward"]) for proc in cluster.kernel.processors.values()
        )
        assert remaining == 1


class TestLatencyModels:
    def test_topology_latency_shapes_delivery(self):
        cluster = DBTreeCluster(
            num_processors=3,
            capacity=4,
            replication=SingleCopy(pin_to=0),
            latency_model=TopologyLatency(pairs={(2, 0): 500.0}, default=5.0),
            seed=3,
        )
        cluster.insert(1, "near", client=1)
        cluster.insert(2, "far", client=2)
        cluster.run()
        latencies = {
            op.key: op.latency for op in cluster.trace.operations.values()
        }
        assert latencies[2] > latencies[1] + 400


class TestOpAccounting:
    def test_every_op_hops_at_least_once(self, small_cluster):
        expected = run_insert_workload(small_cluster, count=50)
        for op in small_cluster.trace.operations.values():
            assert op.hops >= 1

    def test_duplicate_copy_creation_ignored(self, small_cluster):
        run_insert_workload(small_cluster, count=50)
        engine = small_cluster.engine
        proc = small_cluster.kernel.processor(0)
        copy = next(iter(engine.store(proc).values()))
        from repro.core.actions import CreateCopy

        proc.submit(CreateCopy(engine.make_snapshot(proc, copy), "sibling"))
        small_cluster.run()
        assert small_cluster.trace.counters.get("duplicate_copy_ignored", 0) == 1

    def test_search_step_on_missing_node_restarts_at_root(self):
        cluster = DBTreeCluster(
            num_processors=4, capacity=4, replication=SingleCopy(pin_to=0), seed=3
        )
        expected = run_insert_workload(cluster, count=50)
        from repro.core.actions import OpContext

        # Hand-deliver a descent step for a node pid 2 does not hold.
        leaf = next(c for c in cluster.engine.all_copies() if c.is_leaf)
        key = leaf.keys()[0]
        op = OpContext(
            op_id=cluster.engine._alloc_op_id(),
            kind="search",
            key=key,
            value=None,
            home_pid=2,
        )
        cluster.trace.record_op_submitted(op.op_id, "search", key, 2, cluster.now)
        cluster.kernel.processor(2).submit(
            SearchStep(node_id=leaf.node_id, op=op)
        )
        results = cluster.run()
        assert results.completed[op.op_id] == expected[key]
        assert cluster.trace.counters.get("missing_node_recovery", 0) >= 1
