"""Engine edge cases: recovery, locators, forwarding, root growth."""

import pytest

from tests.helpers import assert_clean, run_insert_workload
from repro import DBTreeCluster, FixedFactor, SingleCopy
from repro.core.actions import InsertAction, Mode, ScanStep, SearchStep
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


def begin_op(cluster, kind, key, value=None, home=0):
    """An op the engine tracks, as ``submit_operation`` makes one, whose
    first action the test hand-delivers."""
    return cluster.engine.open_op(kind, key, value, home)


class TestStepRuleBranches:
    """Actions that reach a copy at another level than their own, or a
    copy that no longer covers their key, still finish where they act.

    The variable protocol's default placement keeps every leaf of this
    workload at pid 0 and every interior node at every processor, so
    pid 2 holds the path to each leaf but no leaf.
    """

    @staticmethod
    def build(**kwargs):
        cluster = DBTreeCluster(
            num_processors=4, protocol="variable", capacity=4, seed=3, **kwargs
        )
        expected = run_insert_workload(cluster, count=100)
        return cluster, expected

    @staticmethod
    def level_one(cluster, pid):
        store = cluster.kernel.processor(pid).state["store"]
        return sorted(
            (c for c in store.values() if c.level == 1), key=lambda c: c.range.low
        )

    @staticmethod
    def insert_action(cluster, node_id, key, op):
        return InsertAction(
            node_id=node_id,
            level=0,
            key=key,
            payload=op.value,
            mode=Mode.INITIAL,
            action_id=cluster.trace.new_action_id(),
            op=op,
        )

    def applied_at_the_leaf(self, cluster, action):
        [leaf] = [c for c in cluster.engine.leaves() if c.in_range(action.key)]
        return action.action_id in leaf.incorporated_ids

    def test_insert_restarted_at_an_interior_copy_descends(self):
        # An id pid 2 never heard of: the step rule restarts the insert
        # at pid 2's lowest copy covering the key, one level up.
        cluster, expected = self.build()
        key = 2 * max(expected) + 1
        op = begin_op(cluster, "insert", key, "new", home=2)
        action = self.insert_action(cluster, 10**6, key, op)
        cluster.kernel.processor(2).submit(action)
        results = cluster.run()
        assert results.completed[op.op_id] is True
        assert self.applied_at_the_leaf(cluster, action)
        assert cluster.trace.counters["missing_node_recovery"] == 1
        assert cluster.trace.counters.get("dead_ends", 0) == 0
        expected[key] = "new"
        assert_clean(cluster, expected=expected)

    def test_insert_at_an_interior_copy_off_its_range_moves_right(self):
        # As if the copy it was restarted at split before it ran.
        cluster, expected = self.build()
        first = self.level_one(cluster, 2)[0]
        key = 2 * max(expected) + 1
        assert not first.in_range(key)
        op = begin_op(cluster, "insert", key, "new", home=2)
        action = self.insert_action(cluster, first.node_id, key, op)
        before = cluster.trace.counters["forward_right"]
        cluster.kernel.processor(2).submit(action)
        results = cluster.run()
        assert results.completed[op.op_id] is True
        assert self.applied_at_the_leaf(cluster, action)
        assert cluster.trace.counters["forward_right"] > before
        expected[key] = "new"
        assert_clean(cluster, expected=expected)

    def test_parent_insert_at_a_leaf_climbs_to_its_level(self):
        # A parent insert addressed below its level re-inserts an
        # existing separator: it must apply at every copy of the parent
        # and at no leaf.
        cluster, expected = self.build()
        parent = self.level_one(cluster, 0)[0]
        separator, child = list(parent.entries())[1]
        leaf = min(cluster.engine.leaves(), key=lambda c: c.range.low)
        action_id = cluster.trace.new_action_id()
        cluster.kernel.processor(leaf.home_pid).submit(
            InsertAction(
                node_id=leaf.node_id,
                level=1,
                key=separator,
                payload=child,
                mode=Mode.INITIAL,
                action_id=action_id,
            )
        )
        cluster.run()
        copies = cluster.engine.copies_of(parent.node_id)
        assert all(action_id in c.incorporated_ids for c in copies)
        assert not any(action_id in c.incorporated_ids for c in cluster.engine.leaves())
        assert_clean(cluster, expected=expected)

    def test_scan_step_at_an_interior_copy_descends(self):
        cluster, expected = self.build()
        keys = sorted(expected)
        op = begin_op(cluster, "scan", keys[0], (keys[10], None), home=2)
        first = self.level_one(cluster, 2)[0]
        cluster.kernel.processor(2).submit(
            ScanStep(node_id=first.node_id, level=0, key=keys[0], op=op)
        )
        results = cluster.run()
        assert results.completed[op.op_id] == tuple(
            (key, expected[key]) for key in keys[:10]
        )

    def test_scan_step_at_a_leaf_off_its_range_moves_right(self):
        # As if the leaf split while the scan's first step was queued.
        cluster, expected = self.build()
        leaf = min(cluster.engine.leaves(), key=lambda c: c.range.low)
        keys = sorted(expected)
        start = next(i for i, key in enumerate(keys) if not leaf.in_range(key))
        op = begin_op(
            cluster, "scan", keys[start], (keys[start + 5], None), home=leaf.home_pid
        )
        cluster.kernel.processor(leaf.home_pid).submit(
            ScanStep(node_id=leaf.node_id, level=0, key=keys[start], op=op)
        )
        results = cluster.run()
        assert results.completed[op.op_id] == tuple(
            (key, expected[key]) for key in keys[start : start + 5]
        )

    def test_cached_search_for_a_migrated_leaf_completes_after_gc(self):
        # Every client caches where the leaves live; they all move, and
        # their forwarding addresses are collected: each cached search
        # that reaches the old holder is stale and recovers by key.
        cluster = DBTreeCluster(
            num_processors=4, protocol="mobile", capacity=4, seed=3, leaf_cache=True
        )
        expected = run_insert_workload(cluster, count=120)
        keys = sorted(expected)[::4]
        for key in keys:
            for client in range(4):
                cluster.search(key, client=client)
        cluster.run()
        for leaf in sorted(cluster.engine.leaves(), key=lambda c: c.node_id):
            cluster.migrate_node(leaf.node_id, leaf.home_pid, (leaf.home_pid + 1) % 4)
        cluster.run()
        assert cluster.engine.gc_forwarding(older_than=float("inf")) > 0
        ops = {
            cluster.search(key, client=client): key
            for key in keys
            for client in range(4)
        }
        results = cluster.run()
        assert {op: results.completed[op] for op in ops} == {
            op: expected[key] for op, key in ops.items()
        }
        assert cluster.trace.counters["leaf_cache_stale"] > 0
        assert_clean(cluster, expected=expected)


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
        # Hand-deliver a descent step for a node pid 2 does not hold.
        leaf = next(c for c in cluster.engine.all_copies() if c.is_leaf)
        key = leaf.keys()[0]
        op = cluster.engine.open_op("search", key, None, 2)
        cluster.kernel.processor(2).submit(
            SearchStep(node_id=leaf.node_id, op=op)
        )
        results = cluster.run()
        assert results.completed[op.op_id] == expected[key]
        assert cluster.trace.counters.get("missing_node_recovery", 0) >= 1
