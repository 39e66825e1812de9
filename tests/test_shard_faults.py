"""Sharding composed with each fault layer, one at a time.

The forest passes every fault plan through to every shard tree, so
each of PR 2-8's fault layers must compose with shard splits, merges,
and stale-view routing.  Each test turns on exactly one layer (the
combinations the ISSUE names: lossy links under enforced reliability,
crash/restart under mirrored leaves, a healed partition under earned
detection) and requires the *full* audit -- per-shard ``check_all``
plus ``check_shard_coverage`` -- to come back clean.
"""

import pytest

from tests.helpers import assert_clean
from repro import (
    CrashPlan,
    FaultPlan,
    PartitionPlan,
    ShardedCluster,
)
from repro.shard.verify import check_shard_coverage
from repro.sim.tracing import TraceLevel
from repro.verify.checker import leaf_contents
from repro.stats import layer_report


def spread_workload(forest, count, spacing=0.0, key_fn=lambda i: (i * 7) % 2003):
    """Submit ``count`` inserts round-robin over every processor."""
    expected = {}
    pids = forest.pids
    for index in range(count):
        key = key_fn(index)
        expected[key] = index
        client = pids[index % len(pids)]
        if spacing:
            forest.schedule(index * spacing, "insert", key, index, client=client)
        else:
            forest.insert(key, index, client=client)
    return expected


class TestShardingWithLossyNetwork:
    def test_lossy_enforced_reliability_splits_clean(self):
        forest = ShardedCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=29,
            shards=2,
            initial_boundaries=(1000,),
            shard_split_threshold=30,
            fault_plan=FaultPlan(drop_p=0.15, reorder_p=0.1),
            reliability="enforced",
        )
        expected = spread_workload(forest, 90)
        results = forest.run()
        assert results.ok, (results.failed, results.timed_out,
                            results.reliability_error)
        assert forest.counters["shard_splits"] >= 1
        assert check_shard_coverage(forest) == []
        assert_clean(forest, expected)
        # The reliable transport did real work in at least one shard.
        retransmits = sum(
            cluster.kernel.network.stats.retransmits
            for cluster in forest.clusters.values()
        )
        assert retransmits > 0


class TestShardingWithCrashes:
    def test_crash_restart_mirrored_leaves_clean(self):
        # Processor 2 crashes mid-workload and restarts in every
        # shard tree (a machine failing with all its tenants).
        forest = ShardedCluster(
            num_processors=4,
            protocol="variable",
            capacity=4,
            seed=31,
            shards=2,
            initial_boundaries=(1000,),
            shard_split_threshold=30,
            crash_plan=CrashPlan(schedule=((2, 300.0, 700.0),)),
            op_timeout=3000.0,
            op_retries=5,
            replication_factor=2,
        )
        expected = spread_workload(forest, 80, spacing=10.0)
        results = forest.run()
        assert results.ok, (results.failed, results.timed_out)
        assert len(results.completed) == 80  # paced ops are accounted for
        assert forest.counters["shard_splits"] >= 1
        crashes = 0
        for cluster in forest.clusters.values():
            crashes += cluster.availability_summary()["crashes"]
        assert crashes >= 2  # the pid went down in every shard tree
        assert check_shard_coverage(forest) == []
        assert_clean(forest, expected)

    def test_post_crash_traffic_routes_from_every_origin(self):
        forest = ShardedCluster(
            num_processors=4,
            protocol="variable",
            capacity=4,
            seed=37,
            shard_split_threshold=24,
            crash_plan=CrashPlan(schedule=((1, 200.0, 500.0),)),
            op_timeout=3000.0,
            op_retries=5,
            replication_factor=2,
        )
        expected = spread_workload(forest, 60, spacing=12.0)
        results = forest.run()
        assert results.ok and len(results.completed) == 60
        # Fresh spread traffic after the splits: every client's view
        # recovers (or was already fresh) and agreement holds.
        for index, key in enumerate(sorted(expected)):
            forest.search(key, client=forest.pids[index % 4])
        assert forest.run().ok
        for key in expected:
            covering = forest.directory.covering(key)
            for pid in forest.pids:
                assert forest._locate(pid, key) == covering
        assert_clean(forest, expected)


class TestShardingWithPartitions:
    def test_healed_partition_detector_on_clean(self):
        forest = ShardedCluster(
            num_processors=4,
            protocol="variable",
            capacity=16,
            seed=41,
            shards=2,
            initial_boundaries=(1000,),
            shard_split_threshold=30,
            partition_plan=PartitionPlan(splits=((800.0, 1400.0, (0, 1)),)),
            crash_plan=CrashPlan(detector="timeout", detector_horizon=6000.0),
            op_timeout=300.0,
            op_retries=10,
            replication_factor=2,
            repair_period=100.0,
        )
        expected = spread_workload(forest, 80, spacing=10.0)
        results = forest.run()
        assert results.ok, (results.failed, results.timed_out)
        assert len(results.completed) == 80
        assert forest.counters["shard_splits"] >= 1
        for tree in forest.clusters.values():
            # the cut really swallowed traffic, in every shard's tree
            assert layer_report(tree)["partition"]["messages_blocked"] > 0
        assert check_shard_coverage(forest) == []
        assert_clean(forest, expected)


class TestScheduledOpsReachResults:
    """``schedule`` registers the op with the facade when it fires."""

    def test_paced_insert_lands_in_completed(self):
        forest = ShardedCluster(
            num_processors=4, shards=2, initial_boundaries=(1000,), seed=3
        )
        forest.schedule(50.0, "insert", 7, "low", client=1)
        forest.schedule(80.0, "insert", 1500, "high", client=2)
        assert not forest._pending  # nothing is registered before it fires
        results = forest.run()
        assert results.ok
        assert sorted(results.completed.values()) == [True, True]
        assert forest.search_sync(7) == "low"
        assert forest.search_sync(1500) == "high"

    def test_home_down_past_retry_budget_is_timed_out(self):
        # Every processor is down for good from 100: no live processor
        # can take over the later insert, which times out.
        forest = ShardedCluster(
            num_processors=4,
            protocol="variable",
            shards=2,
            initial_boundaries=(1000,),
            seed=3,
            crash_plan=CrashPlan(
                schedule=tuple((pid, 100.0, None) for pid in range(4))
            ),
            op_timeout=100.0,
            op_retries=1,
        )
        forest.schedule(150.0, "insert", 7, "lost", client=1)
        forest.schedule(10.0, "insert", 1500, "kept", client=2)
        results = forest.run()
        assert not results.ok
        assert len(results.timed_out) == 1
        assert list(results.completed.values()) == [True]
        with pytest.raises(KeyError, match="timed out"):
            results.result_of(results.timed_out[0])

    def test_scheduled_scans_are_refused(self):
        forest = ShardedCluster(shards=2, initial_boundaries=(1000,))
        with pytest.raises(ValueError, match="scan"):
            forest.schedule(10.0, "scan", 0, (5, None))


class TestFaultLayerPassThrough:
    def test_plans_reach_every_shard(self):
        plan = FaultPlan(drop_p=0.05)
        forest = ShardedCluster(
            num_processors=4,
            shards=3,
            initial_boundaries=(500, 1500),
            seed=5,
            fault_plan=plan,
            reliability="enforced",
        )
        for cluster in forest.clusters.values():
            assert cluster.kernel.network._fault_plan is plan

    def test_incompatible_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ShardedCluster(shard_split_threshold=10, shard_merge_threshold=10)
        with pytest.raises(ValueError):
            ShardedCluster(shards=3)  # range mode needs boundaries
        with pytest.raises(ValueError):
            ShardedCluster(shards=2, partitioning="hash",
                           initial_boundaries=(5,))  # range is the only scheme

    @pytest.mark.parametrize("trace_level", ["off", TraceLevel.OFF], ids=["name", "enum"])
    def test_trace_level_off_rejected(self, trace_level):
        # A shard at "off" keeps no results, so no facade op would
        # ever settle: it would stay pending, and the run not ok.
        with pytest.raises(ValueError, match="keep no results"):
            ShardedCluster(shards=2, initial_boundaries=(20,), trace_level=trace_level)

    @pytest.mark.parametrize("trace_level", ["ops", "full"])
    def test_every_other_trace_level_settles_every_op(self, trace_level):
        forest = ShardedCluster(
            shards=2, initial_boundaries=(20,), trace_level=trace_level
        )
        for key in range(40):
            forest.insert(key, key, client=key % 4)
        results = forest.run()
        assert results.ok and len(results.completed) == 40
        assert forest._pending == {}


class TestMigrationFailures:
    def test_counter_starts_at_zero(self):
        assert ShardedCluster().counters["migration_failures"] == 0

    def test_failed_source_run_still_runs_the_target(self, monkeypatch):
        forest = ShardedCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=29,
            shards=2,
            initial_boundaries=(1000,),
        )
        spread_workload(forest, 60)
        assert forest.run().ok
        source = forest.clusters[0]
        real_run = source.run

        def failing_run(*args, **kwargs):
            results = real_run(*args, **kwargs)
            results.incomplete = (-1,)
            return results

        monkeypatch.setattr(source, "run", failing_run)
        before = set(forest.clusters)
        assert forest._split_shard(0)
        [target_id] = set(forest.clusters) - before
        target = forest.clusters[target_id]
        # The target's install ran inside the same _migrate: its tree
        # holds the moved keys, and no op was opened for them.
        assert leaf_contents(target.engine)
        assert target.trace.operations == {}
        assert target.engine.in_flight == {}
        assert forest.counters["migration_failures"] == 1


class TestScanChainEdges:
    """A forest scan is a chain of per-shard parts in key order (see
    ``tests/test_shard_properties.py::TestForestScanChain``); a run cut
    short keeps the chain, and a part that fails ends it."""

    @staticmethod
    def three_shards():
        """Three shards: ``[-inf, 1000)`` empty, ``[1000, 2000)`` with
        200 keys, ``[2000, +inf)`` with 10."""
        forest = ShardedCluster(
            num_processors=4,
            protocol="variable",
            capacity=4,
            seed=11,
            shards=3,
            initial_boundaries=(1000, 2000),
        )
        model = {key: key for key in [*range(1000, 1400, 2), *range(2000, 2010)]}
        assert forest.load(model).ok
        return forest, model

    def test_part_in_flight_at_the_event_bound_finishes_next_run(self):
        """A run cut by ``max_events`` while a part is in flight keeps
        the facade scan pending with the rest of its range; the next
        run returns the whole result, not a truncated one."""
        twin, model = self.three_shards()
        trees = twin.clusters.items()
        before = {sid: tree.kernel.events.executed for sid, tree in trees}
        assert twin.scan_sync(0, 5000) == tuple(sorted(model.items()))
        used = {sid: tree.kernel.events.executed - before[sid] for sid, tree in trees}
        # The bound lets the empty first shard drain and cuts the
        # second part's walk along its shard's leaves short.
        assert used[0] < used[1]
        forest, _ = self.three_shards()
        op = forest.scan(0, 5000)
        with pytest.raises(RuntimeError, match="max_events"):
            forest.run(max_events=used[0])
        assert forest.counters["scan_fanout"] == 2
        results = forest.run()
        assert results.completed[op] == tuple(sorted(model.items()))
        assert forest.counters["scan_fanout"] == 3

    @pytest.mark.parametrize(
        "plans, verdict",
        [({}, "failed"), ({"op_timeout": 100.0, "op_retries": 1}, "timed_out")],
        ids=["failed", "timed_out"],
    )
    def test_failed_part_ends_the_chain_with_its_verdict(self, plans, verdict):
        """Every processor is down for good from 5,000, and only the
        second shard's clock is past it: the first part completes, the
        second fails (or times out), the third is never issued, and the
        facade scan takes the worst verdict."""
        forest = ShardedCluster(
            num_processors=4,
            protocol="variable",
            shards=3,
            initial_boundaries=(1000, 2000),
            crash_plan=CrashPlan(
                schedule=tuple((pid, 5000.0, None) for pid in range(4))
            ),
            **plans,
        )
        forest.clusters[1].kernel.run_until(6000.0)
        op = forest.scan(0, 5000)
        results = forest.run()
        assert getattr(results, verdict) == (op,)
        assert op not in results.completed
        assert forest.counters["scan_fanout"] == 2
        scans = {
            sid: [r for r in tree.trace.operations.values() if r.kind == "scan"]
            for sid, tree in forest.clusters.items()
        }
        assert [r.result for r in scans[0]] == [()]
        assert [r.completed_at for r in scans[1]] == [None]
        assert scans[2] == []
