"""Cross-protocol integration matrix and larger end-to-end runs."""

import pytest

from tests.helpers import assert_clean, run_insert_workload
from repro import DBTreeCluster, FixedFactor, UniformLatency
from repro.workloads import (
    OperationMix,
    OpenLoopDriver,
    Workload,
    hotspot_keys,
    string_keys,
    uniform_keys,
    zipf_keys,
)

CORRECT_PROTOCOLS = ["semisync", "sync", "variable", "mobile"]


class TestProtocolMatrix:
    @pytest.mark.parametrize("protocol", CORRECT_PROTOCOLS)
    @pytest.mark.parametrize("procs", [1, 2, 8])
    def test_burst_inserts(self, protocol, procs):
        cluster = DBTreeCluster(
            num_processors=procs, protocol=protocol, capacity=4, seed=3
        )
        expected = run_insert_workload(cluster, count=150)
        assert_clean(cluster, expected=expected)

    @pytest.mark.parametrize("protocol", CORRECT_PROTOCOLS)
    def test_mixed_insert_search(self, protocol):
        cluster = DBTreeCluster(
            num_processors=4, protocol=protocol, capacity=6, seed=8
        )
        mix = OperationMix(
            keys=tuple(uniform_keys(250, seed=4)),
            search_fraction=0.3,
            seed=5,
        )
        workload = Workload.from_mix(mix.operations(), cluster.kernel.pids)
        driver = OpenLoopDriver(cluster, workload, interarrival=1.5)
        result = driver.run()
        assert not result.oracle.conflicts
        assert_clean(cluster, expected=result.oracle.expected_items())

    @pytest.mark.parametrize("protocol", CORRECT_PROTOCOLS)
    def test_deletes_after_insert_quiescence(self, protocol):
        # Deletes are the never-merge extension; they require per-key
        # quiescence (the paper defers general deletion to future
        # work), so they run as a second phase here.
        cluster = DBTreeCluster(
            num_processors=4, protocol=protocol, capacity=6, seed=8
        )
        expected = run_insert_workload(cluster, count=200)
        for index, key in enumerate(sorted(expected)[::4]):
            cluster.delete(key, client=index % 4)
            del expected[key]
        cluster.run()
        assert_clean(cluster, expected=expected)

    @pytest.mark.parametrize("protocol", CORRECT_PROTOCOLS)
    def test_skewed_keys(self, protocol):
        cluster = DBTreeCluster(
            num_processors=4, protocol=protocol, capacity=8, seed=2
        )
        keys = zipf_keys(300, seed=7)
        expected = {}
        for index, key in enumerate(keys):
            expected[key] = index
            cluster.insert(key, index, client=index % 4)
        cluster.run()
        assert_clean(cluster, expected=expected)

    @pytest.mark.parametrize("protocol", ["semisync", "variable"])
    def test_hotspot_keys(self, protocol):
        cluster = DBTreeCluster(
            num_processors=8, protocol=protocol, capacity=8, seed=6
        )
        keys = hotspot_keys(400, seed=3)
        expected = {}
        for index, key in enumerate(keys):
            expected[key] = index
            cluster.insert(key, index, client=index % 8)
        cluster.run()
        assert_clean(cluster, expected=expected)

    @pytest.mark.parametrize("protocol", CORRECT_PROTOCOLS)
    def test_string_key_trees(self, protocol):
        cluster = DBTreeCluster(
            num_processors=4, protocol=protocol, capacity=4, seed=1
        )
        keys = string_keys(150, seed=9)
        expected = {}
        for index, key in enumerate(keys):
            expected[key] = index
            cluster.insert(key, index, client=index % 4)
        cluster.run()
        assert_clean(cluster, expected=expected)


class TestScale:
    def test_two_thousand_keys_semisync(self):
        cluster = DBTreeCluster(
            num_processors=8,
            protocol="semisync",
            capacity=16,
            replication=FixedFactor(3),
            seed=3,
        )
        expected = run_insert_workload(
            cluster, count=2000, key_fn=lambda i: (i * 37) % 100_003
        )
        assert cluster.engine.current_root_level() >= 2
        assert_clean(cluster, expected=expected)

    def test_two_thousand_keys_variable(self):
        cluster = DBTreeCluster(
            num_processors=8, protocol="variable", capacity=16, seed=3
        )
        expected = run_insert_workload(
            cluster, count=2000, key_fn=lambda i: (i * 37) % 100_003
        )
        assert_clean(cluster, expected=expected)

    def test_deep_tree_tiny_capacity(self):
        cluster = DBTreeCluster(
            num_processors=4, protocol="semisync", capacity=2, seed=5
        )
        expected = run_insert_workload(cluster, count=400, key_fn=lambda i: i)
        assert cluster.engine.current_root_level() >= 4
        assert_clean(cluster, expected=expected)

    def test_latency_model_variation(self):
        # High jitter must not break FIFO-dependent correctness.
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            latency_model=UniformLatency(base=5.0, jitter=50.0),
            seed=13,
        )
        expected = run_insert_workload(cluster, count=300)
        assert_clean(cluster, expected=expected)


class TestSearchSemantics:
    @pytest.mark.parametrize("protocol", CORRECT_PROTOCOLS)
    def test_searches_concurrent_with_splits_always_terminate(self, protocol):
        cluster = DBTreeCluster(
            num_processors=4, protocol=protocol, capacity=4, seed=4
        )
        expected = {}
        for index in range(200):
            key = (index * 7) % 2003
            expected[key] = index
            cluster.insert(key, index, client=index % 4)
            if index % 3 == 0:
                cluster.search(key, client=(index + 1) % 4)
        result = cluster.run()
        assert not result.incomplete
        # Concurrent searches may return None (not yet inserted) but
        # must never return a wrong value.
        for op in cluster.trace.operations.values():
            if op.kind == "search" and op.result is not None:
                assert op.result == expected[op.key]
        assert_clean(cluster, expected=expected)

    def test_search_after_quiescence_is_definitive(self):
        cluster = DBTreeCluster(num_processors=4, capacity=4, seed=4)
        expected = run_insert_workload(cluster, count=300)
        for key, value in list(expected.items())[::17]:
            assert cluster.search_sync(key, client=key % 4) == value
        assert cluster.search_sync(10**9) is None


class TestLayersTogether:
    def test_tail_latency_with_every_fault_layer_on(self):
        """``bench``'s ``layers_on`` stream at a fifth of its length.

        Open loop, one insert per 12 vt, over a substrate that loses
        one frame in ten (enforced reliability), one 800-vt crash and
        restart, rf 2, op timeouts, repair.  No insert waits out the
        crash: one submitted to the dead home, or pending there when
        it died, fails over to a live successor at once, so no latency
        reaches the downtime (max 556 vt, p99 388).
        """
        import random

        from repro import CrashPlan, FaultPlan

        keys = list(range(600))
        random.Random(2).shuffle(keys)
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="variable",
            capacity=8,
            seed=2,
            leaf_cache=True,
            fault_plan=FaultPlan(drop_p=0.1, reorder_p=0.05, reorder_delay=100),
            reliability="enforced",
            crash_plan=CrashPlan(schedule=((1, 2400.0, 3200.0),)),
            replication_factor=2,
            op_timeout=3000,
            op_retries=12,
            repair_period=150,
        )
        for index, key in enumerate(keys):
            cluster.schedule(index * 12.0, "insert", key, key, client=index % 4)
        results = cluster.run()
        assert results.ok
        assert not results.timed_out and not results.failed
        assert len(results.completed) == 600
        latencies = cluster.trace.latencies("insert")
        downtime = 800.0
        assert max(latencies) < downtime, max(latencies)
        assert cluster.availability_summary()["op_retries"] == 0
        assert_clean(cluster, expected={key: key for key in keys})
