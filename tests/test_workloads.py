"""Workload generators and drivers."""

import pytest

from tests.helpers import assert_clean
from repro import DBTreeCluster
from repro.workloads import (
    ClosedLoopDriver,
    OpenLoopDriver,
    OperationMix,
    Workload,
    hotspot_keys,
    string_keys,
    uniform_keys,
    zipf_keys,
)


class TestGenerators:
    def test_uniform_distinct_and_deterministic(self):
        keys = uniform_keys(500, seed=3)
        assert len(set(keys)) == 500
        assert keys == uniform_keys(500, seed=3)
        assert keys != uniform_keys(500, seed=4)

    def test_uniform_validates(self):
        with pytest.raises(ValueError):
            uniform_keys(-1)
        with pytest.raises(ValueError):
            uniform_keys(100, universe=50)

    def test_zipf_skewed_toward_small(self):
        keys = zipf_keys(2000, seed=5, alpha=1.5)
        assert len(set(keys)) == 2000
        small = sum(1 for k in keys if k < 10_000)
        assert small > len(keys) * 0.5

    def test_zipf_validates_alpha(self):
        with pytest.raises(ValueError):
            zipf_keys(10, alpha=1.0)

    def test_hotspot_concentration(self):
        keys = hotspot_keys(1000, seed=7, hot_fraction=0.1, hot_weight=0.9)
        assert len(set(keys)) == 1000
        universe = max(64 * 1000, 64)
        hot_span = max(int(universe * 0.1), 1000)
        hot = sum(1 for k in keys if k < hot_span)
        assert hot > 700

    def test_hotspot_validates(self):
        with pytest.raises(ValueError):
            hotspot_keys(10, hot_fraction=0.0)

    def test_string_keys(self):
        keys = string_keys(100, seed=1, length=6)
        assert len(set(keys)) == 100
        assert all(len(k) == 6 and k.islower() for k in keys)


class TestOperationMix:
    def test_insert_only(self):
        mix = OperationMix(keys=tuple(range(50)))
        operations = list(mix.operations())
        assert len(operations) == 50
        assert all(kind == "insert" for kind, _k, _v in operations)

    def test_mixed_is_conflict_free(self):
        mix = OperationMix(
            keys=tuple(range(200)), search_fraction=0.3, delete_fraction=0.1, seed=2
        )
        inserted, deleted = set(), set()
        for kind, key, _value in mix.operations():
            if kind == "insert":
                assert key not in inserted
                inserted.add(key)
            elif kind == "delete":
                assert key in inserted and key not in deleted
                deleted.add(key)
            else:
                assert key in inserted and key not in deleted

    def test_all_keys_eventually_inserted(self):
        mix = OperationMix(keys=tuple(range(100)), search_fraction=0.5, seed=3)
        inserted = {k for kind, k, _v in mix.operations() if kind == "insert"}
        assert inserted == set(range(100))

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            OperationMix(keys=(1,), search_fraction=0.7, delete_fraction=0.4)


class TestDrivers:
    def _workload(self, cluster, count=120):
        operations = tuple(
            ("insert", (i * 7) % 2003, i) for i in range(count)
        )
        return Workload(operations=operations, clients=tuple(cluster.kernel.pids))

    def test_open_loop_correct(self):
        cluster = DBTreeCluster(num_processors=4, capacity=4, seed=3)
        driver = OpenLoopDriver(cluster, self._workload(cluster), interarrival=2.0)
        result = driver.run()
        assert not result.run.incomplete
        assert_clean(cluster, expected=result.oracle.expected_items())

    def test_open_loop_with_jitter(self):
        cluster = DBTreeCluster(num_processors=4, capacity=4, seed=3)
        driver = OpenLoopDriver(
            cluster, self._workload(cluster), interarrival=1.0, jitter=3.0, seed=9
        )
        result = driver.run()
        assert_clean(cluster, expected=result.oracle.expected_items())

    def test_closed_loop_correct(self):
        cluster = DBTreeCluster(num_processors=4, capacity=4, seed=3)
        driver = ClosedLoopDriver(cluster, self._workload(cluster), depth=3)
        result = driver.run()
        assert not result.run.incomplete
        assert_clean(cluster, expected=result.oracle.expected_items())

    def test_closed_loop_depth_validated(self):
        cluster = DBTreeCluster(num_processors=2, capacity=4, seed=1)
        with pytest.raises(ValueError):
            ClosedLoopDriver(cluster, self._workload(cluster), depth=0)

    def test_closed_loop_bounds_outstanding_ops(self):
        cluster = DBTreeCluster(num_processors=2, capacity=8, seed=5)
        in_flight = []

        def watch(op, _result):
            in_flight.append(len(cluster.engine.in_flight))

        cluster.engine.op_completion_listeners.append(watch)
        driver = ClosedLoopDriver(cluster, self._workload(cluster, count=60), depth=2)
        driver.run()
        # 2 clients x depth 2 = at most 4 outstanding (sampled right
        # after completions, before resubmission).
        assert max(in_flight) <= 4

    def test_per_client_round_robin(self):
        workload = Workload(
            operations=tuple(("insert", i, i) for i in range(10)),
            clients=(0, 1, 2),
        )
        assignment = workload.per_client()
        assert [k for _kind, k, _v in assignment[0]] == [0, 3, 6, 9]
        assert [k for _kind, k, _v in assignment[1]] == [1, 4, 7]
