"""Metrics and table rendering."""

import pytest

from tests.helpers import run_insert_workload
from repro import (
    CrashPlan,
    DBTreeCluster,
    FaultPlan,
    PartitionPlan,
    ShardedCluster,
)
from repro.sim.permute import PermutePlan
from repro.sim.simulator import LAYERS
from repro.stats import (
    format_table,
    latency_summary,
    layer_report,
    load_balance,
    repair_summary,
    replication_profile,
    search_locality,
    space_utilization,
    split_message_cost,
    throughput,
)
from repro.stats.metrics import blocked_time_summary, percentile


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 0.95) == 5.0
        assert percentile(values, 0.01) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestClusterMetrics:
    @pytest.fixture(scope="class")
    def loaded(self):
        cluster = DBTreeCluster(num_processors=4, capacity=4, seed=3)
        expected = run_insert_workload(cluster, count=200)
        for index, key in enumerate(list(expected)[:50]):
            cluster.search(key, client=index % 4)
        cluster.run()
        return cluster

    def test_split_message_cost(self, loaded):
        cost = split_message_cost(loaded.engine)
        assert cost["splits"] > 0
        assert cost["coordination"] == 3.0  # |copies|-1 on 4 procs

    def test_latency_summary(self, loaded):
        summary = latency_summary(loaded.trace)
        assert summary["count"] == 250
        assert 0 < summary["p50"] <= summary["p95"] <= summary["max"]
        searches = latency_summary(loaded.trace, kind="search")
        assert searches["count"] == 50

    def test_latency_summary_empty(self):
        from repro.sim.tracing import Trace

        assert latency_summary(Trace())["count"] == 0

    def test_throughput_positive(self, loaded):
        assert throughput(loaded.trace, loaded.kernel) > 0

    def test_blocked_time_summary(self, loaded):
        summary = blocked_time_summary(loaded.trace)
        assert summary["blocked_events"] == 0  # semisync never blocks

    def test_replication_profile(self, loaded):
        profile = replication_profile(loaded.engine)
        assert set(profile) >= {0, 1}
        for row in profile.values():
            assert row["min_copies"] <= row["avg_copies"] <= row["max_copies"]

    def test_load_balance(self, loaded):
        balance = load_balance(loaded.engine)
        assert set(balance["leaves_per_pid"]) == {0, 1, 2, 3}
        assert balance["entries_cv"] >= 0.0

    def test_space_utilization_bounds(self, loaded):
        utilization = space_utilization(loaded.engine)
        assert 0.3 < utilization <= 1.0

    def test_search_locality_full_replication(self, loaded):
        locality = search_locality(loaded.trace, loaded.kernel)
        assert locality["ops"] == 50
        assert locality["locality"] == 1.0  # full replication: all local


#: The keys of every layer report: the registered kernel layers, in
#: registry order, then the engine's.
REPORT_KEYS = [kind.layer for kind in LAYERS] + ["repair"]


class TestLayerReport:
    LAYERS = dict(
        protocol="variable",
        capacity=4,
        fault_plan=FaultPlan(drop_p=0.05),
        reliability="enforced",
        crash_plan=CrashPlan(
            schedule=((2, 150.0, 600.0),),
            detector="timeout",
            detector_horizon=3000.0,
        ),
        partition_plan=PartitionPlan(splits=((400.0, 900.0, (0, 1)),)),
        op_timeout=300.0,
        replication_factor=2,
        repair_period=100.0,
    )

    @staticmethod
    def drive(cluster):
        for index in range(40):
            cluster.schedule(index * 8.0, "insert", index * 37 % 2003, index,
                             client=index % 4)
        assert cluster.run().ok

    def test_plain_cluster_report_is_each_plans_summary(self):
        cluster = DBTreeCluster(num_processors=4, seed=3, **self.LAYERS)
        self.drive(cluster)
        report = layer_report(cluster)
        assert list(report) == REPORT_KEYS
        kernel = cluster.kernel
        for plan in kernel.layers.values():
            assert report[plan.layer] == plan.summary(kernel, cluster.trace)
        assert report["crash"] == cluster.availability_summary()
        assert report["repair"] == repair_summary(cluster.engine)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_layer_is_on_exactly_when_its_plan_is_passed(self, shards):
        # One plan at a time, plus none: only its own key reads on --
        # a crash plan's whether it crashes anything or only runs an
        # earned detector, which is part of it.
        examples = [
            ("fault_plan", FaultPlan(drop_p=0.05), {"faults"}),
            ("reliability", "enforced", {"reliability"}),
            ("permute_plan", PermutePlan(), {"permute"}),
            ("crash_plan", CrashPlan(schedule=((2, 150.0, 600.0),)), {"crash"}),
            (
                "crash_plan",
                CrashPlan(detector="timeout", detector_horizon=3000.0),
                {"crash"},
            ),
            (
                "partition_plan",
                PartitionPlan(splits=((400.0, 900.0, (0, 1)),)),
                {"partition"},
            ),
            ("repair_period", 100.0, {"repair"}),
        ]
        assert {on for _, _, names in examples for on in names} == set(
            REPORT_KEYS
        )
        for keyword, value, names in [(None, None, set()), *examples]:
            kwargs = {keyword: value} if keyword else {}
            if shards == 2:
                forest = ShardedCluster(
                    num_processors=4, shards=2, initial_boundaries=(1000,), **kwargs
                )
                assert forest.shard_summary()["enabled"]
                trees = list(forest.clusters.values())
            else:
                trees = [DBTreeCluster(num_processors=4, **kwargs)]
            for tree in trees:  # a forest: every shard's tree alike
                report = layer_report(tree)
                assert list(report) == REPORT_KEYS
                on = {name for name, entry in report.items() if entry["enabled"]}
                assert on == names, keyword

    def test_every_layer_answers_enabled_on_or_off(self):
        bare = layer_report(DBTreeCluster(num_processors=2))
        assert {name: entry["enabled"] for name, entry in bare.items()} == dict.fromkeys(
            REPORT_KEYS, False
        )
        full = layer_report(DBTreeCluster(num_processors=4, seed=3, **self.LAYERS))
        on = {name for name, entry in full.items() if entry["enabled"]}
        assert on == set(REPORT_KEYS) - {"permute"}


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "n"], [["alpha", 1], ["b", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        assert lines[2].startswith("alpha")

    def test_title(self):
        table = format_table(["a"], [[1]], title="T1")
        assert table.splitlines()[0] == "T1"

    def test_float_formatting(self):
        table = format_table(["x"], [[1.23456], [2.0]])
        assert "1.235" in table
        assert "\n2" in table  # integral floats render bare

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
