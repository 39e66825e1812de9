"""Trace levels: reduced recording, checker guards, accounting modes."""

import pytest

from repro.core.client import DBTreeCluster
from repro.sim.tracing import Trace, TraceLevel, TraceLevelError


def run_small_workload(cluster, count=80):
    expected = {}
    for index in range(count):
        key = (index * 31) % 499
        expected[key] = index
        cluster.insert(key, index, client=index % cluster.num_processors)
    cluster.run()
    return expected


class TestTraceLevel:
    def test_coerce_accepts_strings_and_members(self):
        assert TraceLevel.coerce("full") is TraceLevel.FULL
        assert TraceLevel.coerce("ops") is TraceLevel.OPS
        assert TraceLevel.coerce("off") is TraceLevel.OFF
        assert TraceLevel.coerce(TraceLevel.OPS) is TraceLevel.OPS

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError):
            TraceLevel.coerce("verbose")

    def test_full_is_default(self):
        assert Trace().level is TraceLevel.FULL
        assert Trace().record_updates is True

    def test_ops_level_skips_update_records(self):
        cluster = DBTreeCluster(
            num_processors=2, capacity=4, seed=0, trace_level="ops"
        )
        expected = run_small_workload(cluster)
        # Operation lifecycle still recorded...
        assert len(cluster.trace.operations) >= len(expected)
        # ...but no per-copy update history.
        assert not cluster.trace.copies

    def test_off_level_keeps_counters_only(self):
        cluster = DBTreeCluster(
            num_processors=2, capacity=4, seed=0, trace_level="off"
        )
        run_small_workload(cluster)
        assert not cluster.trace.operations
        assert not cluster.trace.copies
        assert cluster.trace.counters.get("half_splits", 0) > 0

    def test_results_identical_across_levels(self):
        # Trace level changes recording only, never the simulation:
        # identical final virtual time and structure counters.
        fingerprints = []
        for level in ("full", "ops", "off"):
            cluster = DBTreeCluster(
                num_processors=4, capacity=4, seed=7, trace_level=level
            )
            run_small_workload(cluster, count=120)
            fingerprints.append(
                (cluster.now, cluster.trace.counters.get("half_splits"))
            )
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]


class TestCheckerGuards:
    @pytest.mark.parametrize("level", ["ops", "off"])
    def test_check_raises_clear_error_below_full(self, level):
        cluster = DBTreeCluster(
            num_processors=2, capacity=4, seed=0, trace_level=level
        )
        run_small_workload(cluster, count=40)
        with pytest.raises(TraceLevelError, match="trace_level='full'"):
            cluster.check()

    def test_check_passes_at_full_with_cache(self):
        cluster = DBTreeCluster(
            num_processors=4,
            capacity=4,
            seed=3,
            trace_level="full",
            leaf_cache=True,
        )
        expected = run_small_workload(cluster, count=150)
        report = cluster.check(expected=expected)
        assert report.ok, report.problems[:5]


class TestAccountingModes:
    def test_aggregate_keeps_totals_only(self):
        cluster = DBTreeCluster(
            num_processors=2, capacity=4, seed=0, accounting="aggregate"
        )
        run_small_workload(cluster)
        stats = cluster.message_stats()
        assert stats["sent"] > 0
        assert stats["by_kind"] == {}

    def test_aggregate_mode_counts_what_full_counts(self):
        totals = {}
        for mode in ("full", "aggregate"):
            cluster = DBTreeCluster(
                num_processors=2, capacity=4, seed=0, accounting=mode
            )
            expected = run_small_workload(cluster)
            for key in list(expected)[:10]:
                assert cluster.search_sync(key, client=0) == expected[key]
            stats = cluster.message_stats()
            totals[mode] = (stats["sent"], stats["delivered"], cluster.now)
        assert totals["aggregate"] == totals["full"]

    def test_invalid_mode_rejected(self):
        for mode in ("verbose", "off"):  # the scalar totals are always kept
            with pytest.raises(ValueError):
                DBTreeCluster(num_processors=2, accounting=mode)
