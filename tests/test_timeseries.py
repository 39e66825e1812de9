"""Windowed time series and sparklines."""

import pytest

from tests.helpers import run_insert_workload
from repro import DBTreeCluster
from repro.sim.tracing import Trace
from repro.stats import sparkline, throughput_sparkline
from repro.stats.timeseries import completion_series


def synthetic_trace():
    trace = Trace()
    # Three ops completing at t=5, 15, 17 with latencies 5, 5, 7.
    for op_id, (submit, complete) in enumerate(
        [(0.0, 5.0), (10.0, 15.0), (10.0, 17.0)], start=1
    ):
        trace.record_op_submitted(op_id, "insert", op_id, 0, submit)
        trace.record_op_completed(op_id, True, complete)
    return trace


class TestCompletionSeries:
    def test_bucketing(self):
        series = completion_series(synthetic_trace(), window=10.0)
        assert len(series) == 2
        assert series[0].completions == 1
        assert series[1].completions == 2
        assert series[0].throughput == pytest.approx(0.1)
        assert series[1].mean_latency == pytest.approx(6.0)

    def test_windows_are_contiguous(self):
        series = completion_series(synthetic_trace(), window=5.0)
        for left, right in zip(series, series[1:]):
            assert left.end == right.start

    def test_empty_trace(self):
        assert completion_series(Trace(), window=10.0) == []

    def test_kind_filter(self):
        trace = synthetic_trace()
        trace.record_op_submitted(99, "search", 1, 0, 0.0)
        trace.record_op_completed(99, None, 3.0)
        inserts = completion_series(trace, window=10.0, kind="insert")
        assert sum(w.completions for w in inserts) == 3
        searches = completion_series(trace, window=10.0, kind="search")
        assert sum(w.completions for w in searches) == 1

    def test_window_validation(self):
        with pytest.raises(ValueError):
            completion_series(Trace(), window=0.0)

    def test_real_run_conserves_completions(self):
        cluster = DBTreeCluster(num_processors=4, capacity=4, seed=3)
        run_insert_workload(cluster, count=150)
        series = completion_series(cluster.trace, window=50.0)
        assert sum(w.completions for w in series) == 150


class TestSparkline:
    def test_shape(self):
        assert sparkline([0, 1, 2, 4]) == "▁▂▄█"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_zero(self):
        assert sparkline([0.0, 0.0]) == "▁▁"

    def test_downsampling(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10

    def test_throughput_sparkline_from_run(self):
        cluster = DBTreeCluster(num_processors=4, capacity=4, seed=3)
        run_insert_workload(cluster, count=150)
        line = throughput_sparkline(cluster.trace, window=25.0)
        assert len(line) > 0
        assert set(line) <= set(" ▁▂▃▄▅▆▇█")
