"""``run()`` partitions every operation as a pass over the whole
history would.

The engine's ledger keeps the ops still owed a result and the trace
the results of the rest, so a run's outcome costs what is in flight.
Every ``KernelClient.run`` a test makes -- its own, and each one a
forest makes per shard and per migration -- is held to
:func:`tests.helpers.derive_run_results`.  The ledger is kept at every
trace level, so ``incomplete``, ``failed`` and ``timed_out`` do not
depend on it.
"""

import functools

import pytest

from tests.helpers import derive_run_results, partitions_disjoint
from repro import CrashPlan, DBTreeCluster, FaultPlan, ShardedCluster
from repro.core.client import KernelClient


@pytest.fixture
def checked_runs(monkeypatch):
    """Wrap ``KernelClient.run`` so each call asserts its result
    equals the derivation; yields the list of results checked."""
    run = KernelClient.run
    checked = []

    @functools.wraps(run)
    def checked_run(self, max_events=None):
        results = run(self, max_events=max_events)
        assert (
            results.completed,
            results.incomplete,
            results.failed,
            results.timed_out,
        ) == derive_run_results(self)
        checked.append(results)
        return results

    monkeypatch.setattr(KernelClient, "run", checked_run)
    return checked


LEVELS = pytest.mark.parametrize("trace_level", ["ops", "full"])


@LEVELS
def test_plain_tree(checked_runs, trace_level):
    cluster = DBTreeCluster(
        num_processors=4, protocol="variable", capacity=4, seed=2,
        trace_level=trace_level,
    )
    keys = [(index * 7) % 2003 for index in range(80)]
    for index, key in enumerate(keys):
        cluster.insert(key, index, client=index % 4)
    assert cluster.run().ok
    for index, key in enumerate(keys):
        cluster.search(key, client=(index + 1) % 4)
    cluster.run()
    for key in keys[::2]:
        cluster.delete(key)
    final = cluster.run()
    assert len(checked_runs) == 3
    assert len(final.completed) == 200 and partitions_disjoint(final)
    # A later run leaves an earlier result as it was.
    assert len(checked_runs[0].completed) == 80


@LEVELS
def test_lost_returns_stay_incomplete(checked_runs, trace_level):
    cluster = DBTreeCluster(
        num_processors=4, protocol="variable", capacity=4, seed=2,
        trace_level=trace_level,
        fault_plan=FaultPlan(drop_p=0.3, only_kinds=frozenset({"return"})),
    )
    for batch in range(3):
        for index in range(20 * batch, 20 * batch + 20):
            cluster.insert(index, index, client=index % 4)
        results = cluster.run()
        assert results.incomplete and partitions_disjoint(results)
    assert len(results.completed) + len(results.incomplete) == 60


def lost_returns(trace_level):
    return DBTreeCluster(
        num_processors=4, protocol="variable", capacity=4, seed=2,
        trace_level=trace_level,
        fault_plan=FaultPlan(drop_p=0.3, only_kinds=frozenset({"return"})),
    )


def crash_and_timers(trace_level):
    return DBTreeCluster(
        num_processors=4, protocol="variable", capacity=4, seed=5,
        trace_level=trace_level,
        crash_plan=CrashPlan(schedule=((1, 40.0, 300.0),)),
        op_timeout=30.0, op_retries=1, replication_factor=2,
    )


def crash_to_the_last_processor(trace_level):
    return DBTreeCluster(
        num_processors=2, protocol="variable", capacity=4, seed=3,
        trace_level=trace_level,
        crash_plan=CrashPlan(schedule=((0, 20.0, None), (1, 30.0, None))),
        replication_factor=2,
    )


@pytest.mark.parametrize(
    "build", [lost_returns, crash_and_timers, crash_to_the_last_processor]
)
def test_outcome_is_the_same_at_every_trace_level(build):
    outcomes = {}
    for trace_level in ("off", "ops", "full"):
        cluster = build(trace_level)
        for index in range(60):
            cluster.insert((index * 7) % 2003, index, client=index % 2)
        results = cluster.run()
        outcomes[trace_level] = (
            results.incomplete, results.failed, results.timed_out
        )
    assert outcomes["off"] == outcomes["ops"] == outcomes["full"]
    assert any(outcomes["off"])


@LEVELS
def test_crash_and_timers_with_verdicts_and_a_late_return(checked_runs, trace_level):
    cluster = DBTreeCluster(
        num_processors=4, protocol="variable", capacity=4, seed=5,
        trace_level=trace_level,
        crash_plan=CrashPlan(schedule=((1, 40.0, 300.0),)),
        op_timeout=30.0, op_retries=1, replication_factor=2,
    )
    for batch in range(3):
        for index in range(20 * batch, 20 * batch + 20):
            cluster.insert((index * 7) % 2003, index, client=index % 4)
        results = cluster.run()
        assert partitions_disjoint(results)
    assert results.timed_out and results.completed
    assert len(results.completed) + len(results.timed_out) == 60
    assert cluster.trace.counters["late_return_ignored"] > 0


@LEVELS
def test_forest_through_a_split_and_a_merge(checked_runs, trace_level):
    forest = ShardedCluster(
        num_processors=4, protocol="variable", capacity=4, seed=11,
        shards=2, initial_boundaries=(1000,),
        shard_split_threshold=30, shard_merge_threshold=12,
        trace_level=trace_level,
    )
    keys = [index * 31 for index in range(60)]
    for index, key in enumerate(keys):
        forest.insert(key, index, client=index % 4)
    assert forest.run().ok
    assert forest.counters["shard_splits"] == 1
    for key in keys[5:]:
        forest.delete(key)
    assert forest.run().ok
    assert forest.counters["shard_merges"] >= 1
    # Per shard: one run per facade run, two per migration.
    assert len(checked_runs) > 2 * 3


def test_off_keeps_no_per_op_records():
    cluster = DBTreeCluster(
        num_processors=4, protocol="variable", capacity=4, seed=2,
        trace_level="off",
    )
    for index in range(30):
        cluster.insert(index, index, client=index % 4)
    results = cluster.run()
    assert results.ok
    assert results.completed == {} and results.incomplete == ()
    assert cluster.trace.operations == {}
    assert cluster.trace.results == {}
