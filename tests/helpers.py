"""Shared test helpers: canned workloads and cluster runners."""

from __future__ import annotations

from collections import Counter
from functools import partial

from repro.sim.network import message_kind


def count_executed(processors) -> dict:
    """Count the actions each processor executes from now on, by kind
    (:func:`~repro.sim.network.message_kind`): wraps each one's
    installed handler.  Returns ``pid -> Counter``, kept current."""
    counts = {}
    for proc in processors:
        counts[proc.pid] = Counter()
        proc.install_handler(partial(_counted, proc._handler, counts[proc.pid]))
    return counts


def _counted(handler, counter, proc, action):
    counter[message_kind(action)] += 1
    handler(proc, action)


def landing(deliver, pids=range(8)) -> dict:
    """A network delivery table (pid -> callable) for a bare network
    whose landings all go to ``deliver(dst, payload)``."""
    return {pid: partial(deliver, pid) for pid in pids}


def run_insert_workload(
    cluster,
    count: int = 200,
    key_fn=lambda i: (i * 7) % 2003,
    concurrent: bool = True,
    spread_clients: bool = True,
):
    """Insert ``count`` distinct keys; return the expected mapping.

    ``concurrent=True`` submits everything at time zero (maximum
    interleaving); otherwise operations are spaced out so each
    completes before the next arrives.

    ``spread_clients=True`` (the default) round-robins submissions
    over every processor so routing is exercised from every origin;
    ``False`` pins all traffic to the first pid, the single-origin
    shape some protocol tests want.  Works for both
    :class:`~repro.DBTreeCluster` and the sharded facade (which has
    ``pids`` but no single ``kernel``).
    """
    expected = {}
    pids = getattr(cluster, "pids", None) or cluster.kernel.pids
    for index in range(count):
        key = key_fn(index)
        if key in expected:
            raise ValueError(f"key_fn produced duplicate key {key}")
        expected[key] = index
        client = pids[index % len(pids)] if spread_clients else pids[0]
        if concurrent:
            cluster.insert(key, index, client=client)
        else:
            cluster.schedule(index * 200.0, "insert", key, index, client=client)
    cluster.run()
    return expected


def assert_clean(cluster, expected=None):
    report = cluster.check(expected=expected)
    assert report.ok, "\n".join(report.problems[:20])
    return report


def derive_run_results(cluster):
    """What ``run()`` reports for a one-engine cluster, derived from
    scratch by a pass over every operation record the trace kept: the
    reference the engine's ledger and ``Trace.results`` are held to.
    Returns ``(completed, incomplete, failed, timed_out)``."""
    verdicts = cluster.engine.op_verdicts
    records = cluster.trace.operations.values()
    completed = {
        op.op_id: op.result for op in records if op.completed_at is not None
    }
    incomplete = tuple(
        op.op_id
        for op in records
        if op.completed_at is None and op.op_id not in verdicts
    )
    failed = tuple(o for o, v in verdicts.items() if v == "failed")
    timed_out = tuple(o for o, v in verdicts.items() if v == "timed_out")
    return completed, incomplete, failed, timed_out


def partitions_disjoint(results):
    """No op sits in two of a ``RunResults``' four partitions."""
    partitions = [
        set(results.completed),
        set(results.incomplete),
        set(results.failed),
        set(results.timed_out),
    ]
    return sum(map(len, partitions)) == len(set().union(*partitions))
