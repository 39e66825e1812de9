"""Shared test helpers: canned workloads and cluster runners."""

from __future__ import annotations

from repro import DBTreeCluster


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


def count_batch_flushes(batcher, stats) -> list[tuple[int, int]]:
    """Record what each of ``batcher``'s flushes adds to ``stats``.

    Install before the first relay; the returned list gains one
    ``(wire messages, piggybacked items)`` pair per flush.
    """
    flushed: list[tuple[int, int]] = []
    flush = batcher._flush

    def counted(channel):
        sent, piggybacked = stats.sent, stats.piggybacked
        flush(channel)
        flushed.append((stats.sent - sent, stats.piggybacked - piggybacked))

    batcher._flush = counted
    return flushed
