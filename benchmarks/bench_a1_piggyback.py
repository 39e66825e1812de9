"""Experiment A1 (ablation) -- Section 1.1: piggybacked lazy updates.

"Since the lazy update commutes with other updates, there is no
pressing need to inform the other copies of the update immediately.
Instead, the lazy update can be piggybacked onto messages used for
other purposes, greatly reducing the cost of replication management."

Every action piggybacks with no delay: what it sends to one processor
leaves as one message, so window 0 already rides relays on the split
traffic they travel with.  The experiment then sweeps the relay
batching window on top, on a paced insert workload, and reports
network messages per insert, the messages that rode on another's,
and the relays-per-batch achieved, with the correctness audit run at
every point (piggybacking must not affect the final state).
"""

from common import emit, paced_inserts
from repro import DBTreeCluster
from repro.stats import format_table


def measure(window: float | None, count: int = 400, seed: int = 3) -> dict:
    cluster = DBTreeCluster(
        num_processors=4,
        protocol="semisync",
        capacity=8,
        seed=seed,
        relay_batch_window=window,
    )
    expected = paced_inserts(cluster, count=count, interarrival=1.0)
    report = cluster.check(expected=expected)
    if not report.ok:
        raise AssertionError(report.problems[0])
    batcher = cluster.engine.relay_batcher
    return {
        "window": 0.0 if window is None else window,
        "messages_per_op": cluster.kernel.network.stats.sent / count,
        "piggybacked_per_op": cluster.kernel.network.stats.piggybacked / count,
        "relays_per_batch": (
            batcher.relays_batched / batcher.batches_sent
            if batcher is not None and batcher.batches_sent
            else 1.0
        ),
        "audit_ok": report.ok,
    }


def run_experiment() -> str:
    rows = []
    baseline = measure(None)
    rows.append(
        [0, baseline["messages_per_op"], baseline["piggybacked_per_op"], 1.0, 1.0, "yes"]
    )
    for window in (5.0, 10.0, 25.0, 50.0, 100.0):
        result = measure(window)
        rows.append(
            [
                window,
                result["messages_per_op"],
                result["piggybacked_per_op"],
                result["relays_per_batch"],
                baseline["messages_per_op"] / result["messages_per_op"],
                "yes" if result["audit_ok"] else "NO",
            ]
        )
    table = format_table(
        [
            "batch window",
            "msgs/insert",
            "piggybacked/insert",
            "relays/batch",
            "saving x",
            "audit ok",
        ],
        rows,
        title="A1: piggybacked relays -- per action (window 0), then batched",
    )
    return emit("a1_piggyback", table)


def test_a1_piggyback(benchmark):
    baseline = benchmark.pedantic(lambda: measure(None), rounds=2, iterations=1)
    batched = measure(50.0)
    # Shape: batching cuts messages substantially and changes nothing
    # about the final state.
    assert batched["messages_per_op"] < 0.7 * baseline["messages_per_op"]
    assert batched["relays_per_batch"] > 1.5
    assert batched["audit_ok"]
    run_experiment()


if __name__ == "__main__":
    run_experiment()
