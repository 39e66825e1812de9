"""Experiment A1 (ablation) -- Section 1.1: piggybacked lazy updates.

"Since the lazy update commutes with other updates, there is no
pressing need to inform the other copies of the update immediately.
Instead, the lazy update can be piggybacked onto messages used for
other purposes, greatly reducing the cost of replication management."

Every action piggybacks with no delay: what it sends to one processor
leaves as one message.  The ablation turns that holding off
(``Processor.hold_sends(None)``, so every send leaves at once) and
runs each protocol on the same paced insert workload both ways,
reporting network messages per insert, the messages that rode on
another's, and the final virtual time, with the correctness audit
run at every point.  ``naive`` is left out: it is incorrect by design.
"""

from common import emit, paced_inserts
from repro import DBTreeCluster
from repro.stats import format_table

CORRECT_PROTOCOLS = ("semisync", "sync", "variable", "mobile")


def measure(protocol: str, hold: bool, count: int = 400, seed: int = 3) -> dict:
    cluster = DBTreeCluster(
        num_processors=4, protocol=protocol, capacity=8, seed=seed
    )
    if not hold:
        for proc in cluster.kernel.processors.values():
            proc.hold_sends(None)
    expected = paced_inserts(cluster, count=count, interarrival=1.0)
    report = cluster.check(expected=expected)
    stats = cluster.kernel.network.stats
    return {
        "messages_per_op": stats.sent / count,
        "piggybacked_per_op": stats.piggybacked / count,
        "final_vt": cluster.now,
        "audit_ok": report.ok,
    }


def run_experiment() -> str:
    rows = []
    for protocol in CORRECT_PROTOCOLS:
        for hold in (False, True):
            result = measure(protocol, hold)
            rows.append(
                [
                    protocol,
                    "on" if hold else "off",
                    result["messages_per_op"],
                    result["piggybacked_per_op"],
                    result["final_vt"],
                    "yes" if result["audit_ok"] else "NO",
                ]
            )
    table = format_table(
        [
            "protocol",
            "holding",
            "msgs/insert",
            "piggybacked/insert",
            "final vt",
            "audit ok",
        ],
        rows,
        title="A1: piggybacking -- each action's sends held, off vs on",
    )
    return emit("a1_piggyback", table)


def test_a1_piggyback(benchmark):
    benchmark.pedantic(lambda: measure("semisync", True), rounds=2, iterations=1)
    for protocol in CORRECT_PROTOCOLS:
        off, on = measure(protocol, hold=False), measure(protocol, hold=True)
        # Shape: holding never delays anything and never breaks the
        # audit; where an action messages one peer twice, it saves.
        assert on["final_vt"] == off["final_vt"]
        assert on["audit_ok"] and off["audit_ok"]
        if protocol != "mobile":
            assert on["messages_per_op"] < off["messages_per_op"]
    run_experiment()


if __name__ == "__main__":
    run_experiment()
