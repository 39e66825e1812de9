"""A time-windowed retention store on the dB-tree.

The workload every log/metrics store runs: append recent records,
expire old ones. Keys are timestamps, so expiry empties whole leaves
at the left edge of the tree — the worst case for a never-merge
B-tree (dead, empty nodes accumulate forever) and exactly what the
free-at-empty extension (the paper's dE-tree direction) reclaims:
emptied leaves retire, their ranges are absorbed leftward, parent
entries are lazily deleted, and the zombies are garbage-collected.

The example runs the same retention churn with reclamation off and
on, printing live leaves and utilization.

Run:  python examples/retention_store.py
"""

from repro import DBTreeCluster
from repro.protocols.variable import VariableCopiesProtocol
from repro.stats import format_table, space_utilization
from repro.verify.invariants import representative_nodes

WINDOWS = 8          # how many ingest/expire cycles
RECORDS_PER_WINDOW = 150
PROCESSORS = 4


def run_store(free_at_empty: bool) -> dict:
    cluster = DBTreeCluster(
        num_processors=PROCESSORS,
        protocol=VariableCopiesProtocol(free_at_empty=free_at_empty),
        capacity=8,
        seed=11,
    )
    live = {}
    timestamp = 0
    for window in range(WINDOWS):
        # Ingest this window's records (timestamps ascend).
        batch = []
        for _ in range(RECORDS_PER_WINDOW):
            timestamp += 1
            batch.append(timestamp)
            live[timestamp] = f"event-{timestamp}"
            cluster.insert(timestamp, f"event-{timestamp}", client=timestamp % PROCESSORS)
        cluster.run()
        # Expire everything older than the last two windows.
        horizon = timestamp - 2 * RECORDS_PER_WINDOW
        expired = [k for k in live if k <= horizon]
        for index, key in enumerate(expired):
            cluster.delete(key, client=index % PROCESSORS)
            del live[key]
        cluster.run()
    if free_at_empty:
        cluster.engine.gc_retired(older_than=float("inf"))

    report = cluster.check(expected=live)
    assert report.ok, report.problems[:3]
    leaves = [
        n for n in representative_nodes(cluster.engine).values() if n.is_leaf
    ]
    return {
        "mode": "free-at-empty" if free_at_empty else "never-merge",
        "records": len(live),
        "leaves": len(leaves),
        "utilization": space_utilization(cluster.engine),
        "retired": cluster.trace.counters.get("leaves_retired", 0),
    }


def main() -> None:
    rows = []
    for free_at_empty in (False, True):
        result = run_store(free_at_empty)
        rows.append(
            [
                result["mode"],
                result["records"],
                result["leaves"],
                result["utilization"],
                result["retired"],
            ]
        )
    print(
        format_table(
            ["mode", "live records", "live leaves", "utilization", "leaves retired"],
            rows,
            title=(
                f"Retention store: {WINDOWS} windows x {RECORDS_PER_WINDOW} "
                f"records, keep the newest 2 windows"
            ),
        )
    )
    print(
        "\nnever-merge leaves grow with total history; free-at-empty"
        "\nleaves track the retained window -- the dE-tree payoff."
    )


if __name__ == "__main__":
    main()
