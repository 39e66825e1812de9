"""Experiment C5 -- Section 4.2 claims on lazy node migration.

"The host processor can broadcast its new location to every other
processor [...] However, this algorithm requires large amounts of
wasted effort."  And: "The forwarding addresses are not required for
correctness, so they can be garbage-collected at convenient
intervals."

The experiment migrates a stream of leaves under (a) the lazy mobile
protocol (neighbour link-changes + forwarding addresses) and (b) the
eager Emerald-style broadcast baseline, sweeping the cluster size,
and reports location-maintenance messages per migration.  It then
garbage-collects every forwarding address and re-runs a full search
sweep to demonstrate correctness is preserved by recovery alone.
"""

from common import emit, insert_burst
from repro import DBTreeCluster
from repro.baselines import EagerBroadcastProtocol
from repro.stats import format_table

MAINTENANCE_KINDS = ("link_change_location", "location_broadcast")


def measure(protocol, procs: int, migrations: int = 12, seed: int = 3) -> dict:
    cluster = DBTreeCluster(
        num_processors=procs, protocol=protocol, capacity=4, seed=seed
    )
    expected = insert_burst(cluster, count=200)
    # Pre-scatter: spread the leaves around the cluster first so the
    # measured migrations have *remote* neighbours (a fresh tree has
    # everything on one processor, which makes neighbour notification
    # free and unrepresentative).
    for index, leaf in enumerate(
        sorted((c for c in cluster.engine.all_copies() if c.is_leaf),
               key=lambda c: c.node_id)
    ):
        cluster.migrate_node(leaf.node_id, leaf.home_pid, index % procs)
    cluster.run()
    leaves = sorted(
        (c for c in cluster.engine.all_copies() if c.is_leaf),
        key=lambda c: c.node_id,
    )[:migrations]
    cluster.kernel.network.reset_stats()
    for index, leaf in enumerate(leaves):
        cluster.migrate_node(
            leaf.node_id, leaf.home_pid, (leaf.home_pid + index + 1) % procs
        )
    cluster.run()
    by_kind = cluster.kernel.network.stats.by_kind
    maintenance = sum(by_kind.get(kind, 0) for kind in MAINTENANCE_KINDS)

    # GC all forwarding addresses, then prove searches still work.
    collected = cluster.engine.gc_forwarding(older_than=float("inf"))
    misses = 0
    for key, value in list(expected.items())[::5]:
        if cluster.search_sync(key, client=hash(key) % procs) != value:
            misses += 1
    report = cluster.check(expected=expected)
    name = protocol if isinstance(protocol, str) else protocol.name
    return {
        "protocol": name,
        "procs": procs,
        "maintenance_per_migration": maintenance / len(leaves),
        "forwarding_collected": collected,
        "search_misses_after_gc": misses,
        "recoveries": cluster.trace.counters.get("missing_node_recovery", 0),
        "audit_ok": report.ok,
    }


def run_experiment() -> str:
    rows = []
    for procs in (4, 8, 16):
        lazy = measure("mobile", procs)
        eager = measure(EagerBroadcastProtocol(), procs)
        rows.append(
            [
                procs,
                lazy["maintenance_per_migration"],
                eager["maintenance_per_migration"],
                eager["maintenance_per_migration"]
                / max(lazy["maintenance_per_migration"], 0.001),
                lazy["search_misses_after_gc"],
                lazy["recoveries"],
            ]
        )
    table = format_table(
        [
            "procs",
            "lazy msgs/migration",
            "eager msgs/migration",
            "eager/lazy",
            "lazy misses after GC",
            "lazy recoveries",
        ],
        rows,
        title=(
            "C5: migration maintenance -- lazy neighbour link-changes vs "
            "eager broadcast; forwarding addresses GC'd with zero misses"
        ),
    )
    return emit("c5_migration", table)


def test_c5_migration(benchmark):
    lazy = benchmark.pedantic(
        lambda: measure("mobile", 8), rounds=2, iterations=1
    )
    eager = measure(EagerBroadcastProtocol(), 8)
    # Shape: eager pays ~(P-1) per migration and grows with the
    # cluster; lazy pays a constant few neighbour updates.
    assert eager["maintenance_per_migration"] >= 8 - 1
    assert lazy["maintenance_per_migration"] < eager["maintenance_per_migration"]
    # Forwarding addresses are an optimization only.
    assert lazy["forwarding_collected"] > 0
    assert lazy["search_misses_after_gc"] == 0
    assert lazy["audit_ok"]
    run_experiment()


if __name__ == "__main__":
    run_experiment()
