"""Exact per-layer counts, read through the program's public stats.

A snapshot is a flat ``name -> number`` reading of every counter the
layers publish (``message_stats``, ``cache_stats``, ``utilization``,
``availability_summary``, ``repair_summary``, ``shard_summary``,
``kernel.events.executed``); the per-layer metrics are differences of
two snapshots taken around the timed phase, so set-up work (a preload)
is not charged to it.  A forest's snapshot is the sum over its trees.

Every count here is a pure function of the inputs: two runs of one
commit on one seed must agree on all of them to the last digit.
"""

from __future__ import annotations

from typing import Any

from repro.verify.checker import check_digest_convergence

_MESSAGE_KEYS = (
    "sent",
    "delivered",
    "dropped",
    "retransmits",
    "acks",
    "dup_suppressed",
    "resequenced",
    "dead_letters",
    "physical_sent",
)
_CACHE_KEYS = ("hits", "misses", "stale_recoveries", "shortcuts")
_AVAILABILITY_KEYS = ("op_retries", "leaves_rehomed")
_REPAIR_KEYS = ("rounds_started", "rounds_diverged", "digest_bytes", "repairs_total")
_SHARD_KEYS = (
    "splits",
    "merges",
    "keys_migrated",
    "direct_routes",
    "stale_routes",
    "hint_hops",
    "scan_fanout",
)


def _trees(cluster: Any) -> list[Any]:
    forest = getattr(cluster, "clusters", None)
    return list(forest.values()) if forest is not None else [cluster]


def snapshot(cluster: Any) -> dict[str, float]:
    """Every additive counter, summed over the cluster's trees."""
    total: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        total[name] = total.get(name, 0) + value

    for tree in _trees(cluster):
        add("events", tree.kernel.events.executed)
        add("vt", tree.now)
        messages = tree.message_stats()
        for key in _MESSAGE_KEYS:
            add(key, messages[key])
        cache = tree.cache_stats()
        for key in _CACHE_KEYS:
            add(f"cache_{key}", cache[key])
        for pid, share in tree.utilization().items():
            add(f"busy_{pid}", share * tree.now)
        availability = tree.availability_summary()
        for key in _AVAILABILITY_KEYS:
            add(key, availability.get(key, 0))
        repair = tree.repair_summary()
        for key in _REPAIR_KEYS:
            add(key, repair.get(key, 0))
        records = tree.operation_records()  # empty when the trace level keeps none
        add("op_records", len(records))
        add("op_hops", sum(record.hops for record in records))
    if hasattr(cluster, "shard_summary"):
        shards = cluster.shard_summary()
        for key in _SHARD_KEYS:
            add(f"shard_{key}", shards[key])
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    cluster: Any, before: dict[str, float], after: dict[str, float], ops: int, scans: int
) -> dict[str, float]:
    """The exact per-layer metrics of one timed phase.

    A metric of a layer the workload does not switch on reads 0.
    """
    delta = {name: after[name] - before.get(name, 0) for name in after}
    busy = [delta[name] for name in delta if name.startswith("busy_")]
    trees = _trees(cluster)
    recoveries = [
        tree.availability_summary().get("mean_recovery", 0.0) for tree in trees
    ]
    return {
        "sim.events.events_per_op": delta["events"] / ops,
        "sim.processor.util_mean": _ratio(sum(busy) / len(busy), delta["vt"]),
        "sim.processor.util_max": _ratio(max(busy), delta["vt"]),
        "core.leafcache.hit_rate": _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "core.leafcache.stale_per_hit": _ratio(
            delta["cache_stale_recoveries"], delta["cache_hits"]
        ),
        "core.leafcache.shortcuts_per_op": delta["cache_shortcuts"] / ops,
        "core.dbtree.hops_per_op": _ratio(delta["op_hops"], delta["op_records"]),
        "core.dbtree.op_retries_per_op": delta["op_retries"] / ops,
        "core.dbtree.leaves_rehomed": delta["leaves_rehomed"],
        "sim.network.delivered_share": _ratio(delta["delivered"], delta["sent"]),
        "sim.reliable.retransmits_per_op": delta["retransmits"] / ops,
        "sim.reliable.acks_per_op": delta["acks"] / ops,
        "sim.reliable.resequenced_per_op": delta["resequenced"] / ops,
        "sim.reliable.dup_suppressed_per_op": delta["dup_suppressed"] / ops,
        "sim.crash.dead_letters_per_op": delta["dead_letters"] / ops,
        "sim.crash.mean_recovery": sum(recoveries) / len(recoveries),
        "repair.rounds_started": delta["rounds_started"],
        "repair.rounds_diverged": delta["rounds_diverged"],
        "repair.digest_bytes_per_op": delta["digest_bytes"] / ops,
        "repair.repairs_total": delta["repairs_total"],
        "repair.residual_divergence": sum(
            len(check_digest_convergence(tree.engine))
            for tree in trees
            if tree.engine.repair is not None
        ),
        "shard.stale_route_share": _ratio(
            delta.get("shard_stale_routes", 0),
            delta.get("shard_stale_routes", 0) + delta.get("shard_direct_routes", 0),
        ),
        "shard.hint_hops_per_op": delta.get("shard_hint_hops", 0) / ops,
        "shard.keys_migrated_per_op": delta.get("shard_keys_migrated", 0) / ops,
        "shard.scan_fanout_mean": _ratio(delta.get("shard_scan_fanout", 0), scans),
        "shard.splits": delta.get("shard_splits", 0),
        "shard.merges": delta.get("shard_merges", 0),
    }
