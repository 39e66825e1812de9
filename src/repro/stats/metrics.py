"""Metrics: the quantities the paper's claims are stated in.

Message complexity (splits, replica maintenance), operation latency
and throughput, blocking time, replication profile by level, load
balance across processors, and leaf space utilization.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Any

from repro.sim.simulator import LAYERS
from repro.verify.invariants import representative_nodes

if TYPE_CHECKING:
    from repro.core.dbtree import DBTreeEngine
    from repro.shard.cluster import ShardedCluster
    from repro.sim.simulator import Kernel
    from repro.sim.tracing import Trace


#: Message kinds that are pure split coordination, per protocol family.
SPLIT_COORDINATION_KINDS = (
    "split_start",
    "split_ack",
    "split_end",
    "relayed_split",
)


def repair_summary(engine: "DBTreeEngine") -> dict[str, Any]:
    """Anti-entropy repair accounting (X7 quantities).

    Summarises the :class:`~repro.repair.repair.RepairService`
    counters: gossip rounds started / found clean / found diverged /
    aborted (lost to a crash mid-round), offers that rode on another
    message, digests exchanged and their byte volume, repairs broken
    down by kind (update replays, mirror refreshes and drops, leaf
    returns, structural rejoins), and ``time_to_convergence`` -- the
    virtual-time gap between the last observed divergence and
    quiescence (0.0 when nothing ever diverged).  Returns ``{"enabled": False}`` when the subsystem is
    not installed, so callers can embed it unconditionally.
    """
    service = engine.repair
    if service is None:
        return {"enabled": False}
    counters = service.counters
    mirrors = engine.mirrors
    repairs_by_kind = {
        kind: counters.get(kind, 0)
        for kind in (
            "updates_replayed",
            "mirror_refreshes",
            "mirror_drops",
            "leaves_returned",
            "rejoins",
            "rejoin_advises",
            "unjoins_resent",
            "membership_sweeps",
        )
    }
    last_dirty = service.last_divergence_time
    return {
        "enabled": True,
        "placement": mirrors.placement.name if mirrors is not None else "none",
        "period": service.plan.period,
        "rounds_started": counters.get("rounds_started", 0),
        "rounds_clean": counters.get("rounds_clean", 0),
        "rounds_diverged": counters.get("rounds_diverged", 0),
        "rounds_aborted": counters.get("rounds_aborted", 0),
        "offers_piggybacked": counters.get("offers_piggybacked", 0),
        "digests_exchanged": counters.get("digests_sent", 0),
        "digest_bytes": service.digest_bytes,
        "repairs_by_kind": repairs_by_kind,
        "repairs_total": sum(repairs_by_kind.values()),
        # double-home reconciliation after a healed partition (kept
        # out of repairs_by_kind: a conflict is detected once but
        # resolved by two processors, so the totals would double-count)
        "home_resolution": {
            kind: counters.get(kind, 0)
            for kind in (
                "home_conflicts",
                "home_resolves_won",
                "home_resolves_ceded",
                "home_resolves_moot",
            )
        },
        "unrepairable": counters.get("unrepairable", 0),
        "time_to_convergence": (
            max(0.0, engine.now - last_dirty) if last_dirty > 0.0 else 0.0
        ),
    }


def shard_summary(sharded: "ShardedCluster") -> dict[str, Any]:
    """Shard-layer accounting (X10 quantities).

    Directory shape (live/retired shards, version), per-shard entry
    counts in range order, reconfiguration work (splits, merges, keys
    migrated and the messages their moves put on the wire), and router
    behaviour: direct routes vs stale routes recovered through shed
    hints and forward pointers, and how many view refreshes the
    recoveries triggered; ``scan_fanout`` is the sub-scans the
    cross-shard scans issued, one per shard each chain reached.
    ``leaves_by_processor`` counts the live shards' leaves by the
    processor holding each (its primary where leaves are replicated),
    in pid order: how evenly migrations placed them.
    """
    live = sharded.directory.live_shards()
    counters = sharded.counters
    leaves = dict.fromkeys(sharded.pids, 0)
    for shard in live:
        for copy in representative_nodes(sharded.clusters[shard.shard_id].engine).values():
            if copy.is_leaf:
                leaves[copy.home_pid] += 1
    return {
        "enabled": True,
        "partitioning": sharded.partitioning,
        "live_shards": len(live),
        "retired_shards": len(sharded.directory.shards) - len(live),
        "directory_version": sharded.directory.version,
        "entries_by_shard": {
            shard.shard_id: sharded.entry_count(shard.shard_id)
            for shard in live
        },
        "splits": counters["shard_splits"],
        "merges": counters["shard_merges"],
        "keys_migrated": counters["keys_migrated"],
        "migration_msgs": counters["migration_msgs"],
        "direct_routes": counters["shard_direct_routes"],
        "stale_routes": counters["shard_stale_routes"],
        "hint_hops": counters["shard_hint_hops"],
        "forwards": counters["shard_forwards"],
        "refreshes": counters["directory_refreshes"],
        "scan_fanout": counters["scan_fanout"],
        "migration_failures": counters["migration_failures"],
        "leaves_by_processor": list(leaves.values()),
    }


def layer_report(tree: Any) -> dict[str, dict[str, Any]]:
    """Every layer's summary for one tree.

    One entry per registered kernel layer
    (:data:`repro.sim.simulator.LAYERS`: its plan's
    :meth:`~repro.sim.layer.Layer.summary`, or ``{"enabled": False}``
    when the kernel has no such plan), then ``"repair"``
    (:func:`repair_summary`).  Every entry answers ``["enabled"]``.
    A forest is reported shard by shard: each shard is an independent
    tree with its own report, and the forest's own layer is
    :func:`shard_summary`.
    """
    report = {
        kind.layer: tree.kernel.layer_summary(kind, tree.trace) for kind in LAYERS
    }
    report["repair"] = repair_summary(tree.engine)
    return report


def split_message_cost(engine: "DBTreeEngine") -> dict[str, float]:
    """Messages per half-split, the Figure 5 / C4 quantity.

    ``coordination`` counts only the split-ordering messages
    (split_start/ack/end for the synchronous protocol, relayed splits
    for the lazy ones); ``inherent`` counts the work any protocol must
    do besides (the parent insert -- the sibling's copies ride on the
    split itself); ``total`` is their sum.  The paper's "3|copies| vs
    |copies|" claim is about coordination.
    """
    splits = engine.trace.counters.get("half_splits", 0)
    by_kind = engine.kernel.network.stats.by_kind
    coordination = sum(by_kind.get(kind, 0) for kind in SPLIT_COORDINATION_KINDS)
    inherent = by_kind.get("insert_initial", 0)
    if splits == 0:
        return {"splits": 0, "coordination": 0.0, "inherent": 0.0, "total": 0.0}
    return {
        "splits": splits,
        "coordination": coordination / splits,
        "inherent": inherent / splits,
        "total": (coordination + inherent) / splits,
    }


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[rank]


def latency_summary(trace: "Trace", kind: str | None = None) -> dict[str, float]:
    """Mean / median / p95 / max latency of completed operations."""
    latencies = trace.latencies(kind)
    if not latencies:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "count": len(latencies),
        "mean": sum(latencies) / len(latencies),
        "p50": percentile(latencies, 0.50),
        "p95": percentile(latencies, 0.95),
        "max": max(latencies),
    }


def throughput(trace: "Trace", kernel: "Kernel") -> float:
    """Completed operations per virtual time unit."""
    completed = len(trace.results)
    elapsed = kernel.now
    if elapsed <= 0:
        return 0.0
    return completed / elapsed


def blocked_time_summary(trace: "Trace") -> dict[str, float]:
    """Total blocked time and blocked-event count (AAS / locks)."""
    return {
        "blocked_events": trace.blocked_events,
        "blocked_time": trace.blocked_time,
    }


def replication_profile(engine: "DBTreeEngine") -> dict[int, dict[str, float]]:
    """Per level: node count and average copies per node (Figure 2)."""
    copies_per_node: dict[int, set[int]] = defaultdict(set)
    level_of: dict[int, int] = {}
    for copy in engine.all_copies():
        copies_per_node[copy.node_id].add(copy.home_pid)
        level_of[copy.node_id] = copy.level
    profile: dict[int, dict[str, float]] = {}
    by_level: dict[int, list[int]] = defaultdict(list)
    for node_id, holders in copies_per_node.items():
        by_level[level_of[node_id]].append(len(holders))
    for level, counts in sorted(by_level.items()):
        profile[level] = {
            "nodes": len(counts),
            "avg_copies": sum(counts) / len(counts),
            "max_copies": max(counts),
            "min_copies": min(counts),
        }
    return profile


def load_balance(engine: "DBTreeEngine") -> dict[str, Any]:
    """Leaves and leaf entries per processor + coefficient of variation."""
    leaves_per_pid: dict[int, int] = {pid: 0 for pid in engine.kernel.pids}
    entries_per_pid: dict[int, int] = {pid: 0 for pid in engine.kernel.pids}
    for copy in engine.all_copies():
        if copy.is_leaf and not copy.retired:
            leaves_per_pid[copy.home_pid] += 1
            entries_per_pid[copy.home_pid] += copy.num_entries
    counts = list(entries_per_pid.values())
    mean = sum(counts) / len(counts)
    if mean == 0:
        cv = 0.0
    else:
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        cv = math.sqrt(variance) / mean
    return {
        "leaves_per_pid": leaves_per_pid,
        "entries_per_pid": entries_per_pid,
        "entries_cv": cv,
        "max_over_mean": (max(counts) / mean) if mean else 0.0,
    }


def space_utilization(engine: "DBTreeEngine") -> float:
    """Fraction of leaf capacity in use (the C7 quantity)."""
    total_entries = 0
    total_capacity = 0
    seen: set[int] = set()
    for copy in engine.all_copies():
        if not copy.is_leaf or copy.retired or copy.node_id in seen:
            continue
        seen.add(copy.node_id)
        total_entries += copy.num_entries
        total_capacity += copy.capacity
    if total_capacity == 0:
        return 0.0
    return total_entries / total_capacity


def stale_reads(trace: "Trace") -> dict[str, Any]:
    """Reads that missed a write already acknowledged when they began.

    Lazy replication trades read freshness for concurrency: with
    replicated leaves, a search may read a copy the insert's relay
    has not reached yet and return None even though the insert was
    acknowledged earlier.  This measures how often that happened:
    a search counts as *stale* if it returned None for a key whose
    insert completed before the search was submitted.

    With single-copy leaves (mobile / variable protocols) there is
    one leaf to read and the count is structurally zero.
    """
    insert_done_at: dict[Any, float] = {}
    for op in trace.operations.values():
        if op.kind == "insert" and op.completed_at is not None:
            existing = insert_done_at.get(op.key)
            if existing is None or op.completed_at < existing:
                insert_done_at[op.key] = op.completed_at
    searches = 0
    stale = 0
    for op in trace.operations.values():
        if op.kind != "search" or op.completed_at is None:
            continue
        searches += 1
        done = insert_done_at.get(op.key)
        if op.result is None and done is not None and done <= op.submitted_at:
            stale += 1
    return {
        "searches": searches,
        "stale": stale,
        "stale_fraction": stale / searches if searches else 0.0,
    }


def search_locality(trace: "Trace", kernel: "Kernel") -> dict[str, float]:
    """How much of the descent work stayed local (Figure 2 claim).

    ``hops`` counts node visits per completed search; ``remote`` the
    network messages carrying search steps.  Locality is the fraction
    of visits that did not cost a message.
    """
    searches = [
        op for op in trace.operations.values()
        if op.kind == "search" and op.completed_at is not None
    ]
    total_hops = sum(op.hops for op in searches)
    remote = kernel.network.stats.by_kind.get("search", 0)
    if total_hops == 0:
        return {"ops": len(searches), "avg_hops": 0.0, "locality": 1.0}
    return {
        "ops": len(searches),
        "avg_hops": total_hops / max(len(searches), 1),
        "locality": 1.0 - min(remote / total_hops, 1.0),
    }
