"""Metrics: the quantities the paper's claims are stated in.

Message complexity (splits, replica maintenance), operation latency
and throughput, blocking time, replication profile by level, load
balance across processors, and leaf space utilization.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Any

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


def reliability_summary(kernel: "Kernel") -> dict[str, Any]:
    """Cost and work of the reliable-delivery layer (X5 quantities).

    ``amplification`` is physical frames on the wire per logical
    message -- 1.0 in ``"assumed"`` mode, > 1.0 under enforcement
    (retransmissions + standalone acks).  A logical message may carry
    several payloads (a :class:`~repro.sim.network.Bundle`);
    ``piggybacked`` counts those that rode on another's.  The
    remaining counters show *why*: what the substrate did
    (dropped/duplicated), what the layer absorbed
    (dup_suppressed/resequenced), and which signal put a frame back on
    the wire (``retransmits_on_ack`` of the
    ``retransmits`` answered an ack that reported the hole; the rest
    waited for the channel timer).
    """
    stats = kernel.network.stats
    transport = kernel.network.transport
    return {
        "enabled": transport is not None,
        "mode": kernel.network.reliability,
        "logical_sent": stats.sent,
        "piggybacked": stats.piggybacked,
        "physical_sent": stats.physical_sent,
        "amplification": stats.physical_sent / stats.sent if stats.sent else 1.0,
        "retransmits": stats.retransmits,
        "retransmits_on_ack": stats.retransmits_on_ack,
        "acks": stats.acks,
        "dropped": stats.dropped,
        "duplicated": stats.duplicated,
        "dup_suppressed": stats.dup_suppressed,
        "resequenced": stats.resequenced,
        "in_flight": transport.in_flight() if transport is not None else 0,
    }


def availability_summary(
    kernel: "Kernel", trace: "Trace | None" = None
) -> dict[str, Any]:
    """Crash/restart/recovery accounting (X6 quantities).

    Summarises the :class:`~repro.sim.crash.CrashController` records:
    how many crash-stop failures occurred, what they destroyed
    (queued + in-service actions), how long detection and recovery
    took, and what the network refused to deliver to dead processors
    (``dead_letters``).  When a trace is given, the engine-level
    repair counters (forced unjoins, leaf re-homes, PC donations,
    op retries/timeouts) are included; ``op_retries`` counts
    re-issues an op timer made, ``op_failed_over`` the ops issued by
    the fail-over rule, without a timer: from a home that was down or
    rootless at submission, from a home that crashed, or when the
    first processor was rooted again after none was.
    """
    controller = kernel.crash_controller
    summary: dict[str, Any] = {
        "enabled": controller is not None,
        "crashes": 0,
        "restarts": 0,
        "lost_actions": 0,
        "dead_letters": kernel.network.stats.dead_letters,
    }
    if controller is None:
        return summary
    records = controller.records
    downtimes = [r.downtime for r in records if r.downtime is not None]
    detections = [
        r.detected_at - r.crashed_at
        for r in records
        if r.detected_at is not None
    ]
    recoveries = [
        r.recovery_latency for r in records if r.recovery_latency is not None
    ]
    summary.update(
        crashes=len(records),
        restarts=sum(1 for r in records if r.restarted_at is not None),
        lost_actions=sum(r.lost_actions for r in records),
        suspected=sum(len(r.suspected_by) for r in records),
        mean_downtime=sum(downtimes) / len(downtimes) if downtimes else 0.0,
        mean_detection=sum(detections) / len(detections) if detections else 0.0,
        mean_recovery=sum(recoveries) / len(recoveries) if recoveries else 0.0,
    )
    if trace is not None:
        counters = trace.counters
        summary.update(
            forced_unjoins=counters.get("crash_forced_unjoins", 0),
            pc_donations=counters.get("pc_donations", 0),
            leaves_rehomed=counters.get("leaves_rehomed", 0),
            eager_rereplications=counters.get("eager_rereplications", 0),
            op_retries=counters.get("op_retries", 0),
            op_failed_over=counters.get("op_failed_over", 0),
            op_backoff_delay_total=counters.get("op_backoff_delay_total", 0),
            ops_timed_out=counters.get("ops_timed_out", 0),
            ops_failed=counters.get("ops_failed", 0),
            peer_rescinds=counters.get("peer_rescinds", 0),
        )
    return summary


def repair_summary(
    kernel: "Kernel", trace: "Trace | None" = None
) -> dict[str, Any]:
    """Anti-entropy repair accounting (X7 quantities).

    Summarises the :class:`~repro.repair.repair.RepairService`
    counters: gossip rounds started / found clean / found diverged /
    aborted (peer crashed mid-round), digests exchanged and their
    byte volume, repairs broken down by kind (update replays, mirror
    refreshes and drops, leaf returns, structural rejoins), and
    ``time_to_convergence`` -- the virtual-time gap between the last
    observed divergence and quiescence (0.0 when nothing ever
    diverged).  Returns ``{"enabled": False}`` when the subsystem is
    not installed, so callers can embed it unconditionally.
    """
    service = kernel.repair_service
    if service is None:
        return {"enabled": False}
    counters = service.counters
    mirrors = service.engine.mirrors
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
        "fanout": service.plan.fanout,
        "buckets": service.plan.buckets,
        "rounds_started": counters.get("rounds_started", 0),
        "rounds_clean": counters.get("rounds_clean", 0),
        "rounds_diverged": counters.get("rounds_diverged", 0),
        "rounds_aborted": counters.get("rounds_aborted", 0),
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
            max(0.0, kernel.now - last_dirty) if last_dirty > 0.0 else 0.0
        ),
    }


def permutation_summary(kernel: "Kernel") -> dict[str, Any]:
    """Schedule-permuter accounting (permutation-replay checker).

    Summarises the :class:`~repro.sim.permute.SchedulePermuter`
    counters -- swappable arrivals considered, holds executed, swaps
    performed, order-preserving flushes, deadline releases -- plus
    the plan parameters and the seed ledger, so a diverging permuted
    run is replayable from the report alone.  Returns
    ``{"enabled": False}`` when no permuter is installed.
    """
    permuter = kernel.permuter
    if permuter is None:
        return {"enabled": False}
    return {
        "enabled": True,
        **permuter.snapshot(),
        "seeds": kernel.seeds.snapshot(),
    }


def detector_summary(kernel: "Kernel") -> dict[str, Any]:
    """Failure-detector accounting (X9 quantities).

    Summarises the
    :class:`~repro.sim.detector.FailureDetectorService` counters:
    heartbeats sent/received, suspicions raised and rescinded, how
    many suspicions were *false* (the suspected processor was alive
    at the oracle), and the mean detection latency for real crashes.
    Returns ``{"enabled": False}`` when no detector is installed, so
    callers can embed it unconditionally.
    """
    if kernel.detector is None:
        return {"enabled": False}
    return kernel.detector.summary()


def partition_summary(kernel: "Kernel") -> dict[str, Any]:
    """Partition fault-layer accounting (X9 quantities).

    Summarises the
    :class:`~repro.sim.partition.PartitionController` counters --
    cuts applied and healed, gray (latency-inflation) windows, links
    still open at quiescence -- plus the network-level count of
    messages a cut swallowed.  Returns ``{"enabled": False}`` when no
    partition layer is installed.
    """
    if kernel.partition_controller is None:
        return {"enabled": False}
    summary = kernel.partition_controller.summary()
    summary["messages_blocked"] = kernel.network.stats.partition_blocked
    return summary


def shard_summary(sharded: "ShardedCluster") -> dict[str, Any]:
    """Shard-layer accounting (X10 quantities).

    Directory shape (live/retired shards, version), per-shard entry
    counts in range order, reconfiguration work (splits, merges, keys
    migrated), and router behaviour: direct routes vs stale routes
    recovered through shed hints and forward pointers, and how many
    view refreshes the recoveries triggered.
    """
    live = sharded.directory.live_shards()
    counters = sharded.counters
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
        "direct_routes": counters["shard_direct_routes"],
        "stale_routes": counters["shard_stale_routes"],
        "hint_hops": counters["shard_hint_hops"],
        "forwards": counters["shard_forwards"],
        "refreshes": counters["directory_refreshes"],
        "scan_fanout": counters["scan_fanout"],
        "migration_failures": counters["migration_failures"],
    }


#: Configuration a summary echoes: taken once, and it must agree
#: across a forest's trees (every shard is built from the same plans).
_PLAN_KEYS = frozenset(
    {"enabled", "mode", "period", "fanout", "buckets", "placement"}
)
#: Means and ratios.  Adding them is meaningless and their
#: denominators are not in the summaries, so a forest reports one
#: value per tree, in shard order.
_MEAN_KEYS = frozenset(
    {
        "mean_downtime",
        "mean_detection",
        "mean_recovery",
        "mean_detection_latency",
        "amplification",
        "time_to_convergence",
    }
)
#: The opt-in layers and how each is summarised from one tree.
_LAYER_SUMMARIES = {
    "reliability": lambda tree: reliability_summary(tree.kernel),
    "crash": lambda tree: availability_summary(tree.kernel, tree.trace),
    "partition": lambda tree: partition_summary(tree.kernel),
    "detector": lambda tree: detector_summary(tree.kernel),
    "repair": lambda tree: repair_summary(tree.kernel, tree.trace),
}


def _merge_summaries(summaries: list[dict[str, Any]]) -> dict[str, Any]:
    """One summary for a forest: counters summed, nothing else."""
    first = summaries[0]
    if len(summaries) == 1:
        return first
    merged: dict[str, Any] = {}
    for key, value in first.items():
        column = [summary[key] for summary in summaries]
        if key in _PLAN_KEYS:
            if any(other != value for other in column):
                raise ValueError(f"trees disagree on {key!r}: {column}")
            merged[key] = value
        elif key in _MEAN_KEYS:
            merged[key] = tuple(column)
        elif isinstance(value, dict):
            merged[key] = _merge_summaries(column)
        else:
            merged[key] = sum(column)
    return merged


def layer_report(cluster: Any) -> dict[str, dict[str, Any]]:
    """Every opt-in layer's summary, for one tree or a whole forest.

    For a :class:`~repro.core.client.DBTreeCluster` each entry is the
    layer's ``*_summary`` unchanged.  For a
    :class:`~repro.shard.cluster.ShardedCluster` each entry is merged
    over the shard trees (retired shards' trees included: their work
    was done) -- counters summed, plan values taken once, means kept
    one per tree -- and ``"sharding"`` holds :func:`shard_summary`.
    Every entry answers ``["enabled"]``.
    """
    forest = getattr(cluster, "clusters", None)
    trees = [cluster] if forest is None else [forest[s] for s in sorted(forest)]
    report = {
        name: _merge_summaries([summarise(tree) for tree in trees])
        for name, summarise in _LAYER_SUMMARIES.items()
    }
    if forest is not None:
        report["sharding"] = shard_summary(cluster)
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
    completed = sum(
        1 for op in trace.operations.values() if op.completed_at is not None
    )
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
