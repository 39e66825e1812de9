"""Throughput measurement harness: the standard insert-burst.

The *standard insert-burst* is a closed-loop insert stream: every
client processor keeps a fixed number of inserts outstanding and
submits its next the moment one completes.  Closed-loop is the
correct sustained-throughput shape -- submitting a million inserts at
t=0 measures queueing pathology (every queued insert chases the
splitting leaves rightward), not the structure.

The measured configuration is ``fast`` -- trace off, aggregate
accounting, leaf cache on: what a million-op capacity study would
use.  Its events/op, msgs/op and piggybacked/op (the messages that
rode on another's, :class:`~repro.sim.network.Bundle`) are pure
functions of the code and the seed; so are actions/op and
``busy_spread``, the busiest processor's busy time over the mean (1.0
when the work is even: under a closed loop the busiest processor sets
the pace).  ``benchmarks/perf_guard.py`` pins them all exactly.  A second,
shorter row, ``enforced``, runs the same burst over a substrate that
loses one frame in ten with the reliable-delivery layer on, and pins
events/op, physical frames/op and the virtual time at the end the
same way, so that a change to the transport's timers or acks shows in
CI.  A third, ``repair``, runs the burst under ``variable`` with
anti-entropy gossiping throughout (an inert crash plan and two copies
of every leaf, so the rounds have mirror rows to compare) and pins the
gossip schedule -- rounds started, digest bytes -- beside the same four
quantities.  A fourth, ``crash``, runs the ``variable`` burst with op
timers and takes one client's home down for 800 vt mid-run, and pins
the same four quantities: the crash-and-timers path of the engine.
What each layer costs on top is ``bench/``'s ledger, not this
module's.
"""

from __future__ import annotations

import json
import time
from typing import Any

from repro.core.client import DBTreeCluster
from repro.sim.crash import CrashPlan
from repro.sim.failure import FaultPlan
from repro.workloads.driver import ClosedLoopDriver, Workload


def insert_burst_workload(
    num_ops: int, num_processors: int, seed: int = 0
) -> Workload:
    """Distinct-key insert stream spread round-robin over all clients."""
    import random

    rng = random.Random(seed)
    keys = list(range(num_ops))
    rng.shuffle(keys)
    return Workload(
        operations=tuple(("insert", key, key) for key in keys),
        clients=tuple(range(num_processors)),
    )


def run_insert_burst(
    num_ops: int,
    *,
    num_processors: int = 4,
    capacity: int = 8,
    depth: int = 4,
    seed: int = 0,
    protocol: str = "semisync",
    trace_level: str = "off",
    accounting: str = "aggregate",
    leaf_cache: bool = True,
    drop_p: float = 0.0,
    repair_period: float | None = None,
    crash_schedule: list | None = None,
    op_timeout: float | None = None,
) -> dict[str, Any]:
    """Run the standard insert-burst once; return its measurements.

    ``drop_p`` > 0 loses that share of physical frames and turns the
    reliable-delivery layer on to make up for it.  ``repair_period``
    turns anti-entropy on at that gossip period, over a crash-capable
    cluster in which every leaf has one mirror: without mirrors a
    pair's view holds replicated copies only.  ``crash_schedule`` (a
    :class:`CrashPlan` timetable, ``(pid, crash_at, restart_at)`` rows)
    builds the same crash-capable cluster with processors that do go
    down; ``op_timeout`` arms per-operation timers.
    """
    layers: dict[str, Any] = {}
    if drop_p > 0:
        layers.update(fault_plan=FaultPlan(drop_p=drop_p), reliability="enforced")
    if repair_period is not None or crash_schedule is not None:
        schedule = tuple(tuple(row) for row in crash_schedule or ())
        layers.update(crash_plan=CrashPlan(schedule=schedule), replication_factor=2)
    if repair_period is not None:
        layers.update(repair_period=repair_period)
    if op_timeout is not None:
        layers.update(op_timeout=op_timeout)
    cluster = DBTreeCluster(
        num_processors=num_processors,
        protocol=protocol,
        capacity=capacity,
        seed=seed,
        trace_level=trace_level,
        accounting=accounting,
        leaf_cache=leaf_cache,
        **layers,
    )
    workload = insert_burst_workload(num_ops, num_processors, seed=seed)
    completions = 0

    def _count(_op: Any, _result: Any) -> None:
        nonlocal completions
        completions += 1

    cluster.engine.op_completion_listeners.append(_count)
    driver = ClosedLoopDriver(cluster, workload, depth=depth)
    started = time.perf_counter()
    driver.run()
    wall = time.perf_counter() - started

    events = cluster.kernel.events.executed
    processors = [proc.stats for proc in cluster.kernel.processors.values()]
    busy = [proc.busy_time for proc in processors]
    actions = sum(proc.actions_executed for proc in processors)
    stats = cluster.kernel.network.stats
    sent = stats.sent
    cache = cluster.engine.leaf_cache_stats()
    repair = cluster.repair_summary()
    gossip = {
        key: repair[key] for key in ("rounds_started", "digest_bytes") if key in repair
    }
    return {
        "config": {
            "protocol": protocol,
            "num_processors": num_processors,
            "capacity": capacity,
            "depth": depth,
            "seed": seed,
            "trace_level": trace_level,
            "accounting": accounting,
            "leaf_cache": leaf_cache,
            "drop_p": drop_p,
            "repair_period": repair_period,
            "crash_schedule": crash_schedule,
            "op_timeout": op_timeout,
        },
        "ops_completed": completions,
        "events_executed": events,
        "messages_sent": sent,
        "wall_seconds": wall,
        "ops_per_sec": completions / wall if wall > 0 else 0.0,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "events_per_op": events / completions if completions else 0.0,
        "msgs_per_op": sent / completions if completions else 0.0,
        "frames_per_op": stats.physical_sent / completions if completions else 0.0,
        "piggybacked_per_op": (
            stats.piggybacked / completions if completions else 0.0
        ),
        "actions_per_op": actions / completions if completions else 0.0,
        "busy_spread": max(busy) * len(busy) / sum(busy) if sum(busy) else 0.0,
        "cache": cache,
        "final_virtual_time": cluster.now,
        **gossip,
    }


def write_bench_core(
    path: str, num_ops: int = 100_000, seed: int = 0
) -> dict[str, Any]:
    """Run the burst and write the ``BENCH_core.json`` payload.

    The ``enforced`` row runs a fifth of the ops: it is there for its
    counts and its ``final_virtual_time`` (every hole an ack reports
    is resent at once, so no channel falls behind at 10 % loss and the
    burst ends about as soon as its losses allow), not as a second
    wall-clock throughput.  The ``repair`` row runs a tenth, for its
    counts and its gossip schedule.  The ``crash`` row runs a tenth
    under ``variable`` with two copies of every leaf and op timers, and
    takes client 1's home down for 800 vt a little past halfway (the
    burst completes about one insert per 2.8 vt): the one row whose
    operations meet a dead home.
    """
    crash_ops = max(num_ops // 10, 1)
    crash_at = 1.5 * crash_ops
    report = {
        "benchmark": "standard-insert-burst (closed loop)",
        "ops": num_ops,
        "fast": run_insert_burst(num_ops, seed=seed),
        "enforced": run_insert_burst(max(num_ops // 5, 1), seed=seed, drop_p=0.1),
        "repair": run_insert_burst(
            max(num_ops // 10, 1), seed=seed, protocol="variable", repair_period=150
        ),
        "crash": run_insert_burst(
            crash_ops,
            seed=seed,
            protocol="variable",
            crash_schedule=[[1, crash_at, crash_at + 800.0]],
            op_timeout=3000.0,
        ),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
