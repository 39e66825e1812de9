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
A fifth, ``read``, is the read path: the ``variable`` tree is
preloaded with inserts, then a closed loop of mostly searches (the
rest fresh inserts) is measured, and the same quantities are pinned
for that loop alone (the virtual time at the end includes the preload).
What each layer costs on top is ``bench/``'s ledger, not this
module's.

Beside the rows sits the opcode ledger (:func:`count_opcodes`): the
Python opcodes a 2,000-op slice of every row executes, in total and per
``repro`` subpackage, under the interpreter named beside them.  It is
the host cost with the noise taken out.
"""

from __future__ import annotations

import json
import time
from typing import Any

from repro.core.client import DBTreeCluster
from repro.sim.crash import CrashPlan
from repro.sim.failure import FaultPlan
from repro.workloads.driver import ClosedLoopDriver, Workload

#: Share of the read mix's measured operations that are searches; the
#: rest insert fresh keys (``bench/workloads.ReadHot`` has the same).
READ_SEARCH_SHARE = 0.95

#: The fault-free burst's rows under each protocol but ``fast``'s semisync.
PROTOCOL_ROWS = ("sync", "variable", "mobile")
#: Operations in the opcode ledger's slice of each row (fewer when the
#: whole burst is shorter), and the rows it counts.
OPCODE_OPS = 2_000
OPCODE_ROWS = ("fast", "enforced", "repair", "crash", "read", *PROTOCOL_ROWS)


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


def read_mix_workloads(
    num_ops: int,
    num_processors: int,
    preload: int,
    seed: int = 0,
) -> tuple[Workload, Workload]:
    """A preload of ``preload`` distinct-key inserts, then ``num_ops``
    operations: a search of a preloaded key with probability
    :data:`READ_SEARCH_SHARE`, otherwise an insert of a key not used yet."""
    import random

    rng = random.Random(seed)
    keys = list(range(preload + num_ops))
    rng.shuffle(keys)
    loaded = keys[:preload]
    fresh = iter(keys[preload:])
    operations = []
    for _ in range(num_ops):
        if rng.random() < READ_SEARCH_SHARE:
            operations.append(("search", rng.choice(loaded), None))
        else:
            key = next(fresh)
            operations.append(("insert", key, key))
    clients = tuple(range(num_processors))
    return (
        Workload(operations=tuple(("insert", key, key) for key in loaded), clients=clients),
        Workload(operations=tuple(operations), clients=clients),
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
    preload: int = 0,
) -> dict[str, Any]:
    """Run the standard insert-burst once; return its measurements.

    ``drop_p`` > 0 loses that share of physical frames and turns the
    reliable-delivery layer on to make up for it.  ``repair_period``
    turns anti-entropy on at that gossip period, over a crash-capable
    cluster in which every leaf has one mirror: without mirrors a
    pair's view holds replicated copies only.  ``crash_schedule`` (a
    :class:`CrashPlan` timetable, ``(pid, crash_at, restart_at)`` rows)
    builds the same crash-capable cluster with processors that do go
    down; ``op_timeout`` arms per-operation timers.  ``preload`` > 0
    makes it the read mix (:func:`read_mix_workloads`): the preload
    runs first, and every count, the leaf cache's included, is of the
    ``num_ops`` that follow; ``final_virtual_time`` is the clock at the
    end, so it includes the preload.
    """
    config = {
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
        "preload": preload,
    }
    cluster, warm_up, measured = _burst(num_ops, config)
    kernel = cluster.kernel
    stats = kernel.network.stats
    processors = [proc.stats for proc in kernel.processors.values()]

    def tally() -> tuple[int, int, int, int, int, list[float]]:
        return (
            kernel.events.executed,
            stats.sent,
            stats.physical_sent,
            stats.piggybacked,
            sum(proc.actions_executed for proc in processors),
            [proc.busy_time for proc in processors],
        )

    # Counts start from nothing, or from the end of the preload.
    before = (0, 0, 0, 0, 0, [0.0] * len(processors))
    cache_before: dict[str, Any] = {}
    if warm_up is not None:
        warm_up.run()
        before = tally()
        cache_before = cluster.engine.leaf_cache_stats()
    completions = 0

    def _count(_op: Any, _result: Any) -> None:
        nonlocal completions
        completions += 1

    cluster.engine.op_completion_listeners.append(_count)
    started = time.perf_counter()
    measured.run()
    wall = time.perf_counter() - started

    after = tally()
    events, sent, physical, piggybacked, actions = (
        end - start for end, start in zip(after[:5], before[:5])
    )
    busy = [end - start for end, start in zip(after[5], before[5])]
    cache = cluster.engine.leaf_cache_stats()
    for key in ("hits", "misses", "stale_recoveries", "shortcuts"):
        cache[key] -= cache_before.get(key, 0)
    consults = cache["hits"] + cache["misses"]
    cache["hit_rate"] = cache["hits"] / consults if consults else 0.0
    repair = cluster.repair_summary()
    gossip = {
        key: repair[key]
        for key in ("rounds_started", "rounds_diverged", "digest_bytes")
        if key in repair
    }
    return {
        "config": config,
        "ops_completed": completions,
        "events_executed": events,
        "messages_sent": sent,
        "wall_seconds": wall,
        "ops_per_sec": completions / wall if wall > 0 else 0.0,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "events_per_op": events / completions if completions else 0.0,
        "msgs_per_op": sent / completions if completions else 0.0,
        "frames_per_op": physical / completions if completions else 0.0,
        "piggybacked_per_op": piggybacked / completions if completions else 0.0,
        "actions_per_op": actions / completions if completions else 0.0,
        "busy_spread": max(busy) * len(busy) / sum(busy) if sum(busy) else 0.0,
        "cache": cache,
        "final_virtual_time": cluster.now,
        **gossip,
    }


def _burst(
    num_ops: int, config: dict[str, Any]
) -> tuple[DBTreeCluster, ClosedLoopDriver | None, ClosedLoopDriver]:
    """The cluster a :func:`run_insert_burst` configuration names, with
    the driver of its preload (None without one) and of the measured
    loop; neither has run."""
    layers: dict[str, Any] = {}
    if config["drop_p"] > 0:
        layers.update(fault_plan=FaultPlan(drop_p=config["drop_p"]), reliability="enforced")
    crash_schedule = config["crash_schedule"]
    if config["repair_period"] is not None or crash_schedule is not None:
        schedule = tuple(tuple(row) for row in crash_schedule or ())
        layers.update(crash_plan=CrashPlan(schedule=schedule), replication_factor=2)
    if config["repair_period"] is not None:
        layers.update(repair_period=config["repair_period"])
    if config["op_timeout"] is not None:
        layers.update(op_timeout=config["op_timeout"])
    cluster = DBTreeCluster(
        num_processors=config["num_processors"],
        protocol=config["protocol"],
        capacity=config["capacity"],
        seed=config["seed"],
        trace_level=config["trace_level"],
        accounting=config["accounting"],
        leaf_cache=config["leaf_cache"],
        **layers,
    )
    depth = config["depth"]
    warm_up = None
    if config["preload"] > 0:
        preload, workload = read_mix_workloads(
            num_ops, config["num_processors"], config["preload"], seed=config["seed"]
        )
        warm_up = ClosedLoopDriver(cluster, preload, depth=depth)
    else:
        workload = insert_burst_workload(
            num_ops, config["num_processors"], seed=config["seed"]
        )
    return cluster, warm_up, ClosedLoopDriver(cluster, workload, depth=depth)


def _module_bucket(module: str | None) -> str:
    """The ``repro`` subpackage (or top-level module) ``module`` is in;
    ``"other"`` for the standard library and generated code."""
    if module and module.startswith("repro."):
        return module.split(".")[1]
    return "other"


def count_opcodes(num_ops: int, config: dict[str, Any]) -> dict[str, Any]:
    """Python opcodes the measured loop of a burst executes, by subpackage.

    ``sys.settrace`` with ``f_trace_opcodes`` counts every bytecode
    instruction a Python frame runs; C code (``heapq``, dict and set
    operations, blake2b) is the one opcode that calls it.  The count is
    a pure function of the code, the seed and the interpreter, so it
    resolves host-cost changes far below wall-clock noise.  The same
    burst runs once untraced first, so that no lazy import or first-call
    cache falls inside the count; the preload, when there is one, is not
    counted.  Returns ``ops``, ``total``, ``per_op`` and ``by_subpackage``
    (``core``, ``sim``, ``protocols``, ... and ``other``).
    """
    import gc
    import sys

    warm_up, measured = _burst(num_ops, config)[1:]
    for driver in (warm_up, measured):
        if driver is not None:
            driver.run()
    warm_up, measured = _burst(num_ops, config)[1:]
    if warm_up is not None:
        warm_up.run()

    tallies: dict[str, list[int]] = {}
    tracers: dict[Any, Any] = {}

    def tracer_for(bucket: str) -> Any:
        tally = tallies.setdefault(bucket, [0])

        def on_event(frame: Any, event: str, arg: Any) -> Any:
            if event == "opcode":
                tally[0] += 1
            return on_event

        return on_event

    def on_call(frame: Any, event: str, arg: Any) -> Any:
        code = frame.f_code
        tracer = tracers.get(code)
        if tracer is None:
            bucket = _module_bucket(frame.f_globals.get("__name__"))
            tracer = tracers[code] = tracer_for(bucket)
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return tracer

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        measured.run()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    by_subpackage = {bucket: tallies[bucket][0] for bucket in sorted(tallies)}
    total = sum(by_subpackage.values())
    return {
        "ops": num_ops,
        "total": total,
        "per_op": total / num_ops,
        "by_subpackage": by_subpackage,
    }


def python_version() -> str:
    """The interpreter an opcode count belongs to (``"CPython 3.11.7"``):
    bytecode differs between versions, so a count compares only with
    one taken under the same one."""
    import platform

    return f"{platform.python_implementation()} {platform.python_version()}"


def opcode_ledger(report: dict[str, Any], num_ops: int) -> dict[str, Any]:
    """:func:`count_opcodes` for a slice of ``num_ops`` of each of the
    :data:`OPCODE_ROWS` of ``report`` (the read row's preload scaled with
    it), with the interpreter they were counted under."""
    ledger: dict[str, Any] = {"python": python_version()}
    for row in OPCODE_ROWS:
        config = dict(report[row]["config"])
        if config["preload"] > 0:
            scale = num_ops / report[row]["ops_completed"]
            config["preload"] = max(int(config["preload"] * scale), 1)
        ledger[row] = {"config": config, **count_opcodes(num_ops, config)}
    return ledger


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
    operations meet a dead home.  The ``read`` row preloads a tenth
    of the ops under ``variable`` and then measures a quarter, 95 %
    (:data:`READ_SEARCH_SHARE`) of them searches.  The ``sync``,
    ``variable`` and ``mobile`` rows run a tenth of the ``fast`` burst
    under those protocols, fault-free: the per-protocol costs.  The
    ``opcodes`` block is :func:`opcode_ledger` over a slice of at most
    :data:`OPCODE_OPS` operations of every row.
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
        "read": run_insert_burst(
            max(num_ops // 4, 1),
            seed=seed,
            protocol="variable",
            preload=max(num_ops // 10, 1),
        ),
        **{
            protocol: run_insert_burst(
                max(num_ops // 10, 1), seed=seed, protocol=protocol
            )
            for protocol in PROTOCOL_ROWS
        },
    }
    report["opcodes"] = opcode_ledger(report, max(min(num_ops // 4, OPCODE_OPS), 1))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
