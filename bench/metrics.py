"""The metric catalogue: every name the benchmark prints, once.

``BENCHMARK.json`` repeats the names, units, directions and bounds
(``bench/test_bench.py`` checks the two agree); what it has no key for
is kept here and printed in ``bench/README.md``: which end-to-end
metric each per-layer metric is expected to move, and on which
workload.
"""

from __future__ import annotations

from spans import SCHEDULE_LAYERS, SPAN_LAYERS

#: name -> (unit, better, bound).  The bound is the share of the
#: parent's median by which a later change may worsen the metric.
#: Simulated metrics repeat exactly on one seed, so ``compare.py``
#: holds them to equality there; these bounds are what the spread
#: *across* seeds allows (``layers_on`` sets them: see the README).
END_TO_END: dict[str, tuple[str, str, float]] = {
    "ops_per_cal": ("ops/cal", "higher", 0.25),
    "sim_ops_per_kvt": ("ops/kvt", "higher", 0.20),
    "sim_lat_p50": ("vt", "lower", 0.15),
    "sim_lat_p99": ("vt", "lower", 0.25),
    "msgs_per_op": ("msgs/op", "lower", 0.12),
    "wire_per_op": ("frames/op", "lower", 0.12),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

#: Exact counts from the program's public stats.
#: name -> (unit, better, the end-to-end metric it should move and where)
EXACT_LAYER: dict[str, tuple[str, str, str]] = {
    "sim.events.events_per_op": ("events/op", "lower", "ops_per_cal, every workload"),
    "sim.processor.util_mean": ("share", "higher", "sim_ops_per_kvt on insert_burst, read_hot"),
    "sim.processor.util_max": ("share", "lower", "sim_ops_per_kvt on insert_burst, read_hot"),
    "core.leafcache.hit_rate": ("share", "higher", "msgs_per_op, sim_lat_p50 on read_hot"),
    "core.leafcache.stale_per_hit": ("share", "lower", "msgs_per_op, sim_lat_p50 on read_hot"),
    "core.leafcache.shortcuts_per_op": ("1/op", "higher", "msgs_per_op, sim_lat_p50 on read_hot"),
    "core.dbtree.hops_per_op": ("hops/op", "lower", "sim_lat_p50 on sharded_mixed, layers_on"),
    "core.dbtree.op_retries_per_op": ("1/op", "lower", "sim_lat_p99, failed ops on layers_on"),
    "core.dbtree.leaves_rehomed": ("count", "lower", "sim_lat_p99, failed ops on layers_on"),
    "sim.network.delivered_share": ("share", "higher", "wire_per_op, sim_lat_p99 on layers_on"),
    "sim.reliable.retransmits_per_op": ("frames/op", "lower", "wire_per_op, sim_lat_p99 on layers_on"),
    "sim.reliable.acks_per_op": ("frames/op", "lower", "wire_per_op on layers_on"),
    "sim.reliable.resequenced_per_op": ("frames/op", "lower", "sim_lat_p99 on layers_on"),
    "sim.reliable.dup_suppressed_per_op": ("frames/op", "lower", "wire_per_op on layers_on"),
    "sim.crash.dead_letters_per_op": ("msgs/op", "lower", "sim_lat_p99, failed ops on layers_on"),
    "sim.crash.mean_recovery": ("vt", "lower", "sim_lat_p99 on layers_on"),
    "repair.rounds_started": ("count", "lower", "msgs_per_op, ops_per_cal on layers_on"),
    "repair.rounds_diverged": ("count", "lower", "msgs_per_op on layers_on"),
    "repair.digest_bytes_per_op": ("B/op", "lower", "msgs_per_op on layers_on"),
    "repair.repairs_total": ("count", "lower", "msgs_per_op, ops_per_cal on layers_on"),
    "repair.residual_divergence": ("count", "lower", "must be 0: a failed audit otherwise"),
    "shard.stale_route_share": ("share", "lower", "msgs_per_op, ops_per_cal on sharded_mixed"),
    "shard.hint_hops_per_op": ("hops/op", "lower", "ops_per_cal on sharded_mixed"),
    "shard.keys_migrated_per_op": ("keys/op", "lower", "msgs_per_op, ops_per_cal on sharded_mixed"),
    "shard.scan_fanout_mean": ("shards", "lower", "msgs_per_op on sharded_mixed"),
    "shard.splits": ("count", "lower", "msgs_per_op, ops_per_cal on sharded_mixed"),
    "shard.merges": ("count", "lower", "msgs_per_op, ops_per_cal on sharded_mixed"),
}

#: From the traced, profiled and ledger passes.
TRACED_LAYER: dict[str, tuple[str, str, str]] = {
    **{
        f"{layer}.self_share": (
            "share",
            "lower",
            "ops_per_cal, on the workload where this share is largest",
        )
        for layer in SPAN_LAYERS
    },
    **{
        f"{layer}.calls_per_op": (
            "calls/op",
            "lower",
            "ops_per_cal, on the workload where this layer's share is largest",
        )
        for layer in SPAN_LAYERS
    },
    **{
        f"{layer}.events_scheduled_per_op": (
            "events/op",
            "lower",
            "sim.events.events_per_op, hence ops_per_cal",
        )
        for layer in SCHEDULE_LAYERS
    },
    "trace.overhead_ratio": ("ratio", "lower", "none: the cost of this benchmark's own spans"),
    "sim.events.py_calls_per_event": (
        "calls/event",
        "lower",
        "ops_per_cal on insert_burst, read_hot",
    ),
    **{
        f"ledger.{layer}.{ratio}": ("ratio", "lower", "ops_per_cal on layers_on")
        for layer in ("tracing", "reliable", "crash", "repair")
        for ratio in ("events_ratio", "cost_ratio")
    },
}

PER_LAYER: dict[str, tuple[str, str, str]] = {**EXACT_LAYER, **TRACED_LAYER}


def benchmark_json_metrics() -> dict[str, list[dict[str, object]]]:
    """The ``end_to_end`` and ``per_layer`` blocks of BENCHMARK.json."""
    return {
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ],
    }


def repeats_exactly(name: str) -> bool:
    """Whether two runs of one commit on one seed must agree on
    ``name`` to the last digit (a simulated quantity or a call count)
    rather than within noise (anything derived from host time or
    memory)."""
    if name in END_TO_END:
        return name not in ("ops_per_cal", "peak_rss_mb", "setup_s")
    return not name.endswith((".self_share", ".cost_ratio", ".overhead_ratio"))
