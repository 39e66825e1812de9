"""Measurement and reporting for the experiments.

* :mod:`repro.stats.metrics` -- message accounting, latency and
  throughput summaries, replication profiles, load balance, space
  utilization: the quantities the paper's claims are stated in.
* :mod:`repro.stats.report` -- plain-text table rendering used by the
  benchmark harness to print paper-style rows.
"""

from repro.stats.metrics import (
    latency_summary,
    layer_report,
    load_balance,
    repair_summary,
    replication_profile,
    search_locality,
    shard_summary,
    space_utilization,
    split_message_cost,
    stale_reads,
    throughput,
)
from repro.stats.report import format_table

__all__ = [
    "latency_summary",
    "layer_report",
    "load_balance",
    "repair_summary",
    "replication_profile",
    "search_locality",
    "shard_summary",
    "space_utilization",
    "split_message_cost",
    "stale_reads",
    "throughput",
    "format_table",
]
