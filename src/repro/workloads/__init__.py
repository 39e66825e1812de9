"""Workload generation and driving.

* :mod:`repro.workloads.generators` -- key distributions (uniform,
  zipf-skewed, hotspot, string keys) and operation mixes,
  all conflict-free so a sequential oracle is meaningful.
* :mod:`repro.workloads.driver` -- open-loop (timed arrivals) and
  closed-loop (fixed concurrency per client) drivers.
* :mod:`repro.workloads.balancer` -- the diffusive leaf balancer used
  by the data-balancing experiments (C6).
"""

from repro.workloads.generators import (
    OperationMix,
    hotspot_keys,
    string_keys,
    uniform_keys,
    zipf_keys,
)
from repro.workloads.driver import ClosedLoopDriver, OpenLoopDriver, Workload
from repro.workloads.balancer import DiffusiveBalancer

__all__ = [
    "OperationMix",
    "hotspot_keys",
    "string_keys",
    "uniform_keys",
    "zipf_keys",
    "ClosedLoopDriver",
    "OpenLoopDriver",
    "Workload",
    "DiffusiveBalancer",
]
