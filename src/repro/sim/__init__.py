"""Deterministic discrete-event simulation substrate.

The paper (Johnson & Krishna 1992) assumes a message-passing
multiprocessor with a reliable network that delivers every message
exactly once, in order, per channel.  This package provides exactly
that model:

* :mod:`repro.sim.events` -- the event kernel (virtual clock + queue).
* :mod:`repro.sim.network` -- reliable FIFO channels with a latency
  model and full message accounting.
* :mod:`repro.sim.processor` -- the per-processor *queue manager* and
  *node manager* of the paper's Section 1.1: pending actions queue at
  a processor and are executed one at a time (action atomicity).
* :mod:`repro.sim.simulator` -- the :class:`Kernel` facade wiring the
  above together and running a computation to quiescence; each opt-in
  layer below is a plan (:mod:`repro.sim.layer`) it takes in ``layers``.
* :mod:`repro.sim.failure` -- optional fault injection (drop,
  duplicate, reorder) used by the ablation experiments to show that
  the reliability assumption is load-bearing.
* :mod:`repro.sim.reliable` -- the opt-in reliable-delivery layer
  (sequence numbers, dedup, cumulative acks, retransmission,
  resequencing) that *manufactures* the paper's network assumption
  over a faulty substrate (a :class:`ReliabilityConfig` layer).
* :mod:`repro.sim.crash` -- optional crash-stop failures
  (:class:`~repro.sim.crash.CrashPlan`): scheduled crash + restart
  per processor, the failure detector that announces each crash
  (:mod:`repro.sim.detector`: the oracle, or earned heartbeats), and
  availability accounting, driving the engine's recovery layer.

Everything is deterministic: ties in the event queue break on a
monotone sequence number and all randomness flows through seeds.
"""

from repro.sim.crash import CrashController, CrashPlan
from repro.sim.events import EventHandle, EventQueue
from repro.sim.failure import FaultPlan
from repro.sim.network import (
    LatencyModel,
    LogNormalLatency,
    Network,
    TopologyLatency,
    UniformLatency,
)
from repro.sim.processor import Processor
from repro.sim.reliable import ReliabilityConfig, ReliabilityError, ReliableTransport
from repro.sim.simulator import Kernel, QuiescenceError

__all__ = [
    "CrashController",
    "CrashPlan",
    "ReliabilityConfig",
    "ReliabilityError",
    "ReliableTransport",
    "EventHandle",
    "EventQueue",
    "FaultPlan",
    "LatencyModel",
    "LogNormalLatency",
    "Network",
    "TopologyLatency",
    "UniformLatency",
    "Processor",
    "Kernel",
    "QuiescenceError",
]
