"""The simulation kernel: processors + network + event queue.

:class:`Kernel` is the substrate every protocol runs on.  It owns the
virtual clock, the reliable FIFO network, and the set of processors,
and exposes the one routing primitive the paper's model needs: *route
an action to the processor that stores the target copy* -- locally by
enqueueing, remotely by a network message (Section 1.1).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable

from repro.sim.crash import CrashController, CrashPlan
from repro.sim.detector import FailureDetectorService
from repro.sim.events import EventQueue
from repro.sim.events import QuiescenceError  # noqa: F401 (re-exported)
from repro.sim.failure import FaultPlan
from repro.sim.layer import Layer
from repro.sim.network import LatencyModel, Network, UniformLatency
from repro.sim.partition import PartitionController, PartitionPlan
from repro.sim.permute import PermutePlan, SchedulePermuter
from repro.sim.processor import Processor
from repro.sim.reliable import ReliabilityConfig
from repro.sim.rngs import SeedLedger

#: The registered layer plan types, in the order the kernel installs
#: them whatever order the caller passed them in: seed registrations
#: and time-0 events keep one order.  A new layer is one plan class
#: (:class:`~repro.sim.layer.Layer`) appended here.
LAYERS: tuple[type[Layer], ...] = (
    FaultPlan,
    ReliabilityConfig,
    PermutePlan,
    CrashPlan,
    PartitionPlan,
)

#: The incompatible layer pairs, each with its reason stated once.
#: This table is the only place a pair is refused, and the kernel,
#: which installs every layer, the only place it is consulted.
INCOMPATIBLE_LAYERS: tuple[tuple[type[Layer], type[Layer], str], ...] = (
    (
        PermutePlan,
        FaultPlan,
        "a fault verdict would confound which swaps caused a divergence",
    ),
    (
        PermutePlan,
        CrashPlan,
        "dead-letter verdicts make permuted schedules incomparable",
    ),
    (
        PermutePlan,
        ReliabilityConfig,
        "the reliable transport owns ordering in enforced mode",
    ),
    (
        PermutePlan,
        PartitionPlan,
        "a blocked link would confound which swaps caused a divergence",
    ),
)


def check_layers(kinds: Iterable[type]) -> None:
    """Raise ``ValueError`` if two of the plan types ``kinds`` refuse to
    compose; the message names both and gives the reason from
    :data:`INCOMPATIBLE_LAYERS`."""
    present = set(kinds)
    for first, second, reason in INCOMPATIBLE_LAYERS:
        if first in present and second in present:
            raise ValueError(
                f"{first.__name__} is incompatible with {second.__name__}: {reason}"
            )


class Kernel:
    """Wires processors, network, and clock into one simulation.

    Parameters
    ----------
    num_processors:
        Size of the cluster; processors are identified 0..n-1.
    latency_model:
        Transit-time strategy for remote messages (default: uniform
        10 time units -- remote hops cost 10x an action's service).
    seed:
        Seed for all randomness (latency jitter, fault injection).
    accounting:
        Statistics verbosity for the network: ``"full"`` (default)
        keeps the per-kind Counter, ``"aggregate"`` keeps only scalar
        totals.  Perf runs use aggregate.
    layers:
        Plans of the opt-in layers (:data:`LAYERS`), at most one of
        each type; none gives the paper's machine, whose fast path no
        layer touches.  Each plan validates itself against the
        kernel, and then each is installed, in registry order.
        :attr:`layers` holds them.

    Every layer composes with every other except the pairs
    :func:`check_layers` refuses, which raise ``ValueError`` here.
    """

    #: Default guard on run length; large enough for every experiment
    #: in the repository, small enough to catch livelocks quickly.
    DEFAULT_MAX_EVENTS = 50_000_000

    def __init__(
        self,
        num_processors: int,
        latency_model: LatencyModel | None = None,
        seed: int = 0,
        accounting: str = "full",
        layers: Iterable[Layer] = (),
    ) -> None:
        if num_processors < 1:
            raise ValueError("need at least one processor")
        plans: dict[type, Layer] = {}
        for plan in layers:
            kind = type(plan)
            if kind not in LAYERS:
                raise TypeError(f"{kind.__name__} is not a layer plan")
            if kind in plans:
                raise ValueError(f"two {kind.__name__} layers")
            plans[kind] = plan
        check_layers(plans)
        #: Every installed layer's plan by type, in registry order.
        self.layers: dict[type, Layer] = {
            kind: plans[kind] for kind in LAYERS if kind in plans
        }
        self.events = EventQueue()
        self.rng = random.Random(seed)
        self.seed = seed
        #: Record of every seeded stream this run uses.  The legacy
        #: integer offsets (network = seed + 1, gossip = seed + 3) are
        #: kept byte-identical for the pinned traces, but each is
        #: registered here so no stream is ever seeded silently; new
        #: streams use :func:`~repro.sim.rngs.derive_seed` names
        #: instead of collision-prone offsets.
        self.seeds = SeedLedger(root=seed)
        self.seeds.register("root", seed)
        self.latency_model = latency_model or UniformLatency()
        self.network = Network(
            self.events,
            latency_model=self.latency_model,
            rng=random.Random(self.seeds.register("network", seed + 1)),
            accounting=accounting,
        )
        self.processors: dict[int, Processor] = {
            pid: Processor(pid, self.events)
            for pid in range(num_processors)
        }
        #: The processor whose action is running, while it holds its
        #: sends (:meth:`Processor.hold_sends`); None otherwise.
        self.acting: Processor | None = None
        for proc in self.processors.values():
            proc.hold_sends(self)
        # Sorted once: the set of processors is fixed for a kernel's
        # life, and ``pids`` is read on every mirror-placement lookup.
        self._pids = sorted(self.processors)
        # A landed message goes straight to its processor's submit.
        self.network.install_delivery(
            {pid: proc.submit for pid, proc in self.processors.items()}
        )
        #: What the layers install; None while their plan is absent,
        #: so the fast path never pays for them.
        self.permuter: SchedulePermuter | None = None
        self.crash_controller: CrashController | None = None
        self.partition_controller: PartitionController | None = None
        #: The failure detector, the one source of suspicion; the crash
        #: plan installs it with the controller, so it is None exactly
        #: when there is no crash controller.
        self.detector: FailureDetectorService | None = None
        for plan in self.layers.values():
            plan.validate(self)
        for plan in self.layers.values():
            plan.install(self)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.events.now

    @property
    def pids(self) -> list[int]:
        """All processor ids, ascending (a shared list: do not mutate)."""
        return self._pids

    def layer_summary(self, kind: type[Layer], trace: Any = None) -> dict[str, Any]:
        """The :meth:`~repro.sim.layer.Layer.summary` of this kernel's
        ``kind`` plan, or ``{"enabled": False}`` when it has none;
        ``trace`` is the engine's, when there is one."""
        plan = self.layers.get(kind)
        return {"enabled": False} if plan is None else plan.summary(self, trace)

    def processor(self, pid: int) -> Processor:
        """The processor with id ``pid`` (KeyError if absent)."""
        return self.processors[pid]

    def install_handler(self, handler: Callable[[Processor, Any], None]) -> None:
        """Install the same action handler on every processor."""
        for proc in self.processors.values():
            proc.install_handler(handler)

    def route(self, src_pid: int, dst_pid: int, action: Any) -> None:
        """Deliver ``action`` to ``dst_pid``: locally or via network.

        This is the paper's queue-manager dispatch: a subsequent
        action on a locally stored node enters the local queue for
        free; a remote one costs a network message.  A remote send
        made by the acting processor waits until its action ends, so
        everything the action sends to one processor shares one
        message (:meth:`Processor.hold`); any other send leaves at
        once, as does every send under a kind-restricted fault plan.
        """
        if src_pid == dst_pid:
            self.processors[dst_pid].submit(action)
            return
        acting = self.acting
        if acting is not None and acting.pid == src_pid:
            acting.hold(dst_pid, action)
        else:
            self.network.send(src_pid, dst_pid, action)

    def run_to_quiescence(self, max_events: int | None = None) -> int:
        """Run until no events remain; return the number executed.

        Raises :class:`QuiescenceError` when the budget is exceeded,
        which in practice means a protocol is ping-ponging messages;
        any other error a handler raises surfaces as itself.
        """
        budget = max_events if max_events is not None else self.DEFAULT_MAX_EVENTS
        return self.events.run(max_events=budget)

    def run_until(self, deadline: float) -> int:
        """Run events up to virtual time ``deadline``."""
        return self.events.run_until(deadline)

    def utilization(self) -> dict[int, float]:
        """Fraction of elapsed virtual time each processor was busy."""
        elapsed = self.events.now
        if elapsed <= 0:
            return {pid: 0.0 for pid in self.processors}
        return {
            pid: proc.stats.busy_time / elapsed
            for pid, proc in self.processors.items()
        }
