"""The simulation kernel: processors + network + event queue.

:class:`Kernel` is the substrate every protocol runs on.  It owns the
virtual clock, the reliable FIFO network, and the set of processors,
and exposes the one routing primitive the paper's model needs: *route
an action to the processor that stores the target copy* -- locally by
enqueueing, remotely by a network message (Section 1.1).
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.sim.crash import CrashController, CrashPlan
from repro.sim.detector import DetectorPlan, FailureDetectorService
from repro.sim.events import EventQueue, QuiescenceError
from repro.sim.failure import FaultPlan
from repro.sim.network import LatencyModel, Network, UniformLatency
from repro.sim.partition import PartitionController, PartitionPlan
from repro.sim.permute import PermutePlan, SchedulePermuter
from repro.sim.processor import Processor
from repro.sim.reliable import ReliabilityConfig
from repro.sim.rngs import SeedLedger


#: The incompatible layer pairs, each with its reason stated once.
#: This table is the only place a pair is refused: the kernel consults
#: it for the layers it assembles, and ``DBTreeCluster`` for the one
#: layer the kernel cannot see (``relay_batch_window``).  Layers are
#: named by the keyword that switches them on (``reliability`` meaning
#: ``reliability="enforced"``).
INCOMPATIBLE_LAYERS: tuple[tuple[str, str, str], ...] = (
    (
        "permute_plan",
        "fault_plan",
        "a fault verdict would confound which swaps caused a divergence",
    ),
    (
        "permute_plan",
        "crash_plan",
        "dead-letter verdicts make permuted schedules incomparable",
    ),
    (
        "permute_plan",
        "reliability",
        "the reliable transport owns ordering in enforced mode",
    ),
    (
        "permute_plan",
        "relay_batch_window",
        "the batcher already reorders relays at the sender",
    ),
    (
        "permute_plan",
        "partition_plan",
        "a blocked link would confound which swaps caused a divergence",
    ),
    (
        "permute_plan",
        "detector_plan",
        "a detector implies a crash-capable cluster, and permuted "
        "schedules are incomparable under crashes",
    ),
    (
        "crash_plan",
        "relay_batch_window",
        "relays parked in the batcher would survive the crash of the "
        "processor that owes them",
    ),
)


def check_layers(**layers: Any) -> None:
    """Raise ``ValueError`` if two of ``layers`` refuse to compose.

    ``layers`` maps a layer's keyword to its plan or setting; ``None``
    means the layer is off.  The message names both layers and gives
    the reason from :data:`INCOMPATIBLE_LAYERS`.
    """
    for first, second, reason in INCOMPATIBLE_LAYERS:
        if layers.get(first) is not None and layers.get(second) is not None:
            raise ValueError(f"{first} is incompatible with {second}: {reason}")


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
    fault_plan:
        Optional fault injection; ``None`` gives the paper's reliable
        exactly-once FIFO network.
    accounting:
        Statistics verbosity for the network and processors: ``"full"``
        (default) keeps per-kind/per-channel Counters, ``"aggregate"``
        keeps only scalar totals.  Perf runs use aggregate.
    reliability:
        ``"assumed"`` (default) trusts the substrate to be the paper's
        reliable exactly-once FIFO network; ``"enforced"`` rebuilds
        that guarantee end-to-end via the reliable-delivery layer
        (:mod:`repro.sim.reliable`) -- required for correctness when a
        ``fault_plan`` drops or reorders messages.
    reliability_config:
        Timeout/backoff/ack tuning for ``"enforced"`` mode.
    crash_plan:
        Optional :class:`~repro.sim.crash.CrashPlan` of crash-stop
        failures.  When present, processors are built crashable, the
        network learns the liveness oracle (dead destinations become
        dead letters), and :attr:`crash_controller` executes the plan
        and collects availability records.  ``None`` (default) keeps
        every hook uninstalled: the fast path is untouched.
    permute_plan:
        Optional :class:`~repro.sim.permute.PermutePlan`.  Installs
        the schedule permuter on the network delivery path: seeded
        swaps of deliveries the commutativity registry claims
        commute, for the permutation-replay checker
        (:mod:`repro.verify.permute`).  ``None`` (default) keeps the
        fast path byte-identical.
    partition_plan:
        Optional :class:`~repro.sim.partition.PartitionPlan` of link
        cuts (full splits, one-way outages) and gray failures
        (latency inflation).  ``None`` (default) keeps the fast path
        byte-identical.
    detector_plan:
        Optional :class:`~repro.sim.detector.DetectorPlan`.  Installs
        per-processor heartbeats and a local failure detector
        (timeout or phi-accrual) that *replaces* the crash
        controller's omniscient ``detection_delay`` announcement:
        suspicion becomes a per-observer, fallible opinion.  Implies
        a (possibly inert) crash controller.  ``None`` (default)
        keeps the oracle semantics.

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
        fault_plan: FaultPlan | None = None,
        accounting: str = "full",
        reliability: str = "assumed",
        reliability_config: ReliabilityConfig | None = None,
        crash_plan: CrashPlan | None = None,
        permute_plan: PermutePlan | None = None,
        partition_plan: PartitionPlan | None = None,
        detector_plan: DetectorPlan | None = None,
    ) -> None:
        if num_processors < 1:
            raise ValueError("need at least one processor")
        check_layers(
            fault_plan=fault_plan,
            crash_plan=crash_plan,
            permute_plan=permute_plan,
            partition_plan=partition_plan,
            detector_plan=detector_plan,
            reliability=None if reliability == "assumed" else reliability,
        )
        if detector_plan is not None and crash_plan is None:
            # The detector drives suspicion *through* the crash
            # controller's machinery (liveness oracle for ground
            # truth, availability records, recovery hooks), so an
            # inert plan is synthesized when none was given -- no
            # crashes will fire, but partitions/gray links can still
            # provoke (false) suspicions worth studying.
            crash_plan = CrashPlan()
        self.events = EventQueue()
        self.rng = random.Random(seed)
        self.seed = seed
        #: Record of every seeded stream this run uses.  The legacy
        #: integer offsets (network = seed + 1, crash = seed + 2,
        #: gossip = seed + 3) are kept byte-identical for the pinned
        #: traces, but each is registered here so no stream is ever
        #: seeded silently; new streams use :func:`~repro.sim.rngs
        #: .derive_seed` names instead of collision-prone offsets.
        self.seeds = SeedLedger(root=seed)
        self.seeds.register("root", seed)
        self.accounting = accounting
        self.network = Network(
            self.events,
            latency_model=latency_model or UniformLatency(),
            rng=random.Random(self.seeds.register("network", seed + 1)),
            fault_plan=fault_plan,
            accounting=accounting,
            reliability=reliability,
            reliability_config=reliability_config,
        )
        #: Schedule permuter (permutation-replay checker); None keeps
        #: the delivery fast path byte-identical.
        self.permuter: SchedulePermuter | None = None
        if permute_plan is not None:
            self.permuter = SchedulePermuter(permute_plan, self.events)
            self.network.install_permuter(self.permuter)
            self.seeds.register("permute", permute_plan.seed)
        crashable = crash_plan is not None
        self.processors: dict[int, Processor] = {
            pid: Processor(
                pid,
                self.events,
                accounting=accounting,
                crashable=crashable,
            )
            for pid in range(num_processors)
        }
        #: The processor whose action is running, while it holds its
        #: sends (:meth:`Processor.hold_sends`); None otherwise.
        self.acting: Processor | None = None
        # A kind-restricted fault plan judges each logical message on
        # its own and in the order sent, so under one nothing is held.
        if not self.network.judges_kinds:
            for proc in self.processors.values():
                proc.hold_sends(self)
        # Sorted once: the set of processors is fixed for a kernel's
        # life, and ``pids`` is read on every mirror-placement lookup.
        self._pids = sorted(self.processors)
        self.network.install_delivery(self._on_delivery)
        #: Callbacks ``handler(src, dst, lost_payloads)`` run when the
        #: reliable transport suspects a dead peer (PeerDown signal).
        self.peer_down_handlers: list[Callable[[int, int, list], None]] = []
        self.crash_plan = crash_plan
        self.crash_controller: CrashController | None = None
        #: Set by :class:`repro.repair.repair.RepairService` when the
        #: anti-entropy subsystem is installed (metrics find it here).
        self.repair_service = None
        if crash_plan is not None:
            controller = CrashController(
                self, crash_plan, random.Random(self.seeds.register("crash", seed + 2))
            )
            self.crash_controller = controller
            self.network.install_liveness(controller.is_alive)
            transport = self.network.transport
            if transport is not None:
                transport.install_peer_down(self._on_peer_down)
            controller.install()
        #: Partition controller; None keeps every link permanently up
        #: and the network fast path byte-identical.
        self.partition_plan = partition_plan
        self.partition_controller: PartitionController | None = None
        if partition_plan is not None:
            partition = PartitionController(
                self.events,
                partition_plan,
                tuple(range(num_processors)),
                random.Random(self.seeds.derive("partition")),
            )
            self.partition_controller = partition
            self.network.install_partition(partition)
            partition.on_heal(self._on_partition_heal)
            partition.install()
        #: Failure detector service; None keeps detection with the
        #: crash controller's detection_delay oracle.
        self.detector_plan = detector_plan
        self.detector: FailureDetectorService | None = None
        if detector_plan is not None:
            self.detector = FailureDetectorService(self, detector_plan)
            # Earned detection replaces the oracle announcement: the
            # only path from a crash (or a partition) to suspicion now
            # runs through heartbeat silence at each observer.
            self.crash_controller.oracle_detection = False
            self.detector.start()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.events.now

    @property
    def pids(self) -> list[int]:
        """All processor ids, ascending (a shared list: do not mutate)."""
        return self._pids

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

    def _on_delivery(self, dst: int, payload: Any) -> None:
        proc = self.processors.get(dst)
        if proc is None:
            raise RuntimeError(f"message delivered to unknown processor {dst}")
        proc.submit(payload)

    def _on_peer_down(self, src: int, dst: int, lost: list) -> None:
        controller = self.crash_controller
        if controller is not None:
            controller.note_suspected(src, dst)
        for handler in self.peer_down_handlers:
            handler(src, dst, lost)

    def _on_partition_heal(self, pairs: tuple[tuple[int, int], ...]) -> None:
        """Connectivity returned on ``pairs``: kick repair awake.

        A healed partition is precisely when divergent mirror sets
        and missed relays become reconcilable; waiting out the gossip
        dormancy window would just delay the inevitable audit.
        """
        service = self.repair_service
        if service is not None:
            service.scheduler.wake_all()

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
