"""Public facade: build and drive a dB-tree cluster.

:class:`DBTreeCluster` is the entry point a library user touches:

>>> from repro import DBTreeCluster
>>> cluster = DBTreeCluster(num_processors=4, protocol="semisync",
...                         capacity=4, seed=7)
>>> for key in range(20):
...     _ = cluster.insert(key, f"value-{key}")
>>> results = cluster.run()
>>> cluster.search_sync(13)
'value-13'
>>> report = cluster.check()
>>> report.ok
True

Operations may be submitted asynchronously (``insert`` / ``search`` /
``delete`` + ``run()``) to exercise real concurrency, or via the
``*_sync`` conveniences that run the simulation to quiescence per
call.  ``check()`` runs the full correctness audit (complete /
compatible / ordered histories plus structural invariants).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterable, Mapping

from repro.core.actions import MigrateNode
from repro.core.dbtree import CrashRecovery, DBTreeEngine, LeafMirrors, OpTimers
from repro.core.keys import Key
from repro.core.replication import ReplicationPolicy
from repro.repair.placement import make_placement
from repro.sim.crash import CrashPlan
from repro.sim.detector import DetectorPlan
from repro.sim.failure import FaultPlan
from repro.sim.network import Bundle, LatencyModel, UniformLatency, message_kind
from repro.sim.partition import PartitionPlan
from repro.sim.permute import PermutePlan
from repro.sim.reliable import ReliabilityConfig, ReliabilityError
from repro.sim.simulator import Kernel, check_layers
from repro.sim.tracing import OperationRecord, Trace


@dataclass
class RunResults:
    """Outcome of running the cluster to quiescence.

    Every submitted operation lands in exactly one partition:
    ``completed`` (produced a return value), ``failed`` (refused
    because its home processor was down or uninitialised and no
    timeout was configured to retry it), ``timed_out`` (exhausted its
    per-operation retry budget), or ``incomplete`` (no verdict --
    normally empty at quiescence unless the run died early).
    """

    events_executed: int
    elapsed: float
    completed: dict[int, Any] = field(default_factory=dict)
    incomplete: tuple[int, ...] = ()
    failed: tuple[int, ...] = ()
    timed_out: tuple[int, ...] = ()
    #: Channel/frame details when the run was cut short by the
    #: reliable-delivery layer exhausting a retransmission budget
    #: (:class:`~repro.sim.reliable.ReliabilityError`); None normally.
    #: ``payload_kind`` names the stuck frame's messages (a bundle's
    #: item kinds joined by ``+``), ``op_id`` the first operation any
    #: of them carries.
    reliability_error: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        """True iff every operation completed and delivery held up."""
        return (
            not self.incomplete
            and not self.failed
            and not self.timed_out
            and self.reliability_error is None
        )

    def result_of(self, op_id: int) -> Any:
        """The completed result of ``op_id``; raises with the
        operation's actual disposition otherwise."""
        try:
            return self.completed[op_id]
        except KeyError:
            pass
        if op_id in self.failed:
            state = "failed (home processor down or uninitialised)"
        elif op_id in self.timed_out:
            state = "timed out (per-operation retry budget exhausted)"
        elif op_id in self.incomplete:
            state = "incomplete (no return value by quiescence)"
        else:
            state = "unknown (never submitted in this run)"
        raise KeyError(f"operation {op_id} has no result: {state}")


class ClientSurface:
    """The client surface every search structure shares, written once.

    A structure supplies two primitives and its client processor ids
    -- ``_submit(kind, key, value, client) -> op id``,
    ``run(max_events=None) -> RunResults`` and ``pids`` -- and
    inherits asynchronous submission, the ``*_sync`` conveniences and
    ``load``.  A structure that does not know an operation kind (a
    hash table has no key order to ``scan``) refuses it in
    ``_submit``.
    """

    def insert(self, key: Key, value: Any = None, client: int = 0) -> int:
        """Submit an insert at the given client processor; returns op id."""
        return self._submit("insert", key, value, client)

    def search(self, key: Key, client: int = 0) -> int:
        """Submit a search; returns op id (result available after run())."""
        return self._submit("search", key, None, client)

    def delete(self, key: Key, client: int = 0) -> int:
        """Submit a delete; returns op id."""
        return self._submit("delete", key, None, client)

    def scan(
        self,
        low: Key,
        high: Key,
        limit: int | None = None,
        client: int = 0,
    ) -> int:
        """Submit a range scan over ``[low, high)``; returns op id.

        The result (after ``run()``) is a tuple of (key, value) pairs
        in key order, truncated to ``limit`` when given.  Scans walk
        the B-link leaf chain and, like any B-link traversal, are not
        atomic with respect to concurrent updates.
        """
        return self._submit("scan", low, (high, limit), client)

    def _await(self, op_id: int) -> Any:
        """Run to quiescence and return the (already submitted) op's result."""
        return self.run().result_of(op_id)

    def insert_sync(self, key: Key, value: Any = None, client: int = 0) -> bool:
        return self._await(self.insert(key, value, client))

    def search_sync(self, key: Key, client: int = 0) -> Any:
        return self._await(self.search(key, client))

    def delete_sync(self, key: Key, client: int = 0) -> bool:
        return self._await(self.delete(key, client))

    def scan_sync(
        self,
        low: Key,
        high: Key,
        limit: int | None = None,
        client: int = 0,
    ) -> tuple:
        return self._await(self.scan(low, high, limit, client))

    def load(
        self,
        items: Mapping[Key, Any] | Iterable[tuple[Key, Any]],
        spread_clients: bool = True,
    ) -> RunResults:
        """Bulk-insert items (spread across client processors) and run."""
        if isinstance(items, Mapping):
            items = items.items()
        pids = self.pids
        for index, (key, value) in enumerate(items):
            client = pids[index % len(pids)] if spread_clients else pids[0]
            self.insert(key, value, client=client)
        return self.run()


class KernelClient(ClientSurface):
    """A structure that is one engine on one kernel (``self.engine``,
    ``self.kernel``): submission, running and message statistics."""

    @property
    def trace(self) -> Trace:
        return self.engine.trace

    @property
    def pids(self) -> list[int]:
        return self.kernel.pids

    @property
    def now(self) -> float:
        return self.kernel.now

    def _submit(self, kind: str, key: Key, value: Any, client: int) -> int:
        return self.engine.submit_operation(kind, key, value, home_pid=client)

    def run(self, max_events: int | None = None) -> RunResults:
        """Run to quiescence; partition every op by its outcome.

        A :class:`~repro.sim.reliable.ReliabilityError` (a channel
        exhausting its retransmission budget under ``"enforced"``
        reliability) is caught at this boundary and reported in
        ``RunResults.reliability_error`` -- the results built from
        whatever completed before the failure -- rather than escaping
        as a traceback from deep inside the event loop.
        """
        reliability_error = None
        try:
            executed = self.kernel.run_to_quiescence(max_events=max_events)
        except ReliabilityError as exc:
            executed = self.kernel.events.executed
            payload = exc.payload
            items = payload.items if type(payload) is Bundle else [payload]
            ops = [item.op for item in items if getattr(item, "op", None) is not None]
            reliability_error = {
                "message": str(exc),
                "src": exc.src,
                "dst": exc.dst,
                "seq": exc.seq,
                "payload_kind": "+".join(message_kind(item) for item in items),
                "op_id": ops[0].op_id if ops else None,
            }
        # Only the dB-tree engine disposes of operations it cannot
        # finish (crashed home, exhausted retry budget).
        verdicts = getattr(self.engine, "op_verdicts", {})
        return RunResults(
            events_executed=executed,
            elapsed=self.kernel.now,
            completed={
                op.op_id: op.result
                for op in self.trace.operations.values()
                if op.completed_at is not None
            },
            incomplete=tuple(
                op.op_id
                for op in self.trace.incomplete_operations()
                if op.op_id not in verdicts
            ),
            failed=tuple(o for o, v in verdicts.items() if v == "failed"),
            timed_out=tuple(o for o, v in verdicts.items() if v == "timed_out"),
            reliability_error=reliability_error,
        )

    def message_stats(self) -> dict[str, Any]:
        return self.kernel.network.stats.snapshot()


class DBTreeCluster(KernelClient):
    """A simulated cluster running one dB-tree.

    Parameters
    ----------
    num_processors:
        Cluster size.
    protocol:
        Protocol name ("sync", "semisync", "naive", "mobile",
        "variable") or a pre-built Protocol instance.
    capacity:
        Maximum entries per node before the primary copy splits.
    replication:
        Replication policy; defaults per protocol (see
        :func:`default_policy_for`).
    latency_model:
        Transit time of a remote message (virtual units), a
        :class:`~repro.sim.network.LatencyModel`.  An action's service
        time is 1 unit, so the default ``UniformLatency()`` (base 10,
        no jitter) makes a remote hop 10x a local action, a typical
        distributed-memory ratio.
    seed:
        Seed for all randomness.
    fault_plan:
        Optional network fault injection (A2 ablation only).
    trace_level:
        ``"full"`` (default) records everything the history checkers
        need; ``"ops"`` keeps operation lifecycle + counters only;
        ``"off"`` keeps counters only.  Non-full levels make
        ``check()`` raise :class:`~repro.sim.tracing.TraceLevelError`.
    accounting:
        Network/processor statistics verbosity: ``"full"`` (default)
        or ``"aggregate"`` (scalar totals only).
    leaf_cache:
        Enable the per-processor leaf-location hint cache
        (:mod:`repro.core.leafcache`).  Correctness-neutral: stale
        hints recover via B-link out-of-range forwarding.
    reliability:
        ``"assumed"`` (default) trusts the network, as the paper
        does; ``"enforced"`` turns on the reliable-delivery layer so
        the protocols stay correct even when ``fault_plan`` drops or
        reorders messages (see :mod:`repro.sim.reliable`).
    reliability_config:
        Optional :class:`~repro.sim.reliable.ReliabilityConfig`
        tuning retransmission and ack timing for ``"enforced"``.
    crash_plan:
        Optional :class:`~repro.sim.crash.CrashPlan` of crash-stop
        failures (scheduled and/or stochastic).  Activates the whole
        failure-aware layer; ``None`` (default) leaves the fast path
        untouched.
    op_timeout:
        Per-operation timeout (virtual time units).  A timed-out
        operation is re-issued from the root up to ``op_retries``
        times (idempotent: the home de-duplicates return values by op
        id), then recorded as ``timed_out`` in the run results.
        ``None`` (default) never times out.
    op_retries:
        Re-issues before an operation is declared ``timed_out``.
    replication_factor:
        Total desired copies per leaf under crashes: 1 (default)
        keeps the paper's single-copy leaves (a crash loses the leaf
        and the audit reports it); >= 2 maintains ``factor - 1``
        ring-successor mirrors that are promoted when the home dies.
    recovery_mode:
        ``"lazy"`` (default) repairs interior replication on demand
        via the join path; ``"eager"`` re-replicates immediately on
        failure detection (the available-copies baseline the X6
        experiment compares against).
    mirror_placement:
        Policy choosing where a single-copy leaf's mirrors live:
        ``"ring"`` (default) uses pid-successor placement, matching
        the original failure layer; ``"rendezvous"`` uses
        highest-random-weight hashing so simultaneous adjacent-pid
        crashes no longer wipe a leaf together with all its mirrors.
    repair_period:
        Gossip period (virtual time units) for the background
        anti-entropy repair subsystem (:mod:`repro.repair`).  ``None``
        (default) leaves the subsystem uninstalled and the fast path
        byte-identical.
    repair_fanout:
        Peers contacted per gossip round when repair is enabled.
    permute_plan:
        Optional :class:`~repro.sim.permute.PermutePlan` turning on
        the schedule permuter: seeded swaps of deliveries the
        commutativity registry (:mod:`repro.core.commutativity`)
        claims commute, used by the permutation-replay checker
        (:mod:`repro.verify.permute`).  ``None`` (default) keeps the
        delivery fast path byte-identical.
    partition_plan:
        Optional :class:`~repro.sim.partition.PartitionPlan` of
        network partitions: scheduled or stochastic link cuts (full
        splits, asymmetric one-way losses) and gray failures
        (per-link latency inflation).  ``None`` (default) keeps the
        delivery fast path byte-identical.
    detector_plan:
        Optional :class:`~repro.sim.detector.DetectorPlan` replacing
        the crash layer's global detection oracle with *earned*
        failure detection: per-processor heartbeats feeding a timeout
        or phi-accrual detector whose (possibly wrong) suspicions
        drive the engine.  Implies a crash-capable cluster even
        without a ``crash_plan``.  ``None`` (default) keeps oracle
        detection and the fast path byte-identical.

    Every layer composes with every other except the pairs
    :func:`repro.sim.simulator.check_layers` refuses; those raise
    ``ValueError`` naming both layers.
    """

    def __init__(
        self,
        num_processors: int = 4,
        protocol: str | Any = "semisync",
        capacity: int = 8,
        replication: ReplicationPolicy | None = None,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        latency_model: LatencyModel = UniformLatency(),
        relay_batch_window: float | None = None,
        trace_level: str = "full",
        accounting: str = "full",
        leaf_cache: bool = False,
        reliability: str = "assumed",
        reliability_config: ReliabilityConfig | None = None,
        crash_plan: CrashPlan | None = None,
        op_timeout: float | None = None,
        op_retries: int = 3,
        replication_factor: int = 1,
        recovery_mode: str = "lazy",
        mirror_placement: str = "ring",
        repair_period: float | None = None,
        repair_fanout: int = 1,
        permute_plan: PermutePlan | None = None,
        partition_plan: PartitionPlan | None = None,
        detector_plan: DetectorPlan | None = None,
    ) -> None:
        from repro.protocols import make_protocol

        if isinstance(protocol, str):
            self.protocol = make_protocol(protocol)
        else:
            self.protocol = protocol
        if replication is None:
            replication = self.protocol.default_policy(num_processors)
        # The kernel checks the layers it assembles; relay batching is
        # the one layer it cannot see.
        check_layers(
            relay_batch_window=relay_batch_window,
            crash_plan=crash_plan,
            permute_plan=permute_plan,
        )
        if crash_plan is not None and detector_plan is None:
            # Oracle detection's drained-dead-window assumption: a
            # restart announcement must arrive after every message the
            # dead window could still deliver.  An earned detector
            # (detector_plan) retires the oracle and this assumption
            # with it.
            delay = crash_plan.detection_delay
            if not isinstance(latency_model, UniformLatency):
                warnings.warn(
                    f"cannot validate detection_delay ({delay}) against "
                    f"{type(latency_model).__name__}, whose transit time has "
                    "no stated bound; a transit longer than the oracle "
                    "delay violates the drained-dead-window assumption. "
                    "Pass detector_plan to retire the oracle",
                    RuntimeWarning,
                    stacklevel=2,
                )
            elif delay <= latency_model.base:
                raise ValueError(
                    f"detection_delay ({delay}) must exceed the message "
                    f"latency ({latency_model.base}): the recovery protocol "
                    "relies on donors having drained the dead window's "
                    "traffic before a restart is announced"
                )
            elif delay <= latency_model.base + latency_model.jitter:
                warnings.warn(
                    f"detection_delay ({delay}) may be exceeded by a "
                    "jittered transit (up to "
                    f"{latency_model.base + latency_model.jitter}); oracle "
                    "detection assumes the dead window's traffic drains "
                    "first. Raise detection_delay, or pass detector_plan to "
                    "retire the oracle",
                    RuntimeWarning,
                    stacklevel=2,
                )
        repair_plan = None
        if repair_period is not None:
            from repro.repair import RepairPlan

            repair_plan = RepairPlan(period=repair_period, fanout=repair_fanout)
        self.kernel = Kernel(
            num_processors=num_processors,
            latency_model=latency_model,
            seed=seed,
            fault_plan=fault_plan,
            accounting=accounting,
            reliability=reliability,
            reliability_config=reliability_config,
            crash_plan=crash_plan,
            permute_plan=permute_plan,
            partition_plan=partition_plan,
            detector_plan=detector_plan,
        )
        if self.kernel.permuter is not None:
            from repro.core.commutativity import claims_for

            self.kernel.permuter.bind_claims(claims_for(self.protocol.name))
        if op_timeout is not None and op_timeout <= 0:
            raise ValueError(f"op_timeout must be > 0, got {op_timeout}")
        if op_retries < 0:
            raise ValueError(f"op_retries must be >= 0, got {op_retries}")
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if recovery_mode not in ("lazy", "eager"):
            raise ValueError(
                f"recovery_mode must be 'lazy' or 'eager', got {recovery_mode!r}"
            )
        placement = make_placement(mirror_placement)
        # The failure-only collaborators exist only when their plan
        # does; a bare run constructs none and gains none of their rows.
        collaborators: list = []
        if self.kernel.crash_controller is not None:
            collaborators.append(
                partial(CrashRecovery, eager=recovery_mode == "eager")
            )
            if replication_factor >= 2 and num_processors > 1:
                collaborators.append(
                    partial(
                        LeafMirrors, factor=replication_factor, placement=placement
                    )
                )
        if op_timeout is not None:
            collaborators.append(
                partial(OpTimers, timeout=op_timeout, retries=op_retries)
            )
        self.engine = DBTreeEngine(
            kernel=self.kernel,
            protocol=self.protocol,
            policy=replication,
            capacity=capacity,
            trace=Trace(level=trace_level),
            relay_batch_window=relay_batch_window,
            leaf_cache=leaf_cache,
            repair_plan=repair_plan,
            collaborators=collaborators,
        )

    @property
    def num_processors(self) -> int:
        return len(self.kernel.processors)

    def schedule(
        self, time: float, kind: str, key: Key, value: Any = None, client: int = 0
    ) -> None:
        """Schedule an operation submission at a future virtual time."""
        self.engine.schedule_operation(time, kind, key, value, home_pid=client)

    # ------------------------------------------------------------------
    # mobility
    # ------------------------------------------------------------------
    def migrate_node(self, node_id: int, from_pid: int, to_pid: int) -> None:
        """Ask the processor holding ``node_id`` to migrate it."""
        self.kernel.processor(from_pid).submit(
            MigrateNode(node_id=node_id, to_pid=to_pid)
        )

    # ------------------------------------------------------------------
    # verification and statistics
    # ------------------------------------------------------------------
    def check(self, expected: Mapping[Key, Any] | None = None):
        """Run the full correctness audit; see repro.verify."""
        from repro.verify.checker import check_all

        return check_all(self.engine, expected=expected)

    def operation_records(self) -> list[OperationRecord]:
        return list(self.trace.operations.values())

    def availability_summary(self) -> dict[str, Any]:
        """Crash/restart/recovery accounting; see repro.stats."""
        from repro.stats.metrics import availability_summary

        return availability_summary(self.kernel, self.trace)

    def repair_summary(self) -> dict[str, Any]:
        """Anti-entropy repair accounting; see repro.stats."""
        from repro.stats.metrics import repair_summary

        return repair_summary(self.kernel, self.trace)

    def permutation_summary(self) -> dict[str, Any]:
        """Schedule-permuter accounting; see repro.stats."""
        from repro.stats.metrics import permutation_summary

        return permutation_summary(self.kernel)

    def detector_summary(self) -> dict[str, Any]:
        """Failure-detector accounting; see repro.stats."""
        from repro.stats.metrics import detector_summary

        return detector_summary(self.kernel)

    def partition_summary(self) -> dict[str, Any]:
        """Partition fault-layer accounting; see repro.stats."""
        from repro.stats.metrics import partition_summary

        return partition_summary(self.kernel)

    def seed_summary(self) -> dict[str, int]:
        """Every seeded stream this run used, from the kernel ledger."""
        return self.kernel.seeds.snapshot()

    def cache_stats(self) -> dict[str, Any]:
        """Leaf-location cache accounting; see DBTreeEngine.leaf_cache_stats."""
        return self.engine.leaf_cache_stats()

    def utilization(self) -> dict[int, float]:
        return self.kernel.utilization()
