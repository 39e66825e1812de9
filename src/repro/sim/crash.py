"""Crash-stop processor failures and the controller that drives them.

The paper's protocols assume processors never fail.  This module
breaks that assumption the same way :mod:`repro.sim.failure` broke
the network assumption: a declarative plan of faults, injected by the
simulator, with the recovery machinery layered on top and audited at
quiescence.

A :class:`CrashPlan` names *when* processors crash and restart (an
explicit schedule of ``(pid, crash_at, restart_at)`` entries) and
which failure detector tells the survivors: losing a processor and
learning of the loss are one layer.  Its install starts the
:class:`CrashController`, which executes the schedule against a
kernel, then the detector service, which reads the same plan:

* at ``crash_at`` the processor's queue and in-service action are
  lost (crash-stop: volatile state vanishes, nothing partial
  survives), the reliable-transport channels touching it are reset,
  and the network starts discarding whatever is addressed to it
  (counted as ``dead_letters``);
* the failure detector (:mod:`repro.sim.detector`, the ``"oracle"``
  unless the plan names an earned one) decides when each survivor
  suspects it; the engine turns suspicion into forced unjoins from
  replicated copy sets and re-homes of mirrored single-copy leaves;
* at ``restart_at`` the processor comes back empty and the restart
  hooks run (the engine re-joins it to the tree via the variable
  protocol's join path).

The controller is engine-agnostic: it only touches simulator-layer
objects (processor, network, transport) and invokes hooks.  All
tree-recovery semantics live in :mod:`repro.core.dbtree` and
:mod:`repro.protocols.variable`.

Availability accounting (downtime per crash, lost actions, detection
and recovery latencies) is collected here and surfaced, with the
detector's counters, through :meth:`CrashPlan.summary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.detector import (
    DETECTOR_MODES,
    FailureDetectorService,
    OracleDetector,
)
from repro.sim.layer import Layer
from repro.sim.network import UniformLatency

if TYPE_CHECKING:
    from repro.sim.simulator import Kernel
    from repro.sim.tracing import Trace

#: How long a restarted processor stays in "recovering" mode, during
#: which relayed updates addressed to copies it has not yet
#: re-acquired are stashed for replay rather than healed.
RECOVERY_GRACE = 40.0


#: The engine's recovery counters a crash summary reports as they are.
_TRACE_COUNTERS = (
    "pc_donations",
    "leaves_rehomed",
    "eager_rereplications",
    "op_retries",
    "op_failed_over",
    "op_backoff_delay_total",
    "ops_timed_out",
    "ops_failed",
    "peer_rescinds",
)


#: The failure detector's counters a crash summary reports.
_DETECTOR_COUNTERS = (
    "heartbeats_sent",
    "heartbeats_received",
    "suspicions",
    "rescinds",
    "false_suspicions",
)


def _mean(name: str, values: list[float | None]) -> dict[str, float | int]:
    """``mean_<name>``, the mean of the values that are not None, and
    ``<name>_samples``, how many there are: a mean over none reads 0.0,
    as an instant one does, and only the count tells them apart."""
    known = [value for value in values if value is not None]
    return {
        f"mean_{name}": sum(known) / len(known) if known else 0.0,
        f"{name}_samples": len(known),
    }


@dataclass(frozen=True)
class CrashPlan(Layer):
    """When processors crash-stop and restart, and how survivors learn of it.

    ``schedule``
        Explicit ``(pid, crash_at, restart_at)`` triples;
        ``restart_at`` may be ``None`` for a permanent failure (the
        audit then *reports* any single-copy leaves that died with it
        rather than silently passing).  Empty, the plan crashes
        nothing, but its detector still runs: partitions and gray
        links still provoke (false) suspicions.
    ``detector``
        The failure detector (:mod:`repro.sim.detector`): ``"oracle"``
        (default; ground truth, ``detection_delay`` late), or the
        earned ``"phi"`` (adaptive) and ``"timeout"`` (fixed), which
        infer failure from heartbeat silence.
    ``heartbeat_period``
        Heartbeat emission interval of an earned detector; also its
        monitor evaluation interval.
    ``detection_delay``
        Silence an earned ``"timeout"`` detector tolerates before
        suspecting -- and ``"phi"``'s criterion while a window has
        fewer than ``MIN_SAMPLES`` observations.  For the oracle, how
        long after a crash survivors learn of it.
    ``detector_horizon``
        Virtual time after which an earned detector's heartbeat and
        monitor chains stop re-arming.  Must be > 0 for one: without
        it the periodic timers would keep the event queue populated
        forever and quiescence would be unreachable.

    The oracle sends nothing, so only ``detection_delay`` applies to it.
    """

    schedule: tuple[tuple[int, float, float | None], ...] = ()
    detector: str = "oracle"
    heartbeat_period: float = 20.0
    detection_delay: float = 50.0
    detector_horizon: float = 0.0

    def __post_init__(self) -> None:
        intervals: dict[int, list[tuple[float, float]]] = {}
        for entry in self.schedule:
            pid, crash_at, restart_at = entry
            if crash_at < 0:
                raise ValueError(f"crash_at must be >= 0 in {entry!r}")
            if restart_at is not None and restart_at <= crash_at:
                raise ValueError(
                    f"restart_at must follow crash_at in {entry!r}"
                )
            end = restart_at if restart_at is not None else float("inf")
            intervals.setdefault(pid, []).append((crash_at, end))
        for pid, spans in intervals.items():
            spans.sort()
            for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
                if next_start < prev_end:
                    raise ValueError(
                        f"overlapping crash intervals for pid {pid}"
                    )
        detectors = ("oracle", *DETECTOR_MODES)
        if self.detector not in detectors:
            raise ValueError(
                f"detector must be one of {detectors}, got {self.detector!r}"
            )
        if self.heartbeat_period <= 0:
            raise ValueError(
                f"heartbeat_period must be > 0, got {self.heartbeat_period}"
            )
        if self.detection_delay <= 0:
            raise ValueError(
                f"detection_delay must be > 0, got {self.detection_delay}"
            )
        if self.detector == "oracle":
            return  # sends no heartbeats: nothing below applies
        if self.detection_delay <= self.heartbeat_period:
            raise ValueError(
                f"detection_delay ({self.detection_delay}) must exceed the "
                f"heartbeat period ({self.heartbeat_period}): a "
                "quieter-than-one-beat threshold suspects every peer on "
                "every evaluation"
            )
        if self.detector_horizon <= 0:
            raise ValueError(
                "an earned detector needs a finite detector_horizon > 0 "
                "(heartbeat timers re-arm forever otherwise and the run "
                "never reaches quiescence)"
            )

    layer = "crash"

    def validate(self, kernel: "Kernel") -> None:
        """Every scheduled pid exists, and the oracle's drained-dead-window
        assumption holds: a crash is announced after every message the
        dead window could still deliver, so ``detection_delay`` must
        exceed the longest transit.  An earned detector retires the
        oracle and the assumption."""
        self.check_pids(kernel, (pid for pid, _, _ in self.schedule))
        if self.detector != "oracle":
            return
        model = kernel.latency_model
        delay = self.detection_delay
        if not isinstance(model, UniformLatency):
            problem = (
                f"cannot validate the oracle detection_delay ({delay}) against "
                f"{type(model).__name__}, whose transit time has no stated "
                "bound; a transit longer than the oracle's delay violates "
                "the drained-dead-window assumption. Pass an earned "
                "detector to retire the oracle"
            )
        elif delay <= model.base:
            raise ValueError(
                f"the oracle detection_delay ({delay}) must exceed the message "
                f"latency ({model.base}): the recovery protocol relies on "
                "donors having drained the dead window's traffic before a "
                "restart is announced"
            )
        elif delay <= model.base + model.jitter:
            problem = (
                f"the oracle detection_delay ({delay}) may be exceeded by a "
                f"jittered transit (up to {model.base + model.jitter}); "
                "oracle detection assumes the dead window's traffic drains "
                "first. Raise the delay, or pass an earned detector "
                "to retire the oracle"
            )
        else:
            return
        self.warn(problem)

    def install(self, kernel: "Kernel") -> None:
        """The controller, then the detector that reads it."""
        kernel.crash_controller = CrashController(kernel, self)
        kernel.crash_controller.install()
        service = (
            OracleDetector if self.detector == "oracle" else FailureDetectorService
        )
        kernel.detector = service(kernel, self)
        kernel.detector.start()

    def summary(self, kernel: "Kernel", trace: "Trace | None") -> dict[str, Any]:
        """Crash/restart/recovery accounting (X6 quantities).

        How many crash-stop failures occurred, what they destroyed
        (queued + in-service actions), how long detection and recovery
        took (each mean beside its sample count, ``detection_samples``
        and the like), and what the network refused to deliver to dead
        processors (``dead_letters``).  With the engine's ``trace``,
        the engine-level repair counters too (forced unjoins, leaf
        re-homes, PC donations, op retries/timeouts): ``op_retries``
        counts re-issues an op timer made, ``op_failed_over`` the ops
        issued by the fail-over rule, without a timer: from a home
        that was down or rootless at submission, from a home that
        crashed, or when the first processor was rooted again after
        none was.  Then the detector's counters (X9 quantities):
        heartbeats sent and received, suspicions raised and rescinded,
        and how many were *false* (the suspect was alive); all 0 for
        the oracle, which earns nothing (``mean_detection`` says when
        it announced).
        """
        records = kernel.crash_controller.records
        summary: dict[str, Any] = {
            "enabled": True,
            "crashes": len(records),
            "restarts": sum(1 for r in records if r.restarted_at is not None),
            "lost_actions": sum(r.lost_actions for r in records),
            "dead_letters": kernel.network.stats.dead_letters,
            "suspected": sum(len(r.suspected_by) for r in records),
            **_mean("downtime", [r.downtime for r in records]),
            **_mean("detection", [
                None if r.detected_at is None else r.detected_at - r.crashed_at
                for r in records
            ]),
            **_mean("recovery", [r.recovery_latency for r in records]),
            "detector": self.detector,
        }
        detector = kernel.detector
        summary.update((name, getattr(detector, name)) for name in _DETECTOR_COUNTERS)
        if trace is not None:
            counters = trace.counters
            summary["forced_unjoins"] = counters.get("crash_forced_unjoins", 0)
            summary.update((name, counters.get(name, 0)) for name in _TRACE_COUNTERS)
        return summary


@dataclass
class CrashRecord:
    """Availability accounting for one crash of one processor."""

    pid: int
    crashed_at: float
    planned_restart: float | None
    lost_actions: int = 0
    detected_at: float | None = None
    restarted_at: float | None = None
    recovered_at: float | None = None
    #: sender channels reset by the transport's retry-cap suspicion
    #: while this crash was in effect.
    suspected_by: list[int] = field(default_factory=list)

    @property
    def downtime(self) -> float | None:
        if self.restarted_at is None:
            return None
        return self.restarted_at - self.crashed_at

    @property
    def recovery_latency(self) -> float | None:
        """Restart-to-recovered: how long re-joining the tree took."""
        if self.restarted_at is None or self.recovered_at is None:
            return None
        return self.recovered_at - self.restarted_at


class CrashController:
    """Executes a :class:`CrashPlan` against a kernel.

    The controller crashes and restarts processors and keeps the
    per-crash availability records; the engine registers hooks to
    layer the recovery protocol on top.  Liveness is each processor's
    own ``alive`` flag: the network, the reliable transport and the
    audits query it through :attr:`is_alive`.
    """

    def __init__(self, kernel: "Kernel", plan: CrashPlan) -> None:
        self.kernel = kernel
        self.plan = plan
        self.records: list[CrashRecord] = []
        processors = kernel.processors
        # Whether ``pid`` is up.  A closure, not a method: the network
        # asks on every arrival, and a closure reads the flag with one
        # attribute lookup fewer.
        self.is_alive: Callable[[int], bool] = lambda pid: processors[pid].alive
        self._open: dict[int, CrashRecord] = {}
        self._crash_hooks: list[Callable[[int], None]] = []
        self._restart_hooks: list[Callable[[int], None]] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wire liveness in and schedule every planned crash/restart.

        Every processor becomes crashable, the network learns who is
        down (dead destinations become dead letters), the reliable
        transport reports a peer it gave up on to
        :meth:`note_suspected`, and entries are queued by
        ``(crash_at, pid)``, so same-instant crashes run in pid order
        whatever the schedule's order.
        """
        for proc in self.kernel.processors.values():
            proc.make_crashable()
        network = self.kernel.network
        network.install_liveness(self.is_alive)
        if network.transport is not None:
            network.transport.install_peer_down(self.note_suspected)
        events = self.kernel.events
        for pid, crash_at, restart_at in sorted(
            self.plan.schedule, key=lambda e: (e[1], e[0])
        ):
            events.schedule(crash_at, partial(self._crash, pid))
            if restart_at is not None:
                events.schedule(restart_at, partial(self._restart, pid))

    def on_crash(self, hook: Callable[[int], None]) -> None:
        """Run ``hook(pid)`` at the instant ``pid`` crashes (after its
        simulator-level state is wiped)."""
        self._crash_hooks.append(hook)

    def on_restart(self, hook: Callable[[int], None]) -> None:
        """Run ``hook(pid)`` at the instant ``pid`` restarts."""
        self._restart_hooks.append(hook)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def alive_pids(self) -> list[int]:
        return [pid for pid, proc in self.kernel.processors.items() if proc.alive]

    def crash_count(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _crash(self, pid: int) -> None:
        kernel = self.kernel
        proc = kernel.processor(pid)
        lost = proc.crash()
        record = CrashRecord(
            pid=pid,
            crashed_at=kernel.events.now,
            planned_restart=None,
            lost_actions=lost,
        )
        self.records.append(record)
        self._open[pid] = record
        for hook in self._crash_hooks:
            hook(pid)

    def _restart(self, pid: int) -> None:
        kernel = self.kernel
        kernel.processor(pid).restart()
        # Reset transport channels at restart, not at crash: frames
        # already in flight *from* the dead processor may still drain
        # into the peers' old receiver state during the dead window,
        # while the fresh incarnation starts every channel at seq 0.
        transport = kernel.network.transport
        if transport is not None:
            transport.forget_peer(pid)
        record = self._open.pop(pid, None)
        if record is not None:
            record.restarted_at = kernel.events.now
        for hook in self._restart_hooks:
            hook(pid)

    # ------------------------------------------------------------------
    # notes from the layers above
    # ------------------------------------------------------------------
    def note_suspected(self, by_pid: int, dead_pid: int, _lost: list) -> None:
        """The reliable transport gave up on ``dead_pid`` (retry cap);
        the payloads its reset channel lost are not kept."""
        record = self._open.get(dead_pid)
        if record is not None and by_pid not in record.suspected_by:
            record.suspected_by.append(by_pid)

    def note_detected(self, dead_pid: int, by_pid: int) -> None:
        """A failure detector locally suspected the (truly dead)
        ``dead_pid``: stamps ``detected_at`` with the *first*
        observer's suspicion time and records every distinct
        suspecting observer."""
        record = self._open.get(dead_pid)
        if record is None:
            return
        if by_pid not in record.suspected_by:
            record.suspected_by.append(by_pid)
        if record.detected_at is None:
            record.detected_at = self.kernel.events.now

    def note_recovered(self, pid: int, time: float) -> None:
        """The engine finished re-joining ``pid`` (grace window ended)."""
        for record in reversed(self.records):
            if record.pid == pid and record.restarted_at is not None:
                if record.recovered_at is None:
                    record.recovered_at = time
                return
