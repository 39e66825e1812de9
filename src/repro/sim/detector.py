"""Failure detection: the oracle, or heartbeats and a local monitor.

Every crash-capable kernel has exactly one detector (``kernel.detector``),
and every consumer -- the engine's recovery, repair's gossip wake-ups,
the "no false kill" audit -- hears suspicion and rescission from it
alone.  The detector is part of the crash layer: it is the
:class:`~repro.sim.crash.CrashPlan`'s ``detector``, one of three,
installed right after the crash controller and reading the same plan:

``"oracle"``
    The plan's default.  ``detection_delay`` after a crash, if the
    processor is still down, every live processor suspects it at once;
    a processor back before then is never suspected.  Its opinion at
    every instant is the crash controller's ground truth, it never
    rescinds (a restarted processor announces itself), and it sends
    nothing, so it needs no horizon.

Real systems have no such channel -- failure is *inferred* from the
absence of messages, and the inference is sometimes wrong.  The two
earned detectors do the real thing:

* every processor emits a small :class:`Heartbeat` datagram to every
  peer each ``heartbeat_period`` (unordered, unacknowledged, outside the
  reliable transport -- heartbeats that queue behind retransmissions
  would defeat their purpose);
* every processor runs a local monitor over the heartbeats it
  receives and forms a *local, possibly wrong* opinion about each
  peer.

``"timeout"``
    Suspect a peer when no heartbeat arrived for ``detection_delay``
    time units.  This reproduces the oracle's semantics one observer
    at a time -- and inherits its failure mode: any latency excursion
    longer than the delay (a gray link, a long GC pause) produces a
    false suspicion.

``"phi"``
    The phi-accrual detector (Hayashibara et al. 2004, as shipped in
    Cassandra/Akka): keep a sliding window of observed heartbeat
    inter-arrival times, model them as a normal distribution, and
    compute ``phi = -log10(P(gap this large | peer alive))`` for the
    current silence.  Suspect when ``phi >= PHI_THRESHOLD``.  Because
    the window adapts to what the link actually does, a uniformly
    slow (gray) link widens the model instead of tripping it -- the
    property the X9 benchmark measures against the timeout detector.

Suspicion is delivered through observer-local hooks (``on_suspect`` /
``on_rescind``); the engine turns them into per-observer
``PeerFailure`` / ``PeerRescind`` actions.  Nothing earned is global:
two observers are free to disagree, and the recovery machinery above
(idempotent re-joins, anti-entropy repair, the checker's "no false
kill" audit) is what makes that safe.

A heartbeat arriving from a suspected peer rescinds the suspicion
immediately -- the detector is *eventually accurate* in the
failure-detector-theory sense, never permanently wrong about a live
peer whose link heals.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.sim.crash import CrashPlan, CrashRecord
    from repro.sim.simulator import Kernel

__all__ = ["Heartbeat", "FailureDetectorService"]

#: The earned detectors (the CLI's ``--detector`` choices); the oracle
#: is a crash plan's default.
DETECTOR_MODES = ("phi", "timeout")

#: Floor on the tail probability so ``phi`` stays finite.
_MIN_P = 1e-300

#: Sliding-window size of the phi model's inter-arrival samples per
#: observed link.
WINDOW = 64
#: Observations the phi model needs before it is trusted; until then
#: the ``detection_delay`` criterion judges.
MIN_SAMPLES = 3
#: Suspicion threshold on phi.  8 (Cassandra's default) means "the
#: chance a live peer is this silent is < 1e-8".
PHI_THRESHOLD = 8.0


class Heartbeat:
    """The liveness datagram: "processor ``src`` was alive when sent"."""

    __slots__ = ("src",)
    kind = "heartbeat"

    def __init__(self, src: int) -> None:
        self.src = src

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Heartbeat(src={self.src})"


class FailureDetectorService:
    """Heartbeat emission plus per-observer suspicion tracking.

    One service instance covers the whole cluster, but all state is
    keyed by ``(observer, peer)`` -- there is no shared opinion.  A
    crash plan with an earned detector installs it, so the only path
    from a crash to a forced unjoin runs through heartbeat silence
    observed here.

    The phi model keeps ``WINDOW`` samples per link, is trusted from
    ``MIN_SAMPLES`` on, and floors its standard deviation at the
    heartbeat period, so a perfectly regular DES arrival stream cannot
    collapse sigma to 0 and suspect on the first late beat.
    """

    def __init__(self, kernel: "Kernel", plan: "CrashPlan") -> None:
        self.kernel = kernel
        self.plan = plan
        # Last heartbeat arrival per (observer, peer).
        self._last: dict[tuple[int, int], float] = {}
        # Sliding inter-arrival windows per (observer, peer).
        self._windows: dict[tuple[int, int], deque[float]] = {}
        # Current suspicions per observer.
        self._suspected: dict[int, set[int]] = {
            pid: set() for pid in kernel.pids
        }
        self._suspect_hooks: list[Callable[[int, int], None]] = []
        self._rescind_hooks: list[Callable[[int, int], None]] = []
        # Accounting.
        self.suspicions = 0
        self.rescinds = 0
        self.false_suspicions = 0
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        # Samples larger than this are treated as stream resumption
        # (peer restart, healed partition) and kept out of the model:
        # one crash-sized gap would blow sigma up for a full window.
        self._sample_cap = plan.heartbeat_period * 20.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every processor's heartbeat and monitor chains."""
        kernel = self.kernel
        pids = kernel.pids
        n = len(pids)
        stagger = self.plan.heartbeat_period / max(n, 1)
        for index, pid in enumerate(pids):
            proc = kernel.processors[pid]
            # Stagger first beats so n processors do not all emit on
            # the same instant forever (deterministic, seed-free).
            first = index * stagger
            kernel.events.schedule(
                first, partial(self._heartbeat_tick, pid, proc.incarnation)
            )
            kernel.events.schedule(
                first + self.plan.heartbeat_period,
                partial(self._monitor_tick, pid, proc.incarnation),
            )
        kernel.crash_controller.on_restart(self._on_restart)

    def on_suspect(self, hook: Callable[[int, int], None]) -> None:
        """Run ``hook(observer, peer)`` when observer starts suspecting."""
        self._suspect_hooks.append(hook)

    def on_rescind(self, hook: Callable[[int, int], None]) -> None:
        """Run ``hook(observer, peer)`` when a suspicion is withdrawn."""
        self._rescind_hooks.append(hook)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_suspected(self, observer: int, peer: int) -> bool:
        """Observer's current (local, fallible) opinion of peer."""
        return peer in self._suspected[observer]

    def suspected_by(self, observer: int) -> set[int]:
        """Copy of everything ``observer`` currently suspects."""
        return set(self._suspected[observer])

    # ------------------------------------------------------------------
    # heartbeat emission
    # ------------------------------------------------------------------
    def _heartbeat_tick(self, pid: int, incarnation: int) -> None:
        kernel = self.kernel
        proc = kernel.processors[pid]
        if not proc.alive or proc.incarnation != incarnation:
            return  # chain died with its incarnation; restart re-arms
        now = kernel.events.now
        if now > self.plan.detector_horizon:
            return
        network = kernel.network
        for peer in kernel.pids:
            if peer == pid:
                continue
            network.send_datagram(
                pid, peer, Heartbeat(pid), self._on_heartbeat
            )
            self.heartbeats_sent += 1
        kernel.events.schedule(
            now + self.plan.heartbeat_period,
            partial(self._heartbeat_tick, pid, incarnation),
        )

    def _on_heartbeat(self, dst: int, beat: Heartbeat) -> None:
        observer, peer = dst, beat.src
        self.heartbeats_received += 1
        now = self.kernel.events.now
        key = (observer, peer)
        prev = self._last.get(key)
        self._last[key] = now
        if prev is not None:
            gap = now - prev
            if gap <= self._sample_cap:
                window = self._windows.get(key)
                if window is None:
                    window = deque(maxlen=WINDOW)
                    self._windows[key] = window
                window.append(gap)
        if peer in self._suspected[observer]:
            # Proof of life beats any model: rescind immediately.
            self._suspected[observer].discard(peer)
            self.rescinds += 1
            for hook in self._rescind_hooks:
                hook(observer, peer)

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def _monitor_tick(self, pid: int, incarnation: int) -> None:
        kernel = self.kernel
        proc = kernel.processors[pid]
        if not proc.alive or proc.incarnation != incarnation:
            return
        now = kernel.events.now
        if now > self.plan.detector_horizon:
            return
        self._evaluate(pid, now)
        kernel.events.schedule(
            now + self.plan.heartbeat_period,
            partial(self._monitor_tick, pid, incarnation),
        )

    def _evaluate(self, observer: int, now: float) -> None:
        suspected = self._suspected[observer]
        for peer in self.kernel.pids:
            if peer == observer or peer in suspected:
                continue
            last = self._last.get((observer, peer))
            if last is None:
                continue  # never heard from it; no baseline to judge by
            gap = now - last
            if self._should_suspect((observer, peer), gap):
                self._suspect(observer, peer)

    def _should_suspect(self, key: tuple[int, int], gap: float) -> bool:
        plan = self.plan
        if plan.detector == "timeout":
            return gap > plan.detection_delay
        window = self._windows.get(key)
        if window is None or len(window) < MIN_SAMPLES:
            # Phi needs a model; until the window warms up, fall back
            # to the timeout criterion so an early crash is still
            # caught.
            return gap > plan.detection_delay
        return self._phi_of_gap(key, gap) >= PHI_THRESHOLD

    def _phi_of_gap(self, key: tuple[int, int], gap: float) -> float:
        window = self._windows.get(key)
        if not window or len(window) < MIN_SAMPLES:
            return 0.0
        n = len(window)
        mean = sum(window) / n
        var = sum((x - mean) ** 2 for x in window) / n
        sigma = max(math.sqrt(var), self.plan.heartbeat_period)
        z = (gap - mean) / sigma
        # P(silence >= gap | alive) under the normal model.
        p_later = 0.5 * math.erfc(z / math.sqrt(2.0))
        return -math.log10(max(p_later, _MIN_P))

    def _suspect(self, observer: int, peer: int) -> None:
        self._suspected[observer].add(peer)
        self.suspicions += 1
        controller = self.kernel.crash_controller
        if controller.is_alive(peer):
            # The ground truth knows better: this opinion is wrong.
            # Count it -- false-suspicion rate is the X9 metric -- but
            # deliver it anyway; surviving wrong opinions is the
            # recovery machinery's job.
            self.false_suspicions += 1
        else:
            controller.note_detected(peer, observer)
        for hook in self._suspect_hooks:
            hook(observer, peer)

    # ------------------------------------------------------------------
    # crash/restart integration
    # ------------------------------------------------------------------
    def _on_restart(self, pid: int) -> None:
        """Re-arm ``pid``'s chains and wipe its volatile opinions."""
        kernel = self.kernel
        now = kernel.events.now
        # Its monitor memory died with it (crash-stop): fresh windows,
        # no suspicions carried over.
        self._suspected[pid] = set()
        for key in [k for k in self._last if k[0] == pid]:
            del self._last[key]
        for key in [k for k in self._windows if k[0] == pid]:
            del self._windows[key]
        if now > self.plan.detector_horizon:
            return
        proc = kernel.processors[pid]
        kernel.events.schedule(
            now, partial(self._heartbeat_tick, pid, proc.incarnation)
        )
        kernel.events.schedule(
            now + self.plan.heartbeat_period,
            partial(self._monitor_tick, pid, proc.incarnation),
        )


class OracleDetector(FailureDetectorService):
    """The ``"oracle"``: the crash controller's ground truth, announced late.

    ``detection_delay`` after a crash, if that incarnation is still
    down, the crash record's ``detected_at`` is stamped and every
    suspect hook runs for every live observer (hook by hook, observers
    in pid order).  It keeps the service's hooks and overrides all that
    would send or judge a heartbeat: it sends none, is never wrong and
    never rescinds, so its counters stay 0 -- it earns nothing; the
    crash records say when it announced.
    """

    def start(self) -> None:
        self.kernel.crash_controller.on_crash(self._on_crash)

    def is_suspected(self, observer: int, peer: int) -> bool:
        return not self.kernel.processors[peer].alive

    def suspected_by(self, observer: int) -> set[int]:
        return {
            pid for pid, proc in self.kernel.processors.items() if not proc.alive
        }

    def _on_crash(self, pid: int) -> None:
        events = self.kernel.events
        record = self.kernel.crash_controller.records[-1]  # opened just now
        events.schedule(
            events.now + self.plan.detection_delay, partial(self._announce, record)
        )

    def _announce(self, record: "CrashRecord") -> None:
        if record.restarted_at is not None:
            return  # back before suspicion matured: never announced
        controller = self.kernel.crash_controller
        record.detected_at = self.kernel.events.now
        observers = controller.alive_pids()
        for hook in self._suspect_hooks:
            for observer in observers:
                hook(observer, record.pid)
