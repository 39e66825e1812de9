"""Gossip scheduler: periodic peer-to-peer digest exchange.

Each processor runs a repair timer inside the simulator clock.  On
each tick it picks the next ``fanout`` live peers in a seed-offset
round-robin rotation -- so every pair provably exchanges digests
within ``ceil((n - 1) / fanout)`` periods, unlike uniform random
choice which can starve a pair indefinitely -- and opens a round per
peer:

1. initiator -> peer: :class:`DigestOffer` (the roll-up of the
   commonly-replicated ranges -- the sum of the pair view's bucket
   sums, which the repair service keeps as rows change -- plus an
   entry count),
2. peer -> initiator: :class:`DigestMatch` if its own roll-up agrees
   (the round is *clean*), else :class:`DigestDetail` with its bucket
   sums,
3. initiator -> peer: :class:`DigestNodes` carrying per-node digests
   for the mismatching buckets only -- the drill-down never ships
   more than the divergent subtrees,
4. the peer's repair executor (:mod:`repro.repair.repair`) resolves
   each mismatch through the paper's own machinery.

Rounds are initiator-tracked and expendable: a crashed peer simply
never answers, the open round expires at a later tick, and nothing
reaches the repair executor (the "abort cleanly" requirement).  Timer
chains are tagged with the processor's incarnation so a tick armed
before a crash dies with it instead of double-firing after restart.

The scheduler self-quiesces: once every round has been clean for
``stop_after_clean`` consecutive periods, a processor's timer goes
dormant (so ``run_to_quiescence`` terminates), and any divergence
signal -- a crash detection, a restart, a mismatching digest, an
explicit :meth:`~repro.repair.repair.RepairService.kick` -- re-arms
it.  The quiet-time threshold is also what the X7 experiment reports
as time-to-convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.repair.digest import DIGEST_BYTES, MASK

if TYPE_CHECKING:
    from repro.repair.repair import RepairService
    from repro.sim.processor import Processor


@dataclass(frozen=True)
class RepairPlan:
    """Tuning of the anti-entropy subsystem.

    period:
        Virtual time between a processor's gossip ticks.
    fanout:
        Peers contacted per tick.
    buckets:
        Fixed bucket count for the drill-down sums (node ids are
        bucketed by ``node_id % buckets``).
    stop_after_clean:
        Consecutive quiet *sweeps* (a sweep is the
        ``ceil((n - 1) / fanout)`` periods the rotation needs to
        visit every peer) before a processor's timer goes dormant;
        re-armed by any divergence signal.
    """

    period: float = 50.0
    fanout: int = 1
    buckets: int = 8
    stop_after_clean: int = 2

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"repair period must be > 0, got {self.period}")
        if self.fanout < 1:
            raise ValueError(f"repair fanout must be >= 1, got {self.fanout}")
        if self.buckets < 1:
            raise ValueError(f"need at least one bucket, got {self.buckets}")
        if self.stop_after_clean < 1:
            raise ValueError(
                f"stop_after_clean must be >= 1, got {self.stop_after_clean}"
            )


# ----------------------------------------------------------------------
# gossip actions (rows the repair service adds to the engine's action
# table; a repair-off engine has none of them)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GossipTick:
    """Local timer pop: run one gossip tick on this processor."""

    kind = "gossip_tick"

    pid: int


@dataclass(frozen=True)
class DigestOffer:
    """Round opener: roll-up digest of the initiator's shared view."""

    kind = "digest_offer"

    src_pid: int
    round_id: int
    count: int
    top: int


@dataclass(frozen=True)
class DigestMatch:
    """Round closer: the peer's shared view hashes identically."""

    kind = "digest_match"

    src_pid: int
    round_id: int


@dataclass(frozen=True)
class DigestDetail:
    """Mismatch reply: the peer's bucket sums."""

    kind = "digest_detail"

    src_pid: int
    round_id: int
    buckets: tuple[int, ...]


@dataclass(frozen=True)
class DigestNodes:
    """Drill-down: per-node digests for the mismatching buckets.

    ``entries`` rows are ``(node_id, role, digest, level, low_key)``
    with role ``"C"`` (replicated copy), ``"L"`` (sender's own
    single-copy leaf mirrored at the receiver) or ``"M"`` (sender's
    mirror of the receiver's leaf); level and low key let the
    receiver route healing joins without a tree descent.
    """

    kind = "digest_nodes"

    src_pid: int
    round_id: int
    buckets: tuple[int, ...]
    entries: tuple[tuple, ...]


class GossipScheduler:
    """Per-processor repair timers plus the digest-exchange protocol."""

    def __init__(self, service: "RepairService", seed: int) -> None:
        self.service = service
        self.plan = service.plan
        #: Per-pid rotation cursor; seeding the start offset varies
        #: the pairing order across runs without sacrificing the
        #: full-coverage guarantee.
        self._seed = seed
        self._rotation: dict[int, int] = {}
        self._round_counter = 0
        #: round_id -> (initiator_pid, peer_pid, opened_at)
        self._open: dict[int, tuple[int, int, float]] = {}
        self._active: dict[int, bool] = {}
        self._last_wake: dict[int, float] = {}
        self.last_dirty = 0.0

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every processor's timer chain, staggered so a cluster
        does not tick in lockstep bursts."""
        kernel = self.service.engine.kernel
        pids = kernel.pids
        for index, pid in enumerate(pids):
            self._last_wake[pid] = kernel.now
            self._active[pid] = True
            offset = self.plan.period * (1.0 + index / max(len(pids), 1))
            self._arm(pid, delay=offset)

    def _arm(self, pid: int, delay: float | None = None) -> None:
        kernel = self.service.engine.kernel
        proc = kernel.processor(pid)
        kernel.events.schedule(
            kernel.now + (self.plan.period if delay is None else delay),
            partial(self._timer_fired, pid, proc.incarnation),
        )

    def _timer_fired(self, pid: int, incarnation: int) -> None:
        kernel = self.service.engine.kernel
        proc = kernel.processor(pid)
        if not proc.alive or proc.incarnation != incarnation:
            return  # stale chain; the restart hook owns re-arming
        quiet_since = max(self.last_dirty, self._last_wake.get(pid, 0.0))
        if kernel.now - quiet_since >= self._quiet_window():
            # Every recent round was clean: go dormant so the
            # simulation can quiesce; divergence signals re-arm us.
            self._active[pid] = False
            self.service.count("gossip_dormant")
            return
        proc.submit(GossipTick(pid))
        self._arm(pid)

    def _quiet_window(self) -> float:
        """Quiet time before dormancy: ``stop_after_clean`` full
        rotation sweeps, so every pair gossips (cleanly) before any
        timer concludes there is nothing left to repair."""
        plan = self.plan
        peers = max(len(self.service.engine.kernel.pids) - 1, 1)
        sweep = -(-peers // plan.fanout)  # ceil
        return plan.stop_after_clean * sweep * plan.period

    def wake(self, pid: int) -> None:
        """(Re-)arm a processor's timer after a divergence signal."""
        kernel = self.service.engine.kernel
        proc = kernel.processors.get(pid)
        if proc is None or not proc.alive:
            return
        self._last_wake[pid] = kernel.now
        if self._active.get(pid):
            return
        self._active[pid] = True
        self._arm(pid)

    def wake_all(self) -> None:
        for pid in self.service.engine.kernel.pids:
            self.wake(pid)

    def mark_dirty(self) -> None:
        """Record observed divergence and keep the cluster gossiping."""
        self.last_dirty = self.service.engine.kernel.now
        self.wake_all()

    def on_processor_crash(self, pid: int) -> None:
        """Volatile scheduler state for ``pid`` dies with it."""
        self._active[pid] = False
        stale = [
            round_id
            for round_id, (initiator, _peer, _at) in self._open.items()
            if initiator == pid
        ]
        for round_id in stale:
            del self._open[round_id]
            self.service.count("rounds_aborted")

    # ------------------------------------------------------------------
    # the exchange
    # ------------------------------------------------------------------
    def on_tick(self, proc: "Processor", _tick: GossipTick) -> None:
        service = self.service
        engine = service.engine
        service.sweep_orphans(proc)
        service.sweep_dead_members(proc)
        self._expire_rounds(engine.now)
        # Partner choice follows the *initiator's own* liveness belief
        # (its detector's opinion, the ground truth under the oracle):
        # gossiping at a falsely suspected peer would be fine -- the
        # exchange is what heals the false unjoin -- but a suspected
        # peer is by definition one we are not hearing from, so rounds
        # aimed at it mostly expire.  Rescission wakes us and puts the
        # peer back in rotation.
        peers = [
            pid
            for pid in engine.kernel.pids
            if pid != proc.pid and engine.peer_up(proc.pid, pid)
        ]
        if not peers:
            return
        start = self._rotation.setdefault(proc.pid, proc.pid + self._seed)
        take = min(self.plan.fanout, len(peers))
        chosen = [peers[(start + k) % len(peers)] for k in range(take)]
        self._rotation[proc.pid] = start + take
        for peer in chosen:
            self.begin_round(proc, peer)

    def begin_round(self, proc: "Processor", peer: int) -> None:
        service = self.service
        entries, sums = service.shared_entries(proc, peer)
        self._round_counter += 1
        round_id = self._round_counter
        self._open[round_id] = (proc.pid, peer, service.engine.now)
        service.engine.kernel.route(
            proc.pid,
            peer,
            DigestOffer(
                src_pid=proc.pid,
                round_id=round_id,
                count=len(entries),
                top=sum(sums) & MASK,
            ),
        )
        service.count("rounds_started")
        service.count("digests_sent")
        service.count_bytes(DIGEST_BYTES)

    def _expire_rounds(self, now: float) -> None:
        # A round whose peer crashed (or whose replies were dead-
        # lettered) never closes; expire it without ever reaching the
        # repair executor.
        deadline = now - 2 * self.plan.period
        stale = [
            round_id
            for round_id, (_initiator, _peer, opened_at) in self._open.items()
            if opened_at <= deadline
        ]
        for round_id in stale:
            del self._open[round_id]
            self.service.count("rounds_aborted")

    def on_offer(self, proc: "Processor", action: DigestOffer) -> None:
        service = self.service
        entries, sums = service.shared_entries(proc, action.src_pid)
        if sum(sums) & MASK == action.top and len(entries) == action.count:
            reply: Any = DigestMatch(src_pid=proc.pid, round_id=action.round_id)
        else:
            self.mark_dirty()
            reply = DigestDetail(
                src_pid=proc.pid,
                round_id=action.round_id,
                buckets=tuple(sums),
            )
            service.count("digests_sent", self.plan.buckets)
            service.count_bytes(DIGEST_BYTES * self.plan.buckets)
        service.engine.kernel.route(proc.pid, action.src_pid, reply)

    def on_match(self, proc: "Processor", action: DigestMatch) -> None:
        if self._open.pop(action.round_id, None) is None:
            self.service.count("rounds_stale_replies")
            return
        self.service.count("rounds_clean")

    def on_detail(self, proc: "Processor", action: DigestDetail) -> None:
        service = self.service
        if self._open.pop(action.round_id, None) is None:
            service.count("rounds_stale_replies")
            return
        self.mark_dirty()
        service.count("rounds_diverged")
        entries, sums = service.shared_entries(proc, action.src_pid)
        mismatched = tuple(
            index
            for index in range(self.plan.buckets)
            if index >= len(action.buckets) or sums[index] != action.buckets[index]
        )
        payload = tuple(
            (nid, row[0], row[1], row[2], row[3])
            for nid, row in sorted(entries.items())
            if nid % self.plan.buckets in mismatched
        )
        service.engine.kernel.route(
            proc.pid,
            action.src_pid,
            DigestNodes(
                src_pid=proc.pid,
                round_id=action.round_id,
                buckets=mismatched,
                entries=payload,
            ),
        )
        service.count("digests_sent", len(payload))
        service.count_bytes(DIGEST_BYTES * max(len(payload), 1))
