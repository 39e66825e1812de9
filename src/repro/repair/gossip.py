"""Gossip scheduler: periodic peer-to-peer digest exchange.

Each processor runs a repair timer inside the simulator clock.  On
each tick it picks the next live peer in a seed-offset round-robin
rotation -- so every pair provably exchanges digests within ``n - 1``
periods, unlike uniform random choice which can starve a pair
indefinitely -- and opens a round with it:

1. initiator -> peer: :class:`DigestOffer` (the roll-up of the
   commonly-replicated ranges -- the sum of the pair view's bucket
   sums, which the repair service keeps as rows change -- plus an
   entry count).  The tick only leaves a *rider* for the pair: the
   offer is computed when the next message from the initiator to the
   peer leaves, and joins that message's
   :class:`~repro.sim.network.Bundle` (paper, Section 1.1: a lazy
   update "can be piggybacked onto messages used for other
   purposes").  An offer no message carries leaves alone at the
   initiator's next tick, or when its timer goes dormant, so it waits
   at most one period; it is dropped instead if the initiator has
   come to suspect the peer meanwhile,
2. peer: silence if its own roll-up agrees (the round is *clean*, and
   the peer counts it), else :class:`DigestDetail` with its bucket
   sums,
3. initiator -> peer: :class:`DigestNodes` carrying per-node digests
   for the mismatching buckets only -- the drill-down never ships
   more than the divergent subtrees,
4. the peer's repair executor (:mod:`repro.repair.repair`) resolves
   each mismatch through the paper's own machinery.

Rounds are expendable.  A pending rider is volatile: its processor's
crash drops it.  A round whose offer has left stays in the ledger of
rounds in flight until its peer agrees, its detail arrives, its
initiator crashes, or it expires two periods on (its offer or detail
was lost); a crash or an expiry counts it aborted, and a
:class:`DigestDetail` whose round is no longer in flight is stale and
never reaches the repair executor (the "abort cleanly" requirement).
Timer chains are tagged with the processor's incarnation so a tick
armed before a crash dies with it instead of double-firing after
restart.

The scheduler self-quiesces: once every round has been clean for
``STOP_AFTER_CLEAN`` consecutive sweeps, a processor's timer goes
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
from repro.sim.network import Bundle

if TYPE_CHECKING:
    from repro.repair.repair import RepairService
    from repro.sim.processor import Processor

#: Consecutive quiet *sweeps* (a sweep is the ``n - 1`` periods the
#: rotation needs to visit every peer) before a processor's timer goes
#: dormant; re-armed by any divergence signal.
STOP_AFTER_CLEAN = 2


@dataclass(frozen=True)
class RepairPlan:
    """The anti-entropy subsystem.

    period:
        Virtual time between a processor's gossip ticks.

    A tick contacts one peer; the drill-down's bucket count is
    :data:`repro.repair.digest.BUCKETS` and dormancy waits
    ``STOP_AFTER_CLEAN`` quiet sweeps.
    """

    period: float = 50.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"repair period must be > 0, got {self.period}")


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
        #: Rounds in flight, round_id -> (initiator_pid, peer_pid,
        #: opened_at): the offer has left and the peer has neither
        #: agreed nor had its detail arrive.
        self._open: dict[int, tuple[int, int, float]] = {}
        #: (initiator_pid, peer_pid) pairs whose offer waits for a
        #: carrier, in the order they were left.
        self._riders: dict[tuple[int, int], None] = {}
        #: The network's own send while riders are on; None otherwise.
        self._send: Any = None
        self._active: dict[int, bool] = {}
        self._last_wake: dict[int, float] = {}
        self.last_dirty = 0.0

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every processor's timer chain, staggered so a cluster
        does not tick in lockstep bursts, and let offers ride."""
        kernel = self.service.engine.kernel
        if all(proc.holding for proc in kernel.processors.values()):
            # Instance rebinding, as Trace does for its levels: a
            # network without repair keeps its class's send.  Where
            # processors do not hold their sends (a kind-restricted
            # fault plan judges every logical message alone), nothing
            # rides and a tick sends its offers at once.
            network = kernel.network
            self._send = network.send
            network.send = self._carry
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
            self._send_riders(pid)
            return
        proc.submit(GossipTick(pid))
        self._arm(pid)

    def _quiet_window(self) -> float:
        """Quiet time before dormancy: ``STOP_AFTER_CLEAN`` full
        rotation sweeps, so every pair gossips (cleanly) before any
        timer concludes there is nothing left to repair."""
        peers = max(len(self.service.engine.kernel.pids) - 1, 1)
        return STOP_AFTER_CLEAN * peers * self.plan.period

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
        """Volatile scheduler state for ``pid`` dies with it: its
        pending riders and its rounds in flight."""
        self._active[pid] = False
        for pair in [pair for pair in self._riders if pair[0] == pid]:
            del self._riders[pair]
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
        # An offer that no message carried since the last tick leaves
        # alone now, as this tick's round with that peer.
        sent = self._send_riders(proc.pid)
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
        peer = peers[start % len(peers)]
        self._rotation[proc.pid] = start + 1
        if peer not in sent:
            self.begin_round(proc, peer)

    def begin_round(self, proc: "Processor", peer: int) -> None:
        """Open a round with ``peer``: leave its offer as a rider, or
        send it now where nothing rides."""
        if self._send is None:
            offer = self._offer(proc.pid, peer)
            self.service.engine.kernel.route(proc.pid, peer, offer)
        else:
            self._riders[proc.pid, peer] = None

    def _carry(self, src: int, dst: int, payload: Any) -> None:
        """The network's send, riders on: a message from ``src`` to
        ``dst`` takes that pair's pending offer along, computed now."""
        riders = self._riders
        if riders and (src, dst) in riders:
            del riders[src, dst]
            payload = Bundle.join(payload, self._offer(src, dst))
            self.service.count("offers_piggybacked")
        self._send(src, dst, payload)

    def _send_riders(self, pid: int) -> list[int]:
        """Send every offer of ``pid`` still waiting for a carrier on
        its own, unless ``pid`` has come to suspect the peer since (as
        at partner choice); return their peers."""
        peers = [peer for src, peer in self._riders if src == pid]
        engine = self.service.engine
        for peer in peers:
            del self._riders[pid, peer]
            if engine.peer_up(pid, peer):
                engine.kernel.route(pid, peer, self._offer(pid, peer))
        return peers

    def _offer(self, pid: int, peer: int) -> DigestOffer:
        """Put a round in flight: the roll-up of ``pid``'s view shared
        with ``peer`` as it is now."""
        service = self.service
        proc = service.engine.kernel.processor(pid)
        entries, sums = service.shared_entries(proc, peer)
        self._round_counter += 1
        round_id = self._round_counter
        self._open[round_id] = (pid, peer, service.engine.now)
        service.count("rounds_started")
        service.count("digests_sent")
        service.count_bytes(DIGEST_BYTES)
        return DigestOffer(
            src_pid=pid,
            round_id=round_id,
            count=len(entries),
            top=sum(sums) & MASK,
        )

    def _expire_rounds(self, now: float) -> None:
        # A round whose peer crashed (or whose offer or detail was
        # dead-lettered) never closes; expire it without ever reaching
        # the repair executor.
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
            # Silence is agreement: nothing travels back.  The round is
            # over, unless its initiator's crash or its expiry ended it.
            if self._open.pop(action.round_id, None) is not None:
                service.count("rounds_clean")
            return
        self.mark_dirty()
        # This round drills into the pair's divergence; our own offer
        # to the initiator, were it to ride on the detail, would find
        # the same divergence before the drill-down repairs it, and a
        # second drill-down would repair it again.
        self._riders.pop((proc.pid, action.src_pid), None)
        service.engine.kernel.route(
            proc.pid,
            action.src_pid,
            DigestDetail(
                src_pid=proc.pid,
                round_id=action.round_id,
                buckets=tuple(sums),
            ),
        )
        service.count("digests_sent", len(sums))
        service.count_bytes(DIGEST_BYTES * len(sums))

    def on_detail(self, proc: "Processor", action: DigestDetail) -> None:
        service = self.service
        if self._open.pop(action.round_id, None) is None:
            service.count("rounds_stale_replies")
            return
        self.mark_dirty()
        service.count("rounds_diverged")
        # (the same at this end: the drill-down is the pair's round)
        self._riders.pop((proc.pid, action.src_pid), None)
        entries, sums = service.shared_entries(proc, action.src_pid)
        buckets = len(sums)  # one sum per bucket, node_id % buckets
        mismatched = tuple(
            index
            for index in range(buckets)
            if index >= len(action.buckets) or sums[index] != action.buckets[index]
        )
        payload = tuple(
            (nid, row[0], row[1], row[2], row[3])
            for nid, row in sorted(entries.items())
            if nid % buckets in mismatched
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
