"""Crash-stop awareness for the dB-tree engine (repro.sim.crash).

Exists only on a cluster built with a crash plan, which brings the
crash controller and the failure detector together (with an empty
schedule, only the detector acts).  The collaborator hooks the crash
controller (crash, restart) and the failure detector (suspicion,
rescission -- its only source of either), registers the three
actions they give rise to -- :class:`PeerFailure`,
:class:`PeerRescind`, :class:`RecoveryAnnounce` -- and owns the
per-processor state those need: ``dead_peers`` (who this processor
believes is down), ``recovery_stash`` and ``recovering_until`` (the
grace window after a restart, during which actions for copies still in
flight are parked instead of healed).

It also owns client fail-over: the rule that picks who begins an op
its home cannot serve, and the walk of the engine's ledger that fails
over a crashed home's ops, with or without op timers.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from repro.core.actions import (
    CreateCopy,
    MirrorUpdate,
    Mode,
    OpContext,
    PeerFailure,
    PeerRescind,
    RecoveryAnnounce,
    SetRoot,
)
from repro.sim.crash import RECOVERY_GRACE

if TYPE_CHECKING:
    from repro.core.dbtree.engine import DBTreeEngine
    from repro.sim.processor import Processor


class CrashRecovery:
    """What a processor forgets, is told, and answers around a crash."""

    def __init__(self, engine: "DBTreeEngine", eager: bool = False) -> None:
        self.engine = engine
        #: Re-replicate interior nodes at detection time (the
        #: available-copies baseline) instead of waiting for demand.
        self.eager = eager
        engine.crash = self
        controller = engine.kernel.crash_controller
        controller.on_crash(self._on_processor_crash)
        controller.on_restart(self._on_processor_restart)
        engine.kernel.detector.on_suspect(self._on_detector_suspect)
        engine.kernel.detector.on_rescind(self._on_detector_rescind)
        engine.on(PeerFailure, self.on_peer_failure)
        engine.on(PeerRescind, self.on_peer_rescind)
        engine.on(RecoveryAnnounce, self.on_recovery_announce)

    # ------------------------------------------------------------------
    # per-processor state
    # ------------------------------------------------------------------
    @staticmethod
    def dead_peers(proc: "Processor") -> "set[int] | frozenset[int]":
        """Peers this processor believes are down."""
        return proc.state.get("dead_peers") or frozenset()

    @staticmethod
    def mark_dead(proc: "Processor", pids: Any) -> None:
        """Remember the verdict: copy sets chosen later (root growth)
        must not include a peer this processor knows is down."""
        proc.state.setdefault("dead_peers", set()).update(pids)

    def stash_if_recovering(self, proc: "Processor", action: Any) -> bool:
        """Park an action addressed to a copy a restarted processor has
        not re-acquired yet.  Stashed actions are replayed when the
        copy installs and flushed when the grace window closes.
        Returns True if the action was stashed."""
        stash = proc.state.get("recovery_stash")
        if stash is None:
            return False
        node_id = getattr(action, "node_id", None)
        if node_id is None:
            return False
        stash.setdefault(node_id, []).append(action)
        self.engine.trace.bump("recovery_stash_deposits")
        return True

    def replay_stash(self, proc: "Processor", node_id: int) -> None:
        """The copy arrived: hand it the actions parked for it."""
        stash = proc.state.get("recovery_stash")
        if stash is not None:
            for pending in stash.pop(node_id, ()):
                proc.submit(pending)

    # ------------------------------------------------------------------
    # client fail-over
    # ------------------------------------------------------------------
    @staticmethod
    def can_serve(proc: "Processor") -> bool:
        """Whether ``proc`` can begin an operation: live and rooted."""
        return proc.alive and proc.state["root_id"] is not None

    def fail_over(self, op: OpContext) -> OpContext | None:
        """The fail-over rule: who begins an op its home cannot serve.

        Under path replication every processor that holds a leaf holds
        the path from the root down to it, and an operation begins by
        accessing the root, so any live, rooted processor can begin
        it.  The op goes to its home's first such processor in ring
        order -- the home itself, if it can serve again -- keeping its
        op id; that processor becomes its home, where the return lands
        and the completion fires (a late return to the old home is the
        duplicate the return dedup swallows).  The moved op replaces
        the engine's ledger entry.  None when no processor is live and
        rooted.
        """
        engine = self.engine
        kernel = engine.kernel
        pids = kernel.pids
        at = pids.index(op.home_pid)
        for pid in pids[at:] + pids[:at]:
            if self.can_serve(kernel.processor(pid)):
                if pid != op.home_pid:
                    op = engine.in_flight[op.op_id] = op._replace(home_pid=pid)
                return op
        return None

    def fail_over_ops(self, home_pid: int | None = None) -> None:
        """Fail over the ops in the engine's ledger homed at
        ``home_pid`` (every op when None).

        Called for a crashed home, whose ops lost their returns with
        it, and when the first processor is rooted again after none
        was, when every op is stranded.  Each op is re-issued from
        where :meth:`fail_over` puts it, by the same idempotent
        re-issue a timer makes; no retry is spent and a timer stays
        armed as it was, as the fallback.  An op no processor can
        serve is :meth:`stranded <repro.core.dbtree.engine.DBTreeEngine
        .strand>`.  The walk reads a snapshot: a fail-over writes the
        moved op back, and a verdict takes one out.
        """
        engine = self.engine
        for op in list(engine.in_flight.values()):
            if home_pid is None or op.home_pid == home_pid:
                moved = self.fail_over(op)
                if moved is None:
                    engine.strand(op)
                else:
                    engine.issue_from_root(moved, "op_failed_over")

    # ------------------------------------------------------------------
    # controller and detector hooks
    # ------------------------------------------------------------------
    def _on_processor_crash(self, pid: int) -> None:
        """Crash-stop: every copy this processor held is gone.

        Everything volatile dies with the processor -- the engine
        hands it the same empty state a fresh cluster starts from, so
        no layer's key can outlive the crash; the trace records each
        lost copy so the audit can tell crash losses from deliberate
        deletions.  The operations it was home to lost their returns
        with it and fail over now.
        """
        engine = self.engine
        proc = engine.kernel.processor(pid)
        for node_id in proc.state["store"]:
            engine.trace.record_copy_deleted(node_id, pid, engine.now, reason="crash")
        engine.reset_processor(proc)
        engine.trace.bump("processor_crashes")
        self.fail_over_ops(pid)

    def _on_detector_suspect(self, observer: int, peer: int) -> None:
        """Observer's failure detector gave up on ``peer``.

        A strictly local event, modelled as a locally enqueued action
        (detectors are local observations, not messages): only the
        observer acts, by enqueueing a :class:`PeerFailure`.  The
        downstream machinery (forced unjoins, mirror re-homes) cannot
        tell earned suspicion from the oracle's, which is what makes
        the detector swappable."""
        proc = self.engine.kernel.processors.get(observer)
        if proc is not None and proc.alive:
            proc.submit(PeerFailure(peer))

    def _on_detector_rescind(self, observer: int, peer: int) -> None:
        """A heartbeat from a suspected peer: the observer takes it back."""
        proc = self.engine.kernel.processors.get(observer)
        if proc is not None and proc.alive:
            proc.submit(PeerRescind(peer))

    def _on_processor_restart(self, pid: int) -> None:
        """Come back amnesiac: announce the restart and open the
        recovery grace window (state itself was wiped at crash time).

        During the window, actions addressed to copies this processor
        no longer holds are stashed rather than healed -- the copies
        are usually already in flight from the announce responses.
        """
        engine = self.engine
        kernel = engine.kernel
        state = kernel.processor(pid).state
        state["recovery_stash"] = {}
        deadline = engine.now + RECOVERY_GRACE
        state["recovering_until"] = deadline
        for other in kernel.crash_controller.alive_pids():
            if other != pid:
                kernel.route(pid, other, RecoveryAnnounce(pid))
        kernel.events.schedule(deadline, partial(self._end_recovery, pid, deadline))
        engine.trace.bump("processor_restarts")

    def _end_recovery(self, pid: int, deadline: float) -> None:
        """Close the grace window: flush the stash, then let the
        protocol re-enter what the restart lost (the root's
        replication, under variable copies)."""
        engine = self.engine
        proc = engine.kernel.processor(pid)
        state = proc.state
        if not proc.alive or state.get("recovering_until") != deadline:
            return  # crashed again since this grace window was armed
        state.pop("recovering_until", None)
        stash = state.pop("recovery_stash", None)
        if stash:
            leftovers = [act for acts in stash.values() for act in acts]
            engine.trace.bump("recovery_stash_unclaimed", len(leftovers))
            for act in leftovers:
                if getattr(act, "mode", None) is Mode.RELAYED:
                    # The copy never arrived; hand the stranded relay
                    # to the heal path so it re-joins explicitly.
                    engine.protocol.on_relay_to_missing(proc, act)
        engine.protocol.on_recovered(proc)
        engine.kernel.crash_controller.note_recovered(pid, engine.now)

    # ------------------------------------------------------------------
    # action rows
    # ------------------------------------------------------------------
    def on_peer_failure(self, proc: "Processor", action: PeerFailure) -> None:
        engine = self.engine
        dead = action.pid
        if engine.peer_up(proc.pid, dead):
            # The observer no longer suspects the peer, or (oracle) the
            # verdict raced a restart: the announce path owns recovery
            # now, and acting on it could fork the leaf.  Note what an
            # earned detector deliberately does not consult -- the
            # ground truth.  A false suspicion proceeds (forced unjoin,
            # re-home and all); tolerating that, via idempotent
            # re-joins and anti-entropy reconciliation, is the
            # partition-tolerance contract the checker audits.
            engine.trace.bump("peer_failure_stale")
            return
        engine.protocol.forget_joins(proc)
        self.mark_dead(proc, (dead,))
        engine.protocol.on_peer_failure(proc, dead)
        if engine.mirrors is not None:
            engine.mirrors.rehome(proc, dead)

    def on_peer_rescind(self, proc: "Processor", action: PeerRescind) -> None:
        """The observer's detector withdrew its suspicion of ``pid``.

        Restores the peer to this processor's world view (future copy
        sets, gossip partners, and mirror successors may include it
        again) and nudges repair.  Deliberately *not* a membership
        operation: if the false suspicion already forced an unjoin or
        double-homed a leaf, a silent local re-add would fork the
        copy-set history.  Re-admitting ``pid`` goes through the
        versioned join machinery, which the next gossip exchange with
        the rescinded peer triggers, so waiting out the dormancy window
        would just prolong the divergence.
        """
        engine = self.engine
        pid = action.pid
        dead_peers = proc.state.get("dead_peers")
        if dead_peers is None or pid not in dead_peers:
            engine.trace.bump("peer_rescind_stale")
            return
        dead_peers.discard(pid)
        engine.trace.bump("peer_rescinds")
        if engine.repair is not None:
            engine.repair.scheduler.wake(proc.pid)

    def on_recovery_announce(
        self, proc: "Processor", action: RecoveryAnnounce
    ) -> None:
        """Answer a restarted peer with what it needs to rebuild."""
        engine = self.engine
        kernel = engine.kernel
        mirrors = engine.mirrors
        back = action.pid
        state = proc.state
        dead_peers = state.get("dead_peers")
        if dead_peers is not None:
            dead_peers.discard(back)
        engine.protocol.forget_joins(proc)
        # 1. The root pointer (its SetRoot may have been dead-lettered).
        root_id = state["root_id"]
        if root_id is not None:
            entry = state["locator"].get(root_id)
            root_pids = tuple(entry[1]) if entry is not None else ()
            kernel.route(
                proc.pid,
                back,
                SetRoot(
                    root_id=root_id,
                    root_level=state["root_level"],
                    root_pids=root_pids,
                    version=state["root_level"],
                ),
            )
        # 2. Snapshots of replicated nodes the peer is still declared
        #    primary for (first donation wins; duplicates are ignored,
        #    and FIFO queues mean any donor's snapshot covers every
        #    initial action relayed during the dead window).
        for copy in engine.store(proc).values():
            if copy.retired:
                continue
            if copy.pc_pid == back:
                snapshot = engine.make_snapshot(proc, copy)
                kernel.route(proc.pid, back, CreateCopy(snapshot, "pc_recovery"))
                engine.trace.bump("pc_donations")
            elif (
                mirrors is not None
                and mirrors.mirrored(copy)
                and back in mirrors.targets(proc.pid, copy.node_id)
            ):
                # 3. Refreshed mirrors of this processor's own leaves
                #    (the peer's mirror store was wiped by the crash).
                kernel.route(
                    proc.pid,
                    back,
                    MirrorUpdate(proc.pid, copy.node_id, copy.snapshot()),
                )
        # 4. The peer's own mirrored leaves go home -- this is the
        #    restart-before-detection case, where no re-homing ran.
        if mirrors is not None:
            for home, snap in list(mirrors.held(proc).values()):
                if home == back:
                    kernel.route(proc.pid, back, CreateCopy(snap, "rehome"))
        engine.protocol.on_peer_recovered(proc, back)
