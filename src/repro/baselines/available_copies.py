"""Vigorous replication: the available-copies baseline.

Paper, Section 1.1: *"If every node update required the execution of
an available-copies algorithm, the overhead of maintaining replicated
copies would be prohibitive."*  This module makes that foil concrete
so experiment C2 can measure it.

Every update to a replicated node is serialized through the primary
copy and executed under a two-round write-all protocol:

1. PC sends ``LockRequest`` to the other copies; each copy locks
   (searches arriving at a locked copy are **blocked**) and grants.
2. On all grants the PC applies the update, sends ``ApplyUnlock``
   (the update piggybacking the unlock); each copy applies, unlocks,
   resumes blocked searches, and acknowledges.  The PC completes the
   operation only after every acknowledgement.

Cost per update: 4(|copies| - 1) messages and two network round
trips, versus |copies| - 1 one-way relays for a lazy update -- plus
blocked reads, which the lazy protocols never have.  Splits run under
the same lock round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.actions import (
    DeleteAction,
    HalfSplit,
    InsertAction,
    Mode,
    SearchStep,
)
from repro.core.node import NodeCopy
from repro.protocols.base import Protocol

if TYPE_CHECKING:
    from repro.sim.processor import ActionHandler, Processor


@dataclass(frozen=True)
class LockRequest:
    kind = "lock_request"

    node_id: int
    round_id: int
    pc_pid: int


@dataclass(frozen=True)
class LockGrant:
    kind = "lock_grant"

    node_id: int
    round_id: int
    from_pid: int


@dataclass(frozen=True)
class ApplyUnlock:
    """The update itself, piggybacking the unlock."""

    kind = "apply_unlock"

    node_id: int
    round_id: int
    payload: Any  # the relayed keyed update, or the HalfSplit


@dataclass(frozen=True)
class UpdateAck:
    kind = "update_ack"

    node_id: int
    round_id: int
    from_pid: int


class AvailableCopiesProtocol(Protocol):
    """Write-all-with-locks replica maintenance (the vigorous foil)."""

    name = "available_copies"

    # ------------------------------------------------------------------
    # per-copy state
    # ------------------------------------------------------------------
    @staticmethod
    def _state(copy: NodeCopy) -> dict[str, Any]:
        state = copy.proto.get("vigorous")
        if state is None:
            state = {
                "locked": False,
                "blocked_searches": [],
                "queue": [],  # pending rounds at the PC
                "round": None,  # active round at the PC
            }
            copy.proto["vigorous"] = state
        return state

    # ------------------------------------------------------------------
    # admission: locked copies block searches; non-PC initial updates
    # are rerouted to the PC; a busy PC queues
    # ------------------------------------------------------------------
    def admits_search(
        self, proc: "Processor", copy: NodeCopy, action: SearchStep
    ) -> bool:
        state = self._state(copy)
        if not state["locked"]:
            return True
        state["blocked_searches"].append(action)
        engine = self.engine
        engine.trace.record_block(("search", action.op.op_id), engine.now)
        engine.trace.bump("blocked_searches")
        return False

    def admits_initial_update(
        self, proc: "Processor", copy: NodeCopy, action: Any
    ) -> bool:
        engine = self.engine
        if not copy.is_pc:
            # Single-writer: all updates serialize through the PC.
            engine.kernel.route(proc.pid, copy.pc_pid, action)
            engine.trace.bump("updates_forwarded_to_pc")
            return False
        state = self._state(copy)
        if state["round"] is not None:
            state["queue"].append(("update", action))
            engine.trace.record_block(action.action_id, engine.now)
            engine.trace.bump("blocked_initial_updates")
            return False
        return True

    # ------------------------------------------------------------------
    # update path (PC only; admission guarantees it)
    # ------------------------------------------------------------------
    def initial_insert(
        self, proc: "Processor", copy: NodeCopy, action: InsertAction
    ) -> None:
        self._start_round(proc, copy, ("update", action))

    def initial_delete(
        self, proc: "Processor", copy: NodeCopy, action: DeleteAction
    ) -> None:
        self._start_round(proc, copy, ("update", action))

    def maybe_split(self, proc: "Processor", copy: NodeCopy) -> None:
        if not copy.is_pc or not copy.is_overfull:
            return
        state = self._state(copy)
        already_queued = any(kind == "split" for kind, _p in state["queue"])
        if copy.proto.get("split_scheduled") or already_queued:
            return
        if state["round"] is not None:
            state["queue"].append(("split", None))
            return
        copy.proto["split_scheduled"] = True
        self.engine.schedule_split(proc, copy.node_id)

    def initiate_split(self, proc: "Processor", copy: NodeCopy) -> None:
        copy.proto["split_scheduled"] = False
        if not (copy.is_pc and copy.is_overfull and copy.num_entries >= 2):
            return
        state = self._state(copy)
        if state["round"] is not None:
            state["queue"].append(("split", None))
            return
        self._start_round(proc, copy, ("split", None))

    # ------------------------------------------------------------------
    # the lock round
    # ------------------------------------------------------------------
    def _start_round(
        self, proc: "Processor", copy: NodeCopy, work: tuple[str, Any]
    ) -> None:
        engine = self.engine
        kind, action = work
        if kind == "update" and not copy.in_range(action.key):
            # A split round that ran while this update was queued
            # re-homed its key: forward it right as a fresh arrival.
            engine.forward_same_level(proc, copy, action, action.key)
            self._drain_queue(proc, copy)
            return
        if kind == "split" and not (copy.is_overfull and copy.num_entries >= 2):
            self._drain_queue(proc, copy)
            return
        peers = copy.peers_of(proc.pid)
        state = self._state(copy)
        if not peers:
            # Unreplicated node: no coordination.
            _payload, result = self._apply_work_at_pc(proc, copy, work)
            self._finish_round(proc, copy, work, result)
            self._drain_queue(proc, copy)
            return
        round_id = engine.trace.new_action_id()
        state["round"] = {
            "round_id": round_id,
            "work": work,
            "awaiting": set(peers),
            "phase": "locking",
        }
        state["locked"] = True
        engine.relay(
            proc,
            copy,
            LockRequest(node_id=copy.node_id, round_id=round_id, pc_pid=proc.pid),
            peers,
        )

    def _apply_work_at_pc(
        self, proc: "Processor", copy: NodeCopy, work: tuple[str, Any]
    ) -> tuple[Any, Any]:
        """Apply the round's work locally; returns (peer payload, result)."""
        engine = self.engine
        kind, action = work
        if kind == "update":
            result = self._perform_initial_keyed(proc, copy, action)
            return action._replace(mode=Mode.RELAYED, op=None), result
        return engine.perform_half_split(proc, copy), True

    def _finish_round(
        self,
        proc: "Processor",
        copy: NodeCopy,
        work: tuple[str, Any],
        result: Any = True,
    ) -> None:
        kind, action = work
        if kind == "update" and action.op is not None:
            self.engine.complete_op(proc, action.op, result=result)
        self.maybe_split(proc, copy)

    def _drain_queue(self, proc: "Processor", copy: NodeCopy) -> None:
        state = self._state(copy)
        if state["round"] is not None or not state["queue"]:
            return
        engine = self.engine
        work = state["queue"].pop(0)
        if work[0] == "update":
            engine.trace.record_unblock(work[1].action_id, engine.now)
        self._start_round(proc, copy, work)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def handlers(self) -> dict[type, "ActionHandler"]:
        return {
            **super().handlers(),
            LockRequest: self.on_lock_request,
            LockGrant: self.on_lock_grant,
            ApplyUnlock: self.on_apply_unlock,
            UpdateAck: self.on_update_ack,
        }

    def on_lock_request(self, proc: "Processor", action: LockRequest) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            engine.trace.bump("lock_on_missing_copy")
            return
        self._state(copy)["locked"] = True
        engine.kernel.route(
            proc.pid,
            action.pc_pid,
            LockGrant(
                node_id=copy.node_id, round_id=action.round_id, from_pid=proc.pid
            ),
        )

    def on_lock_grant(self, proc: "Processor", action: LockGrant) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            return
        state = self._state(copy)
        round_state = state["round"]
        if round_state is None or round_state["round_id"] != action.round_id:
            engine.trace.bump("stray_lock_grant")
            return
        round_state["awaiting"].discard(action.from_pid)
        if round_state["awaiting"] or round_state["phase"] != "locking":
            return
        # All copies locked: apply at the PC and push to the peers.
        payload, result = self._apply_work_at_pc(proc, copy, round_state["work"])
        round_state["phase"] = "applying"
        round_state["result"] = result
        round_state["awaiting"] = set(
            engine.relay(
                proc,
                copy,
                ApplyUnlock(
                    node_id=copy.node_id, round_id=action.round_id, payload=payload
                ),
            )
        )
        if not round_state["awaiting"]:
            self._complete_round(proc, copy)

    def on_apply_unlock(self, proc: "Processor", action: ApplyUnlock) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            engine.trace.bump("apply_on_missing_copy")
            return
        payload = action.payload
        if isinstance(payload, HalfSplit):
            self.apply_relayed_split(proc, copy, payload)
        else:
            self.apply_relayed_keyed(proc, copy, payload)
        self._unlock(proc, copy)
        engine.kernel.route(
            proc.pid,
            copy.pc_pid,
            UpdateAck(
                node_id=copy.node_id, round_id=action.round_id, from_pid=proc.pid
            ),
        )

    def on_update_ack(self, proc: "Processor", action: UpdateAck) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            return
        state = self._state(copy)
        round_state = state["round"]
        if round_state is None or round_state["round_id"] != action.round_id:
            engine.trace.bump("stray_update_ack")
            return
        round_state["awaiting"].discard(action.from_pid)
        if not round_state["awaiting"]:
            self._complete_round(proc, copy)

    def _complete_round(self, proc: "Processor", copy: NodeCopy) -> None:
        state = self._state(copy)
        work = state["round"]["work"]
        result = state["round"].get("result", True)
        state["round"] = None
        self._unlock(proc, copy)
        self._finish_round(proc, copy, work, result)
        self._drain_queue(proc, copy)

    def _unlock(self, proc: "Processor", copy: NodeCopy) -> None:
        engine = self.engine
        state = self._state(copy)
        state["locked"] = state["round"] is not None
        if state["locked"]:
            return
        blocked = state["blocked_searches"]
        state["blocked_searches"] = []
        for search in blocked:
            engine.trace.record_unblock(("search", search.op.op_id), engine.now)
            proc.submit(search)
