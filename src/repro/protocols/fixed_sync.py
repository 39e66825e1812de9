"""Synchronous splits (paper, Section 4.1.1).

The conservative fixed-copies protocol: splits execute under an
atomic action sequence (AAS) so that splits and initial inserts are
ordered the same way at the primary copy and at every other copy.

Per split the PC pays three message rounds to the |copies| - 1 peers
-- split_start, acknowledgement, split_end (~3|copies| messages) --
and initial inserts are *blocked* at every copy for the duration.
``split_end`` carries the same :class:`~repro.core.actions.HalfSplit`
a lazy relayed split does, and a copy applies it the same way
(:meth:`~repro.protocols.base.Protocol.apply_relayed_split`); what
this protocol adds is only the AAS around it.
Relayed inserts and searches are never blocked (the paper is explicit
that even this protocol keeps reads wait-free).

This protocol exists as the paper's own comparison point for the
semi-synchronous protocol; experiments F5 and C4 measure the message
and blocking overhead against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.aas import AASRegistry
from repro.core.actions import SplitAck, SplitEnd, SplitStart
from repro.core.node import NodeCopy
from repro.protocols.base import Protocol

if TYPE_CHECKING:
    from repro.sim.processor import ActionHandler, Processor


class SyncProtocol(Protocol):
    """AAS-based split protocol: blocks initial inserts during splits."""

    name = "sync"

    # ------------------------------------------------------------------
    # admission: the AAS blocks initial updates, nothing else
    # ------------------------------------------------------------------
    def admits_initial_update(
        self, proc: "Processor", copy: NodeCopy, action: Any
    ) -> bool:
        registry = copy.proto.get("aas")
        if registry is None or not registry.any_active:
            return True
        engine = self.engine
        registry.defer(action)
        engine.trace.record_block(action.action_id, engine.now)
        engine.trace.bump("blocked_initial_updates")
        return False

    def _registry(self, copy: NodeCopy) -> AASRegistry:
        registry = copy.proto.get("aas")
        if registry is None:
            registry = AASRegistry()
            copy.proto["aas"] = registry
        return registry

    # ------------------------------------------------------------------
    # split discipline
    # ------------------------------------------------------------------
    def initiate_split(self, proc: "Processor", copy: NodeCopy) -> None:
        engine = self.engine
        if not (copy.is_pc and copy.is_overfull and copy.num_entries >= 2):
            copy.proto["split_scheduled"] = False
            return
        if copy.proto.get("pending_split") is not None:
            return  # a split AAS is already in flight
        peers = copy.peers_of(proc.pid)
        if not peers:
            # Unreplicated node: no coordination needed.
            while copy.is_overfull and copy.num_entries >= 2:
                engine.perform_half_split(proc, copy)
            copy.proto["split_scheduled"] = False
            return
        split_id = engine.trace.new_action_id()
        registry = self._registry(copy)
        registry.begin(split_id)
        copy.proto["pending_split"] = {"split_id": split_id, "awaiting": set(peers)}
        engine.trace.bump("split_aas_started")
        engine.relay(
            proc,
            copy,
            SplitStart(node_id=copy.node_id, split_id=split_id, pc_pid=proc.pid),
            peers,
        )

    def handlers(self) -> dict[type, "ActionHandler"]:
        return {
            **super().handlers(),
            SplitStart: self.on_split_start,
            SplitAck: self.on_split_ack,
            SplitEnd: self.on_split_end,
        }

    # -- non-PC side ---------------------------------------------------
    def on_split_start(self, proc: "Processor", action: SplitStart) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            engine.trace.bump("split_control_on_missing_copy")
            return
        registry = self._registry(copy)
        registry.begin(action.split_id)
        engine.kernel.route(
            proc.pid,
            action.pc_pid,
            SplitAck(node_id=copy.node_id, split_id=action.split_id, from_pid=proc.pid),
        )

    def on_split_end(self, proc: "Processor", action: SplitEnd) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            engine.trace.bump("split_control_on_missing_copy")
            return
        self.apply_relayed_split(proc, copy, action.split)
        self._release(proc, copy, action.split_id)

    # -- PC side ---------------------------------------------------------
    def on_split_ack(self, proc: "Processor", action: SplitAck) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            engine.trace.bump("split_control_on_missing_copy")
            return
        pending = copy.proto.get("pending_split")
        if pending is None or pending["split_id"] != action.split_id:
            engine.trace.bump("stray_split_ack")
            return
        pending["awaiting"].discard(action.from_pid)
        if pending["awaiting"]:
            return
        # All copies acknowledged: perform the half-split and finish.
        split = engine.perform_half_split(proc, copy)
        engine.relay(proc, copy, SplitEnd(copy.node_id, action.split_id, split))
        copy.proto["pending_split"] = None
        copy.proto["split_scheduled"] = False
        self._release(proc, copy, action.split_id)
        self.maybe_split(proc, copy)  # may still be overfull

    # -- shared ----------------------------------------------------------
    def _release(self, proc: "Processor", copy: NodeCopy, split_id: int) -> None:
        """Finish the AAS at this copy and resume blocked updates."""
        engine = self.engine
        released = self._registry(copy).finish(split_id)
        for blocked in released:
            engine.trace.record_unblock(blocked.action_id, engine.now)
            proc.submit(blocked)
