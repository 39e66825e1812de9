"""Eager node migration: broadcast the new location to everyone.

Paper, Section 4.2: *"When a node migrates, the host processor can
broadcast its new location to every other processor that manages the
node (as is done in Emerald).  However, this algorithm requires large
amounts of wasted effort."*

This baseline implements that broadcast variant so experiment C5 can
measure the waste: every migration costs P - 1 location messages,
versus a handful of neighbour link-changes (plus the occasional
recovery hop) for the lazy algorithm.  Because everyone always knows
every location, no forwarding addresses are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.node import NodeCopy
from repro.protocols.mobile import MobileProtocol

if TYPE_CHECKING:
    from repro.sim.processor import ActionHandler, Processor


@dataclass(frozen=True)
class LocationBroadcast:
    """Cluster-wide announcement of a node's new home."""

    kind = "location_broadcast"

    node_id: int
    new_pid: int
    version: int


class EagerBroadcastProtocol(MobileProtocol):
    """Mobile protocol with Emerald-style broadcast on migration."""

    name = "eager_broadcast"

    def migrate(self, proc: "Processor", copy: NodeCopy, to_pid: int) -> None:
        engine = self.engine
        node_id = copy.node_id
        self.migrate_single_copy(engine, proc, copy, to_pid, leave_forwarding=False)
        version = copy.version  # migrate_single_copy incremented it
        for pid in engine.kernel.pids:
            if pid == proc.pid:
                continue
            engine.kernel.route(
                proc.pid,
                pid,
                LocationBroadcast(node_id=node_id, new_pid=to_pid, version=version),
            )
        engine.trace.bump("location_broadcasts")

    def handlers(self) -> dict[type, "ActionHandler"]:
        return {
            **super().handlers(),
            LocationBroadcast: self.on_location_broadcast,
        }

    def on_location_broadcast(
        self, proc: "Processor", action: LocationBroadcast
    ) -> None:
        self.engine.learn_location(
            proc, action.node_id, (action.new_pid,), action.version
        )
