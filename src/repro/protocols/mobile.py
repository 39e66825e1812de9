"""Single-copy mobile nodes (paper, Section 4.2).

Every node has exactly one copy, but nodes migrate between processors
(typically for load balancing).  The lazy algorithm:

* **migration** increments the node's version, installs the copy at
  the destination, leaves a forwarding address behind (an
  optimization, garbage-collectable at any time), and sends
  link-change actions to the known neighbours so their locators catch
  up;
* **half-splits** place the sibling on the same processor with
  version + 1, send the insert to the parent and a link-change to the
  old right neighbour (whose left link now names the sibling);
* **link-changes** are the *ordered* action class: applied only if
  the carried version exceeds the slot's stored version, which is how
  ordered histories are produced lazily (stale changes are discarded
  -- the history is rewritten);
* **misnavigated messages** recover exactly like misnavigated B-link
  operations, by the engine's step rule: a holder the locator names,
  else a restart from the closest local node covering the key, else
  the root.

Histories are vacuously compatible (one copy per node); the engine's
recovery machinery plus the version ordering provide the complete and
ordered history requirements (paper, Theorem 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.actions import CreateCopy, MigrateNode
from repro.core.node import NodeCopy
from repro.core.replication import Placement, SingleCopy
from repro.protocols.base import Protocol

if TYPE_CHECKING:
    from repro.core.dbtree import DBTreeEngine
    from repro.sim.processor import ActionHandler, Processor


class MigrationMixin:
    """Shared single-copy migration mechanics (Sections 4.2-4.3)."""

    def migrate_single_copy(
        self,
        engine: "DBTreeEngine",
        proc: "Processor",
        copy: NodeCopy,
        to_pid: int,
        leave_forwarding: bool = True,
    ) -> None:
        """Move an unreplicated node to another processor.

        The migration is one atomic action (the paper blocks all
        actions on the node for its duration; in the simulation model
        action atomicity gives that for free).
        """
        if to_pid == proc.pid:
            return
        if copy.peers_of(proc.pid):
            raise ValueError(
                f"node {copy.node_id} is replicated; only single-copy "
                "nodes migrate"
            )
        new_version = copy.reseat(to_pid)
        snapshot = engine.make_snapshot(proc, copy)
        engine.kernel.route(proc.pid, to_pid, CreateCopy(snapshot, "migrate"))

        engine.announce_location(proc, copy, to_children=True)

        engine.remove_copy(proc, copy.node_id)
        if copy.is_leaf and engine.mirrors is not None:
            # The old home's mirrors are stale; the destination emits
            # fresh ones when the copy installs.
            engine.mirrors.drop(proc, copy.node_id)
        if leave_forwarding:
            proc.state["forward"][copy.node_id] = (to_pid, new_version, engine.now)
        engine.learn_location(proc, copy.node_id, (to_pid,), new_version)
        engine.trace.bump("migrations")

    def handlers(self) -> dict[type, "ActionHandler"]:
        return {**super().handlers(), MigrateNode: self.on_migrate_node}

    def on_migrate_node(self, proc: "Processor", action: MigrateNode) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            engine.trace.bump("migrate_on_missing_copy")
        else:
            self.migrate(proc, copy, action.to_pid)


class MobileProtocol(MigrationMixin, Protocol):
    """Section 4.2: unreplicated nodes, lazy migration.

    Inserts and splits are purely local (the base protocol's relay
    loop is a no-op with no peer copies); the protocol adds migration
    and the version-ordered link-change handling that the engine
    applies.
    """

    name = "mobile"
    maintain_left_links = True

    def default_policy(self, num_processors: int) -> "SingleCopy":
        return SingleCopy()

    def sibling_placement(self, proc: "Processor", copy: NodeCopy) -> Placement:
        """Half-splits place the sibling on the same processor."""
        return Placement(pc_pid=proc.pid, member_pids=(proc.pid,))

    def initiate_split(self, proc: "Processor", copy: NodeCopy) -> None:
        engine = self.engine
        while copy.is_overfull and copy.num_entries >= 2:
            engine.perform_half_split(proc, copy)
        copy.proto["split_scheduled"] = False

    def migrate(self, proc: "Processor", copy: NodeCopy, to_pid: int) -> None:
        self.migrate_single_copy(self.engine, proc, copy, to_pid)
