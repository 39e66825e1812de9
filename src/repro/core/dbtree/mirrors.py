"""Leaf mirroring for the dB-tree engine (replication_factor >= 2).

Exists only on a crash-capable cluster of more than one processor
built with ``replication_factor >= 2``.  Every single-copy leaf keeps
``factor - 1`` passive mirrors at the processors the placement policy
(:mod:`repro.repair.placement`) names; when the home is declared dead
the first live target adopts the leaf.  The collaborator registers
:class:`MirrorUpdate` and owns the per-processor ``mirror_store``
(``node_id -> (home_pid, snapshot)``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.actions import MirrorUpdate
from repro.core.node import NodeCopy, NodeSnapshot

if TYPE_CHECKING:
    from repro.core.dbtree.engine import DBTreeEngine
    from repro.repair.placement import MirrorPlacement
    from repro.sim.processor import Processor


class LeafMirrors:
    """Passive mirrors of single-copy leaves, and their re-homing."""

    def __init__(
        self, engine: "DBTreeEngine", factor: int, placement: "MirrorPlacement"
    ) -> None:
        self.engine = engine
        self.factor = factor
        self.placement = placement
        #: home_pid -> targets, for a placement that gives every leaf
        #: of a home the same ones (a kernel's pids are fixed).
        self._home_targets: dict[int, tuple[int, ...]] = {}
        engine.mirrors = self
        engine.on(MirrorUpdate, self.on_mirror_update)

    @staticmethod
    def mirrored(copy: NodeCopy) -> bool:
        """Whether ``copy`` is a live single-copy leaf -- the only kind
        of node that is mirrored."""
        return copy.is_leaf and not copy.retired and len(copy.copy_versions) == 1

    @staticmethod
    def held(proc: "Processor") -> dict[int, tuple[int, NodeSnapshot]]:
        """The mirrors ``proc`` holds: node_id -> (home_pid, snapshot)."""
        return proc.state.get("mirror_store") or {}

    def targets(self, home_pid: int, node_id: int) -> tuple[int, ...]:
        """Processors that passively mirror one of ``home_pid``'s
        single-copy leaves (``factor - 1`` of them, in preference
        order), per the placement policy."""
        placement = self.placement
        if placement.per_leaf:
            return placement.targets(
                home_pid, node_id, self.engine.kernel.pids, self.factor
            )
        targets = self._home_targets.get(home_pid)
        if targets is None:
            targets = self._home_targets[home_pid] = placement.targets(
                home_pid, node_id, self.engine.kernel.pids, self.factor
            )
        return targets

    def push(self, proc: "Processor", copy: NodeCopy) -> None:
        """Push the current state of a single-copy leaf to its mirrors.

        Emitted in the same handler invocation that applied (and
        acknowledged) a change, so every acknowledged update exists at
        the mirror before the owner can crash; queue-lost actions were
        never applied or acknowledged, so losing them too is
        consistent.
        """
        if not self.mirrored(copy):
            return
        snapshot = copy.snapshot()
        route = self.engine.kernel.route
        for pid in self.targets(proc.pid, copy.node_id):
            route(proc.pid, pid, MirrorUpdate(proc.pid, copy.node_id, snapshot))

    def drop(self, proc: "Processor", node_id: int) -> None:
        """Retract a leaf's mirrors (it migrated away or retired), so
        a later crash cannot resurrect a stale ghost of it."""
        route = self.engine.kernel.route
        for pid in self.targets(proc.pid, node_id):
            route(proc.pid, pid, MirrorUpdate(proc.pid, node_id, None))

    def _discard(self, proc: "Processor", node_id: int) -> None:
        """Take ``proc``'s mirror of ``node_id``, if it holds one, out
        of its store: the one way a mirror leaves short of a crash, so
        the repair layer forgets what it cached of it."""
        repair = self.engine.repair
        if self.held(proc).pop(node_id, None) is not None and repair is not None:
            repair.copy_removed(proc.pid, node_id, mirror=True)

    def copy_installed(self, proc: "Processor", copy: NodeCopy) -> None:
        """A real copy landed here: it supersedes any passive mirror of
        the node, and a leaf starts mirroring itself."""
        self._discard(proc, copy.node_id)
        self.push(proc, copy)

    def on_mirror_update(self, proc: "Processor", action: MirrorUpdate) -> None:
        """Store a pushed snapshot as a passive mirror, or forget the
        mirror on a retraction.

        A push that lands where a real copy of the leaf lives is not
        stored: a mirror there would be stale.  If that copy is a live
        single-copy home too, the leaf has two homes -- a re-home raced
        against a live home -- and with repair on this processor
        answers the pusher with its :class:`~repro.repair.repair
        .HomeResolve` claim, the settlement gossip starts for a peer's
        role-``"L"`` row; without repair the push is dropped.
        """
        engine = self.engine
        if action.snapshot is None:
            self._discard(proc, action.node_id)
        elif action.node_id not in engine.store(proc):
            mirrors = proc.state.setdefault("mirror_store", {})
            mirrors[action.node_id] = (action.home_pid, action.snapshot)
            if engine.repair is not None:
                engine.repair.touch(proc.pid, action.node_id)
        elif engine.repair is not None:
            copy = engine.store(proc)[action.node_id]
            if self.mirrored(copy):
                engine.repair.claim_home(proc, action.home_pid, copy)

    def rehome(self, proc: "Processor", dead: int) -> None:
        """Adopt the dead processor's mirrored leaves.

        Every mirror holder drops its entries for the dead owner; the
        first *alive* ring successor among the owner's mirror targets
        installs them as real copies (new primary, version bumped so
        the location change dominates stale hints) and announces the
        move.  Consulting liveness here stands in for the shared
        failure-detector verdict; DESIGN §8 has the near-simultaneous
        failure caveat.
        """
        engine = self.engine
        mirrors = self.held(proc)
        doomed = [
            (node_id, snap)
            for node_id, (home, snap) in mirrors.items()
            if home == dead
        ]
        for node_id, snap in doomed:
            self._discard(proc, node_id)
            successor = None
            for pid in self.targets(dead, node_id):
                # The adopter's own belief, not the oracle's: under an
                # earned detector two holders may pick different
                # successors (or adopt a leaf whose home is merely
                # partitioned).  The resulting double-home is expected
                # and reconciled by the repair layer's home-resolve
                # exchange.
                if pid != dead and engine.peer_up(proc.pid, pid):
                    successor = pid
                    break
            if proc.pid != successor or node_id in engine.store(proc):
                continue
            copy = NodeCopy.from_snapshot(snap)
            copy.reseat(proc.pid)
            engine.install_copy(proc, copy, snap.birth_set, "rehome")
            engine.announce_location(proc, copy)
            engine.trace.bump("leaves_rehomed")
