"""The protocol strategy interface and shared lazy-update machinery.

The engine (:mod:`repro.core.dbtree`) owns navigation, routing, and
split *mechanics*; a :class:`Protocol` owns update *ordering*: how
initial updates propagate to the other copies and how splits are
ordered against inserts.  This split of responsibilities mirrors the
paper: the B-link actions are fixed, only the copy-coherence
discipline differs between Sections 4.1.1, 4.1.2, 4.2 and 4.3.

:class:`Protocol` also provides the lazy update for keyed updates
and half-splits, which every protocol reuses: perform at one copy and
relay (:meth:`Protocol.initial_insert`, :meth:`Protocol.relay_keyed`,
:meth:`Protocol.relay_split`); at the other copies, duplicate test,
apply, incorporate (:meth:`Protocol.apply_relayed_keyed`, and
:meth:`Protocol.apply_relayed_split` -- the one application of a
relayed half-split, whichever message carried it).  The steps
themselves -- entering an update in a copy's history, the duplicate
test, the fan-out to the other copies -- are the engine's
``incorporate``, ``duplicate_relay`` and ``relay``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.actions import (
    DeleteAction,
    HalfSplit,
    InsertAction,
    Mode,
    RelayedSplit,
)
from repro.core.node import NodeCopy
from repro.core.replication import Placement

if TYPE_CHECKING:
    from repro.core.dbtree import DBTreeEngine
    from repro.sim.processor import ActionHandler, Processor


class Protocol:
    """Base protocol: defines the hooks and the common lazy paths.

    Subclasses must implement :meth:`initiate_split` (the ordering
    discipline) and may override the insert hooks.  The base class
    implements the *lazy update* path for inserts and deletes --
    perform at one copy, relay to the rest, no synchronization --
    which is exactly right for the semi-synchronous protocol and is
    specialised by the others.
    """

    name = "base"
    #: Whether half-splits maintain left-sibling links (mobile and
    #: variable-copies protocols need them for link-changes).
    maintain_left_links = False
    #: Whether the protocol supports the variable-copies join path
    #: (restarting processors re-enter interior replication by
    #: joining; fixed-copies protocols cannot).
    supports_join = False

    #: Set by :meth:`bind`; an unbound protocol fails with
    #: ``AttributeError`` at first use.
    engine: "DBTreeEngine"

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, engine: "DBTreeEngine") -> None:
        self.engine = engine

    def handlers(self) -> dict[type, "ActionHandler"]:
        """This protocol's rows of the engine's action table.

        One ``action type -> handler(proc, action)`` entry per message
        the protocol exchanges (split control, join/unjoin, migration);
        subclasses extend the dict.  The base understands only relayed
        splits.  Row handlers are public methods.
        """
        return {RelayedSplit: self.on_relayed_split}

    def default_policy(self, num_processors: int):
        """The replication policy natural to this protocol family.

        Fixed-copies protocols default to full replication (the
        paper's fixed-copy-set setting); mobility-based protocols
        override.
        """
        from repro.core.replication import FullReplication

        return FullReplication()

    def commutativity(self):
        """This protocol's declared commutativity claims.

        The registry entry (:mod:`repro.core.commutativity`) stating
        which relayed-action pairs the protocol claims commute; the
        schedule permuter consults it, and the permutation-replay
        checker (:mod:`repro.verify.permute`) tests the live engine
        against it.
        """
        from repro.core.commutativity import claims_for

        return claims_for(self.name)

    # ------------------------------------------------------------------
    # admission control (overridden by the vigorous baseline)
    # ------------------------------------------------------------------
    def admits_search(self, proc: "Processor", copy: NodeCopy, action: Any) -> bool:
        """Whether a search action may execute now; lazy protocols
        never block searches (paper: 'search actions are never
        blocked')."""
        return True

    def admits_initial_update(
        self, proc: "Processor", copy: NodeCopy, action: Any
    ) -> bool:
        """Whether an in-range initial update may execute now.

        The synchronous split protocol defers initial inserts while a
        split AAS is active; every lazy protocol admits immediately.
        """
        return True

    # ------------------------------------------------------------------
    # inserts
    # ------------------------------------------------------------------
    def initial_insert(
        self, proc: "Processor", copy: NodeCopy, action: InsertAction
    ) -> None:
        """Perform an in-range initial insert at this copy.

        Lazy default: apply locally, relay to every peer copy, answer
        the client, then check for overflow.  No synchronization.
        """
        result = self._perform_initial_keyed(proc, copy, action)
        self.relay_keyed(proc, copy, action)
        self._finish_keyed(proc, copy, action, result)

    def relayed_insert(
        self, proc: "Processor", copy: NodeCopy, action: InsertAction
    ) -> None:
        """Apply a relayed insert at this copy.

        In-range: apply idempotently.  Out of range: resolved by
        :meth:`out_of_range_relay` (protocol-specific -- this is where
        the semi-synchronous history rewrite lives).
        """
        if copy.in_range(action.key):
            self.apply_relayed_keyed(proc, copy, action)
            self._after_relayed_insert(proc, copy, action)
        else:
            self.out_of_range_relay(proc, copy, action)
        self.maybe_split(proc, copy)

    def _after_relayed_insert(
        self, proc: "Processor", copy: NodeCopy, action: InsertAction
    ) -> None:
        """Hook after an in-range relayed insert applies (variable
        protocol re-relays to late joiners here)."""

    def out_of_range_relay(
        self, proc: "Processor", copy: NodeCopy, action: InsertAction
    ) -> None:
        """An out-of-range relayed update arrived at this copy.

        Default (correct for non-PC copies in every fixed-copies
        protocol): discard -- the key was re-homed by a half-split and
        the sibling's original value or its own relay covers it.
        """
        self.engine.trace.bump(f"discarded_relay_{self.name}")

    # ------------------------------------------------------------------
    # deletes (never-merge extension; same lazy shape as inserts)
    # ------------------------------------------------------------------
    def initial_delete(
        self, proc: "Processor", copy: NodeCopy, action: DeleteAction
    ) -> None:
        result = self._perform_initial_keyed(proc, copy, action)
        self.relay_keyed(proc, copy, action)
        self._finish_keyed(proc, copy, action, result)

    def relayed_delete(
        self, proc: "Processor", copy: NodeCopy, action: DeleteAction
    ) -> None:
        if copy.in_range(action.key):
            self.apply_relayed_keyed(proc, copy, action)
        else:
            self.out_of_range_relay(proc, copy, action)

    # ------------------------------------------------------------------
    # shared mechanics for keyed updates
    # ------------------------------------------------------------------
    def _apply_keyed(self, proc: "Processor", copy: NodeCopy, action: Any) -> Any:
        """Apply a keyed update, initial or relayed, to this copy.

        Enters it in the copy's history, logs it for repair replay and
        mutates the value; returns the op result.
        """
        engine = self.engine
        if engine.trace.record_updates:
            engine.incorporate(
                proc, copy, action.action_id, action.mode, engine.update_params(action)
            )
        else:
            # Histories off: the id set is all there is to keep, and
            # this path is too hot for a call that would do only that.
            copy.incorporated_ids.add(action.action_id)
        if engine.repair is not None:
            engine.repair.log_update(copy, action)
        if isinstance(action, InsertAction):
            if action.payload_pids:
                engine.learn_location(proc, action.payload, action.payload_pids)
            copy.insert_entry(action.key, action.payload)
            return True
        if not copy.is_leaf and action.key == copy.range.low:
            # The leftmost entry of an interior node is immortal:
            # deleting it could empty the node and break routing.
            # The rule is a pure function of (key, node low), so
            # every copy decides identically in any order -- it
            # commutes.  The entry keeps pointing at a retired
            # zombie, whose links forward to the absorber.
            engine.trace.bump("immortal_entry_delete_skipped")
            return False
        return copy.delete_entry(action.key)

    def _perform_initial_keyed(
        self, proc: "Processor", copy: NodeCopy, action: Any
    ) -> Any:
        result = self._apply_keyed(proc, copy, action)
        mirrors = self.engine.mirrors
        if mirrors is not None and copy.is_leaf:
            mirrors.push(proc, copy)
        return result

    def relay_keyed(self, proc: "Processor", copy: NodeCopy, action: Any) -> None:
        """Send the relayed form of an initial update to every peer."""
        peers = copy.peers_of(proc.pid)
        if peers:
            self.engine.relay(proc, copy, action.relayed(copy.version), peers)

    def apply_relayed_keyed(
        self, proc: "Processor", copy: NodeCopy, action: Any
    ) -> None:
        """Apply a relayed update, once.

        De-duplication by action id makes the variable-copies re-relay
        (PC forwarding updates to late joiners that may also have
        received them directly) harmless.
        """
        if not self.engine.duplicate_relay(copy, action.action_id):
            self._apply_keyed(proc, copy, action)

    def _finish_keyed(
        self, proc: "Processor", copy: NodeCopy, action: Any, result: Any = True
    ) -> None:
        engine = self.engine
        if action.op is not None:
            engine.complete_op(
                proc,
                action.op,
                result=result,
                leaf=copy if copy.is_leaf else None,
            )
        self.maybe_split(proc, copy)

    # ------------------------------------------------------------------
    # splits
    # ------------------------------------------------------------------
    def maybe_split(self, proc: "Processor", copy: NodeCopy) -> None:
        """Schedule a split when the primary copy detects overflow.

        Non-PC copies never initiate splits (paper, Section 4.1); they
        accept overflow until the PC's split arrives.
        """
        if not copy.is_pc or not copy.is_overfull:
            return
        if copy.proto.get("split_scheduled"):
            return
        copy.proto["split_scheduled"] = True
        self.engine.schedule_split(proc, copy.node_id)

    def initiate_split(self, proc: "Processor", copy: NodeCopy) -> None:
        """Run the protocol's split discipline at the primary copy."""
        raise NotImplementedError

    def sibling_placement(self, proc: "Processor", copy: NodeCopy) -> Placement:
        """Where the new sibling's copies live.

        Fixed-copies default: the same copy set as the splitting node
        (the paper creates all sibling copies at split time); the
        primary stays with the same processor.
        """
        return Placement(pc_pid=copy.pc_pid, member_pids=copy.copy_pids)

    def relay_split(
        self, proc: "Processor", copy: NodeCopy, split: HalfSplit
    ) -> None:
        """Send the half-split to the peer copies (lazy default)."""
        self.engine.relay(proc, copy, RelayedSplit(copy.node_id, split))

    def apply_relayed_split(
        self, proc: "Processor", copy: NodeCopy, split: HalfSplit
    ) -> None:
        """Apply a relayed half-split at a non-PC copy.

        The one application, whichever message carried the split here
        (``RelayedSplit``, the synchronous ``SplitEnd``, the vigorous
        baseline's ``ApplyUnlock``).  The sibling copy the split
        carries is installed first, whatever the split then does here;
        an interior split points the moved children held here at it.
        """
        engine = self.engine
        engine.install_sibling(proc, split)
        if engine.duplicate_relay(copy, split.action_id):
            return
        if not copy.range.contains(split.separator):
            # Can only happen under fault injection (reordering); the
            # counter lets the A2 ablation observe it.
            engine.trace.bump("relayed_split_out_of_range")
            return
        old_high = copy.range.high
        moved = copy.apply_half_split(split.separator, split.sibling_id)
        engine.repoint_children(proc, copy.level, moved, split.sibling_id)
        if split.parent_hint is not None:
            copy.parent_id = split.parent_hint
        engine.learn_location(proc, split.sibling_id, split.sibling_pids)
        if copy.is_leaf and engine._leaf_caches is not None:
            cache = engine._leaf_caches[proc.pid]
            cache.learn(copy.range.low, split.separator, copy.node_id)
            cache.learn(split.separator, old_high, split.sibling_id)
        engine.incorporate(
            proc,
            copy,
            split.action_id,
            Mode.RELAYED,
            ("half_split", split.separator, split.sibling_id),
        )

    def on_relayed_split(self, proc: "Processor", action: RelayedSplit) -> None:
        copy = self.engine.copy_at(proc, action.node_id)
        if copy is None:
            # This processor is still one of the sibling's copies.
            self.engine.install_sibling(proc, action.split)
            self.engine.trace.bump("relay_to_missing_copy")
        else:
            self.apply_relayed_split(proc, copy, action.split)
            self.maybe_split(proc, copy)

    # ------------------------------------------------------------------
    # mobility hooks (mobile / variable protocols only)
    # ------------------------------------------------------------------
    def migrate(self, proc: "Processor", copy: NodeCopy, to_pid: int) -> None:
        raise NotImplementedError(f"protocol {self.name} does not support migration")

    def after_copy_installed(
        self, proc: "Processor", copy: NodeCopy, reason: str
    ) -> None:
        """Hook after a CreateCopy installs a copy on this processor."""

    def on_relay_to_missing(self, proc: "Processor", action: Any) -> None:
        """Hook: a relayed update arrived for a copy we do not hold.

        Default: nothing (the drop is correct for unjoined copies).
        The variable-copies protocol overrides this to heal lost
        copies by re-joining (fault-tolerant lazy updates, the
        paper's Section 5 agenda).
        """

    # ------------------------------------------------------------------
    # crash-stop failure hooks (crash layer only; no-ops by default)
    # ------------------------------------------------------------------
    def on_peer_failure(self, proc: "Processor", dead_pid: int) -> None:
        """Hook: this processor learned that ``dead_pid`` crashed.

        The variable-copies protocol force-unjoins the dead member
        from every primary copy held here (and, in eager recovery
        mode, re-replicates onto a live replacement).  Fixed-copies
        protocols have no membership to update: their copy sets are
        immutable, so a crashed member simply stops acking and the
        audit reports the divergence.
        """

    def on_peer_recovered(self, proc: "Processor", pid: int) -> None:
        """Hook: ``pid`` restarted and announced itself to us.

        Called after the engine has answered the announcement with
        the root pointer, primary-copy donations, and mirror echoes.
        The variable-copies protocol re-sends pending unjoin requests
        whose primary copy lived on ``pid`` (the crash wiped them).
        """

    def on_peer_rescind(self, proc: "Processor", pid: int) -> None:
        """Hook: this processor's failure detector withdrew its
        suspicion of ``pid`` (earned detection only -- the oracle is
        never wrong, so it never rescinds).

        Called after the engine removed ``pid`` from ``dead_peers``.
        Default: nothing.  Deliberately *not* a membership operation:
        if the false suspicion already forced an unjoin, re-admitting
        ``pid`` must go through the versioned join machinery (which
        the anti-entropy layer triggers on the next exchange), not a
        silent local re-add that would fork the copy-set history.
        """
