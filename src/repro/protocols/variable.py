"""Variable copies: the full dB-tree (paper, Section 4.3).

This protocol combines the lazy fixed-copies machinery with node
mobility:

* leaf nodes are unreplicated and **migrate** for data balancing
  (Section 4.2 mechanics);
* processors **join** and **unjoin** the replication of interior
  nodes so the path-replication rule holds lazily: a processor that
  receives a leaf joins every ancestor it does not yet hold, and a
  processor whose last leaf under an interior node departs unjoins
  it;
* the primary copy registers every join and unjoin as one change
  (``_change_members``), incrementing the node's **version number**,
  and relays it to the other members as one
  :class:`~repro.core.actions.RelayedMembership`; relayed inserts
  carry the sender's version and the PC *re-relays* them to members
  that joined at a later version -- closing the Figure 6 race where an
  insert concurrent with a join would otherwise never reach the new
  copy;
* splits use the semi-synchronous discipline (history rewriting at
  the PC), inherited unchanged.

The primary copy of a node never changes (the paper's standing
assumption for this algorithm).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.actions import (
    AbsorbRequest,
    CreateCopy,
    DeleteAction,
    InsertAction,
    JoinRequest,
    JoinRetry,
    Mode,
    RelayedMembership,
    UnjoinAck,
    UnjoinRequest,
)
from repro.core.keys import NEG_INF, KeyRange
from repro.core.node import NodeCopy
from repro.core.replication import Placement
from repro.protocols.fixed_semisync import SemiSyncProtocol
from repro.protocols.mobile import MigrationMixin

if TYPE_CHECKING:
    from repro.sim.processor import ActionHandler, Processor


class VariableCopiesProtocol(MigrationMixin, SemiSyncProtocol):
    """Join/unjoin + leaf migration over semi-synchronous splits.

    A join and an unjoin are one versioned membership change: the
    primary copy registers either in :meth:`_change_members` and the
    other members apply it in :meth:`on_relayed_membership`.  A leaf's
    move (migration, mirror re-home, home resolution) re-versions it
    through :meth:`~repro.core.node.NodeCopy.reseat`.

    With ``free_at_empty=True`` the protocol additionally reclaims
    empty leaves (the dE-tree direction the paper's Section 5
    defers): an emptied leaf *retires* -- its range collapses so every
    arriving action forwards over its links -- asks its left
    neighbour to absorb the vacated range, and lazily deletes its
    parent entry.  Retired zombies are garbage-collectable at any
    time (:meth:`repro.core.dbtree.DBTreeEngine.gc_retired`);
    in-flight stragglers recover by re-navigation, exactly like
    forwarding addresses.
    """

    name = "variable"
    maintain_left_links = True

    def __init__(self, free_at_empty: bool = False) -> None:
        super().__init__()
        self.free_at_empty = free_at_empty

    def default_policy(self, num_processors: int):
        from repro.core.replication import PerLevel

        return PerLevel.dbtree_default(num_processors)

    # ------------------------------------------------------------------
    # placement: leaves single-copy, interior siblings inherit the set
    # ------------------------------------------------------------------
    def sibling_placement(self, proc: "Processor", copy: NodeCopy) -> Placement:
        if copy.is_leaf:
            return Placement(pc_pid=proc.pid, member_pids=(proc.pid,))
        return Placement(pc_pid=copy.pc_pid, member_pids=copy.copy_pids)

    # ------------------------------------------------------------------
    # the version-number re-relay (Figure 6 fix)
    # ------------------------------------------------------------------
    def _after_relayed_insert(
        self, proc: "Processor", copy: NodeCopy, action: InsertAction
    ) -> None:
        """PC forwards the relayed insert to members the sender missed.

        Paper, Section 4.3: *"The PC then relays the insert action to
        all copies that joined the replication at a later version than
        the version attached to the relayed update."*  Receivers
        de-duplicate by action id, so double delivery is harmless.
        """
        if not copy.is_pc:
            return
        engine = self.engine
        late_joiners = [
            pid
            for pid, join_version in copy.copy_versions.items()
            if join_version > action.origin_version and pid != proc.pid
        ]
        for pid in late_joiners:
            engine.kernel.route(
                proc.pid, pid, action._replace(origin_version=copy.version)
            )
            engine.trace.bump("rerelayed_to_joiners")

    # ------------------------------------------------------------------
    # free-at-empty (dE-tree direction)
    # ------------------------------------------------------------------
    def initial_delete(self, proc: "Processor", copy: NodeCopy, action) -> None:
        super().initial_delete(proc, copy, action)
        if (
            self.free_at_empty
            and copy.is_leaf
            and copy.num_entries == 0
            and not copy.retired
        ):
            self._retire_leaf(proc, copy)

    def _retire_leaf(self, proc: "Processor", copy: NodeCopy) -> None:
        """Retire an emptied leaf and hand its range to the left.

        The retirement itself is one atomic local action: the range
        collapses to empty at its high end, so keys below the old
        range forward left (to the absorber) and keys at/above the
        old high forward right, both over existing links.  The absorb
        request and the parent-entry delete are then lazy messages;
        FIFO on the leaf->left channel guarantees the absorb is
        applied before anything this leaf forwards left arrives.
        """
        engine = self.engine
        if copy.left_id is None:
            engine.trace.bump("retire_skipped_leftmost")
            return
        old_low = copy.range.low
        old_high = copy.range.high
        right_id = copy.right_id
        right_entry = proc.state["locator"].get(right_id) if right_id else None
        copy.range = KeyRange(old_high, old_high)
        copy.retired = True
        copy.proto["retired_at"] = engine.now
        engine.trace.bump("leaves_retired")
        if engine.mirrors is not None:
            engine.mirrors.drop(proc, copy.node_id)

        request = AbsorbRequest(
            node_id=copy.left_id,
            old_low=old_low,
            old_high=old_high,
            right_id=right_id,
            right_pids=right_entry[1] if right_entry else (),
            retired_id=copy.node_id,
            retired_version=copy.version,
        )
        engine.route_to_node(proc, request.node_id, request)

        parent_delete = DeleteAction(
            node_id=copy.parent_id if copy.parent_id is not None else 0,
            level=copy.level + 1,
            key=old_low,
            mode=Mode.INITIAL,
            action_id=engine.trace.new_action_id(),
        )
        engine.route_to_node(proc, parent_delete.node_id, parent_delete)

    def on_absorb(self, proc: "Processor", action: AbsorbRequest) -> None:
        """Take over a retired right neighbour's range.

        Id-addressed: the request goes where the engine's step rule
        sends it by id, and is dropped at a dead end (the zombie stays;
        that is safe -- never-merge behaviour for this one leaf).
        """
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            engine.on_missing_node(proc, action)
            return
        if copy.retired:
            # Cascaded retirement: pass the request further left.
            self._pass_absorb(proc, action, copy.left_id)
            return
        if copy.range.high == action.old_low:
            copy.range = KeyRange(copy.range.low, action.old_high)
            copy.right_id = action.right_id
            engine.incorporate(
                proc,
                copy,
                engine.trace.new_action_id(),
                Mode.INITIAL,
                ("absorb", action.old_low, action.old_high),
            )
            engine.trace.bump("absorbs")
            if engine.mirrors is not None and copy.is_leaf:
                engine.mirrors.push(proc, copy)
            if action.right_id is not None:
                engine.learn_location(proc, action.right_id, action.right_pids)
                engine.send_link_change(
                    proc, action.right_id, copy.level, action.old_high, "left",
                    copy.node_id, (proc.pid,), action.retired_version + 1,
                )
            return
        if action.old_low < copy.range.high:
            engine.trace.bump("absorb_duplicate_discarded")
            return
        # This node split since the retiree recorded its left link;
        # the true neighbour is further right.
        self._pass_absorb(proc, action, copy.right_id)

    def _pass_absorb(
        self, proc: "Processor", action: AbsorbRequest, node_id: int | None
    ) -> None:
        if node_id is None:
            self.engine.trace.bump("absorb_unroutable")
            return
        self.engine.route_to_node(proc, node_id, action)

    def handlers(self) -> dict[type, "ActionHandler"]:
        return {
            **super().handlers(),
            AbsorbRequest: self.on_absorb,
            JoinRequest: self.on_join_request,
            UnjoinRequest: self.on_unjoin_request,
            RelayedMembership: self.on_relayed_membership,
            UnjoinAck: self.on_unjoin_ack,
            JoinRetry: self.on_join_retry,
        }

    def on_unjoin_ack(self, proc: "Processor", action: UnjoinAck) -> None:
        pending = proc.state.get("pending_unjoins")
        if pending is not None:
            pending.pop(action.node_id, None)
        self.engine.trace.bump("unjoin_acks")

    def on_join_retry(self, proc: "Processor", action: JoinRetry) -> None:
        """An exact (healing) join bounced: ask the next holder.

        Each holder the locator records is asked at most once per
        heal.  Once all have bounced, clear the suppression so the
        next missing relay starts a fresh heal.
        """
        node_id = action.node_id
        state = proc.state
        if node_id not in state.get("joining", ()):
            return  # that heal is over (installed, or reset by a crash)
        bounced = state.setdefault("join_bounces", {}).setdefault(node_id, set())
        bounced.add(action.bouncer_pid)
        _version, holders = state["locator"].get(node_id, (None, ()))
        untried = [p for p in holders if p != proc.pid and p not in bounced]
        if not untried:
            self._clear_pending_join(proc, node_id)
            return
        request = JoinRequest(node_id, action.level, action.key, proc.pid, exact=True)
        self.engine.kernel.route(proc.pid, untried[0], request)
        self.engine.trace.bump("exact_join_retried")

    # ------------------------------------------------------------------
    # join
    # ------------------------------------------------------------------
    def on_join_request(self, proc: "Processor", action: JoinRequest) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            if action.exact:
                # Id-addressed (healing): never re-home by key.  Tell
                # the requester so it can ask another holder.
                engine.trace.bump("exact_join_bounced")
                engine.kernel.route(
                    proc.pid,
                    action.requester_pid,
                    JoinRetry(action.node_id, action.level, action.key, proc.pid),
                )
                return
            engine.on_missing_node(proc, action)
            return
        if not action.exact and (
            copy.level != action.level or not copy.in_range(action.key)
        ):
            # Key-addressed: re-navigate toward the node now covering
            # the key at the requested level.
            engine.step_toward(proc, copy, action)
            return
        if not copy.is_pc:
            engine.kernel.route(
                proc.pid, copy.pc_pid, engine.retarget(action, copy.node_id)
            )
            return
        self._change_members(proc, copy, action.requester_pid, "join")

    # ------------------------------------------------------------------
    # unjoin
    # ------------------------------------------------------------------
    def request_unjoin(self, proc: "Processor", copy: NodeCopy) -> None:
        """This processor leaves the node's replication (local side).

        The copy is deleted immediately; subsequent relayed actions
        for it are discarded and initial actions recover (both handled
        by the engine's missing-copy path).  The primary copy never
        unjoins.
        """
        engine = self.engine
        if copy.is_pc:
            raise ValueError(f"primary copy of node {copy.node_id} cannot unjoin")
        engine.remove_copy(proc, copy.node_id)
        # Tombstone: trailing relays from members that have not yet
        # processed the unjoin must not trigger copy-loss healing.
        proc.state.setdefault("unjoined", set()).add(copy.node_id)
        if engine.crash is not None:
            # Remember the outstanding request: if the PC crashes
            # before registering it, we re-send once the PC recovers
            # (the crash wiped its queue).  Registered unjoins make
            # the re-send hit the unknown-member guard, harmlessly;
            # the PC's UnjoinAck retires the entry either way.
            proc.state.setdefault("pending_unjoins", {})[copy.node_id] = copy.pc_pid
        engine.kernel.route(
            proc.pid,
            copy.pc_pid,
            UnjoinRequest(node_id=copy.node_id, leaver_pid=proc.pid),
        )
        engine.trace.bump("unjoins_requested")

    def on_unjoin_request(self, proc: "Processor", action: UnjoinRequest) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None or not copy.is_pc:
            if (
                copy is None
                and engine.crash is not None
                and engine.crash.stash_if_recovering(proc, action)
            ):
                # The PC lives here but its donated copy has not yet
                # arrived; park the request until it installs.
                return
            engine.trace.bump("unjoin_misrouted")
            return
        self._change_members(proc, copy, action.leaver_pid, "unjoin")
        if engine.crash is not None and action.leaver_pid != proc.pid:
            # Retire the leaver's pending_unjoins entry -- both for a
            # fresh registration and for a re-send that just hit the
            # unknown-member guard (already registered before a crash).
            engine.kernel.route(
                proc.pid, action.leaver_pid, UnjoinAck(node_id=action.node_id)
            )

    # ------------------------------------------------------------------
    # the one versioned membership change both register
    # ------------------------------------------------------------------
    def _change_members(
        self, proc: "Processor", copy: NodeCopy, pid: int, change: str
    ) -> None:
        """Register ``pid``'s join or unjoin (``change``) at the primary
        copy: one version bump orders it after every earlier change,
        the other members learn it from one relayed record, and a
        joiner gets the current value.

        A join by the primary itself, or by a member (a duplicate
        request, or a member healing from copy loss), changes nothing:
        a member is resent the value, which an intact copy ignores.
        An unjoin of a non-member is a re-send the primary registered
        before a crash.
        """
        engine = self.engine
        joining = change == "join"
        if joining and (pid == proc.pid or pid in copy.copy_versions):
            engine.trace.bump("join_already_member")
            if pid != proc.pid:
                snapshot = engine.make_snapshot(proc, copy)
                engine.kernel.route(proc.pid, pid, CreateCopy(snapshot, "join"))
            return
        if not joining and pid not in copy.copy_versions:
            engine.trace.bump("unjoin_unknown_member")
            return
        copy.version += 1
        if joining:
            copy.copy_versions[pid] = copy.version
        else:
            del copy.copy_versions[pid]
        action_id = engine.trace.new_action_id()
        engine.incorporate(
            proc, copy, action_id, Mode.INITIAL, (change, pid, copy.version)
        )
        if joining:
            # The joiner's original value is the PC's current value;
            # its birth set (backwards extension) is everything the PC
            # has incorporated, including this join.
            snapshot = engine.make_snapshot(proc, copy)
            engine.kernel.route(proc.pid, pid, CreateCopy(snapshot, "join"))
        engine.relay(
            proc,
            copy,
            RelayedMembership(copy.node_id, action_id, change, pid, copy.version),
            [member for member in copy.peers_of(proc.pid) if member != pid],
        )
        engine.announce_location(proc, copy)
        engine.trace.bump(change + "s")

    def on_relayed_membership(
        self, proc: "Processor", action: RelayedMembership
    ) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            engine.trace.bump("relay_to_missing_copy")
            return
        if engine.duplicate_relay(copy, action.action_id):
            return
        if action.change == "join":
            copy.copy_versions[action.pid] = action.version
        else:
            copy.copy_versions.pop(action.pid, None)
        copy.version = max(copy.version, action.version)
        engine.incorporate(
            proc,
            copy,
            action.action_id,
            Mode.RELAYED,
            (action.change, action.pid, action.version),
            action.version,
        )

    # ------------------------------------------------------------------
    # crash-stop failures: membership repair
    # ------------------------------------------------------------------
    def on_peer_failure(self, proc: "Processor", dead_pid: int) -> None:
        """Force-unjoin the crashed member from local primary copies.

        A crash-stop is a departure the dead processor can never
        request itself, so the PC registers it on the failure signal
        -- same version bump as a voluntary unjoin, which orders any
        later re-join by the restarted processor after the departure.
        In *eager* recovery mode the PC additionally re-replicates
        interior nodes onto a live replacement at once (the
        available-copies baseline); *lazy* mode waits for demand (the
        next leaf arrival re-joins the path), which is the paper's
        Section 5 direction and what the X6 experiment measures.
        """
        engine = self.engine
        eager = engine.crash.eager
        for copy in list(engine.store(proc).values()):
            if not copy.is_pc or copy.retired:
                continue
            if dead_pid == copy.pc_pid or dead_pid not in copy.copy_versions:
                continue
            self._change_members(proc, copy, dead_pid, "unjoin")
            engine.trace.bump("crash_forced_unjoins")
            if eager and not copy.is_leaf:
                replacement = self._pick_replacement(proc, copy)
                if replacement is not None:
                    self._change_members(proc, copy, replacement, "join")
                    engine.trace.bump("eager_rereplications")

    def _pick_replacement(self, proc: "Processor", copy: NodeCopy) -> int | None:
        """The lowest pid not in the copy set that ``proc`` believes is up."""
        engine = self.engine
        for pid in engine.kernel.pids:
            if pid == proc.pid or pid in copy.copy_versions:
                continue
            if engine.peer_up(proc.pid, pid):
                return pid
        return None

    def forget_joins(self, proc: "Processor") -> None:
        """Drop every outstanding join request: each may have been
        dead-lettered at a crashed peer, and a request still marked out
        would suppress the heal that re-issues it."""
        joining = proc.state.get("joining")
        if joining:
            joining.clear()
            proc.state.pop("join_bounces", None)

    def on_recovered(self, proc: "Processor") -> None:
        """Re-join the root's replication at the end of the grace
        window, if no announce response brought the root back: the
        dB-tree policy wants the root everywhere."""
        state = proc.state
        root_id = state["root_id"]
        if root_id is None or root_id in state["store"]:
            return
        request = JoinRequest(root_id, state["root_level"], NEG_INF, proc.pid)
        self.engine.route_to_node(proc, root_id, request)
        self.engine.trace.bump("recovery_root_joins")

    def on_peer_recovered(self, proc: "Processor", pid: int) -> None:
        """Re-send unjoin requests the crashed PC lost from its queue.

        Requests the PC already registered before crashing hit the
        unknown-member guard and are discarded; only the lost ones
        take effect.  Either way the PC answers with an
        :class:`~repro.core.actions.UnjoinAck`, which is what retires
        the ``pending_unjoins`` entry -- keeping it until then means
        a re-send lost to a re-crash is re-sent again on the next
        recovery instead of silently forgotten.
        """
        engine = self.engine
        pending = proc.state.get("pending_unjoins")
        if not pending:
            return
        for node_id, pc_pid in list(pending.items()):
            if pc_pid != pid:
                continue
            engine.kernel.route(
                proc.pid,
                pid,
                UnjoinRequest(node_id=node_id, leaver_pid=proc.pid),
            )
            engine.trace.bump("unjoin_resends")

    # ------------------------------------------------------------------
    # leaf migration and lazy path-replication maintenance
    # ------------------------------------------------------------------
    def migrate(self, proc: "Processor", copy: NodeCopy, to_pid: int) -> None:
        """Migrate a leaf to another processor (data balancing).

        After the leaf leaves, ancestors with no remaining local leaf
        descendants are unjoined (the paper: "applied recursively").
        """
        engine = self.engine
        if not copy.is_leaf:
            raise ValueError(
                f"only leaves migrate in the variable-copies protocol; "
                f"node {copy.node_id} is level {copy.level}"
            )
        if copy.retired:
            engine.trace.bump("migrate_retired_skipped")
            return
        self.migrate_single_copy(engine, proc, copy, to_pid)
        self._maybe_unjoin_ancestors(proc)

    def after_copy_installed(
        self, proc: "Processor", copy: NodeCopy, reason: str
    ) -> None:
        """Maintain path replication as copies arrive.

        A processor that just received a leaf (migration) or an
        interior copy (join) joins the parent next, walking up until
        it reaches a node it already holds; joins chain through this
        hook.
        """
        self._clear_pending_join(proc, copy.node_id)
        unjoined = proc.state.get("unjoined")
        if unjoined is not None:
            unjoined.discard(copy.node_id)
        if reason not in ("migrate", "join", "rehome"):
            return
        engine = self.engine
        parent_id = copy.parent_id
        if parent_id is None or parent_id in engine.store(proc):
            return
        pending = proc.state.setdefault("joining", set())
        if parent_id in pending:
            return
        pending.add(parent_id)
        request = JoinRequest(parent_id, copy.level + 1, copy.range.low, proc.pid)
        engine.route_to_node(proc, parent_id, request)

    def on_relay_to_missing(self, proc: "Processor", action) -> None:
        """Heal a lost copy: re-join the node's replication.

        Receiving a relayed keyed update for a node we do not hold
        means some member still lists us -- we lost the copy (crash /
        amnesia).  Lazily re-join: the primary resends the current
        value; relays that raced the heal are covered by the value
        snapshot plus the version re-relay, exactly like a first-time
        join.  (Only keyed relays carry the (level, key) needed to
        route the request; a lost relayed split is healed by the next
        keyed relay.)
        """
        if not isinstance(action, (InsertAction, DeleteAction)):
            return
        if self.rejoin(proc, action.node_id, action.level, action.key):
            self.engine.trace.bump("heal_rejoins_requested")

    def rejoin(
        self,
        proc: "Processor",
        node_id: int,
        level: int,
        key: Any,
        to: int | None = None,
    ) -> bool:
        """Ask to re-join ``node_id``'s replication: the exact
        (id-addressed) heal request, sent to ``to`` or, without one,
        where the step rule says.

        Refused (False, nothing sent) for a node this processor
        unjoined on purpose (a relay or advice is just a straggler),
        while a request for it is still out, and for a node with no
        known holder (``heal_unroutable``; the next relay retries).
        """
        state = proc.state
        if node_id in state.get("unjoined", ()):
            return False
        pending = state.setdefault("joining", set())
        if node_id in pending:
            return False
        engine = self.engine
        request = JoinRequest(node_id, level, key, proc.pid, exact=True)
        if to is not None:
            engine.kernel.route(proc.pid, to, request)
        elif not engine.route_to_node(proc, node_id, request):
            engine.trace.bump("heal_unroutable")
            return False
        pending.add(node_id)
        return True

    def _clear_pending_join(self, proc: "Processor", node_id: int) -> None:
        pending = proc.state.get("joining")
        if pending is not None:
            pending.discard(node_id)
        bounces = proc.state.get("join_bounces")
        if bounces is not None:
            bounces.pop(node_id, None)

    def _maybe_unjoin_ancestors(self, proc: "Processor") -> None:
        """Unjoin interior copies with no local leaf descendants.

        A node is an ancestor of a local leaf iff its range contains
        the leaf's range (ranges at one level partition the key space
        at quiescence, and ancestor ranges contain descendant ranges).
        The primary copy and the root never unjoin.
        """
        engine = self.engine
        store = engine.store(proc)
        leaves = [c for c in store.values() if c.is_leaf]
        root_id = proc.state["root_id"]
        interior = sorted(
            (c for c in store.values() if not c.is_leaf), key=lambda c: c.level
        )
        for copy in interior:
            if copy.node_id == root_id or copy.parent_id is None:
                continue
            if copy.is_pc:
                continue
            if any(copy.range.contains_range(leaf.range) for leaf in leaves):
                continue
            self.request_unjoin(proc, copy)
            engine.trace.bump("path_rule_unjoins")


# NEG_INF is re-exported for callers computing routing keys for
# leftmost nodes (their low bound is the valid routing key).
__all__ = ["VariableCopiesProtocol", "NEG_INF"]
