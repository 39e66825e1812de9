"""The action vocabulary of the dB-tree protocols.

An *operation* (search/insert/delete, issued by a client) is executed
as a sequence of *actions* on node copies (paper, Section 3).  Each
action names its target logical node and, for update actions, whether
it is the **initial** action (performed at one copy first, written
``I`` in the paper) or a **relayed** action (``i``) propagated to the
remaining copies.

Key-routable actions additionally carry ``(level, key)`` so that a
misdirected action -- stale parent hint, migrated node, unjoined copy
-- can recover by re-navigating the tree, exactly the paper's
out-of-range / missing-node rules (Sections 4.2-4.3).  Every action
that can be re-routed that way also carries ``detoured``, a bitmask of
the processors where it missed its node or recovered: the engine
takes at most one detour at each, and redraws a missed node's holder
among the others, so no action can recover for ever
(:meth:`~repro.core.dbtree.DBTreeEngine.route_to_node`).

A half-split is described once, by :class:`HalfSplit`; the messages
that take it to the other copies (:class:`RelayedSplit`,
:class:`SplitEnd`, the vigorous baseline's ``ApplyUnlock``) carry that
value and add only their own addressing.

An action's ``kind`` is the accounting label used by the network
statistics: a class attribute, or a property where the label names a
variant (``insert_relayed``, ``link_change_left``, ``relayed_join``).
The message-complexity benchmarks (experiment C4) count these labels.

Every action is an immutable named tuple (:func:`tuple_action`): a
search builds about three of them per operation (its steps, its
:class:`OpContext` and its :class:`ReturnValue`), and a tuple is built
in one C call where a frozen dataclass would set each field through
``object.__setattr__``.  Equality and hash still take the type into
account, ``repr`` reads as before, and a changed copy is
``action._replace(field=value)`` (or the cheaper ``with_node`` /
``relayed`` / ``advanced`` helpers).
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

from repro.core.keys import Key, tuple_action
from repro.core.node import NodeSnapshot


class Mode(enum.Enum):
    """Whether an update action is the initial or a relayed execution."""

    INITIAL = "initial"
    RELAYED = "relayed"


@tuple_action
class OpContext(NamedTuple):
    """Identity of a client operation, carried by its actions."""

    op_id: int
    kind: str  # "search" | "insert" | "delete"
    key: Key
    value: Any
    home_pid: int


@tuple_action
class SearchStep(NamedTuple):
    """One step of a tree descent on behalf of an operation.

    Non-update action: examines the target node and issues the next
    subsequent action (descend, move right, or act on the leaf).

    ``cached`` marks a step routed by a leaf-location hint instead of
    a root descent; if the hint turns out stale the flag lets the
    engine count exactly one stale-recovery per operation.
    """

    kind = "search"
    level = 0  # a search acts at the leaves

    node_id: int
    op: OpContext
    cached: bool = False
    detoured: int = 0

    @property
    def key(self) -> Key:
        return self.op.key

    def with_node(self, node_id: int) -> "SearchStep":
        """Re-addressed copy; faster than ``_replace``."""
        return SearchStep(node_id, self.op, self.cached, self.detoured)

    def uncached(self) -> "SearchStep":
        """The same step with the cache provenance cleared."""
        if not self.cached:
            return self
        return SearchStep(self.node_id, self.op, False, self.detoured)


@tuple_action
class ScanStep(NamedTuple):
    """One leaf visit of a range scan.

    B-link trees make range scans a leaf-chain walk: collect the
    in-range entries of this leaf, then follow the right link.
    ``key`` is the scan cursor (the lower bound still to be covered),
    which doubles as the recovery routing key; ``collected`` carries
    the accumulated results.  Scans are non-atomic with respect to
    concurrent updates, like any B-link traversal.
    """

    kind = "scan"

    node_id: int
    level: int
    key: Key
    op: OpContext
    collected: tuple = ()
    detoured: int = 0

    def with_node(self, node_id: int) -> "ScanStep":
        """Re-addressed copy; faster than ``_replace``."""
        return ScanStep(
            node_id, self.level, self.key, self.op, self.collected, self.detoured
        )

    def advanced(self, key: Key, collected: tuple) -> "ScanStep":
        """The next leaf visit: the cursor moved up to ``key`` with
        ``collected`` in hand (direct construction, as ``with_node``).
        The cursor only grows, so its detours start again."""
        return ScanStep(self.node_id, self.level, key, self.op, collected)


@tuple_action
class ReturnValue(NamedTuple):
    """Return-value action routed to the operation's home processor.

    ``leaf_hint`` piggybacks the acting leaf's location -- ``(leaf_id,
    low, high, copy_pids)`` -- so the home processor's leaf cache
    learns where the key lives without any extra message.
    """

    kind = "return"

    op: OpContext
    result: Any
    leaf_hint: tuple | None = None


@tuple_action
class InsertAction(NamedTuple):
    """Insert ``key -> payload`` into a node (leaf value or child pointer).

    ``payload_pids`` is the locator hint for the child when this is an
    interior insert (which processors hold copies of the new sibling).
    ``origin_version`` is the sender copy's node version at perform
    time; the variable-copies primary copy uses it to re-relay to
    members that joined later (Section 4.3).
    """

    node_id: int
    level: int
    key: Key
    payload: Any
    mode: Mode
    action_id: int
    origin_version: int = 0
    payload_pids: tuple[int, ...] = ()
    op: OpContext | None = None
    detoured: int = 0

    def with_node(self, node_id: int) -> "InsertAction":
        """Re-addressed copy; faster than ``_replace``."""
        return InsertAction(
            node_id,
            self.level,
            self.key,
            self.payload,
            self.mode,
            self.action_id,
            self.origin_version,
            self.payload_pids,
            self.op,
            self.detoured,
        )

    def relayed(self, origin_version: int) -> "InsertAction":
        """The relayed form sent to peer copies; op identity dropped."""
        return InsertAction(
            self.node_id,
            self.level,
            self.key,
            self.payload,
            Mode.RELAYED,
            self.action_id,
            origin_version,
            self.payload_pids,
            None,
        )

    @property
    def kind(self) -> str:
        return f"insert_{self.mode.value}"


@tuple_action
class DeleteAction(NamedTuple):
    """Delete ``key`` from a leaf (never-merge extension)."""

    node_id: int
    level: int
    key: Key
    mode: Mode
    action_id: int
    op: OpContext | None = None
    detoured: int = 0

    def with_node(self, node_id: int) -> "DeleteAction":
        """Re-addressed copy; faster than ``_replace``."""
        return DeleteAction(
            node_id, self.level, self.key, self.mode, self.action_id, self.op, self.detoured
        )

    def relayed(self, origin_version: int = 0) -> "DeleteAction":
        """The relayed form sent to peer copies; op identity dropped."""
        return DeleteAction(
            self.node_id, self.level, self.key, Mode.RELAYED, self.action_id, None
        )

    @property
    def kind(self) -> str:
        return f"delete_{self.mode.value}"


# ----------------------------------------------------------------------
# the half-split (Figure 1): one record, three wire forms
# ----------------------------------------------------------------------
@tuple_action
class HalfSplit(NamedTuple):
    """One half-split of one node, as the primary copy performed it.

    The only description of a half-split there is: what
    :meth:`~repro.core.dbtree.DBTreeEngine.perform_half_split` returns
    and what every wire form carries to the node's other copies --
    :class:`RelayedSplit` (semi-synchronous and its descendants),
    :class:`SplitEnd` (synchronous) and the vigorous baseline's
    ``ApplyUnlock`` -- each of which applies it through
    :meth:`~repro.protocols.base.Protocol.apply_relayed_split`.
    ``parent_hint`` is the primary copy's parent link after the split
    (the new root when the split grew the tree).  ``sibling`` is the
    new sibling's copy as the splitter built it: every other copy of
    the node holds a sibling copy too, and it installs it from here
    (paper, Section 4.1.2: the split costs |copies| - 1 messages).
    It is ``None`` only when the splitter holds the sibling's one copy.
    """

    action_id: int
    separator: Key
    sibling_id: int
    sibling_pids: tuple[int, ...]
    parent_hint: int | None
    sibling: NodeSnapshot | None = None


@tuple_action
class RelayedSplit(NamedTuple):
    """Relayed half-split: shrink range, point right at the sibling."""

    kind = "relayed_split"

    node_id: int
    split: HalfSplit


# ----------------------------------------------------------------------
# synchronous split protocol (Section 4.1.1): AAS control messages
# ----------------------------------------------------------------------
@tuple_action
class SplitStart(NamedTuple):
    """AAS start: blocks initial inserts at the receiving copy."""

    kind = "split_start"

    node_id: int
    split_id: int
    pc_pid: int


@tuple_action
class SplitAck(NamedTuple):
    """Copy's acknowledgement of a split AAS back to the primary copy."""

    kind = "split_ack"

    node_id: int
    split_id: int
    from_pid: int


@tuple_action
class SplitEnd(NamedTuple):
    """AAS end: apply the half-split and unblock initial inserts."""

    kind = "split_end"

    node_id: int
    split_id: int
    split: HalfSplit


@tuple_action
class CreateCopy(NamedTuple):
    """Install a new node copy from a snapshot.

    ``reason`` distinguishes join responses, root growth, migration
    and recovery in the message accounting.  A split's sibling needs
    no message of its own: it rides on the half-split
    (:attr:`HalfSplit.sibling`).
    """

    snapshot: NodeSnapshot
    reason: str  # "join" | "root" | "migrate" | "pc_recovery" | "rehome"

    @property
    def kind(self) -> str:
        return f"create_copy_{self.reason}"

    @property
    def node_id(self) -> int:
        return self.snapshot.node_id


@tuple_action
class SetRoot(NamedTuple):
    """Announce a new tree root to a processor (root growth)."""

    kind = "set_root"

    root_id: int
    root_level: int
    root_pids: tuple[int, ...]
    version: int


@tuple_action
class LinkChange(NamedTuple):
    """Ordered link update (Sections 4.2-4.3).

    ``slot`` names which piece of node state changes:

    * ``"left"`` -- the node's left neighbour link,
    * ``"location"`` -- where the node's copies now live (migration or
      join/unjoin), updating the receiver's locator.

    Applied only if ``version`` exceeds the slot's stored version; a
    stale link-change is discarded, which is the paper's lazy way of
    producing ordered histories by rewriting.  ``(level, key)`` is the
    target's place in the tree, where a change that cannot be located
    recovers to; ``key=None`` (a left neighbour, whose range the sender
    does not know) sends it by id only.
    """

    node_id: int
    level: int
    key: Key | None
    slot: str
    target_id: int | None
    target_pids: tuple[int, ...]
    version: int
    action_id: int
    mode: Mode = Mode.INITIAL
    detoured: int = 0

    def with_node(self, node_id: int) -> "LinkChange":
        """Re-addressed copy; faster than ``_replace``."""
        return LinkChange(
            node_id,
            self.level,
            self.key,
            self.slot,
            self.target_id,
            self.target_pids,
            self.version,
            self.action_id,
            self.mode,
            self.detoured,
        )

    @property
    def kind(self) -> str:
        return f"link_change_{self.slot}"


# ----------------------------------------------------------------------
# variable-copies protocol (Section 4.3): join / unjoin
# ----------------------------------------------------------------------
@tuple_action
class JoinRequest(NamedTuple):
    """Processor asks the node's primary copy to join its replication.

    ``exact`` distinguishes the two addressing modes: path-rule joins
    are *key-addressed* (join whatever node now covers (level, key) --
    the hint may be stale) while copy-loss healing is *id-addressed*
    (re-join this specific node; never re-home by key).
    """

    kind = "join_request"

    node_id: int
    level: int
    key: Key
    requester_pid: int
    exact: bool = False
    detoured: int = 0


@tuple_action
class JoinRetry(NamedTuple):
    """An exact join request reached a processor without the copy.

    Carries what the requester needs to ask another holder: the
    request's ``level`` and ``key`` and the ``bouncer_pid`` to skip.
    """

    kind = "join_retry"

    node_id: int
    level: int
    key: Key
    bouncer_pid: int


@tuple_action
class RelayedMembership(NamedTuple):
    """The primary copy tells the other members that ``pid`` joined or
    left the node's replication (``change`` is ``"join"`` or
    ``"unjoin"``) at node version ``version``."""

    node_id: int
    action_id: int
    change: str  # "join" | "unjoin"
    pid: int
    version: int

    @property
    def kind(self) -> str:
        return f"relayed_{self.change}"


@tuple_action
class UnjoinRequest(NamedTuple):
    """Processor tells the primary copy it dropped its replica."""

    kind = "unjoin_request"

    node_id: int
    leaver_pid: int


@tuple_action
class UnjoinAck(NamedTuple):
    """The primary copy acknowledges an unjoin request.

    Only emitted when crash-stop failures are enabled: the leaver
    keeps a ``pending_unjoins`` entry so the request can be re-sent
    across a PC crash, and this ack is what retires the entry (both
    after a successful registration and when the re-send hits the
    unknown-member guard).
    """

    kind = "unjoin_ack"

    node_id: int


# ----------------------------------------------------------------------
# mobile-nodes protocol (Section 4.2): migration
# ----------------------------------------------------------------------
@tuple_action
class AbsorbRequest(NamedTuple):
    """Free-at-empty: a retired leaf asks its left neighbour to take
    over its key range (the dE-tree direction the paper defers).

    Routed leftward from the retiring leaf; a receiver that has split
    since (its high bound no longer meets ``old_low``) forwards the
    request along its right chain, and a retired receiver forwards it
    further left -- the same navigability-based recovery as
    everything else in the protocol family.
    """

    kind = "absorb"

    node_id: int  # the neighbour being asked to absorb
    old_low: Key
    old_high: Key
    right_id: int | None
    right_pids: tuple[int, ...]
    retired_id: int  # the leaf that retired
    retired_version: int  # orders the right neighbour's left-link fix
    detoured: int = 0


@tuple_action
class MigrateNode(NamedTuple):
    """Command: move the (single-copy) node stored here to ``to_pid``."""

    kind = "migrate"

    node_id: int
    to_pid: int


# ----------------------------------------------------------------------
# crash-stop failures: detection, recovery, and leaf mirroring
# ----------------------------------------------------------------------
@tuple_action
class PeerFailure(NamedTuple):
    """Local failure-detector verdict: ``pid`` is crashed.

    Enqueued at an observer when its failure detector
    (:mod:`repro.sim.detector`) suspects ``pid``: under the oracle at
    every live processor at once, ``detection_delay`` after the crash;
    under an earned detector when that observer's own monitor gives up
    on ``pid`` -- and then it may be *wrong* (a partitioned or
    gray-slow peer is alive).  The receiver
    force-unjoins the suspect from replicated copy sets it is primary
    for and re-homes mirrored single-copy leaves the suspect owned;
    every one of those steps must therefore be survivable when the
    verdict turns out false (idempotent re-joins, anti-entropy
    reconciliation, see :class:`PeerRescind`).
    """

    kind = "peer_failure"

    pid: int


@tuple_action
class PeerRescind(NamedTuple):
    """Local failure-detector retraction: ``pid`` is alive after all.

    Emitted only by an earned detector, when a heartbeat arrives from
    a peer the observer had suspected (a healed partition, a gray
    link that caught up, or plain bad luck).  The receiver drops the
    suspect from its ``dead_peers`` view so future copy-set choices
    may include it again; repairing whatever the false suspicion
    already broke (forced unjoins, double-homed leaves) is the
    anti-entropy layer's job, not this action's.
    """

    kind = "peer_rescind"

    pid: int


@tuple_action
class RecoveryAnnounce(NamedTuple):
    """A restarted processor announces it is back, amnesiac.

    Receivers respond with what the newcomer needs to rebuild: the
    current root, snapshots of replicated nodes it is nominally
    primary for, mirror copies of leaves it should hold, and any
    unjoin requests that were dead-lettered while it was down.
    """

    kind = "recovery_announce"

    pid: int


@tuple_action
class MirrorUpdate(NamedTuple):
    """Replicate (or retract) a single-copy leaf's state to a mirror.

    The home processor emits one of these to each of its mirror
    targets whenever it applies an update to a single-copy leaf; the
    mirror stores the snapshot passively (it serves no reads) so the
    leaf can be re-homed if the owner dies.  ``snapshot=None`` is a
    retraction: the leaf migrated away or retired, so the mirror must
    forget it rather than resurrect a stale ghost.
    """

    home_pid: int
    node_id: int
    snapshot: NodeSnapshot | None = None

    @property
    def kind(self) -> str:
        return "mirror_update" if self.snapshot is not None else "mirror_drop"
