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
out-of-range / missing-node rules (Sections 4.2-4.3).

A half-split is described once, by :class:`HalfSplit`; the messages
that take it to the other copies (:class:`RelayedSplit`,
:class:`SplitEnd`, the vigorous baseline's ``ApplyUnlock``) carry that
value and add only their own addressing.

The ``kind`` class attribute is the accounting label used by the
network statistics; the message-complexity benchmarks (experiment C4)
count these labels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.core.keys import Key
from repro.core.node import NodeSnapshot


class Mode(enum.Enum):
    """Whether an update action is the initial or a relayed execution."""

    INITIAL = "initial"
    RELAYED = "relayed"


@dataclass(frozen=True)
class OpContext:
    """Identity of a client operation, carried by its actions."""

    op_id: int
    kind: str  # "search" | "insert" | "delete"
    key: Key
    value: Any
    home_pid: int


@dataclass(frozen=True)
class SearchStep:
    """One step of a tree descent on behalf of an operation.

    Non-update action: examines the target node and issues the next
    subsequent action (descend, move right, or act on the leaf).

    ``cached`` marks a step routed by a leaf-location hint instead of
    a root descent; if the hint turns out stale the flag lets the
    engine count exactly one stale-recovery per operation.
    """

    kind = "search"

    node_id: int
    op: OpContext
    cached: bool = False

    def with_node(self, node_id: int) -> "SearchStep":
        """Re-addressed copy; faster than ``dataclasses.replace``."""
        return SearchStep(node_id, self.op, self.cached)

    def uncached(self) -> "SearchStep":
        """The same step with the cache provenance cleared."""
        if not self.cached:
            return self
        return SearchStep(self.node_id, self.op, False)


@dataclass(frozen=True)
class ScanStep:
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

    def with_node(self, node_id: int) -> "ScanStep":
        """Re-addressed copy; faster than ``dataclasses.replace``."""
        return ScanStep(node_id, self.level, self.key, self.op, self.collected)

    def advanced(self, key: Key, collected: tuple) -> "ScanStep":
        """The next leaf visit: the cursor moved up to ``key`` with
        ``collected`` in hand (direct construction, as ``with_node``)."""
        return ScanStep(self.node_id, self.level, key, self.op, collected)


@dataclass(frozen=True)
class ReturnValue:
    """Return-value action routed to the operation's home processor.

    ``leaf_hint`` piggybacks the acting leaf's location -- ``(leaf_id,
    low, high, copy_pids)`` -- so the home processor's leaf cache
    learns where the key lives without any extra message.
    """

    kind = "return"

    op: OpContext
    result: Any
    leaf_hint: tuple | None = None


@dataclass(frozen=True)
class InsertAction:
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

    def with_node(self, node_id: int) -> "InsertAction":
        """Re-addressed copy; faster than ``dataclasses.replace``."""
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


@dataclass(frozen=True)
class DeleteAction:
    """Delete ``key`` from a leaf (never-merge extension)."""

    node_id: int
    level: int
    key: Key
    mode: Mode
    action_id: int
    op: OpContext | None = None

    def with_node(self, node_id: int) -> "DeleteAction":
        """Re-addressed copy; faster than ``dataclasses.replace``."""
        return DeleteAction(
            node_id, self.level, self.key, self.mode, self.action_id, self.op
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
@dataclass(frozen=True)
class HalfSplit:
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


@dataclass(frozen=True)
class RelayedSplit:
    """Relayed half-split: shrink range, point right at the sibling."""

    kind = "relayed_split"

    node_id: int
    split: HalfSplit


# ----------------------------------------------------------------------
# synchronous split protocol (Section 4.1.1): AAS control messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SplitStart:
    """AAS start: blocks initial inserts at the receiving copy."""

    kind = "split_start"

    node_id: int
    split_id: int
    pc_pid: int


@dataclass(frozen=True)
class SplitAck:
    """Copy's acknowledgement of a split AAS back to the primary copy."""

    kind = "split_ack"

    node_id: int
    split_id: int
    from_pid: int


@dataclass(frozen=True)
class SplitEnd:
    """AAS end: apply the half-split and unblock initial inserts."""

    kind = "split_end"

    node_id: int
    split_id: int
    split: HalfSplit


@dataclass(frozen=True)
class CreateCopy:
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


@dataclass(frozen=True)
class SetRoot:
    """Announce a new tree root to a processor (root growth)."""

    kind = "set_root"

    root_id: int
    root_level: int
    root_pids: tuple[int, ...]
    version: int


@dataclass(frozen=True)
class LinkChange:
    """Ordered link update (Sections 4.2-4.3).

    ``slot`` names which piece of node state changes:

    * ``"right"`` / ``"left"`` / ``"parent"`` -- neighbour links,
    * ``"location"`` -- where the node's copies now live (migration or
      join/unjoin), updating the receiver's locator.

    Applied only if ``version`` exceeds the slot's stored version; a
    stale link-change is discarded, which is the paper's lazy way of
    producing ordered histories by rewriting.
    """

    node_id: int
    level: int
    key: Key
    slot: str
    target_id: int | None
    target_pids: tuple[int, ...]
    version: int
    action_id: int
    mode: Mode = Mode.INITIAL

    def with_node(self, node_id: int) -> "LinkChange":
        """Re-addressed copy; faster than ``dataclasses.replace``."""
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
        )

    @property
    def kind(self) -> str:
        return f"link_change_{self.slot}"


# ----------------------------------------------------------------------
# variable-copies protocol (Section 4.3): join / unjoin
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinRequest:
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


@dataclass(frozen=True)
class JoinRetry:
    """An exact join request reached a processor without the copy.

    Carries what the requester needs to ask another holder: the
    request's ``level`` and ``key`` and the ``bouncer_pid`` to skip.
    """

    kind = "join_retry"

    node_id: int
    level: int
    key: Key
    bouncer_pid: int


@dataclass(frozen=True)
class RelayedJoin:
    """PC informs existing copies of a new replication member."""

    kind = "relayed_join"

    node_id: int
    action_id: int
    new_pid: int
    join_version: int


@dataclass(frozen=True)
class UnjoinRequest:
    """Processor tells the primary copy it dropped its replica."""

    kind = "unjoin_request"

    node_id: int
    leaver_pid: int


@dataclass(frozen=True)
class UnjoinAck:
    """The primary copy acknowledges an unjoin request.

    Only emitted when crash-stop failures are enabled: the leaver
    keeps a ``pending_unjoins`` entry so the request can be re-sent
    across a PC crash, and this ack is what retires the entry (both
    after a successful registration and when the re-send hits the
    unknown-member guard).
    """

    kind = "unjoin_ack"

    node_id: int


@dataclass(frozen=True)
class RelayedUnjoin:
    """PC informs remaining copies of a departed member."""

    kind = "relayed_unjoin"

    node_id: int
    action_id: int
    leaver_pid: int
    new_version: int


# ----------------------------------------------------------------------
# mobile-nodes protocol (Section 4.2): migration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AbsorbRequest:
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


@dataclass(frozen=True)
class MigrateNode:
    """Command: move the (single-copy) node stored here to ``to_pid``."""

    kind = "migrate"

    node_id: int
    to_pid: int


# ----------------------------------------------------------------------
# crash-stop failures: detection, recovery, and leaf mirroring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PeerFailure:
    """Local failure-detector verdict: ``pid`` is crashed.

    Under the oracle (``detection_delay``) model this is delivered to
    every live processor at once; under an earned detector
    (:mod:`repro.sim.detector`) it is enqueued per observer when that
    observer's own monitor gives up on ``pid`` -- and may be *wrong*
    (a partitioned or gray-slow peer is alive).  The receiver
    force-unjoins the suspect from replicated copy sets it is primary
    for and re-homes mirrored single-copy leaves the suspect owned;
    every one of those steps must therefore be survivable when the
    verdict turns out false (idempotent re-joins, anti-entropy
    reconciliation, see :class:`PeerRescind`).
    """

    kind = "peer_failure"

    pid: int


@dataclass(frozen=True)
class PeerRescind:
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


@dataclass(frozen=True)
class RecoveryAnnounce:
    """A restarted processor announces it is back, amnesiac.

    Receivers respond with what the newcomer needs to rebuild: the
    current root, snapshots of replicated nodes it is nominally
    primary for, mirror copies of leaves it should hold, and any
    unjoin requests that were dead-lettered while it was down.
    """

    kind = "recovery_announce"

    pid: int


@dataclass(frozen=True)
class MirrorUpdate:
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
