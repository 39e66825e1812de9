"""The repair executor: resolve digest mismatches with lazy updates.

The drill-down (:mod:`repro.repair.gossip`) ends with one processor
holding a list of per-node digests that disagree with its own.  Every
resolution reuses the paper's own machinery rather than ad-hoc state
copying:

* **missed lazy updates** -- each copy keeps a bounded log of the
  relayed form of the keyed updates it incorporated; a
  :class:`RepairPull` replays the ones the other side lacks as
  ordinary relayed actions (original action ids, so the receiving
  copy's duplicate test drops what it has and the audit trail
  stays a compatible history),
* **structural divergence** (range / right link / membership) -- the
  primary copy is authoritative because it serializes splits, joins
  and unjoins; a stale member drops its copy and heals with the exact
  (id-addressed) join the crash layer already uses
  (:class:`RejoinAdvise`),
* **stale or missing mirrors** -- refreshed from the home with the
  ordinary :class:`~repro.core.actions.MirrorUpdate` push
  (:class:`MirrorPull`); mirrors no longer in the placement's target
  set are retracted the same way,
* **orphaned leaves** -- a mirror whose home died re-enters through
  the crash layer's re-homing; a home that lost a leaf it still
  nominally owns asks a mirror to send it back as a ``CreateCopy
  ("rehome")`` (:class:`MirrorReturnRequest`).

:class:`RepairService` is the facade the engine constructs when a
:class:`~repro.repair.gossip.RepairPlan` is given: it owns the digest
index, the gossip scheduler, and the executor, and adds one row per
gossip and repair action to the engine's action table
(:meth:`~repro.core.dbtree.DBTreeEngine.on`), so a repair-off engine
has no such rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.actions import (
    CreateCopy,
    MirrorUpdate,
    Mode,
    UnjoinRequest,
)
from repro.core.dbtree.mirrors import LeafMirrors
from repro.repair.digest import MASK, DigestIndex, bucket_sums, row_hash
from repro.repair.gossip import (
    DigestDetail,
    DigestNodes,
    DigestOffer,
    GossipScheduler,
    GossipTick,
    RepairPlan,
)

if TYPE_CHECKING:
    from repro.core.dbtree import DBTreeEngine
    from repro.core.node import NodeCopy
    from repro.sim.processor import Processor

#: Per-copy cap on the keyed-update repair log (oldest entries are
#: evicted; anything older is repaired by value re-join).
LOG_CAP = 512

#: What one processor replicates in common with one peer:
#: node_id -> (role, digest, level, low).
PairView = dict[int, tuple[str, int, int, Any]]


# ----------------------------------------------------------------------
# repair actions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MirrorPull:
    """Ask a leaf's home to re-push (or retract) its mirror."""

    kind = "mirror_pull"

    src_pid: int
    node_id: int


@dataclass(frozen=True)
class MirrorReturnRequest:
    """A home lost a leaf it still owns: ask a mirror to return it."""

    kind = "mirror_return_request"

    src_pid: int
    node_id: int


@dataclass(frozen=True)
class RepairPull:
    """Ask a peer copy to replay the keyed updates we are missing.

    ``have`` is the requester's incorporated action-id set; ``meta``
    its structural fingerprint (range, right link, membership).
    ``reply`` marks the symmetric counter-pull so two diverged copies
    cannot ping-pong forever in one exchange.
    """

    kind = "repair_pull"

    src_pid: int
    node_id: int
    have: frozenset
    meta: tuple | None
    reply: bool = False


@dataclass(frozen=True)
class RejoinAdvise:
    """The primary copy tells a stale member to drop and re-join."""

    kind = "rejoin_advise"

    src_pid: int
    node_id: int
    level: int
    key: Any
    pc_pid: int


@dataclass(frozen=True)
class HomeResolve:
    """Two live processors both claim the same single-copy leaf.

    The double-home is a *feature* of earned failure detection: a
    mirror holder that (falsely or not) suspected the home adopts the
    leaf, and if the original home is actually alive the tree briefly
    has two primaries for one key range.  Gossip surfaces the clash
    (a role-"L" claim against a processor that holds a real copy);
    this exchange settles it deterministically: the larger
    ``(version, pid)`` claim wins, the loser replays the keyed
    updates only it saw (``have`` is the sender's incorporated
    action-id set, same replay machinery as :class:`RepairPull`) and
    cedes the leaf, and the winner bumps its version past the loser's
    so every stale location hint and mirror resolves the same way.
    ``reply`` marks the settling leg so the exchange terminates.
    """

    kind = "home_resolve"

    src_pid: int
    node_id: int
    version: int
    have: frozenset
    reply: bool = False


class RepairService:
    """Background anti-entropy: digests + gossip + repair executor."""

    def __init__(self, engine: "DBTreeEngine", plan: RepairPlan) -> None:
        self.engine = engine
        self.plan = plan
        self.index = DigestIndex()
        self.counters: dict[str, int] = {}
        self.digest_bytes = 0
        #: pid -> peer -> (node ids touched since the pair last asked,
        #: the pair's view, its bucket sums).  A pair has an entry from
        #: its first round until ``pid`` crashes or :meth:`kick` says
        #: the hooks were bypassed.
        self._views: dict[
            int, dict[int, tuple[set[int], PairView, list[int]]]
        ] = {}
        self.scheduler = GossipScheduler(
            self,
            seed=engine.kernel.seeds.register("gossip", engine.kernel.seed + 3),
        )
        scheduler = self.scheduler
        for action_type, handler in (
            (GossipTick, scheduler.on_tick),
            (DigestOffer, scheduler.on_offer),
            (DigestDetail, scheduler.on_detail),
            (DigestNodes, self.execute_repairs),
            (MirrorPull, self._on_mirror_pull),
            (MirrorReturnRequest, self._on_mirror_return),
            (RepairPull, self._on_repair_pull),
            (RejoinAdvise, self._on_rejoin_advise),
            (HomeResolve, self._on_home_resolve),
        ):
            engine.on(action_type, handler)
        kernel = engine.kernel
        wake_all = self.scheduler.wake_all
        if kernel.crash_controller is not None:
            kernel.crash_controller.on_crash(self._on_peer_crash)
            kernel.crash_controller.on_restart(self._on_peer_restart)
            # Wake on suspicion -- and on rescission, because a
            # withdrawn suspicion means the forced unjoins it caused
            # are now divergence to repair.
            kernel.detector.on_suspect(lambda _obs, _pid: wake_all())
            kernel.detector.on_rescind(lambda _obs, _pid: wake_all())
        if kernel.partition_controller is not None:
            # A healed link is when divergent mirror sets and missed
            # relays become reconcilable: no point waiting out the
            # gossip dormancy window.
            kernel.partition_controller.on_heal(lambda _pairs: wake_all())
        self.scheduler.start()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def count_bytes(self, amount: int) -> None:
        self.digest_bytes += amount

    @property
    def last_divergence_time(self) -> float:
        """Virtual time divergence was last observed (convergence age)."""
        return self.scheduler.last_dirty

    def kick(self) -> None:
        """Externally signal divergence (tests, fault injection).

        An outside signal means state may have moved without passing
        the hooks that report a node touched, so every pair view is
        forgotten and the next rounds derive theirs from the stores.
        """
        self._views.clear()
        self.scheduler.mark_dirty()

    def _on_peer_crash(self, pid: int) -> None:
        self.index.reset(pid)
        self._views.pop(pid, None)
        self.scheduler.on_processor_crash(pid)

    def _on_peer_restart(self, pid: int) -> None:
        self.scheduler.mark_dirty()

    # ------------------------------------------------------------------
    # the per-copy repair log (missed lazy updates)
    # ------------------------------------------------------------------
    def log_update(self, copy: "NodeCopy", action: Any) -> None:
        """Remember the relayed form of a keyed update this copy
        incorporated, for replay to a diverged peer."""
        log = copy.proto.get("repair_log")
        if log is None:
            log = copy.proto["repair_log"] = {}
        stored = (
            action
            if action.mode is Mode.RELAYED
            else action.relayed(copy.version)
        )
        log[action.action_id] = stored
        if len(log) > LOG_CAP:
            del log[next(iter(log))]
        self.touch(copy.home_pid, copy.node_id)

    # ------------------------------------------------------------------
    # shared view: what this processor replicates in common with a peer
    # ------------------------------------------------------------------
    def touch(self, pid: int, node_id: int) -> None:
        """``pid``'s copy or mirror of ``node_id`` may have changed.

        Called where state changes already pass: the engine's
        ``incorporate``, ``install_copy`` and ``remove_copy``,
        :meth:`log_update`, the mirror collaborator's edits of a
        mirror store, :meth:`_on_home_resolve`.  The node's row in
        each of ``pid``'s views is re-derived when that view is next
        asked for.
        """
        views = self._views.get(pid)
        if views:
            for touched, _view, _sums in views.values():
                touched.add(node_id)

    def copy_removed(self, pid: int, node_id: int, mirror: bool = False) -> None:
        """``pid`` no longer stores (with ``mirror``: no longer
        mirrors) ``node_id``: forget its digest."""
        self.index.forget(pid, node_id, mirror)
        self.touch(pid, node_id)

    def shared_entries(
        self, proc: "Processor", peer: int
    ) -> tuple[PairView, list[int]]:
        """The pair scope's view and its bucket sums.

        The view maps node_id -> (role, digest, level, low).  Roles:
        ``"C"`` a replicated copy listing the peer as member, ``"L"``
        an own single-copy leaf whose mirror targets include the peer,
        ``"M"`` a held mirror whose home is the peer.  ``sums[b]`` is
        the sum mod 2**64 of :func:`~repro.repair.digest.row_hash` over
        the rows with ``node_id % len(sums) == b``.

        Both are kept between rounds: a call costs the nodes touched
        since the pair last asked, not the store, and only a row that
        changed moves its bucket's sum.  :meth:`derive_entries` builds
        a pair's first view and says what every later one must equal.
        Callers read what is returned and do not keep or change it.
        """
        views = self._views.setdefault(proc.pid, {})
        state = views.get(peer)
        if state is None:
            view = self.derive_entries(proc, peer)
            sums = bucket_sums(view)
            views[peer] = (set(), view, sums)
            return view, sums
        touched, view, sums = state
        if touched:
            buckets = len(sums)
            for node_id in touched:
                row = self._row(proc, peer, node_id)
                old = view.get(node_id)
                if row == old:
                    continue
                index = node_id % buckets
                term = sums[index]
                if old is not None:
                    term -= row_hash(node_id, old[0], old[1])
                if row is None:
                    del view[node_id]
                else:
                    view[node_id] = row
                    term += row_hash(node_id, row[0], row[1])
                sums[index] = term & MASK
            touched.clear()
        return view, sums

    def _row(
        self, proc: "Processor", peer: int, node_id: int
    ) -> tuple[str, int, int, Any] | None:
        """One node's row in the ``(proc, peer)`` view, None if the
        pair does not share it (:meth:`derive_entries`, one node)."""
        pid = proc.pid
        mirrors = self.engine.mirrors
        if mirrors is not None:
            held = mirrors.held(proc).get(node_id)
            if held is not None and held[0] == peer:
                snap = held[1]
                return (
                    "M",
                    self.index.mirror_digest(pid, node_id, snap),
                    snap.level,
                    snap.low,
                )
        copy = proc.state["store"].get(node_id)
        if copy is None or copy.retired:
            return None
        members = copy.copy_versions
        if peer in members and len(members) > 1:
            role = "C"
        elif (
            mirrors is not None
            and mirrors.mirrored(copy)
            and peer in mirrors.targets(pid, node_id)
        ):
            role = "L"
        else:
            return None
        return (role, self.index.node_digest(pid, copy), copy.level, copy.range.low)

    def derive_entries(self, proc: "Processor", peer: int) -> PairView:
        """The pair view from scratch: one pass over the whole store.

        A pair's first view, its view again after a crash or a
        :meth:`kick`, and the reference the tests hold every kept
        view to.
        """
        engine = self.engine
        index = self.index
        pid = proc.pid
        mirrors = engine.mirrors
        entries: PairView = {}
        for copy in proc.state["store"].values():
            if copy.retired:
                continue
            members = copy.copy_versions
            if peer in members and len(members) > 1:
                entries[copy.node_id] = (
                    "C",
                    index.node_digest(pid, copy),
                    copy.level,
                    copy.range.low,
                )
            elif (
                mirrors is not None
                and copy.is_leaf
                and len(members) == 1
                and peer in mirrors.targets(pid, copy.node_id)
            ):
                entries[copy.node_id] = (
                    "L",
                    index.node_digest(pid, copy),
                    0,
                    copy.range.low,
                )
        if mirrors is not None:
            for node_id, (home, snap) in mirrors.held(proc).items():
                if home == peer:
                    entries[node_id] = (
                        "M",
                        index.mirror_digest(pid, node_id, snap),
                        snap.level,
                        snap.low,
                    )
        return entries

    # ------------------------------------------------------------------
    # the executor: resolve a peer's divergent entries
    # ------------------------------------------------------------------
    def execute_repairs(self, proc: "Processor", action: DigestNodes) -> None:
        peer = action.src_pid
        mine, sums = self.shared_entries(proc, peer)
        remote = {row[0]: row[1:] for row in action.entries}
        repaired = False
        for node_id, (role, digest, level, low) in remote.items():
            local = mine.get(node_id)
            if local is not None and local[1] == digest:
                continue
            repaired |= self._repair_remote(
                proc, peer, node_id, role, level, low
            )
        mismatched = set(action.buckets)
        buckets = len(sums)
        # Ascending node id, not the view's own order: this sweep sends
        # messages, so its order is part of the schedule, and the order
        # a store happened to be filled in must not be.
        for node_id in sorted(mine):
            if node_id % buckets not in mismatched or node_id in remote:
                continue
            repaired |= self._repair_local_only(proc, peer, node_id, mine[node_id][0])
        if repaired:
            self.scheduler.mark_dirty()

    def _repair_remote(
        self,
        proc: "Processor",
        peer: int,
        node_id: int,
        role: str,
        level: int,
        low: Any,
    ) -> bool:
        """The peer replicates ``node_id`` with us and our digest
        disagrees (or we hold nothing)."""
        engine = self.engine
        if role == "C":
            copy = engine.copy_at(proc, node_id)
            if copy is not None:
                engine.kernel.route(proc.pid, peer, self._pull(proc, copy))
                self.count("copy_pulls")
                return True
            # We are a declared member holding nothing: the copy died
            # with a crash.  Heal exactly like a relay-to-missing.
            return self._request_rejoin(proc, node_id, level, low, peer)
        if role == "L":
            # The peer's own leaf should be mirrored here and is not
            # (or is stale): pull a fresh push from the home.
            copy = engine.copy_at(proc, node_id)
            if copy is not None:
                self.count("home_conflicts")
                if not LeafMirrors.mirrored(copy):
                    return False
                # Double-home: the peer claims a leaf we also hold as
                # our own single-copy primary -- the signature of a
                # re-home raced against a live (partitioned or falsely
                # suspected) home.  Settle it.
                self.claim_home(proc, peer, copy)
                return True
            engine.kernel.route(
                proc.pid, peer, MirrorPull(src_pid=proc.pid, node_id=node_id)
            )
            self.count("mirror_pulls")
            return True
        # role == "M": the peer mirrors a leaf it thinks we own.
        self._answer_mirror(proc, peer, node_id)
        return True

    def _repair_local_only(
        self, proc: "Processor", peer: int, node_id: int, role: str
    ) -> bool:
        """We replicate ``node_id`` with the peer but the peer listed
        nothing for it in a mismatching bucket."""
        engine = self.engine
        if role == "C":
            copy = engine.copy_at(proc, node_id)
            if copy is None:
                return False
            engine.kernel.route(
                proc.pid,
                peer,
                RejoinAdvise(
                    src_pid=proc.pid,
                    node_id=node_id,
                    level=copy.level,
                    key=copy.range.low,
                    pc_pid=copy.pc_pid,
                ),
            )
            self.count("rejoin_advises")
            return True
        if role == "L":
            # Our leaf has no mirror at a current target: push one.
            copy = engine.copy_at(proc, node_id)
            if copy is None or not LeafMirrors.mirrored(copy):
                return False
            engine.kernel.route(
                proc.pid, peer, MirrorUpdate(proc.pid, node_id, copy.snapshot())
            )
            self.count("mirror_refreshes")
            return True
        # role == "M": we mirror a leaf the peer no longer claims.
        # Let the home decide: refresh, retract, or take it back.
        engine.kernel.route(
            proc.pid, peer, MirrorPull(src_pid=proc.pid, node_id=node_id)
        )
        self.count("mirror_pulls")
        return True

    # ------------------------------------------------------------------
    # repair action handlers
    # ------------------------------------------------------------------
    def _on_mirror_pull(self, proc: "Processor", action: MirrorPull) -> None:
        self._answer_mirror(proc, action.src_pid, action.node_id)

    def _answer_mirror(self, proc: "Processor", peer: int, node_id: int) -> None:
        """``peer`` mirrors (or asks to mirror) a leaf it thinks we
        own: refresh the mirror, retract it, or ask for the leaf back."""
        engine = self.engine
        copy = engine.copy_at(proc, node_id)
        if copy is not None and LeafMirrors.mirrored(copy):
            if peer in engine.mirrors.targets(proc.pid, node_id):
                reply: Any = MirrorUpdate(proc.pid, node_id, copy.snapshot())
                self.count("mirror_refreshes")
            else:
                # Stray under the current placement policy: retract.
                reply = MirrorUpdate(proc.pid, node_id, None)
                self.count("mirror_drops")
        elif copy is not None or node_id in proc.state["forward"]:
            # Retired, replicated, or migrated away: the mirror is a
            # stale ghost; retract it.
            reply = MirrorUpdate(proc.pid, node_id, None)
            self.count("mirror_drops")
        else:
            # We own nothing under that id: the leaf died with a crash
            # and was never re-homed.  Ask the mirror to return it.
            reply = MirrorReturnRequest(src_pid=proc.pid, node_id=node_id)
            self.count("leaf_return_requests")
        engine.kernel.route(proc.pid, peer, reply)

    def _on_mirror_return(
        self, proc: "Processor", action: MirrorReturnRequest
    ) -> None:
        engine = self.engine
        mirrors = engine.mirrors
        entry = None if mirrors is None else mirrors.held(proc).get(action.node_id)
        if (
            entry is None
            or entry[0] != action.src_pid
            or engine.copy_at(proc, action.node_id) is not None
        ):
            self.count("returns_unavailable")
            return
        _home, snap = entry
        engine.kernel.route(
            proc.pid, action.src_pid, CreateCopy(snap, "rehome")
        )
        self.count("leaves_returned")

    def _meta(self, copy: "NodeCopy") -> tuple:
        """Structural fingerprint: what a value replay cannot fix."""
        return (
            copy.range.low,
            copy.range.high,
            copy.right_id,
            tuple(sorted(copy.copy_versions.items())),
        )

    def _pull(
        self, proc: "Processor", copy: "NodeCopy", reply: bool = False
    ) -> RepairPull:
        """Our side of a copy comparison: what we have, how we look."""
        return RepairPull(
            src_pid=proc.pid,
            node_id=copy.node_id,
            have=frozenset(copy.incorporated_ids),
            meta=self._meta(copy),
            reply=reply,
        )

    def claim_home(self, proc: "Processor", peer: int, copy: "NodeCopy") -> None:
        """Send our claim on ``copy``'s single-copy leaf to ``peer``,
        which claims it too, so the two settle on one home."""
        self.engine.kernel.route(proc.pid, peer, self._home_claim(proc, copy))

    def _home_claim(
        self, proc: "Processor", copy: "NodeCopy", reply: bool = False
    ) -> HomeResolve:
        """Our ``(version, pid)`` claim on a single-copy leaf."""
        return HomeResolve(
            src_pid=proc.pid,
            node_id=copy.node_id,
            version=copy.version,
            have=frozenset(copy.incorporated_ids),
            reply=reply,
        )

    def _replay_missing(
        self, proc: "Processor", copy: "NodeCopy", peer: int, have: frozenset
    ) -> None:
        """Resend ``peer`` the logged keyed updates it lacks, as the
        ordinary relayed actions they were."""
        incorporated = copy.incorporated_ids
        replayed = 0
        for action_id, stored in copy.proto.get("repair_log", {}).items():
            if action_id in have or action_id not in incorporated:
                continue
            self.engine.kernel.route(proc.pid, peer, stored)
            replayed += 1
        if replayed:
            self.count("updates_replayed", replayed)

    def _on_repair_pull(self, proc: "Processor", action: RepairPull) -> None:
        engine = self.engine
        copy = engine.copy_at(proc, action.node_id)
        if copy is None:
            self.count("pulls_on_missing")
            return
        self._replay_missing(proc, copy, action.src_pid, action.have)
        if not action.reply and not action.have <= copy.incorporated_ids:
            # The peer incorporated ids we lack: pull symmetrically
            # (marked as the reply leg so the exchange terminates).
            engine.kernel.route(
                proc.pid, action.src_pid, self._pull(proc, copy, reply=True)
            )
            self.count("copy_pulls")
        if action.meta is not None and action.meta != self._meta(copy):
            # Structural divergence: value replay cannot repair a
            # range, link, or membership split-brain.  The PC
            # serializes splits/joins/unjoins, so it is authoritative.
            if copy.is_pc:
                engine.kernel.route(
                    proc.pid,
                    action.src_pid,
                    RejoinAdvise(
                        src_pid=proc.pid,
                        node_id=copy.node_id,
                        level=copy.level,
                        key=copy.range.low,
                        pc_pid=proc.pid,
                    ),
                )
                self.count("rejoin_advises")
            elif copy.pc_pid == action.src_pid:
                self._drop_and_rejoin(proc, copy)
            elif not action.reply:
                # Neither side is authoritative: escalate the same
                # comparison to the primary copy.
                engine.kernel.route(
                    proc.pid, copy.pc_pid, self._pull(proc, copy, reply=True)
                )
                self.count("pulls_escalated")

    def _on_home_resolve(self, proc: "Processor", action: HomeResolve) -> None:
        """Settle a double-homed leaf: larger ``(version, pid)`` wins.

        The comparison is on the *claims carried in the exchange*, so
        both sides reach the same verdict without any shared oracle.
        The loser first replays the keyed updates only it saw (the
        winner's copy absorbs them through the ordinary idempotent
        relayed path), then cedes; the winner bumps its version past
        the loser's and re-announces, so neighbours, parents, and
        mirrors all converge on one home.  Either side may initiate --
        concurrent initiations settle to the same winner because the
        order on claims is total.
        """
        engine = self.engine
        node_id = action.node_id
        copy = engine.copy_at(proc, node_id)
        if copy is None or not LeafMirrors.mirrored(copy):
            # No live single-copy claim on this side (already ceded,
            # re-replicated, or retired): nothing left to settle.
            self.count("home_resolves_moot")
            return
        mine = (copy.version, proc.pid)
        theirs = (action.version, action.src_pid)
        if mine > theirs:
            # We win.  On the initiating leg, hand the loser our
            # incorporated set so it can replay what only it saw
            # before ceding.
            if not action.reply:
                engine.kernel.route(
                    proc.pid, action.src_pid, self._home_claim(proc, copy, reply=True)
                )
            # Dominate the loser's claim: every stale location hint,
            # mirror, and parent link now resolves to us on version.
            copy.reseat(proc.pid, action.version)
            self.touch(proc.pid, node_id)
            engine.announce_location(proc, copy)
            engine.mirrors.push(proc, copy)
            self.count("home_resolves_won")
            self.scheduler.mark_dirty()
            return
        # We lose: replay the updates the winner lacks, then cede.
        self._replay_missing(proc, copy, action.src_pid, action.have)
        if not action.reply:
            # Settling leg: carry our claim back so the winner bumps
            # past it and re-announces.
            engine.kernel.route(
                proc.pid, action.src_pid, self._home_claim(proc, copy, reply=True)
            )
        engine.remove_copy(proc, node_id, "home_resolve")
        self.count("home_resolves_ceded")
        self.scheduler.mark_dirty()

    def _on_rejoin_advise(self, proc: "Processor", action: RejoinAdvise) -> None:
        engine = self.engine
        node_id = action.node_id
        if node_id in proc.state.get("unjoined", set()):
            # We left the replication on purpose; the adviser missed
            # the unjoin.  Re-tell the primary copy instead.
            engine.kernel.route(
                proc.pid,
                action.pc_pid,
                UnjoinRequest(node_id=node_id, leaver_pid=proc.pid),
            )
            self.count("unjoins_resent")
            return
        copy = engine.copy_at(proc, node_id)
        if copy is not None:
            if copy.is_pc:
                self.count("advise_at_pc_ignored")
                return
            self._drop_and_rejoin(proc, copy)
            return
        self._request_rejoin(
            proc, node_id, action.level, action.key, action.pc_pid
        )

    def _drop_and_rejoin(self, proc: "Processor", copy: "NodeCopy") -> bool:
        """Discard a structurally stale copy and re-join from the PC.

        The dropped copy makes the PC's ``CreateCopy`` land on a
        missing node (the duplicate-ignore guard would otherwise keep
        the stale value), so the heal is a fresh original value --
        exactly a first-time join.
        """
        node_id = copy.node_id
        asked = self._request_rejoin(
            proc, node_id, copy.level, copy.range.low, copy.pc_pid
        )
        if asked:
            self.engine.remove_copy(proc, node_id, "repair")
        return asked

    def _request_rejoin(
        self, proc: "Processor", node_id: int, level: int, key: Any, target: int
    ) -> bool:
        """Heal through the protocol's exact (id-addressed) join."""
        rejoin = self.engine.protocol.rejoin
        if rejoin is None:
            # A fixed-membership protocol has no join path to heal
            # through; dropping the copy would just lose it.  Keep it
            # and report the divergence honestly.
            self.count("unrepairable")
            return False
        if not rejoin(proc, node_id, level, key, to=target):
            return False
        self.count("rejoins")
        return True

    # ------------------------------------------------------------------
    # orphan sweep (run each tick, before gossiping)
    # ------------------------------------------------------------------
    def sweep_orphans(self, proc: "Processor") -> None:
        """Re-home mirrored leaves whose home processor is dead.

        The detection path already does this on the failure signal;
        the sweep catches mirrors that arrived *after* re-homing ran
        (in-flight pushes from the dying home) so they cannot linger
        as orphans forever.
        """
        engine = self.engine
        mirrors = engine.mirrors
        if mirrors is None:
            return
        homes = {home for home, _snap in mirrors.held(proc).values()}
        dead_homes = [
            home for home in sorted(homes) if not engine.peer_up(proc.pid, home)
        ]
        for dead in dead_homes:
            self.count("orphan_sweeps")
            mirrors.rehome(proc, dead)

    def sweep_dead_members(self, proc: "Processor") -> None:
        """Re-drive the forced unjoin of crashed members.

        Detection force-unjoins a dead member from every primary copy
        held at a live processor, but a PC that was itself down at
        detection time never sees the failure signal: its donated
        copies come back still declaring the dead peer.  The sweep
        re-runs the protocol's own failure hook -- idempotent, since
        members already unjoined are skipped -- so stale membership
        converges instead of lingering until the next demand touch.
        """
        engine = self.engine
        if engine.crash is None:
            return
        # Each processor sweeps by its *own* belief (its detector's
        # opinion, the ground truth under the oracle): under partitions
        # the sweeps are exactly as fallible as detection itself, and
        # the same rescind/re-join machinery covers for them.
        dead = [
            pid
            for pid in engine.kernel.pids
            if pid != proc.pid and not engine.peer_up(proc.pid, pid)
        ]
        if not dead:
            return
        declared = set()
        for copy in engine.store(proc).values():
            if not copy.is_pc or copy.retired:
                continue
            declared.update(pid for pid in dead if pid in copy.copy_versions)
        if not declared:
            return
        engine.crash.mark_dead(proc, declared)
        for pid in sorted(declared):
            self.count("membership_sweeps")
            engine.protocol.on_peer_failure(proc, pid)
