"""The dB-tree engine: a distributed B-link tree over the simulator.

The engine owns everything the paper's Section 4 algorithms share:

* **navigation** -- B-link descent one node at a time, with the
  out-of-range right-link recovery and the missing-node recovery of
  Sections 4.2-4.3 (stale parent hints, migrated nodes, unjoined
  copies are all recovered by re-navigating from a 'close' local node
  or the root),
* **split mechanics** -- the half-split itself (Figure 1): sibling
  creation, link update, parent insert, and root growth,
* **the lazy update** (Sections 3, 4.1) -- one of each step, whatever
  the update: :meth:`DBTreeEngine.incorporate` enters it in a copy's
  history, :meth:`DBTreeEngine.duplicate_relay` is the test every
  relayed application passes first, :meth:`DBTreeEngine.relay` sends
  a message to the node's other copies,
* **copy installation and locators**.

What the engine does *not* decide is update ordering: which updates a
protocol relays when, and how splits are ordered against inserts.  That is the :class:`~repro.protocols.base.Protocol`
strategy -- synchronous, semi-synchronous, naive, mobile, or
variable-copies -- making the engine a faithful implementation of the
paper's claim that the B-link actions stay fixed while only the copy
coherence discipline changes.

The processor model of Section 1.1 -- take an action from the queue,
perform it on a node -- is one lookup: :meth:`DBTreeEngine.handle`
finds the action's class in a table with one row per action type.
The engine fills its own rows, the protocol contributes its rows
through :meth:`~repro.protocols.base.Protocol.handlers`, and
everything else (crash recovery, leaf mirrors, repair, the load
balancer) attaches its rows with :meth:`DBTreeEngine.on`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Sequence

from repro.core.actions import (
    CreateCopy,
    DeleteAction,
    HalfSplit,
    InsertAction,
    LinkChange,
    Mode,
    OpContext,
    ReturnValue,
    ScanStep,
    SearchStep,
    SetRoot,
)
from repro.core.keys import POS_INF, Key, KeyRange, key_le, key_lt
from repro.core.leafcache import LeafHintCache
from repro.core.node import NodeCopy, NodeSnapshot
from repro.core.replication import ReplicationPolicy
from repro.sim.processor import ActionHandler, Processor
from repro.sim.simulator import Kernel
from repro.sim.tracing import Trace

if TYPE_CHECKING:
    from repro.core.dbtree.crash import CrashRecovery
    from repro.core.dbtree.mirrors import LeafMirrors
    from repro.core.dbtree.timers import OpTimers
    from repro.protocols.base import Protocol
    from repro.repair.gossip import RepairPlan
    from repro.repair.repair import RepairService


@dataclass(frozen=True)
class InitiateSplit:
    """Internal action: the PC's node manager runs the split discipline."""

    kind = "initiate_split"

    node_id: int


class DBTreeEngine:
    """Protocol-parameterised distributed B-link tree.

    Construct with a bound :class:`~repro.sim.simulator.Kernel`, a
    protocol strategy, and a replication policy; the engine bootstraps
    a one-leaf tree and installs itself as every processor's action
    handler.
    """

    def __init__(
        self,
        kernel: Kernel,
        protocol: "Protocol",
        policy: ReplicationPolicy,
        capacity: int = 8,
        trace: Trace | None = None,
        leaf_cache: bool = False,
        repair_plan: "RepairPlan | None" = None,
        collaborators: Iterable[Callable[["DBTreeEngine"], Any]] = (),
    ) -> None:
        self.kernel = kernel
        self.protocol = protocol
        self.policy = policy
        self.capacity = capacity
        self.trace = trace or Trace()
        #: The failure-only collaborators, each None unless its plan is
        #: on (so every hook is a single attribute test on the fast
        #: path): crash awareness and recovery, leaf mirroring,
        #: per-operation timers, anti-entropy repair.
        self.crash: "CrashRecovery | None" = None
        self.mirrors: "LeafMirrors | None" = None
        self.timers: "OpTimers | None" = None
        self.repair: "RepairService | None" = None
        #: op_id -> "failed" | "timed_out" for operations that will
        #: never produce a return value (home crashed / retries spent).
        self.op_verdicts: dict[int, str] = {}
        self._completed_ops: set[int] = set()
        # Per-processor key -> leaf hints (None = feature off).  Stale
        # hints are safe by construction: a misdirected operation
        # recovers via B-link out-of-range forwarding, see
        # :mod:`repro.core.leafcache`.
        self._leaf_caches: dict[int, LeafHintCache] | None = (
            {} if leaf_cache else None
        )
        self._next_node_id = 0
        self._next_op_id = 0
        # Called as listener(op, result) when an operation completes;
        # closed-loop workload drivers hang their next submission here.
        self.op_completion_listeners: list[Callable[[OpContext, Any], None]] = []
        for proc in kernel.processors.values():
            self.reset_processor(proc)
        #: The action table: one row per action type.
        self._handlers: dict[type, ActionHandler] = {
            SearchStep: self._on_search,
            InsertAction: self._on_keyed_update,
            DeleteAction: self._on_keyed_update,
            ReturnValue: self._on_return,
            ScanStep: self._on_scan,
            LinkChange: self._on_link_change,
            CreateCopy: self._on_create_copy,
            SetRoot: self._on_set_root,
            InitiateSplit: self._on_initiate_split,
        }
        protocol.bind(self)
        for action_type, handler in protocol.handlers().items():
            self.on(action_type, handler)
        # Collaborators attach before the bootstrap: the first leaf's
        # mirror push at t = 0 is part of every rf-2 schedule.
        for attach in collaborators:
            attach(self)
        self._dedup_returns = self.crash is not None or self.timers is not None
        kernel.install_handler(self.handle)
        self._bootstrap()
        if repair_plan is not None:
            from repro.repair.repair import RepairService

            self.repair = RepairService(self, repair_plan)

    def reset_processor(self, proc: Processor) -> None:
        """Give a processor the empty state a cluster starts from.

        Also what a crash leaves behind: replacing the state wholesale
        means no layer's key (the protocol's, a collaborator's) can
        survive the processor that held it.
        """
        proc.state = dict(
            store={},  # node_id -> NodeCopy
            locator={},  # node_id -> (version, (pids...))
            forward={},  # node_id -> (pid, version, time)
            root_id=None,
            root_level=-1,
        )
        if self._leaf_caches is not None:
            self._leaf_caches[proc.pid] = LeafHintCache()

    def on(self, action_type: type, handler: ActionHandler) -> None:
        """Add the table row for an action type the engine does not
        know (a collaborator's, the repair service's, a balancer's).
        One row per type: a second registration is a wiring bug."""
        if action_type in self._handlers:
            raise ValueError(
                f"{action_type.__name__} already has a handler: "
                f"{self._handlers[action_type]!r}"
            )
        self._handlers[action_type] = handler

    # ------------------------------------------------------------------
    # small accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.kernel.events.now

    def store(self, proc: Processor) -> dict[int, NodeCopy]:
        return proc.state["store"]

    def copy_at(self, proc: Processor, node_id: int) -> NodeCopy | None:
        return proc.state["store"].get(node_id)

    def root_id_of(self, proc: Processor) -> int:
        root_id = proc.state["root_id"]
        if root_id is None:
            raise RuntimeError(f"processor {proc.pid} has no root pointer")
        return root_id

    def _alloc_node_id(self) -> int:
        self._next_node_id += 1
        return self._next_node_id

    def _alloc_op_id(self) -> int:
        self._next_op_id += 1
        return self._next_op_id

    @staticmethod
    def update_params(action: Any) -> tuple:
        """Canonical hashable description of a keyed update."""
        if isinstance(action, InsertAction):
            payload = action.payload
            try:
                hash(payload)
            except TypeError:
                payload = repr(payload)
            return ("insert", action.key, payload)
        if isinstance(action, DeleteAction):
            return ("delete", action.key)
        raise TypeError(f"not a keyed update: {action!r}")

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Install the initial tree: a replicated root over one leaf.

        The dB-tree policy stores the root everywhere and each leaf at
        one processor; the smallest tree satisfying both is a height-1
        tree, which is what we start from.
        """
        pids = self.kernel.pids
        leaf_id = self._alloc_node_id()
        leaf_place = self.policy.place(0, pids[0], pids, False, self.kernel.rng)
        root_id = self._alloc_node_id()
        root_place = self.policy.place(1, pids[0], pids, True, self.kernel.rng)

        for pid in leaf_place.member_pids:
            leaf = NodeCopy(
                node_id=leaf_id,
                level=0,
                key_range=KeyRange.full(),
                pc_pid=leaf_place.pc_pid,
                copy_versions=leaf_place.copy_versions(),
                capacity=self.capacity,
                parent_id=root_id,
            )
            self.install_copy(self.kernel.processor(pid), leaf, frozenset(), "bootstrap")
        for pid in root_place.member_pids:
            root = NodeCopy(
                node_id=root_id,
                level=1,
                key_range=KeyRange.full(),
                pc_pid=root_place.pc_pid,
                copy_versions=root_place.copy_versions(),
                capacity=self.capacity,
            )
            root.insert_entry(KeyRange.full().low, leaf_id)
            self.install_copy(self.kernel.processor(pid), root, frozenset(), "bootstrap")

        for proc in self.kernel.processors.values():
            proc.state["root_id"] = root_id
            proc.state["root_level"] = 1
            self.learn_location(proc, root_id, root_place.member_pids)
            self.learn_location(proc, leaf_id, leaf_place.member_pids)

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def submit_operation(
        self,
        kind: str,
        key: Key,
        value: Any = None,
        home_pid: int = 0,
    ) -> int:
        """Start an operation now; returns its op id.

        The operation begins, as in the paper, by accessing the root:
        locally when the home processor holds a root copy, otherwise
        via a message to a root holder.  A home that cannot begin it
        (down, or restarted and not rooted yet) hands it to another
        processor by the fail-over rule (:meth:`CrashRecovery.fail_over
        <repro.core.dbtree.crash.CrashRecovery.fail_over>`).
        """
        if kind not in ("search", "insert", "delete", "scan"):
            raise ValueError(f"unknown operation kind {kind!r}")
        proc = self.kernel.processor(home_pid)
        op = OpContext(
            op_id=self._alloc_op_id(),
            kind=kind,
            key=key,
            value=value,
            home_pid=home_pid,
        )
        self.trace.record_op_submitted(op.op_id, kind, key, home_pid, self.now)
        timers = self.timers
        crash = self.crash
        if crash is not None and not crash.can_serve(proc):
            moved = crash.fail_over(op)
            if moved is None:
                # No processor is live and rooted.  With timeouts on,
                # the op waits for the first one to relearn the root
                # (or for its timer); without them, fail it now rather
                # than hang or raise mid-simulation.
                if timers is None:
                    self.fail_op(op, "failed")
                else:
                    timers.arm(op)
                return op.op_id
            self.trace.bump("op_failed_over")
            op = moved
            proc = self.kernel.processor(op.home_pid)
        leaf_id = None
        caches = self._leaf_caches
        if caches is not None and kind != "scan":
            hint = caches[proc.pid].lookup(key)
            if hint is not None:
                self.trace.counters["leaf_cache_hit"] += 1
                leaf_id = hint[0]
            else:
                self.trace.counters["leaf_cache_miss"] += 1
        if leaf_id is not None:
            step = SearchStep(node_id=leaf_id, op=op, cached=True)
            self.route_to_node(proc, leaf_id, step, level=0, key=key)
        else:
            root_id = self.root_id_of(proc)
            step = SearchStep(node_id=root_id, op=op)
            self.route_to_node(proc, root_id, step, level=None, key=key)
        if timers is not None:
            timers.arm(op)
        return op.op_id

    def schedule_operation(
        self,
        time: float,
        kind: str,
        key: Key,
        value: Any = None,
        home_pid: int = 0,
    ) -> None:
        """Schedule an operation submission at a future virtual time."""
        self.kernel.events.schedule(
            time, lambda: self.submit_operation(kind, key, value, home_pid)
        )

    def complete_op(
        self,
        proc: Processor,
        op: OpContext,
        result: Any,
        leaf: NodeCopy | None = None,
    ) -> None:
        """Issue the return-value action toward the op's home.

        When the acting leaf is known and leaf caching is on, its
        location rides back on the return value so the home
        processor's cache learns it for free.
        """
        hint = None
        if leaf is not None and self._leaf_caches is not None:
            node_range = leaf.range
            hint = (leaf.node_id, node_range.low, node_range.high, leaf.copy_pids)
        self.kernel.route(
            proc.pid, op.home_pid, ReturnValue(op=op, result=result, leaf_hint=hint)
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @staticmethod
    def retarget(action: Any, node_id: int) -> Any:
        """The same action re-addressed to another node.

        Already-addressed actions pass through untouched; the common
        action types provide ``with_node`` (direct construction,
        roughly an order of magnitude cheaper than
        ``dataclasses.replace`` on this hot path).
        """
        if action.node_id == node_id:
            return action
        with_node = getattr(action, "with_node", None)
        if with_node is not None:
            return with_node(node_id)
        return replace(action, node_id=node_id)

    def learn_location(
        self,
        proc: Processor,
        node_id: int,
        pids: tuple[int, ...],
        version: int = 0,
    ) -> None:
        """Merge location knowledge into the processor's locator.

        Versioned updates (migration / join link-changes) dominate;
        unversioned hints never overwrite a versioned entry.  Stale
        locator entries are harmless: misdirected actions recover.
        """
        if not pids:
            return
        locator = proc.state["locator"]
        stored = locator.get(node_id)
        if stored is None or version >= stored[0]:
            locator[node_id] = (version, tuple(pids))

    def locate(self, proc: Processor, node_id: int) -> int | None:
        """A processor believed to hold a copy of ``node_id``."""
        entry = proc.state["locator"].get(node_id)
        if entry is None:
            return None
        _version, pids = entry
        if proc.pid in pids and node_id in self.store(proc):
            return proc.pid
        candidates = [p for p in pids if p != proc.pid]
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        return self.kernel.rng.choice(candidates)

    def route_to_node(
        self,
        proc: Processor,
        node_id: int,
        action: Any,
        level: int | None,
        key: Key,
    ) -> None:
        """Deliver an action to some copy of ``node_id``.

        Local copy: enqueue for free.  Otherwise route to a processor
        the locator names; with no location knowledge, fall back to
        key-based recovery routing (``level``/``key`` identify the
        target when the node id hint is useless).
        """
        action = self.retarget(action, node_id)
        if node_id in self.store(proc):
            proc.submit(action)
            return
        pid = self.locate(proc, node_id)
        if pid is not None and pid != proc.pid:
            self.kernel.route(proc.pid, pid, action)
            return
        self._recover_route(proc, action, level=level, key=key)

    def _recover_route(
        self, proc: Processor, action: Any, level: int | None, key: Key
    ) -> None:
        """Missing-node recovery (paper, Sections 4.2-4.3).

        Find the 'closest' locally stored node -- lowest level >= the
        target level, preferring copies whose range covers the key --
        and restart navigation there; with no usable local node, send
        the action to a root holder.
        """
        self.trace.bump("missing_node_recovery")
        if isinstance(action, SearchStep):
            target_level, target_key = 0, action.op.key
        else:
            target_level = action.level if level is None else level
            target_key = key
        best: NodeCopy | None = None
        best_rank: tuple[int, int] | None = None
        for copy in self.store(proc).values():
            if copy.level < (target_level if target_level is not None else 0):
                continue
            if copy.node_id == getattr(action, "node_id", None):
                continue
            rank = (copy.level, 0 if copy.in_range(target_key) else 1)
            if best_rank is None or rank < best_rank:
                best, best_rank = copy, rank
        if best is not None:
            proc.submit(self.retarget(action, best.node_id))
            return
        root_id = proc.state["root_id"]
        entry = proc.state["locator"].get(root_id)
        pids = [p for p in entry[1] if p != proc.pid] if entry is not None else []
        if not pids:
            # This processor's knowledge is exhausted: it stores no
            # nodes and its locator offers no other root holder (it
            # may be arbitrarily stale or poisoned -- locators are
            # hints, never ground truth).  Hand the action around the
            # ring instead of failing; the first processor that
            # actually stores anything restarts navigation, and the
            # walk terminates because the root exists somewhere.
            all_pids = self.kernel.pids
            if len(all_pids) > 1:
                self.trace.bump("recovery_ring_forward")
                index = all_pids.index(proc.pid)
                next_pid = all_pids[(index + 1) % len(all_pids)]
                self.kernel.route(proc.pid, next_pid, action)
                return
            raise RuntimeError(
                f"processor {proc.pid} cannot locate the root for recovery"
            )
        self.kernel.route(
            proc.pid, self.kernel.rng.choice(pids), self.retarget(action, root_id)
        )

    def forward_same_level(self, proc: Processor, copy: NodeCopy, action: Any, key: Key) -> None:
        """B-link lateral forwarding for an out-of-range action.

        Rightward moves at leaf level may shortcut through the leaf
        cache: instead of crawling one sibling at a time, jump to a
        cached leaf believed to cover the key.  The shortcut is taken
        only when the cached leaf's low bound is *strictly greater*
        than this copy's low -- leaf lows are immutable, so progress
        stays monotone rightward and stale hints cannot cycle.
        """
        if copy.range.contains(key):
            raise ValueError("forwarding an in-range action")

        if key_lt(key, copy.range.low):
            target = copy.left_id
            self.trace.bump("forward_left")
        else:
            target = copy.right_id
            self.trace.bump("forward_right")
            caches = self._leaf_caches
            if caches is not None and copy.level == 0:
                hint = caches[proc.pid].lookup(key)
                if hint is not None and key_lt(copy.range.low, hint[1]):
                    self.trace.counters["leaf_cache_shortcut"] += 1
                    target = hint[0]
        if target is None:
            # No lateral link: recover by re-navigating from above.
            self._recover_route(
                proc,
                action,
                level=getattr(action, "level", copy.level),
                key=key,
            )
            return
        self.route_to_node(
            proc, target, action, level=getattr(action, "level", copy.level), key=key
        )

    def step_toward(self, proc: Processor, copy: NodeCopy, action: Any) -> None:
        """Route a keyed action downward/laterally toward (level, key)."""
        key = action.key
        if copy.level < action.level:
            # Action targets a level above this node; restart from root.
            self.trace.bump("recovery_via_root")
            self._route_via_root(proc, action)
            return
        if not copy.in_range(key):
            self.forward_same_level(proc, copy, action, key)
            return
        child = copy.child_for(key)
        self.route_to_node(proc, child, action, level=copy.level - 1, key=key)

    def _route_via_root(self, proc: Processor, action: Any) -> None:
        root_id = proc.state["root_id"]
        self.route_to_node(proc, root_id, action, level=None, key=action.key)

    # ------------------------------------------------------------------
    # the lazy update (Sections 3, 4.1).  At the copy that performs it:
    # apply, incorporate, relay.  At every other copy: duplicate test,
    # apply, incorporate.  Whatever the update is -- keyed, half-split,
    # link-change, join, unjoin, absorb -- these three are all of it.
    # ------------------------------------------------------------------
    def incorporate(
        self,
        proc: Processor,
        copy: NodeCopy,
        action_id: int,
        mode: Mode,
        params: tuple[Hashable, ...],
        version: int | None = None,
    ) -> None:
        """Enter an update in a copy's history.

        The only caller of the trace's ``record_initial`` /
        ``record_relayed`` and the place action ids join
        ``incorporated_ids``, so the id set a copy hands a new member
        as its birth set and the history the checkers audit cannot
        drift apart.  (One exception, for speed: with histories off,
        ``Protocol._apply_keyed`` adds a keyed update's id itself
        instead of paying this call.)  ``params[0]`` names the kind of
        update; ``version`` is the node version the update carries
        when that is not the copy's own (ordered link-changes, relayed
        joins and unjoins).  With repair on, the node is reported
        touched: an update is what changes a copy's digest.
        """
        copy.incorporated_ids.add(action_id)
        if self.repair is not None:
            self.repair.touch(proc.pid, copy.node_id)
        trace = self.trace
        if trace.record_updates:
            record = (
                trace.record_initial if mode is Mode.INITIAL else trace.record_relayed
            )
            record(
                node_id=copy.node_id,
                pid=proc.pid,
                action_id=action_id,
                kind=params[0],
                params=params,
                version=copy.version if version is None else version,
                time=self.now,
            )

    def duplicate_relay(self, copy: NodeCopy, action_id: int) -> bool:
        """Whether a relayed update is already in the copy's history.

        Every relayed application asks first, which is what makes a
        second delivery harmless: the variable-copies primary re-relays
        to late joiners that may have been sent the update directly, a
        repair replay resends from a log, a faulty network duplicates.
        """
        if action_id in copy.incorporated_ids:
            self.trace.bump("duplicate_relay_ignored")
            return True
        return False

    def relay(
        self,
        proc: Processor,
        copy: NodeCopy,
        message: Any,
        to: Sequence[int] | None = None,
    ) -> Sequence[int]:
        """Send one message to the node's other copies; returns them.

        ``to`` narrows the fan-out to some of them.  Sent from an
        action, the message shares one wire message with whatever else
        that action sends to the same peer
        (:meth:`~repro.sim.processor.Processor.hold`).
        """
        src = proc.pid
        if to is None:
            to = copy.peers_of(src)
        send = self.kernel.route
        for pid in to:
            send(src, pid, message)
        return to

    # ------------------------------------------------------------------
    # central dispatch
    # ------------------------------------------------------------------
    def handle(self, proc: Processor, action: Any) -> None:
        """Perform one action: its class's row in the action table."""
        try:
            handler = self._handlers[action.__class__]
        except KeyError:
            raise RuntimeError(
                f"processor {proc.pid} received unhandled action {action!r}"
            ) from None
        handler(proc, action)

    def _on_return(self, proc: Processor, action: ReturnValue) -> None:
        op_id = action.op.op_id
        if self._dedup_returns:
            if op_id in self._completed_ops:
                # An idempotent retry raced the original: the op
                # already returned a value; keep the first.
                self.trace.bump("duplicate_return_ignored")
                return
            if op_id in self.op_verdicts:
                # A late response after the client gave up: the
                # verdict (timed_out / failed) already stands, so
                # the partitions stay disjoint.
                self.trace.bump("late_return_ignored")
                return
            self._completed_ops.add(op_id)
            if self.timers is not None:
                self.timers.cancel(op_id)
        hint = action.leaf_hint
        if hint is not None and self._leaf_caches is not None:
            leaf_id, low, high, copy_pids = hint
            self._leaf_caches[proc.pid].learn(low, high, leaf_id)
            if copy_pids:
                self.learn_location(proc, leaf_id, copy_pids)
        self.trace.record_op_completed(op_id, action.result, self.now)
        for listener in self.op_completion_listeners:
            listener(action.op, action.result)

    def fail_op(self, op: OpContext, verdict: str) -> None:
        """Dispose of an operation that will never return a value."""
        self.op_verdicts[op.op_id] = verdict
        self.trace.bump(
            "ops_timed_out" if verdict == "timed_out" else "ops_failed"
        )

    # ------------------------------------------------------------------
    # searches
    # ------------------------------------------------------------------
    def _on_search(self, proc: Processor, action: SearchStep) -> None:
        op = action.op
        copy = self.copy_at(proc, action.node_id)
        if copy is None:
            self.handle_missing(proc, action)
            return
        if not self.protocol.admits_search(proc, copy, action):
            return  # the protocol queued it (vigorous baseline only)
        self.trace.record_op_hop(op.op_id)
        if not copy.in_range(op.key):
            if action.cached:
                # The hint was stale (the leaf split since we learned
                # it); count one recovery and continue as a normal
                # B-link forward.
                self.trace.counters["leaf_cache_stale"] += 1
                action = action.uncached()
            self.forward_same_level(proc, copy, action, op.key)
            return
        if copy.is_leaf:
            self._act_on_leaf(proc, copy, op)
            return
        child = copy.child_for(op.key)
        self.route_to_node(proc, child, action, level=copy.level - 1, key=op.key)

    def _act_on_leaf(self, proc: Processor, copy: NodeCopy, op: OpContext) -> None:
        """Do the op's work at the leaf its search action just found.

        Inside that same action: a scan or update is handed straight to
        its own row (``_on_scan`` / ``_on_keyed_update``), which admits,
        relays and completes it as for any other arrival, so one leaf
        visit is one action and the change is atomic with the check
        that found the leaf.
        """
        caches = self._leaf_caches
        if caches is not None:
            node_range = copy.range
            caches[proc.pid].learn(node_range.low, node_range.high, copy.node_id)
        if op.kind == "search":
            result = copy.lookup(op.key) if copy.has_key(op.key) else None
            self.complete_op(proc, op, result, leaf=copy)
            return
        if op.kind == "scan":
            self._on_scan(
                proc, ScanStep(node_id=copy.node_id, level=0, key=op.key, op=op)
            )
            return
        action_id = self.trace.new_action_id()
        update: Any
        if op.kind == "insert":
            update = InsertAction(
                node_id=copy.node_id,
                level=0,
                key=op.key,
                payload=op.value,
                mode=Mode.INITIAL,
                action_id=action_id,
                op=op,
            )
        else:
            update = DeleteAction(
                node_id=copy.node_id,
                level=0,
                key=op.key,
                mode=Mode.INITIAL,
                action_id=action_id,
                op=op,
            )
        self._on_keyed_update(proc, update)

    # ------------------------------------------------------------------
    # range scans (B-link leaf-chain walk)
    # ------------------------------------------------------------------
    def _on_scan(self, proc: Processor, action: ScanStep) -> None:
        copy = self.copy_at(proc, action.node_id)
        if copy is None:
            self.handle_missing(proc, action)
            return
        op = action.op
        self.trace.record_op_hop(op.op_id)
        if copy.level != 0:
            self.step_toward(proc, copy, action)
            return
        if not copy.in_range(action.key):
            self.forward_same_level(proc, copy, action, action.key)
            return
        high, limit = op.value
        collected = action.collected + copy.entries_between(action.key, high)
        done = (
            copy.right_id is None
            or key_le(high, copy.range.high)
            or (limit is not None and len(collected) >= limit)
        )
        if done:
            if limit is not None:
                collected = collected[:limit]
            self.complete_op(proc, op, collected)
            return
        self.route_to_node(
            proc,
            copy.right_id,
            action.advanced(copy.range.high, collected),
            level=0,
            key=copy.range.high,
        )

    # ------------------------------------------------------------------
    # keyed updates (inserts / deletes)
    # ------------------------------------------------------------------
    def _on_keyed_update(self, proc: Processor, action: Any) -> None:
        copy = self.copy_at(proc, action.node_id)
        if copy is None:
            self.handle_missing(proc, action)
            return
        if copy.level != action.level:
            self.step_toward(proc, copy, action)
            return
        if action.mode is Mode.INITIAL:
            if not copy.in_range(action.key):
                self.forward_same_level(proc, copy, action, action.key)
                return
            if not self.protocol.admits_initial_update(proc, copy, action):
                return  # deferred by an AAS (synchronous protocol)
            if isinstance(action, InsertAction):
                self.protocol.initial_insert(proc, copy, action)
                if action.payload_pids and copy.level >= 1:
                    self._refresh_parent_hints(
                        proc, copy, action.key, action.payload
                    )
            else:
                self.protocol.initial_delete(proc, copy, action)
        else:
            if isinstance(action, InsertAction):
                self.protocol.relayed_insert(proc, copy, action)
                if (
                    action.payload_pids
                    and copy.level >= 1
                    and copy.in_range(action.key)
                ):
                    self._refresh_parent_hints(
                        proc, copy, action.key, action.payload
                    )
            else:
                self.protocol.relayed_delete(proc, copy, action)

    def _refresh_parent_hints(
        self, proc: Processor, parent: NodeCopy, separator: Key, sibling_id: int
    ) -> None:
        """Point local children at the parent that actually holds them.

        A child's ``parent_id`` is a navigational hint set at creation
        time; as the parent level splits, the hint drifts left and the
        child's next parent insert crawls right across the whole level
        (the dominant event cost on sustained insert bursts).  When a
        separator insert lands in-range at an interior copy, both
        children it concerns -- the new sibling and the child that
        split -- are provably owned by *this* node now, so refresh any
        local copies' hints.  Pure hint maintenance: no messages, no
        trace, and a stale hint would still recover by forwarding.
        """
        store = self.store(proc)
        child_level = parent.level - 1
        child = store.get(sibling_id)
        if child is not None and child.level == child_level:
            child.parent_id = parent.node_id
        left_id = parent.child_left_of(separator)
        if left_id is not None:
            child = store.get(left_id)
            if child is not None and child.level == child_level:
                child.parent_id = parent.node_id

    # ------------------------------------------------------------------
    # link changes (ordered actions; Sections 4.2-4.3)
    # ------------------------------------------------------------------
    def route_link_change(self, proc: Processor, action: LinkChange) -> None:
        """Route a link-change to its target node, best effort.

        Link-changes are *id-addressed*: unlike keyed updates they are
        never re-homed by key.  If the target cannot be located the
        change is dropped -- a stale link is not a correctness problem
        because operations recover from stale links themselves
        (out-of-range forwarding / missing-node recovery); version
        ordering merely stops old information overwriting new.
        """
        if action.node_id in self.store(proc):
            proc.submit(action)
            return
        pid = self.locate(proc, action.node_id)
        if pid is None or pid == proc.pid:
            self.trace.bump("link_change_unroutable")
            return
        self.kernel.route(proc.pid, pid, action)

    def _on_link_change(self, proc: Processor, action: LinkChange) -> None:
        copy = self.copy_at(proc, action.node_id)
        if copy is None:
            self.handle_missing(proc, action)
            return
        if action.slot == "location":
            # A neighbour's copies moved: refresh this processor's locator.
            self.learn_location(
                proc, action.target_id, action.target_pids, action.version
            )
        elif not self._apply_link_slot_change(proc, copy, action):
            return
        if action.mode is Mode.INITIAL:
            peers = copy.peers_of(proc.pid)
            if peers:
                self.relay(proc, copy, replace(action, mode=Mode.RELAYED), peers)

    def _apply_link_slot_change(
        self, proc: Processor, copy: NodeCopy, action: LinkChange
    ) -> bool:
        """Apply an ordered link-change; False if a newer one is in."""
        current = copy.link_versions.get(action.slot, -1)
        if action.version <= current:
            # Stale: the history is rewritten to insert the change in
            # its proper (superseded) place, i.e. it is discarded.
            self.trace.bump("stale_link_change")
            return False
        if action.slot == "right":
            copy.right_id = action.target_id
        elif action.slot == "left":
            copy.left_id = action.target_id
        elif action.slot == "parent":
            copy.parent_id = action.target_id
        else:
            raise ValueError(f"unknown link slot {action.slot!r}")
        copy.link_versions[action.slot] = action.version
        if action.target_id is not None:
            self.learn_location(proc, action.target_id, action.target_pids)
        self.incorporate(
            proc,
            copy,
            action.action_id,
            action.mode,
            ("link_change", action.slot, action.target_id, action.version),
            action.version,
        )
        return True

    # ------------------------------------------------------------------
    # copy installation
    # ------------------------------------------------------------------
    def _on_create_copy(self, proc: Processor, action: CreateCopy) -> None:
        snap = action.snapshot
        if snap.node_id in self.store(proc):
            self.trace.bump("duplicate_copy_ignored")
            return
        self._install_snapshot(proc, snap, action.reason)
        if action.reason == "root":
            self._adopt_root(proc, snap.node_id, snap.level)

    def install_sibling(self, proc: Processor, split: HalfSplit) -> None:
        """Install the sibling copy a half-split carries, at most once.

        Called wherever a split reaches one of the node's other copies,
        before the split applies: the sibling's birth comes with the
        split, so nothing addressed to the sibling can find this
        processor without it.  A processor that already holds the
        sibling (a duplicated split) installs nothing.
        """
        snap = split.sibling
        if snap is not None and snap.node_id not in self.store(proc):
            self._install_snapshot(proc, snap, "sibling")

    def _install_snapshot(
        self, proc: Processor, snap: NodeSnapshot, reason: str
    ) -> None:
        self.install_copy(proc, NodeCopy.from_snapshot(snap), snap.birth_set, reason)
        for child_id, pids in snap.child_locations:
            self.learn_location(proc, child_id, pids)

    def repoint_children(
        self,
        proc: Processor,
        level: int,
        moved: list[tuple[Key, Any]],
        sibling_id: int,
    ) -> None:
        """Point the local children an interior half-split moved at the
        sibling that now holds them.

        The same pure hint maintenance as :meth:`_refresh_parent_hints`:
        without it each moved child's next parent insert goes to the
        old parent and is forwarded right.  No messages, no trace; a
        stale hint would still recover by forwarding.
        """
        if level == 0:
            return
        store = self.store(proc)
        child_level = level - 1
        for _key, child_id in moved:
            child = store.get(child_id)
            if child is not None and child.level == child_level:
                child.parent_id = sibling_id

    def install_copy(
        self,
        proc: Processor,
        copy: NodeCopy,
        birth_set: frozenset[int],
        reason: str,
    ) -> None:
        copy.home_pid = proc.pid
        self.store(proc)[copy.node_id] = copy
        proc.state["forward"].pop(copy.node_id, None)
        self.trace.record_birth(copy.node_id, proc.pid, birth_set, self.now)
        self.learn_location(proc, copy.node_id, copy.copy_pids, copy.version)
        if copy.is_leaf and self._leaf_caches is not None:
            node_range = copy.range
            self._leaf_caches[proc.pid].learn(
                node_range.low, node_range.high, copy.node_id
            )
        if self.crash is not None:
            self.crash.replay_stash(proc, copy.node_id)
            # (mirrors exist only under the crash layer: nesting keeps
            # the bare path at one test)
            if self.mirrors is not None:
                self.mirrors.copy_installed(proc, copy)
        if self.repair is not None:
            self.repair.touch(proc.pid, copy.node_id)
        self.protocol.after_copy_installed(proc, copy, reason)
        # A copy can be born overfull (a burst of inserts before the
        # split executes leaves the sibling with more than half of a
        # very full node); its primary must notice immediately.
        if copy.is_pc:
            self.protocol.maybe_split(proc, copy)

    def make_snapshot(
        self,
        proc: Processor,
        copy: NodeCopy,
        birth_set: frozenset[int] | None = None,
    ) -> NodeSnapshot:
        """Wire snapshot of a copy, carrying child-location hints."""
        snap = copy.snapshot(birth_set=birth_set)
        if copy.is_leaf:
            return snap
        locator = proc.state["locator"]
        child_locations = []
        for _key, child_id in copy.entries():
            entry = locator.get(child_id)
            if entry is not None:
                child_locations.append((child_id, entry[1]))
        return replace(snap, child_locations=tuple(child_locations))

    def _on_set_root(self, proc: Processor, action: SetRoot) -> None:
        self.learn_location(proc, action.root_id, action.root_pids)
        self._adopt_root(proc, action.root_id, action.root_level)

    def _adopt_root(self, proc: Processor, root_id: int, level: int) -> None:
        """Make ``root_id`` the processor's root if it is higher than the
        one it knows: the one way a processor becomes rooted, whether a
        ``SetRoot``, a root ``CreateCopy`` or its own root growth says so.
        """
        state = proc.state
        if level <= state["root_level"]:
            return
        relearned = state["root_id"] is None  # only a crash forgets it
        state["root_id"] = root_id
        state["root_level"] = level
        if (
            relearned
            and self.timers is not None
            and not any(
                self.crash.can_serve(other)
                for other in self.kernel.processors.values()
                if other is not proc
            )
        ):
            # The first processor rooted since none was: every pending
            # op is stranded (submitted, or left by a crashed home,
            # while no processor could begin it) and need not wait for
            # its timer.
            self.timers.fail_over()

    # ------------------------------------------------------------------
    # missing-node handling
    # ------------------------------------------------------------------
    def handle_missing(self, proc: Processor, action: Any) -> None:
        """Action arrived for a node this processor doesn't store.

        Relayed actions are discarded (an unjoined or migrated-away
        copy ignores them, Section 4.3); initial actions follow the
        forwarding address when one exists, then fall back to
        key-based recovery.  Link-changes never re-route by key (see
        :meth:`route_link_change`).
        """
        mode = getattr(action, "mode", None)
        if mode is Mode.RELAYED:
            if self.crash is not None and self.crash.stash_if_recovering(
                proc, action
            ):
                # Restarted amnesiac processor: the copy may be about
                # to arrive (donation / re-join); park the relay for
                # replay instead of healing prematurely.
                return
            self.trace.bump("relay_to_missing_copy")
            # Fault-tolerance hook: a relayed update addressed to a
            # copy we do not hold may mean we *lost* the copy (we are
            # still in the sender's member list); protocols may heal.
            self.protocol.on_relay_to_missing(proc, action)
            return
        forward = proc.state["forward"].get(getattr(action, "node_id", None))
        if forward is not None:
            to_pid, _version, _since = forward
            self.trace.bump("forwarded_by_address")
            self.kernel.route(proc.pid, to_pid, action)
            return
        if isinstance(action, LinkChange):
            self.trace.bump("link_change_undeliverable")
            return
        if isinstance(action, SearchStep):
            if action.cached:
                # Cache pointed at a copy this processor no longer
                # stores (migrated / crashed / collected).
                self.trace.counters["leaf_cache_stale"] += 1
                action = action.uncached()
            self._recover_route(proc, action, level=0, key=action.op.key)
            return
        if hasattr(action, "level") and hasattr(action, "key"):
            self._recover_route(proc, action, level=action.level, key=action.key)
            return
        self.trace.bump("undeliverable_action")

    def remove_copy(
        self, proc: Processor, node_id: int, reason: str = "deleted"
    ) -> NodeCopy:
        """Take a copy out of a processor's store, on purpose.

        The one way a copy leaves a store short of its processor
        crashing (migration, unjoin, ceding a double-homed leaf, a
        repair's drop-and-rejoin, zombie collection, injected amnesia):
        the trace excuses the copy from the final-value audit under
        ``reason`` and the repair layer forgets what it cached of it.
        """
        copy = proc.state["store"].pop(node_id)
        self.trace.record_copy_deleted(node_id, proc.pid, self.now, reason=reason)
        if self.repair is not None:
            self.repair.copy_removed(proc.pid, node_id)
        return copy

    def crash_copy(self, pid: int, node_id: int) -> None:
        """Fault injection: a processor loses one node copy (amnesia).

        The copy vanishes without any protocol action -- the other
        members still list the processor, so relays keep arriving and
        are dropped (or trigger healing, where the protocol supports
        it).  Used by the fault-tolerance experiments.
        """
        proc = self.kernel.processor(pid)
        if node_id not in self.store(proc):
            raise ValueError(f"processor {pid} holds no copy of node {node_id}")
        self.remove_copy(proc, node_id)
        self.trace.bump("crashed_copies")

    def gc_retired(self, older_than: float) -> int:
        """Garbage-collect retired (free-at-empty) zombie leaves.

        Like forwarding addresses, retired nodes are kept only as a
        convenience for in-flight actions; reclaiming an *unreferenced*
        zombie is always safe because no navigation path leads to it.
        Zombies still named by an interior entry (immortal leftmost
        entries keep pointing at their retired child) are kept -- they
        are live forwarders.  Returns the number collected.
        """
        referenced: set[int] = set()
        for copy in self.all_copies():
            if copy.is_leaf:
                continue
            referenced.update(child for _key, child in copy.entries())
        collected = 0
        for proc in self.kernel.processors.values():
            store = self.store(proc)
            stale = [
                node_id
                for node_id, copy in store.items()
                if copy.retired
                and node_id not in referenced
                and copy.proto.get("retired_at", 0.0) < older_than
            ]
            for node_id in stale:
                self.remove_copy(proc, node_id)
            collected += len(stale)
        return collected

    def gc_forwarding(self, older_than: float) -> int:
        """Garbage-collect forwarding addresses created before a time.

        The paper notes forwarding addresses are an optimization, not
        a correctness requirement, so they can be reclaimed at
        convenient intervals; returns the number collected.
        """
        collected = 0
        for proc in self.kernel.processors.values():
            forward = proc.state["forward"]
            stale = [nid for nid, (_p, _v, since) in forward.items() if since < older_than]
            for nid in stale:
                del forward[nid]
                collected += 1
        return collected

    # ------------------------------------------------------------------
    # liveness and location announcements
    # ------------------------------------------------------------------
    def peer_up(self, observer_pid: int, pid: int) -> bool:
        """Whether ``observer_pid`` currently believes ``pid`` is up.

        With an earned detector installed this is the observer's own
        (fallible) opinion; otherwise it is the crash controller's
        ground truth, which the pre-detector layers used as a stand-in
        for a shared failure-detector verdict.  Every liveness consult
        above the simulator layer (failure verdicts, mirror re-homing,
        repair sweeps, gossip peer choice) goes through here so no
        component quietly keeps the oracle once detection is earned.
        """
        detector = self.kernel.detector
        if detector is not None:
            return not detector.is_suspected(observer_pid, pid)
        controller = self.kernel.crash_controller
        return controller is None or controller.is_alive(pid)

    def announce_location(
        self, proc: Processor, copy: NodeCopy, to_children: bool = False
    ) -> None:
        """Tell the nodes linking to ``copy`` where its copies live now.

        Ordered location link-changes to the left and right neighbours
        and the parent (and, for a migrating interior node, its
        children): sent after a migration, a join or unjoin, and a
        re-home.  Best effort -- a lost or undeliverable link-change
        only means stale locators, which operations recover from.
        """
        neighbours = [copy.left_id, copy.right_id, copy.parent_id]
        if to_children and not copy.is_leaf:
            neighbours.extend(child for _key, child in copy.entries())
        for node_id in neighbours:
            if node_id is None:
                continue
            self.route_link_change(
                proc,
                LinkChange(
                    node_id=node_id,
                    level=-1,  # id-addressed; level unused for routing
                    key=copy.range.low,
                    slot="location",
                    target_id=copy.node_id,
                    target_pids=copy.copy_pids,
                    version=copy.version,
                    action_id=self.trace.new_action_id(),
                    mode=Mode.INITIAL,
                ),
            )

    # ------------------------------------------------------------------
    # split mechanics (Figure 1)
    # ------------------------------------------------------------------
    def schedule_split(self, proc: Processor, node_id: int) -> None:
        """Queue the split-initiation action at the primary copy."""
        proc.submit(InitiateSplit(node_id=node_id))

    def _on_initiate_split(self, proc: Processor, action: InitiateSplit) -> None:
        copy = self.copy_at(proc, action.node_id)
        if copy is None:
            self.trace.bump("split_on_missing_copy")
            return
        self.protocol.initiate_split(proc, copy)

    def perform_half_split(self, proc: Processor, copy: NodeCopy) -> HalfSplit:
        """Execute the half-split at the primary copy.

        Creates the sibling, re-links, issues the parent insert (or
        grows the root), and issues the left-link change to the old
        right neighbour when the protocol maintains left links.  The
        sibling's other copies live with the node's other copies, and
        the returned record carries the sibling to them.  Relaying the
        split to the node's own peer copies is the *protocol's* job --
        that is exactly where the synchronous and semi-synchronous
        algorithms differ.  An interior split also points the moved
        children held here at the sibling (:meth:`repoint_children`).
        """
        placement = self.protocol.sibling_placement(proc, copy)
        remote_members = [p for p in placement.member_pids if p != proc.pid]
        if not set(remote_members) <= set(copy.copy_versions):
            # The split reaches the node's own copies only, and the
            # sibling rides on it.
            raise RuntimeError(
                f"sibling of node {copy.node_id} placed on {placement.member_pids}, "
                f"beyond the node's copies {copy.copy_pids}"
            )
        separator = copy.choose_separator()
        sibling_id = self._alloc_node_id()
        old_high = copy.range.high
        old_right = copy.right_id
        growing = copy.parent_id is None

        upper = copy.apply_half_split(separator, sibling_id)
        self.repoint_children(proc, copy.level, upper, sibling_id)
        action_id = self.trace.new_action_id()
        self.incorporate(
            proc, copy, action_id, Mode.INITIAL, ("half_split", separator, sibling_id)
        )
        self.trace.bump("half_splits")
        if copy.is_leaf and self._leaf_caches is not None:
            # The splitting processor's own cache sees the new world
            # immediately: the shrunk copy now, the sibling below.
            cache = self._leaf_caches[proc.pid]
            cache.learn(copy.range.low, separator, copy.node_id)
        if self.mirrors is not None and copy.is_leaf:
            # The left half's range shrank; refresh its mirrors (the
            # sibling mirrors itself when its copy installs).
            self.mirrors.push(proc, copy)

        if growing:
            parent_id = self._grow_root(
                proc, copy, separator, sibling_id, placement.member_pids
            )
            copy.parent_id = parent_id
        else:
            parent_id = copy.parent_id

        sibling = NodeCopy(
            node_id=sibling_id,
            level=copy.level,
            key_range=KeyRange(separator, old_high),
            pc_pid=placement.pc_pid,
            copy_versions=placement.copy_versions(),
            capacity=self.capacity,
            right_id=old_right,
            left_id=copy.node_id if self.protocol.maintain_left_links else None,
            parent_id=parent_id,
            version=copy.version + 1,
        )
        for key, payload in upper:
            sibling.insert_entry(key, payload)
        self.learn_location(proc, sibling_id, placement.member_pids, sibling.version)
        if sibling.is_leaf and self._leaf_caches is not None:
            self._leaf_caches[proc.pid].learn(separator, old_high, sibling_id)

        if proc.pid in placement.member_pids:
            self.install_copy(proc, sibling, frozenset(), "sibling")
        # The other copies install the sibling from the split itself.
        snapshot = (
            self.make_snapshot(proc, sibling, birth_set=frozenset())
            if remote_members
            else None
        )

        if not growing:
            parent_action_id = self.trace.new_action_id()
            parent_insert = InsertAction(
                node_id=parent_id,
                level=copy.level + 1,
                key=separator,
                payload=sibling_id,
                mode=Mode.INITIAL,
                action_id=parent_action_id,
                payload_pids=placement.member_pids,
            )
            self.route_to_node(
                proc, parent_id, parent_insert, level=copy.level + 1, key=separator
            )

        if self.protocol.maintain_left_links and old_right is not None:
            if old_high is POS_INF:
                raise RuntimeError(
                    f"node {copy.node_id} has a right sibling but high=+inf"
                )
            link = LinkChange(
                node_id=old_right,
                level=copy.level,
                key=old_high,
                slot="left",
                target_id=sibling_id,
                target_pids=placement.member_pids,
                version=sibling.version,
                action_id=self.trace.new_action_id(),
                mode=Mode.INITIAL,
            )
            self.route_link_change(proc, link)

        return HalfSplit(
            action_id=action_id,
            separator=separator,
            sibling_id=sibling_id,
            sibling_pids=placement.member_pids,
            parent_hint=parent_id,
            sibling=snapshot,
        )

    def _grow_root(
        self,
        proc: Processor,
        old_root: NodeCopy,
        separator: Key,
        sibling_id: int,
        sibling_pids: tuple[int, ...],
    ) -> int:
        """Root growth: build a new root over the split old root."""
        new_root_id = self._alloc_node_id()
        level = old_root.level + 1
        candidate_pids = self.kernel.pids
        if self.crash is not None:
            # Never seat the new root on a peer this processor knows
            # is down: the CreateCopy would dead-letter and leave the
            # declared member set permanently wider than the holders.
            dead = self.crash.dead_peers(proc)
            if dead:
                candidate_pids = tuple(
                    pid for pid in candidate_pids if pid not in dead
                )
        placement = self.policy.place(
            level, proc.pid, candidate_pids, True, self.kernel.rng
        )
        members = placement.member_pids

        def build() -> NodeCopy:
            root = NodeCopy(
                node_id=new_root_id,
                level=level,
                key_range=KeyRange.full(),
                pc_pid=placement.pc_pid,
                copy_versions=placement.copy_versions(),
                capacity=self.capacity,
            )
            root.insert_entry(root.range.low, old_root.node_id)
            root.insert_entry(separator, sibling_id)
            return root

        local_root = build()
        self.learn_location(proc, new_root_id, members)
        if proc.pid in members:
            self.install_copy(proc, local_root, frozenset(), "root")
        snapshot = self.make_snapshot(proc, local_root, birth_set=frozenset())
        # Make sure the snapshot carries both children's locations.
        child_locations = dict(snapshot.child_locations)
        child_locations[old_root.node_id] = old_root.copy_pids
        child_locations[sibling_id] = sibling_pids
        snapshot = replace(
            snapshot, child_locations=tuple(child_locations.items())
        )
        for pid in members:
            if pid != proc.pid:
                self.kernel.route(proc.pid, pid, CreateCopy(snapshot, "root"))
        announce = SetRoot(
            root_id=new_root_id,
            root_level=level,
            root_pids=members,
            version=level,
        )
        for pid in self.kernel.pids:
            if pid not in members and pid != proc.pid:
                self.kernel.route(proc.pid, pid, announce)
        self._adopt_root(proc, new_root_id, level)
        self.trace.bump("root_growths")
        return new_root_id

    # ------------------------------------------------------------------
    # leaf-cache statistics
    # ------------------------------------------------------------------
    def leaf_cache_stats(self) -> dict[str, Any]:
        """Hit/miss/stale accounting for the leaf-location cache.

        Counters are kept in the trace (live at every trace level).
        ``hit_rate`` is hits over consults; ``stale`` counts cached
        routes that needed B-link recovery (a hit that cost extra
        hops, never a wrong answer).
        """
        counters = self.trace.counters
        hits = counters.get("leaf_cache_hit", 0)
        misses = counters.get("leaf_cache_miss", 0)
        consults = hits + misses
        caches = self._leaf_caches
        return {
            "enabled": caches is not None,
            "hits": hits,
            "misses": misses,
            "stale_recoveries": counters.get("leaf_cache_stale", 0),
            "shortcuts": counters.get("leaf_cache_shortcut", 0),
            "hit_rate": (hits / consults) if consults else 0.0,
            "entries": (
                sum(len(cache) for cache in caches.values()) if caches else 0
            ),
        }

    # ------------------------------------------------------------------
    # whole-tree inspection (verification support; not part of the
    # distributed protocol -- reads global simulation state)
    # ------------------------------------------------------------------
    def all_copies(self) -> list[NodeCopy]:
        return [
            copy
            for proc in self.kernel.processors.values()
            for copy in self.store(proc).values()
        ]

    def copies_of(self, node_id: int) -> list[NodeCopy]:
        return [c for c in self.all_copies() if c.node_id == node_id]

    def leaves(self) -> list[NodeCopy]:
        return [c for c in self.all_copies() if c.is_leaf]

    def current_root_level(self) -> int:
        return max(proc.state["root_level"] for proc in self.kernel.processors.values())
