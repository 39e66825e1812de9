"""The dB-tree engine: a distributed B-link tree over the simulator.

The engine owns everything the paper's Section 4 algorithms share:

* **navigation** -- B-link descent one node at a time, and one step
  rule for every send to a node, :meth:`DBTreeEngine.next_hop`: the
  local copy, else a live holder the locator names, else (for an
  action with a key) a restart at the lowest local copy covering the
  key whose walk leads on, else a root holder, else a dead end.  It is
  the missing-node recovery of Sections 4.2-4.3 -- stale parent hints,
  migrated nodes, unjoined or lost copies -- and, run across
  processors, the routability audit (:meth:`DBTreeEngine.resolve`).
  An action takes at most one detour (a miss or a restart) per
  processor, so none recovers for ever; forwarding addresses only
  shorten the way,
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
finds the action's class in a table with one row per action type
(the table and the operation ledger are the
:class:`~repro.core.engine.Engine` skeleton the hash table and the
trie share).  The engine fills its own rows, the protocol contributes its rows
through :meth:`~repro.protocols.base.Protocol.handlers`, and
everything else (crash recovery, leaf mirrors, repair, the load
balancer) attaches its rows with :meth:`DBTreeEngine.on`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, NamedTuple, Sequence

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
    tuple_action,
)
from repro.core.engine import Engine
from repro.core.keys import NEG_INF, POS_INF, Key, KeyRange
from repro.core.leafcache import LeafHintCache
from repro.core.node import NodeCopy, NodeSnapshot
from repro.core.replication import ReplicationPolicy
from repro.sim.processor import Processor
from repro.sim.simulator import Kernel
from repro.sim.tracing import Trace

if TYPE_CHECKING:
    from repro.core.dbtree.crash import CrashRecovery
    from repro.core.dbtree.mirrors import LeafMirrors
    from repro.core.dbtree.timers import OpTimers
    from repro.protocols.base import Protocol
    from repro.repair.gossip import RepairPlan
    from repro.repair.repair import RepairService


@tuple_action
class InitiateSplit(NamedTuple):
    """Internal action: the PC's node manager runs the split discipline."""

    kind = "initiate_split"

    node_id: int


#: The share of ``capacity`` a bulk install (:meth:`DBTreeEngine
#: .install_leaves`) fills each node to: room for the next inserts
#: before the node half-splits.
BULK_FILL = 0.75


@tuple_action
class Graft(NamedTuple):
    """Internal action of a bulk install, at every copy of a node the
    tree already has: take ``entries`` (``children`` says where the
    nodes they name live); with ``high`` set, new nodes follow, so end
    there and link ``right_id``; with ``parent_id`` set, a new root now
    holds this former root."""

    kind = "graft"

    node_id: int
    action_id: int
    entries: tuple = ()
    children: tuple = ()
    high: Any = None
    right_id: int | None = None
    parent_id: int | None = None


@tuple_action
class Drain(NamedTuple):
    """Internal action of a cut (:meth:`DBTreeEngine.cut`), at every
    copy of a node whose range reaches ``low``, above which another
    tree now holds the keys: a node wholly at or above ``low`` leaves
    the store; the one straddling it drops its entries from ``low`` up
    and ends at ``+inf`` with no right link.  Either way the
    processor's leaf cache forgets its hints from ``low`` up."""

    kind = "drain"

    node_id: int
    action_id: int
    low: Key


class DBTreeEngine(Engine):
    """Protocol-parameterised distributed B-link tree.

    Construct with a bound :class:`~repro.sim.simulator.Kernel`, a
    protocol strategy, and a replication policy; the engine bootstraps
    a one-leaf tree and installs itself as every processor's action
    handler.
    """

    op_type = OpContext

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
        super().__init__(
            kernel,
            trace or Trace(),
            {
                SearchStep: self._on_search,
                InsertAction: self._on_keyed_update,
                DeleteAction: self._on_keyed_update,
                ReturnValue: self._on_return,
                ScanStep: self._on_scan,
                LinkChange: self._on_link_change,
                CreateCopy: self._on_create_copy,
                SetRoot: self._on_set_root,
                InitiateSplit: self._on_initiate_split,
                Graft: self._on_graft,
                Drain: self._on_drain,
            },
        )
        self.protocol = protocol
        self.policy = policy
        self.capacity = capacity
        #: The failure-only collaborators, each None unless its plan is
        #: on (so every hook is a single attribute test on the fast
        #: path): crash awareness and recovery, leaf mirroring,
        #: per-operation timers, anti-entropy repair.
        self.crash: "CrashRecovery | None" = None
        self.mirrors: "LeafMirrors | None" = None
        self.timers: "OpTimers | None" = None
        self.repair: "RepairService | None" = None
        # Per-processor key -> leaf hints (None = feature off).  Stale
        # hints are safe by construction: a misdirected operation
        # recovers via B-link out-of-range forwarding, see
        # :mod:`repro.core.leafcache`.
        self._leaf_caches: dict[int, LeafHintCache] | None = (
            {} if leaf_cache else None
        )
        self._next_node_id = 0
        for proc in kernel.processors.values():
            self.reset_processor(proc)
        protocol.bind(self)
        for action_type, handler in protocol.handlers().items():
            self.on(action_type, handler)
        # Collaborators attach before the bootstrap: the first leaf's
        # mirror push at t = 0 is part of every rf-2 schedule.
        for attach in collaborators:
            attach(self)
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

    # ------------------------------------------------------------------
    # small accessors
    # ------------------------------------------------------------------
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
        <repro.core.dbtree.crash.CrashRecovery.fail_over>`), and an op
        no processor can begin is :meth:`stranded <strand>`.
        """
        if kind not in ("search", "insert", "delete", "scan"):
            raise ValueError(f"unknown operation kind {kind!r}")
        proc = self.kernel.processors[home_pid]
        op = self.open_op(kind, key, value, home_pid)
        if self.timers is not None:
            self.timers.arm(op)
        crash = self.crash
        if crash is not None and not crash.can_serve(proc):
            moved = crash.fail_over(op)
            if moved is None:
                self.strand(op)
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
        cached = leaf_id is not None
        node_id = leaf_id if cached else self.root_id_of(proc)
        self.route_to_node(proc, node_id, SearchStep(node_id, op, cached))
        return op.op_id

    def issue_from_root(self, op: OpContext, counter: str) -> None:
        """Idempotent re-issue from the op's home: same op identity,
        fresh root descent (a timer's retry, a fail-over).  Counted
        under ``counter``; nothing happens while the home cannot
        serve."""
        proc = self.kernel.processor(op.home_pid)
        root_id = proc.state["root_id"]
        if proc.alive and root_id is not None:
            self.trace.bump(counter)
            self.route_to_node(proc, root_id, SearchStep(root_id, op))

    def strand(self, op: OpContext) -> None:
        """Dispose of an op no live, rooted processor can serve (or
        whose action reached a dead end): its timer will retry it, or,
        with no timer to, it fails now rather than hang."""
        if self.timers is None and op.op_id in self.in_flight:
            self.fail_op(op, "failed")

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
        self.kernel.route(proc.pid, op.home_pid, ReturnValue(op, result, hint))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @staticmethod
    def retarget(action: Any, node_id: int) -> Any:
        """The same action re-addressed to another node.

        Already-addressed actions pass through untouched; the common
        action types provide ``with_node`` (direct construction,
        cheaper than ``_replace`` on this hot path).
        """
        if action.node_id == node_id:
            return action
        with_node = getattr(action, "with_node", None)
        if with_node is not None:
            return with_node(node_id)
        return action._replace(node_id=node_id)

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

    def locate(self, proc: Processor, node_id: int | None, skip: int = 0) -> Sequence[int]:
        """The other processors ``proc`` believes hold ``node_id``, in
        locator order, less those it believes are down and those in the
        ``skip`` bitmask."""
        entry = proc.state["locator"].get(node_id)
        if entry is None:
            return ()
        pid = proc.pid
        dead = proc.state.get("dead_peers")
        if not (dead or skip):
            return [p for p in entry[1] if p != pid]
        dead = dead or ()
        return [p for p in entry[1] if p != pid and p not in dead and not skip >> p & 1]

    def next_hop(
        self, proc: Processor, node_id: int | None, level: int, key: Key | None, skip: int = 0
    ) -> tuple[int, Sequence[int]] | None:
        """The step rule: where an action for ``node_id`` goes from ``proc``.

        ``(level, key)`` is what the action acts on; ``key=None`` makes
        it id-addressed, and ``node_id=None`` asks for a recovery (the
        action climbs, or a lateral link is missing).  ``skip`` is the
        bitmask of processors the action has detoured at.  A pure
        function of ``proc``'s store, locator, root and dead peers,
        returning ``(node, holders)``:

        * the node's local copy, as ``(node_id, (proc.pid,))``;
        * else the live holders its locator names;
        * else (key-addressed only) a recovery: the lowest local copy
          at ``level`` or above that covers the key and whose local
          walk toward ``(level, key)`` ends at a local copy at
          ``level`` or at a node with a live holder, so a restart never
          leads back to what turned the action away; with none, a live
          holder of the root when the root is not stored here;
        * else ``None``, a dead end.

        Between two detours (a miss, or a recovery) an action only
        descends, or moves toward its key along immutable lows (paper,
        Section 4.2), and it takes at most one detour per processor
        (:meth:`route_to_node`), so no key-addressed action can cycle.
        """
        store = proc.state["store"]
        if node_id in store:
            return node_id, (proc.pid,)
        holders = self.locate(proc, node_id, skip)
        if holders:
            return node_id, holders
        if key is None:
            return None
        covering = sorted(
            (c for c in store.values() if c.level >= level and c.in_range(key)),
            key=lambda c: c.level,
        )
        for copy in covering:
            if self._walk_ends(proc, copy, level, key, skip):
                return copy.node_id, (proc.pid,)
        root_id = proc.state["root_id"]
        if root_id not in store:
            holders = self.locate(proc, root_id, skip)
            if holders:
                return root_id, holders
        return None

    def _walk_ends(self, proc: Processor, copy: NodeCopy, level: int, key: Key, skip: int) -> bool:
        """Whether the walk from a local copy toward ``(level, key)``
        through ``proc``'s store ends at a local copy at ``level`` or
        leaves the processor for a node with a live holder."""
        store = proc.state["store"]
        for _ in range(len(store)):
            if copy.level <= level and copy.in_range(key):
                return True
            step = self._toward(copy, key)
            if step not in store:
                return step is not None and bool(self.locate(proc, step, skip))
            copy = store[step]
        return False

    @staticmethod
    def _toward(copy: NodeCopy, key: Key) -> int | None:
        """The next node on a walk for ``key`` from an interior ``copy``,
        or a lateral link when the key is out of its range."""
        if copy.in_range(key):
            return copy.child_for(key)
        return copy.left_id if key < copy.range.low else copy.right_id

    def route_to_node(
        self, proc: Processor, node_id: int | None, action: Any, missed: bool = False
    ) -> bool:
        """Send an action where the step rule (:meth:`next_hop`) says,
        for the ``(level, key)`` it acts on (by id only without a key,
        or for a healing join).

        Local copy: enqueue for free.  Live remote holders: one rng
        draw among them.  A miss (``missed``: the action came here for
        a node this processor lacks) or a recovery is a *detour*,
        marked on the action; a miss redraws among the holders the
        action has not detoured at, so it cannot bounce between stale
        ones.  A second detour at one processor, or a dead end, drops
        the action (:meth:`_dead_end`).  Returns whether it went
        anywhere.
        """
        if node_id in proc.state["store"]:
            if action.node_id != node_id:
                action = self.retarget(action, node_id)
            proc.submit(action)
            return True
        key = None if getattr(action, "exact", False) else getattr(action, "key", None)
        skip = action.detoured if missed else 0
        hop = self.next_hop(proc, node_id, getattr(action, "level", 0), key, skip)
        if missed or hop is None or hop[0] != node_id:
            if hop is None or action.detoured >> proc.pid & 1:
                self._dead_end(action)
                return False
            self.trace.bump("missing_node_recovery")
            action = action._replace(detoured=action.detoured | 1 << proc.pid)
        target, holders = hop
        action = self.retarget(action, target)
        pid = holders[0] if len(holders) == 1 else self.kernel.rng.choice(holders)
        if pid == proc.pid:
            proc.submit(action)
        else:
            self.kernel.route(proc.pid, pid, action)
        return True

    def _dead_end(self, action: Any) -> None:
        """Drop an action the step rule has nowhere to send; its
        operation, if it has one, is :meth:`stranded <strand>`."""
        self.trace.bump("dead_ends")
        op = getattr(action, "op", None)
        if op is not None:
            self.strand(op)

    def resolve(self, pid: int, key: Key) -> tuple[list[NodeCopy], int]:
        """Every leaf a search for ``key`` begun at ``pid`` can reach,
        and how many distinct nodes its walks visit.

        Runs :meth:`next_hop` across processors from ``pid``'s root,
        exploring every live holder the rule's draw could pick
        (forwarding addresses and the leaf cache, both optional, are
        not followed).  Like :meth:`ShardDirectory.resolve
        <repro.shard.directory.ShardDirectory.resolve>` it raises
        ``RuntimeError`` on a dead end any draw reaches, or on a cycle
        no draw leaves: either means a search from ``pid`` can fail to
        end.  A cycle some draw leaves (a stale locator naming a peer
        that no longer holds the node) only costs detours.
        """
        processors = self.kernel.processors
        root_id = processors[pid].state["root_id"]
        if root_id is None:
            raise RuntimeError(f"processor {pid} has no root")
        steps: dict[tuple[int, int], list[tuple[int, int]]] = {}
        leaves: dict[tuple[int, int], NodeCopy] = {}
        nodes: set[int] = set()
        todo = [(pid, root_id)]
        while todo:
            at = todo.pop()
            if at in steps:
                continue
            proc = processors[at[0]]
            if not proc.alive:
                raise RuntimeError(f"walk for {key!r} from {pid} reaches down {at}")
            copy = proc.state["store"].get(at[1])
            if copy is not None:
                nodes.add(at[1])
                if copy.is_leaf and copy.in_range(key):
                    leaves[at] = copy
                    steps[at] = []
                    continue
            hop = self.next_hop(
                proc, at[1] if copy is None else self._toward(copy, key), 0, key
            )
            if hop is None:
                raise RuntimeError(f"walk for {key!r} from {pid} dead-ends at {at}")
            steps[at] = [(holder, hop[0]) for holder in hop[1]]
            todo.extend(steps[at])
        # The steps that can still reach a leaf, back from the leaves.
        ending = set(leaves)
        grew = True
        while grew:
            grew = False
            for at, following in steps.items():
                if at not in ending and not ending.isdisjoint(following):
                    ending.add(at)
                    grew = True
        trapped = sorted(set(steps) - ending)
        if trapped:
            raise RuntimeError(f"walk for {key!r} from {pid} cycles among {trapped}")
        return list(leaves.values()), len(nodes)

    def forward_same_level(self, proc: Processor, copy: NodeCopy, action: Any, key: Key) -> None:
        """B-link lateral forwarding for an out-of-range action.

        Rightward moves at leaf level may shortcut through the leaf
        cache: instead of crawling one sibling at a time, jump to a
        cached leaf believed to cover the key.  The shortcut is taken
        only when the cached leaf's low bound is *strictly greater*
        than this copy's low -- leaf lows are immutable, so progress
        stays monotone rightward and stale hints cannot cycle.  With
        no lateral link the step rule recovers from above.
        """
        if copy.range.contains(key):
            raise ValueError("forwarding an in-range action")

        if key < copy.range.low:
            target = copy.left_id
            self.trace.bump("forward_left")
        else:
            target = copy.right_id
            self.trace.bump("forward_right")
            caches = self._leaf_caches
            if caches is not None and copy.level == 0:
                hint = caches[proc.pid].lookup(key)
                if hint is not None and copy.range.low < hint[1]:
                    self.trace.counters["leaf_cache_shortcut"] += 1
                    target = hint[0]
        self.route_to_node(proc, target, action)

    def step_toward(self, proc: Processor, copy: NodeCopy, action: Any) -> None:
        """Route a keyed action downward/laterally toward (level, key);
        an action for a level above this node climbs by recovery."""
        key = action.key
        if copy.level < action.level:
            self.route_to_node(proc, None, action)
            return
        if not copy.in_range(key):
            self.forward_same_level(proc, copy, action, key)
            return
        self.route_to_node(proc, copy.child_for(key), action)

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
    # completion
    # ------------------------------------------------------------------
    def _returned(self, proc: Processor, action: ReturnValue) -> None:
        """The op's timer stops; the home's leaf cache learns the leaf
        the return names."""
        if self.timers is not None:
            self.timers.cancel(action.op.op_id)
        hint = action.leaf_hint
        if hint is not None and self._leaf_caches is not None:
            leaf_id, low, high, copy_pids = hint
            self._leaf_caches[proc.pid].learn(low, high, leaf_id)
            if copy_pids:
                self.learn_location(proc, leaf_id, copy_pids)

    # ------------------------------------------------------------------
    # searches
    # ------------------------------------------------------------------
    def _on_search(self, proc: Processor, action: SearchStep) -> None:
        op = action.op
        copy = self.copy_at(proc, action.node_id)
        if copy is None:
            self.on_missing_node(proc, action)
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
        self.route_to_node(proc, copy.child_for(op.key), action)

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
            self.on_missing_node(proc, action)
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
            or high <= copy.range.high
            or (limit is not None and len(collected) >= limit)
        )
        if done:
            if limit is not None:
                collected = collected[:limit]
            self.complete_op(proc, op, collected)
            return
        self.route_to_node(
            proc, copy.right_id, action.advanced(copy.range.high, collected)
        )

    # ------------------------------------------------------------------
    # keyed updates (inserts / deletes)
    # ------------------------------------------------------------------
    def _on_keyed_update(self, proc: Processor, action: Any) -> None:
        copy = proc.state["store"].get(action.node_id)
        if copy is None:
            self.on_missing_node(proc, action)
            return
        if copy.level != action.level:
            self.step_toward(proc, copy, action)
            return
        protocol = self.protocol
        low, high = copy.range
        key = action.key
        if action.mode is Mode.RELAYED:
            # The lazy update at every other copy (Sections 3, 4.1):
            # range test, duplicate test, apply.  Out of range, the
            # protocol decides (semisync's history rewrite lives there),
            # and only a primary copy a relayed insert overfilled asks
            # for its split.
            inside = low <= key < high
            if not inside:
                protocol.out_of_range_relay(proc, copy, action)
            elif action.action_id in copy.incorporated_ids:
                self.trace.bump("duplicate_relay_ignored")
            else:
                protocol._apply_keyed(proc, copy, action)
            if type(action) is InsertAction:
                if inside:
                    protocol._after_relayed_insert(proc, copy, action)
                if copy.home_pid == copy.pc_pid and copy.is_overfull:
                    protocol.maybe_split(proc, copy)
                if inside and action.payload_pids and copy.level:
                    self._refresh_parent_hints(proc, copy, key, action.payload)
            return
        if not low <= key < high:
            self.forward_same_level(proc, copy, action, key)
            return
        if not protocol.admits_initial_update(proc, copy, action):
            return  # deferred by an AAS (synchronous protocol)
        if type(action) is InsertAction:
            protocol.initial_insert(proc, copy, action)
            if action.payload_pids and copy.level:
                self._refresh_parent_hints(proc, copy, key, action.payload)
        else:
            protocol.initial_delete(proc, copy, action)

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
    def _on_link_change(self, proc: Processor, action: LinkChange) -> None:
        """Apply an ordered link-change at the node it names.

        A link-change is id-addressed and also carries its target's
        ``(level, key)``, so one that cannot be located recovers like a
        keyed update: re-addressed to a copy at a higher level, it
        descends toward the key and applies at the copy it reaches at
        its own level.  A left neighbour's location change carries no
        key (the sender does not know its range) and goes by id only.
        """
        copy = self.copy_at(proc, action.node_id)
        if copy is None:
            self.on_missing_node(proc, action)
            return
        if copy.level != action.level:
            self.step_toward(proc, copy, action)
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
                self.relay(proc, copy, action._replace(mode=Mode.RELAYED), peers)

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
        if action.slot != "left":
            raise ValueError(f"unknown link slot {action.slot!r}")
        copy.left_id = action.target_id
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
        return snap._replace(child_locations=tuple(child_locations))

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
        if relearned and not any(
            self.crash.can_serve(other)
            for other in self.kernel.processors.values()
            if other is not proc
        ):
            # The first processor rooted since none was: every op in
            # the ledger is stranded (submitted, or left by a crashed
            # home, while no processor could begin it) and need not
            # wait for its timer.
            self.crash.fail_over_ops()

    # ------------------------------------------------------------------
    # missing-node handling
    # ------------------------------------------------------------------
    def on_missing_node(self, proc: Processor, action: Any) -> None:
        """Action arrived for a node this processor doesn't store.

        Relayed actions are discarded (an unjoined or migrated-away
        copy ignores them, Section 4.3); initial actions follow the
        forwarding address when one exists, and otherwise take one
        detour by the step rule (:meth:`next_hop`): by ``(level, key)``
        when they have a key, by id when they have none.
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
        forward = proc.state["forward"].get(action.node_id)
        if forward is not None:
            to_pid, _version, _since = forward
            self.trace.bump("forwarded_by_address")
            self.kernel.route(proc.pid, to_pid, action)
            return
        if isinstance(action, SearchStep) and action.cached:
            # Cache pointed at a copy this processor no longer stores
            # (migrated / crashed / collected).
            self.trace.counters["leaf_cache_stale"] += 1
            action = action.uncached()
        self.route_to_node(proc, action.node_id, action, missed=True)

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

        The failure detector's opinion: the observer's own, fallible
        one under an earned detector, the crash controller's ground
        truth under the oracle, and always up without a crash layer.
        Every liveness consult above the simulator layer (failure
        verdicts, mirror re-homing, repair sweeps, gossip peer choice)
        goes through here so no component quietly keeps the ground
        truth once detection is earned.
        """
        detector = self.kernel.detector
        return detector is None or not detector.is_suspected(observer_pid, pid)

    def announce_location(
        self, proc: Processor, copy: NodeCopy, to_children: bool = False
    ) -> None:
        """Tell the nodes linking to ``copy`` where its copies live now.

        Ordered location link-changes to the left and right neighbours
        and the parent (and, for a migrating interior node, its
        children): sent after a migration, a join or unjoin, and a
        re-home.  Each carries its target's ``(level, key)``, so one
        whose target cannot be located recovers by key; the left
        neighbour's goes by id only.  A lost one only means stale
        locators, which operations recover from.
        """
        level, low = copy.level, copy.range.low
        neighbours = [
            (copy.left_id, level, None),
            (copy.right_id, level, copy.range.high),
            (copy.parent_id, level + 1, low),
        ]
        if to_children and not copy.is_leaf:
            neighbours.extend(
                (child, level - 1, key) for key, child in copy.entries()
            )
        for node_id, at_level, key in neighbours:
            if node_id is not None:
                self.send_link_change(
                    proc, node_id, at_level, key, "location",
                    copy.node_id, copy.copy_pids, copy.version,
                )

    def send_link_change(
        self, proc: Processor, node_id: int, level: int, key: Key | None,
        slot: str, target_id: int, target_pids: tuple[int, ...], version: int,
    ) -> None:
        """Issue an ordered link-change to ``node_id``, the node at
        ``(level, key)`` (``key=None``: by id only)."""
        change = LinkChange(
            node_id, level, key, slot, target_id, target_pids, version,
            self.trace.new_action_id(),
        )
        self.route_to_node(proc, node_id, change)

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
            self.route_to_node(proc, parent_id, parent_insert)

        if self.protocol.maintain_left_links and old_right is not None:
            if old_high is POS_INF:
                raise RuntimeError(
                    f"node {copy.node_id} has a right sibling but high=+inf"
                )
            self.send_link_change(
                proc, old_right, copy.level, old_high, "left",
                sibling_id, placement.member_pids, sibling.version,
            )

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
        snapshot = snapshot._replace(child_locations=tuple(child_locations.items()))
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
    # bulk install: a shard split or merge moves leaves, not keys
    # ------------------------------------------------------------------
    def install_leaves(self, items: Sequence[tuple[Key, Any, int]]) -> None:
        """Install sorted ``(key, value, holder)`` items, each key above
        every key the tree holds, as whole leaves along its right spine.

        Runs at a quiescent point, as ordinary actions and messages, on
        a tree whose rightmost node at each level ends at ``+inf`` (any
        tree that never lost keys to another, or one :meth:`cut` left).
        The items fill its rightmost leaf to ``BULK_FILL`` of capacity
        (a :class:`Graft` at each of its copies, where it already
        lives), then new leaves chained after it, placed by size: leaf
        ``i`` of the ``n`` new ones is created on ``live[i * len(live)
        // n]``, so the leaves go out in key-ordered runs, one per live
        processor, and a scan stays on one processor except at the run
        boundaries.  The replication policy places each leaf from
        there (a single-copy leaf lives there; a replicated one has its
        primary there).  The interiors are built bottom-up along the
        right spine -- each spine node takes what fits and new nodes
        follow it, each created where its first child is -- and a new
        root, where the old one overflowed, is published as root
        growth is.  Every new node is shipped by :meth:`_ship` from
        where its data is.
        """
        if not items:
            return
        from repro.verify.invariants import representative_nodes

        per_node = max(2, int(self.capacity * BULK_FILL))
        kernel, policy = self.kernel, self.policy
        live = [pid for pid in kernel.pids if kernel.processors[pid].alive]
        spine = {
            node.level: node
            for node in representative_nodes(self).values()
            if node.range.high is POS_INF
        }
        # The planned value of every node the install changes (a working
        # copy) or builds; ``existing`` keeps the changed nodes as they are.
        plan: dict[int, NodeCopy] = {}
        existing: dict[int, NodeCopy] = {}
        built: list[NodeCopy] = []
        # Built node -> the processor holding its first entry, which ships
        # it (a source holder may be down on this tree's clock).
        senders: dict[int, int] = {}

        def change(node: NodeCopy) -> NodeCopy:
            existing[node.node_id] = node
            plan[node.node_id] = NodeCopy.from_snapshot(node.snapshot())
            return plan[node.node_id]

        def build(level: int, creator: int, low: Key, version: int) -> NodeCopy:
            place = policy.place(
                level, creator if creator in live else live[0], live, False, kernel.rng
            )
            node = NodeCopy(
                self._alloc_node_id(), level, KeyRange(low, POS_INF), place.pc_pid,
                place.copy_versions(), self.capacity, version=version,
            )
            plan[node.node_id] = node
            built.append(node)
            return node

        def pack(anchor: NodeCopy, entries: Sequence[tuple[Key, Any, int]]) -> list[NodeCopy]:
            """Fill ``anchor`` to ``per_node`` ``(key, payload, creator)``
            entries, then chain new nodes of ``per_node`` after it."""
            room = max(0, per_node - anchor.num_entries)
            for key, payload, _creator in entries[:room]:
                anchor.insert_entry(key, payload)
            last = anchor
            chain = []
            starts = range(room, len(entries), per_node)
            for index, start in enumerate(starts):
                chunk = entries[start : start + per_node]
                holder = chunk[0][2]
                home = live[index * len(live) // len(starts)] if anchor.is_leaf else holder
                node = build(anchor.level, home, chunk[0][0], anchor.version + 1)
                senders[node.node_id] = holder if holder in live else node.pc_pid
                for key, payload, _creator in chunk:
                    node.insert_entry(key, payload)
                node.parent_id = anchor.parent_id
                last.range = KeyRange(last.range.low, node.range.low)
                last.right_id = node.node_id
                if self.protocol.maintain_left_links:
                    node.left_id = last.node_id
                chain.append(node)
                last = node
            return chain

        anchor = change(spine[0])
        chain = pack(anchor, items)
        new_root = None
        while chain:
            kids = [(node.range.low, node.node_id, node.pc_pid) for node in chain]
            above = spine.get(anchor.level + 1)
            if above:
                parent = change(above)
            else:
                # The anchor is the root: a new root grows over it.
                parent = new_root = build(anchor.level + 1, anchor.pc_pid, NEG_INF, 0)
                kids.insert(0, (anchor.range.low, anchor.node_id, anchor.pc_pid))
            chain = pack(parent, kids)
            anchor = parent
        for node in plan.values():
            if not node.is_leaf:
                for _key, child_id in node.iter_entries():
                    if child_id in plan:
                        plan[child_id].parent_id = node.node_id
        self._ship(plan, existing, built, new_root, senders, live)

    def _ship(
        self,
        plan: dict[int, NodeCopy],
        existing: dict[int, NodeCopy],
        built: list[NodeCopy],
        new_root: NodeCopy | None,
        senders: dict[int, int],
        live: list[int],
    ) -> None:
        """Carry out an install's plan.  Each changed node gets a
        :class:`Graft` at every copy, upper levels first, so every
        processor applies the grafts of the nodes it shares in one
        order.  Then each built node is shipped as one ``CreateCopy``
        per copy, parents before children, so a copy finds its parent
        installed.  It leaves the processor in ``senders``, where its
        data is -- a leaf the source holder of its first item, an
        interior node the processor of its first child; a new root its
        primary's -- so each copy placed away from its data costs one
        message, and one placed on it none."""
        kernel = self.kernel

        def where(node_id: int) -> tuple[int, ...]:
            return plan[node_id].copy_pids

        holders: dict[int, list[int]] = {}
        for copy in self.all_copies():
            if copy.node_id in existing:
                holders.setdefault(copy.node_id, []).append(copy.home_pid)
        for before in sorted(existing.values(), key=lambda node: -node.level):
            after = plan[before.node_id]
            entries = tuple(
                (key, payload)
                for key, payload in after.iter_entries()
                if not before.has_key(key)
            )
            cut = after.range.high != before.range.high
            graft = Graft(
                before.node_id,
                self.trace.new_action_id(),
                entries,
                () if after.is_leaf else tuple((child, where(child)) for _key, child in entries),
                after.range.high if cut else None,
                after.right_id if cut else None,
                after.parent_id if after.parent_id != before.parent_id else None,
            )
            for pid in holders[before.node_id]:
                kernel.processor(pid).submit(graft)
        for node in sorted(built, key=lambda node: -node.level):
            reason = "migrate"
            if node is new_root:
                place = self.policy.place(node.level, node.pc_pid, live, True, kernel.rng)
                node.pc_pid, node.copy_versions = place.pc_pid, place.copy_versions()
                reason = "root"
            snapshot = node.snapshot(birth_set=frozenset())
            if not node.is_leaf:
                snapshot = snapshot._replace(
                    child_locations=tuple(
                        (child, where(child)) for _key, child in node.iter_entries()
                    )
                )
            sender = senders.get(node.node_id, node.pc_pid)
            for pid in node.copy_pids:
                kernel.route(sender, pid, CreateCopy(snapshot, reason))
            if node is new_root:
                announce = SetRoot(node.node_id, node.level, node.copy_pids, node.level)
                for pid in live:
                    if pid not in node.copy_versions:
                        kernel.route(node.pc_pid, pid, announce)

    def cut(self, low: Key) -> None:
        """Give up every key at or above ``low``, which another tree now
        holds: the mirror image of :meth:`install_leaves`, at a quiescent
        point.  One :class:`Drain` at each copy of every node, at every
        level, whose range reaches ``low``, in node order on every
        processor; afterwards each level ends at the node that
        straddled ``low``."""
        holders: dict[int, list[Processor]] = {}
        for proc in self.kernel.processors.values():
            for copy in proc.state["store"].values():
                if copy.range.high >= low:
                    holders.setdefault(copy.node_id, []).append(proc)
        for node_id in sorted(holders):
            drain = Drain(node_id, self.trace.new_action_id(), low)
            for proc in holders[node_id]:
                proc.submit(drain)

    def _on_graft(self, proc: Processor, action: Graft) -> None:
        copy = self.copy_at(proc, action.node_id)
        for key, payload in action.entries:
            copy.insert_entry(key, payload)
        for child_id, pids in action.children:
            self.learn_location(proc, child_id, pids)
        if action.high is not None:
            copy.range = copy.range.shrink_high(action.high)
            copy.right_id = action.right_id
        if action.parent_id is not None:
            copy.parent_id = action.parent_id
        self._rewritten(
            proc, copy, action.action_id,
            ("graft", len(action.entries), action.high, action.right_id),
        )

    def _on_drain(self, proc: Processor, action: Drain) -> None:
        copy = self.copy_at(proc, action.node_id)
        if self._leaf_caches is not None:
            self._leaf_caches[proc.pid].purge(action.low)
        if copy.range.low >= action.low:
            self.remove_copy(proc, copy.node_id)
            if copy.is_leaf and self.mirrors is not None:
                self.mirrors.drop(proc, copy.node_id)
            return
        copy.extract_upper(action.low)
        copy.range = KeyRange(copy.range.low, POS_INF)
        copy.right_id = None
        self._rewritten(proc, copy, action.action_id, ("drain", action.low))

    def _rewritten(
        self, proc: Processor, copy: NodeCopy, action_id: int, params: tuple
    ) -> None:
        """Enter a bulk install's or a cut's change to a copy in its
        history -- the primary's application is the initial one -- and
        tell the leaf cache and the mirrors."""
        self.incorporate(
            proc, copy, action_id, Mode.INITIAL if copy.is_pc else Mode.RELAYED, params
        )
        if copy.is_leaf:
            if self._leaf_caches is not None:
                self._leaf_caches[proc.pid].learn(
                    copy.range.low, copy.range.high, copy.node_id
                )
            if self.mirrors is not None:
                self.mirrors.push(proc, copy)

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
