"""The lazy distributed trie engine and its public facade.

Runs on the simulation substrate with the by-now familiar shape:

* descent one node at a time; containers answer, interiors route;
* a full container **bursts in place** (same node id, becomes an
  interior), so bursts never touch the parent;
* **edge creation** -- a key arrives whose next character has no
  edge -- is the semi-synchronous update: replicas forward the
  operation to the node's primary copy, which either already has the
  edge (the replica was stale: the PC continues the descent and
  *teaches* the replica the missing edge) or creates the child
  container and relays the new edge lazily to its replicas;
* the root interior is replicated on every processor (the paper's
  policy: operations start locally); deeper interiors start
  single-copy.

Operations never block, and stale root replicas only cost a forward
plus a correction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from repro.core.client import KernelClient
from repro.core.engine import Engine
from repro.sim.simulator import Kernel
from repro.sim.tracing import Trace
from repro.trie.node import Container, Interior


@dataclass(frozen=True)
class TrieOpContext:
    op_id: int
    kind: str  # "insert" | "search" | "delete"
    key: str
    value: Any
    home_pid: int


@dataclass(frozen=True)
class TrieStep:
    """Execute (or route) an operation at a trie node."""

    kind = "trie_step"

    node_id: int
    op: TrieOpContext
    forwarded_from: int | None = None  # replica pid that lacked the edge


@dataclass(frozen=True)
class CollectStep:
    """Traveling collector for prefix enumeration.

    Carries an explicit stack of nodes still to visit and the results
    gathered so far; each step visits one node (collecting container
    entries, pushing interior children) and travels to the next node
    on the stack -- a distributed depth-first traversal in one
    message.  Like scans on the dB-tree, collection is not atomic
    with respect to concurrent updates.
    """

    kind = "trie_collect"

    node_id: int
    op: TrieOpContext
    # Nodes still to visit, as (node_id, home_pid) -- the parent's
    # processor knows its children's homes; the traveler carries that
    # knowledge along (trie nodes never move, so hints cannot go
    # stale).
    stack: tuple[tuple[int, int], ...] = ()
    collected: tuple = ()


@dataclass(frozen=True)
class TrieReturn:
    kind = "trie_return"

    op: TrieOpContext
    result: Any


@dataclass(frozen=True)
class CreateTrieNode:
    kind = "create_trie_node"

    node: Any  # Container or Interior; ownership transfers


@dataclass(frozen=True)
class EdgeAdd:
    """Lazy relay of a new edge to an interior's replicas."""

    kind = "edge_add"

    node_id: int
    label: str
    child_id: int
    child_pid: int


@dataclass(frozen=True)
class EdgeTeach:
    """Correction: the PC teaches a stale replica an edge it missed."""

    kind = "edge_teach"

    node_id: int
    label: str
    child_id: int
    child_pid: int


class LazyTrieEngine(Engine):
    """Message-level implementation of the lazy burst trie.

    ``serialize_edges=False`` builds the *strawman* variant for the
    X4 experiment: replicas create missing edges locally instead of
    deferring to the primary copy.  Same-character edge creations
    then race, replicas resolve the conflict last-writer-wins, and
    the losing child container is orphaned with its keys -- the trie
    analogue of Figure 4's lost inserts.  Deliberately incorrect.
    """

    ROOT_ID = 1
    op_type = TrieOpContext

    def __init__(
        self,
        kernel: Kernel,
        capacity: int = 8,
        serialize_edges: bool = True,
    ) -> None:
        super().__init__(
            kernel,
            Trace(),  # operations + counters only
            {
                CollectStep: self._on_collect,
                TrieStep: self._on_step,
                TrieReturn: self._on_return,
                CreateTrieNode: self._on_create_node,
                EdgeAdd: self._on_edge_add,
                EdgeTeach: self._on_edge_add,
            },
        )
        self.capacity = capacity
        self.serialize_edges = serialize_edges
        self._next_node_id = 1  # root takes 1
        for proc in kernel.processors.values():
            proc.state.update(
                nodes={},  # node_id -> Container | Interior
                locator={},  # node_id -> pid
                pending_node_ops=defaultdict(list),
            )
        kernel.install_handler(self.handle)
        self._bootstrap()

    def _bootstrap(self) -> None:
        pids = tuple(self.kernel.pids)
        for pid in pids:
            root = Interior(
                node_id=self.ROOT_ID,
                prefix="",
                pc_pid=pids[0],
                copy_pids=pids,
                home_pid=pid,
            )
            self.kernel.processor(pid).state["nodes"][self.ROOT_ID] = root

    def _alloc_node_id(self) -> int:
        self._next_node_id += 1
        return self._next_node_id

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit_operation(
        self, kind: str, key: str, value: Any = None, home_pid: int = 0
    ) -> int:
        if kind not in ("insert", "search", "delete", "collect"):
            raise ValueError(f"unknown operation kind {kind!r}")
        if not isinstance(key, str):
            raise TypeError(f"trie keys are strings, got {type(key).__name__}")
        op = self.open_op(kind, key, value, home_pid)
        self.kernel.processor(home_pid).submit(TrieStep(node_id=self.ROOT_ID, op=op))
        return op.op_id

    def _on_create_node(self, proc, action: CreateTrieNode) -> None:
        self._install(proc, action.node)

    # ------------------------------------------------------------------
    def _route_to_node(self, proc, node_id: int, step: TrieStep) -> None:
        if node_id in proc.state["nodes"]:
            proc.submit(step)
            return
        pid = proc.state["locator"].get(node_id)
        if pid is None or pid == proc.pid:
            # No location knowledge: park until the node (or its
            # creation announcement) arrives here -- only possible in
            # a tiny window after an edge relay outruns the creation.
            proc.state["pending_node_ops"][node_id].append(step)
            self.trace.bump("trie_op_parked")
            return
        self.kernel.route(proc.pid, pid, step)

    def _on_step(self, proc, action: TrieStep) -> None:
        op = action.op
        node = proc.state["nodes"].get(action.node_id)
        if node is None:
            proc.state["pending_node_ops"][action.node_id].append(action)
            self.trace.bump("trie_op_parked")
            return
        self.trace.record_op_hop(op.op_id)
        if isinstance(node, Container):
            self._apply(proc, node, op)
            return
        if op.kind == "collect" and len(op.key) <= len(node.prefix):
            # The whole subtree under this node matters: switch from
            # descent to the traveling collector.
            proc.submit(CollectStep(node_id=node.node_id, op=op))
            return
        label = node.label_for(op.key)
        child_id = node.edges.get(label)
        if child_id is not None:
            if action.forwarded_from is not None:
                # A stale replica forwarded this: teach it the edge.
                self.kernel.route(
                    proc.pid,
                    action.forwarded_from,
                    EdgeTeach(
                        node_id=node.node_id,
                        label=label,
                        child_id=child_id,
                        child_pid=proc.state["locator"].get(child_id, proc.pid),
                    ),
                )
                self.trace.bump("trie_corrections_sent")
            self._route_to_node(
                proc, child_id, TrieStep(node_id=child_id, op=op)
            )
            return
        # No edge here.
        if not node.is_pc and self.serialize_edges:
            # Maybe stale: the primary copy decides.
            self.kernel.route(
                proc.pid,
                node.pc_pid,
                TrieStep(node_id=node.node_id, op=op, forwarded_from=proc.pid),
            )
            self.trace.bump("trie_forwarded_to_pc")
            return
        if not node.is_pc and op.kind != "insert":
            # The strawman still answers reads authoritatively enough.
            self.kernel.route(
                proc.pid,
                node.pc_pid,
                TrieStep(node_id=node.node_id, op=op, forwarded_from=proc.pid),
            )
            self.trace.bump("trie_forwarded_to_pc")
            return
        # Authoritative absence.
        if op.kind != "insert":
            if op.kind == "collect":
                result: Any = ()
            elif op.kind == "search":
                result = None
            else:
                result = False
            self._reply(proc, op, result)
            return
        # Semi-synchronous edge creation, serialized right here.
        child_pid = self._alloc_home()
        child = Container(
            node_id=self._alloc_node_id(),
            prefix=node.prefix + label,  # TERMINAL is "" -> same prefix
            capacity=self.capacity,
            home_pid=child_pid,
        )
        if self.serialize_edges:
            node.add_edge(label, child.node_id)
        else:
            loser = node.force_edge(label, child.node_id)
            if loser is not None:
                self.trace.bump("trie_edge_conflicts")
        proc.state["locator"][child.node_id] = child_pid
        self.trace.bump("trie_edges_created")
        if child_pid == proc.pid:
            self._install(proc, child)
        else:
            self.kernel.route(proc.pid, child_pid, CreateTrieNode(node=child))
        for pid in node.copy_pids:
            if pid == proc.pid:
                continue
            self.kernel.route(
                proc.pid,
                pid,
                EdgeAdd(
                    node_id=node.node_id,
                    label=label,
                    child_id=child.node_id,
                    child_pid=child_pid,
                ),
            )
        self._route_to_node(
            proc, child.node_id, TrieStep(node_id=child.node_id, op=op)
        )

    def _apply(self, proc, container: Container, op: TrieOpContext) -> None:
        if op.kind == "collect":
            proc.submit(CollectStep(node_id=container.node_id, op=op))
            return
        if not container.covers(op.key):
            raise RuntimeError(
                f"misrouted trie op: key {op.key!r} at container "
                f"prefix {container.prefix!r}"
            )
        if op.kind == "insert":
            container.insert(op.key, op.value)
            result: Any = True
        elif op.kind == "delete":
            result = container.delete(op.key)
        else:
            result = container.lookup(op.key)
        self._reply(proc, op, result)
        if op.kind == "insert" and container.is_overfull:
            self._burst(proc, container)

    def _reply(self, proc, op: TrieOpContext, result: Any) -> None:
        self.kernel.route(proc.pid, op.home_pid, TrieReturn(op=op, result=result))

    def _on_collect(self, proc, action: CollectStep) -> None:
        op = action.op
        node = proc.state["nodes"].get(action.node_id)
        if node is None:
            proc.state["pending_node_ops"][action.node_id].append(action)
            self.trace.bump("trie_op_parked")
            return
        self.trace.record_op_hop(op.op_id)
        collected = action.collected
        stack = list(action.stack)
        if isinstance(node, Container):
            collected = collected + tuple(
                (key, value)
                for key, value in node.entries.items()
                if key.startswith(op.key)
            )
        else:
            # Depth-first: push children in reverse-sorted order so the
            # lexicographically first child is visited next.  This
            # processor knows its children's homes.
            locator = proc.state["locator"]
            for _label, child_id in sorted(node.items(), reverse=True):
                stack.append((child_id, locator.get(child_id, proc.pid)))
        if not stack:
            self._reply(proc, op, tuple(sorted(collected)))
            return
        next_id, next_pid = stack.pop()
        self.kernel.route(
            proc.pid,
            next_pid,
            CollectStep(
                node_id=next_id,
                op=op,
                stack=tuple(stack),
                collected=collected,
            ),
        )

    # ------------------------------------------------------------------
    def _burst(self, proc, container: Container) -> None:
        """Convert an overfull container into an interior, in place.

        All keys sharing the prefix exactly keep living in a terminal
        child; a single-group burst (every key shares the next
        character) recurses into that child immediately.
        """
        groups = container.partition_for_burst()
        interior = Interior(
            node_id=container.node_id,
            prefix=container.prefix,
            pc_pid=proc.pid,
            copy_pids=(proc.pid,),
            home_pid=proc.pid,
        )
        self.trace.bump("trie_bursts")
        for label, entries in sorted(groups.items()):
            child_pid = self._alloc_home()
            child = Container(
                node_id=self._alloc_node_id(),
                prefix=container.prefix + label,
                capacity=self.capacity,
                home_pid=child_pid,
                entries=dict(entries),
            )
            interior.add_edge(label, child.node_id)
            proc.state["locator"][child.node_id] = child_pid
            if child_pid == proc.pid:
                self._install(proc, child)
            else:
                self.kernel.route(proc.pid, child_pid, CreateTrieNode(node=child))
        proc.state["nodes"][container.node_id] = interior

    def _install(self, proc, node: Any) -> None:
        node.home_pid = proc.pid
        proc.state["nodes"][node.node_id] = node
        proc.state["locator"][node.node_id] = proc.pid
        parked = proc.state["pending_node_ops"].pop(node.node_id, [])
        for step in parked:
            proc.submit(step)
        if isinstance(node, Container) and node.is_overfull:
            self._burst(proc, node)

    def _on_edge_add(self, proc, action: Any) -> None:
        node = proc.state["nodes"].get(action.node_id)
        proc.state["locator"][action.child_id] = action.child_pid
        if node is None or not isinstance(node, Interior):
            self.trace.bump("trie_edge_relay_dropped")
            return
        if self.serialize_edges:
            if not node.add_edge(action.label, action.child_id):
                self.trace.bump("trie_edge_relay_duplicate")
        else:
            loser = node.force_edge(action.label, action.child_id)
            if loser is not None:
                self.trace.bump("trie_edge_conflicts")
        # An op parked on the child can now be routed.
        parked = proc.state["pending_node_ops"].pop(action.child_id, [])
        for step in parked:
            self._route_to_node(proc, action.child_id, step)

    # ------------------------------------------------------------------
    def all_nodes(self) -> list[Any]:
        return [
            node
            for proc in self.kernel.processors.values()
            for node in proc.state["nodes"].values()
        ]


class LazyTrie(KernelClient):
    """Public facade: a lazily replicated distributed burst trie.

    >>> trie = LazyTrie(num_processors=4, capacity=4, seed=1)
    >>> for word in ["car", "cart", "cat", "dog", "door", "do"]:
    ...     _ = trie.insert(word, word.upper(), client=len(word) % 4)
    >>> _ = trie.run()
    >>> trie.search_sync("cart")
    'CART'
    >>> trie.check().ok
    True
    """

    def __init__(
        self,
        num_processors: int = 4,
        capacity: int = 8,
        seed: int = 0,
        serialize_edges: bool = True,
    ) -> None:
        self.kernel = Kernel(
            num_processors=num_processors,
            seed=seed,
        )
        self.engine = LazyTrieEngine(
            self.kernel, capacity=capacity, serialize_edges=serialize_edges
        )

    def collect(self, prefix: str, client: int = 0) -> int:
        """Enumerate all (key, value) pairs under ``prefix``.

        Runs a traveling depth-first collector over the subtree; like
        any traversal here it is not atomic with respect to
        concurrent updates.  Result: key-sorted tuple of pairs.
        """
        return self._submit("collect", prefix, None, client)

    def collect_sync(self, prefix: str, client: int = 0) -> tuple:
        return self._await(self.collect(prefix, client))

    def check(self, expected: dict | None = None):
        from repro.trie.verify import check_trie

        return check_trie(self.engine, expected=expected)
