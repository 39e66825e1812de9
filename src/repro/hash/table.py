"""The lazy distributed hash table engine and its public facade.

Runs on the same simulation substrate as the dB-tree (processors with
atomic action execution, reliable FIFO network) and applies the same
lazy-update recipe:

* operations never block;
* a bucket split issues *lazy* directory updates (async, unacked);
* stale directory replicas are repaired by misdirection recovery
  (bucket split links) plus corrective updates back to the
  misrouting processor;
* directory facts are versioned by depth -- the ordered action class
  -- so no fact can regress.

Directory maintenance modes (the design space the X1 extension bench
sweeps):

``"lazy"``
    Splits broadcast directory updates asynchronously (default).
``"correction"``
    Maximally lazy: no broadcast at all; replicas learn only from
    corrections after their own misroutes.
``"sync"``
    The vigorous foil: a split blocks its bucket until every replica
    acknowledges the update (messages doubled, operations stalled).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Hashable

from repro.core.client import KernelClient
from repro.core.engine import Engine
from repro.hash.bucket import Bucket, hash_key
from repro.hash.directory import DirectoryReplica
from repro.sim.simulator import Kernel
from repro.sim.tracing import Trace

MODES = ("lazy", "correction", "sync")


@dataclass(frozen=True)
class HashOpContext:
    op_id: int
    kind: str  # "insert" | "search" | "delete"
    key: Hashable
    value: Any
    home_pid: int
    hashed: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hashed", hash_key(self.key))


@dataclass(frozen=True)
class HashLookup:
    """Resolve the target bucket in the local directory replica."""

    kind = "hash_lookup"

    op: HashOpContext


@dataclass(frozen=True)
class HashStep:
    """Execute (or forward) an operation at a bucket."""

    kind = "hash_step"

    bucket_id: int
    op: HashOpContext


@dataclass(frozen=True)
class HashReturn:
    kind = "hash_return"

    op: HashOpContext
    result: Any


@dataclass(frozen=True)
class CreateBucket:
    kind = "create_bucket"

    bucket: Bucket  # buckets are plain data; ownership transfers


@dataclass(frozen=True)
class DirectoryUpdate:
    """A directory fact on the wire.

    ``correction`` distinguishes image-adjustment messages (sent to a
    processor that just misrouted) from split-time relays, for the
    message accounting.  ``ack_to`` is set only in sync mode.
    """

    depth: int
    prefix: int
    bucket_id: int
    pid: int
    correction: bool = False
    ack_to: int | None = None
    split_token: int | None = None

    @property
    def kind(self) -> str:
        return "dir_correction" if self.correction else "dir_update"


@dataclass(frozen=True)
class DirectoryAck:
    kind = "dir_ack"

    split_token: int
    from_pid: int


class LazyHashEngine(Engine):
    """Message-level implementation of the lazy hash table."""

    op_type = HashOpContext

    def __init__(
        self,
        kernel: Kernel,
        capacity: int = 8,
        mode: str = "lazy",
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        super().__init__(
            kernel,
            Trace(),  # operations + counters only
            {
                HashLookup: self._on_lookup,
                HashStep: self._on_step,
                HashReturn: self._on_return,
                CreateBucket: self._on_create_bucket,
                DirectoryUpdate: self._on_directory_update,
                DirectoryAck: self._on_directory_ack,
            },
        )
        self.capacity = capacity
        self.mode = mode
        self._next_bucket_id = 0
        for proc in kernel.processors.values():
            proc.state.update(
                buckets={},  # bucket_id -> Bucket
                directory=DirectoryReplica(),
                pending_bucket_ops=defaultdict(list),  # bucket_id -> [HashStep]
                sync_waits={},  # split_token -> {"awaiting": set, "bucket_id": id}
                frozen_buckets=set(),  # bucket ids blocked by a sync round
                frozen_ops=defaultdict(list),
            )
        kernel.install_handler(self.handle)
        self._bootstrap()

    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        root_pid = self.kernel.pids[0]
        bucket = Bucket(
            bucket_id=self._alloc_bucket_id(),
            prefix=0,
            local_depth=0,
            capacity=self.capacity,
            home_pid=root_pid,
        )
        proc = self.kernel.processor(root_pid)
        proc.state["buckets"][bucket.bucket_id] = bucket
        for other in self.kernel.processors.values():
            other.state["directory"].learn(0, 0, bucket.bucket_id, root_pid)

    def _alloc_bucket_id(self) -> int:
        self._next_bucket_id += 1
        return self._next_bucket_id

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit_operation(
        self, kind: str, key: Hashable, value: Any = None, home_pid: int = 0
    ) -> int:
        if kind not in ("insert", "search", "delete"):
            raise ValueError(f"unknown operation kind {kind!r}")
        op = self.open_op(kind, key, value, home_pid)
        self.kernel.processor(home_pid).submit(HashLookup(op=op))
        return op.op_id

    # ------------------------------------------------------------------
    def _on_lookup(self, proc, action: HashLookup) -> None:
        op = action.op
        self.trace.record_op_hop(op.op_id)
        target = proc.state["directory"].lookup(op.hashed)
        if target is None:
            raise RuntimeError("directory replica lost the root fact")
        bucket_id, pid = target
        self.kernel.route(proc.pid, pid, HashStep(bucket_id=bucket_id, op=op))

    def _on_step(self, proc, action: HashStep) -> None:
        op = action.op
        bucket = proc.state["buckets"].get(action.bucket_id)
        if bucket is None:
            # The directory update outran the bucket creation; park
            # the operation until the bucket lands here.
            proc.state["pending_bucket_ops"][action.bucket_id].append(action)
            self.trace.bump("hash_op_parked")
            return
        if action.bucket_id in proc.state["frozen_buckets"]:
            proc.state["frozen_ops"][action.bucket_id].append(action)
            self.trace.record_block(("hash", op.op_id), self.kernel.now)
            self.trace.bump("hash_ops_blocked")
            return
        self.trace.record_op_hop(op.op_id)
        if not bucket.owns(op.hashed) or bucket.forward_target(op.hashed):
            link = bucket.forward_target(op.hashed)
            if link is None:
                # Hash matches nothing we know: can only mean the op
                # predates this bucket's coverage; re-resolve locally.
                self.trace.bump("hash_rerouted")
                proc.submit(HashLookup(op=op))
                return
            self.trace.bump("hash_forwarded")
            self.kernel.route(
                proc.pid, link.buddy_pid, replace(action, bucket_id=link.buddy_id)
            )
            # Image adjustment: teach the misrouting replica the
            # deeper fact so it does not misroute again.
            if op.home_pid != proc.pid:
                self.kernel.route(
                    proc.pid,
                    op.home_pid,
                    DirectoryUpdate(
                        depth=bucket.local_depth,
                        prefix=bucket.prefix,
                        bucket_id=bucket.bucket_id,
                        pid=proc.pid,
                        correction=True,
                    ),
                )
                self.trace.bump("hash_corrections_sent")
            return
        self._apply(proc, bucket, op)

    def _apply(self, proc, bucket: Bucket, op: HashOpContext) -> None:
        if op.kind == "insert":
            bucket.insert(op.key, op.value)
            result: Any = True
        elif op.kind == "delete":
            result = bucket.delete(op.key)
        else:
            result = bucket.lookup(op.key)
        self.kernel.route(proc.pid, op.home_pid, HashReturn(op=op, result=result))
        if op.kind == "insert" and bucket.is_overfull:
            self._split(proc, bucket)

    # ------------------------------------------------------------------
    # splits and directory maintenance
    # ------------------------------------------------------------------
    def _split(self, proc, bucket: Bucket) -> None:
        while bucket.is_overfull:
            buddy_pid = self._alloc_home()
            buddy = bucket.split(self._alloc_bucket_id(), buddy_pid)
            self.trace.bump("hash_splits")
            # Snapshot the directory facts *before* handing the buddy
            # over: a locally installed overfull buddy splits again
            # recursively, and its deeper facts are its own to
            # announce -- this split announces the depth it created.
            facts = (
                (bucket.local_depth, bucket.prefix, bucket.bucket_id, proc.pid),
                (buddy.local_depth, buddy.prefix, buddy.bucket_id, buddy_pid),
            )
            directory = proc.state["directory"]
            for depth, prefix, bucket_id, pid in facts:
                directory.learn(depth, prefix, bucket_id, pid)
            if buddy_pid == proc.pid:
                self._install_bucket(proc, buddy)
            else:
                self.kernel.route(proc.pid, buddy_pid, CreateBucket(bucket=buddy))
            if self.mode == "correction":
                continue  # replicas learn only from their misroutes
            token = None
            if self.mode == "sync":
                token = self.trace.new_action_id()
                waits = set(self.kernel.pids) - {proc.pid}
                proc.state["sync_waits"][token] = {
                    "awaiting": waits,
                    "bucket_id": bucket.bucket_id,
                }
                proc.state["frozen_buckets"].add(bucket.bucket_id)
            for pid in self.kernel.pids:
                if pid == proc.pid:
                    continue
                for depth, prefix, bucket_id, home in facts:
                    self.kernel.route(
                        proc.pid,
                        pid,
                        DirectoryUpdate(
                            depth=depth,
                            prefix=prefix,
                            bucket_id=bucket_id,
                            pid=home,
                            ack_to=proc.pid if self.mode == "sync" else None,
                            split_token=token,
                        ),
                    )
            # A split must not be re-frozen by its own loop iteration;
            # in sync mode further overflow waits for the next insert.
            if self.mode == "sync":
                break

    def _install_bucket(self, proc, bucket: Bucket) -> None:
        bucket.home_pid = proc.pid
        proc.state["buckets"][bucket.bucket_id] = bucket
        directory = proc.state["directory"]
        directory.learn(
            bucket.local_depth, bucket.prefix, bucket.bucket_id, proc.pid
        )
        parked = proc.state["pending_bucket_ops"].pop(bucket.bucket_id, [])
        for step in parked:
            proc.submit(step)
        # A buddy can be born overfull after a burst (more than half
        # of a very full bucket moved); split immediately.
        if bucket.is_overfull:
            self._split(proc, bucket)

    def _on_create_bucket(self, proc, action: CreateBucket) -> None:
        self._install_bucket(proc, action.bucket)

    def _on_directory_update(self, proc, action: DirectoryUpdate) -> None:
        learned = proc.state["directory"].learn(
            action.depth, action.prefix, action.bucket_id, action.pid
        )
        if not learned:
            self.trace.bump("dir_update_stale")
        if action.ack_to is not None and action.split_token is not None:
            self.kernel.route(
                proc.pid,
                action.ack_to,
                DirectoryAck(split_token=action.split_token, from_pid=proc.pid),
            )

    def _on_directory_ack(self, proc, action: DirectoryAck) -> None:
        waits = proc.state["sync_waits"].get(action.split_token)
        if waits is None:
            self.trace.bump("stray_dir_ack")
            return
        waits["awaiting"].discard(action.from_pid)
        if waits["awaiting"]:
            return
        bucket_id = waits["bucket_id"]
        del proc.state["sync_waits"][action.split_token]
        proc.state["frozen_buckets"].discard(bucket_id)
        for step in proc.state["frozen_ops"].pop(bucket_id, []):
            self.trace.record_unblock(("hash", step.op.op_id), self.kernel.now)
            proc.submit(step)
        # The split halved the bucket, but a burst may have left it
        # still overfull; continue splitting now that the round ended.
        bucket = proc.state["buckets"].get(bucket_id)
        if bucket is not None and bucket.is_overfull:
            self._split(proc, bucket)

    # ------------------------------------------------------------------
    # global inspection (verification support)
    # ------------------------------------------------------------------
    def all_buckets(self) -> list[Bucket]:
        return [
            bucket
            for proc in self.kernel.processors.values()
            for bucket in proc.state["buckets"].values()
        ]


class LazyHashTable(KernelClient):
    """Public facade: a lazily replicated distributed hash table.

    >>> table = LazyHashTable(num_processors=4, capacity=4, seed=1)
    >>> for word in ["ant", "bee", "cat", "dog", "elk", "fox"]:
    ...     _ = table.insert(word, word.upper(), client=len(word) % 4)
    >>> _ = table.run()
    >>> table.search_sync("cat")
    'CAT'
    >>> table.check().ok
    True
    """

    def __init__(
        self,
        num_processors: int = 4,
        capacity: int = 8,
        mode: str = "lazy",
        seed: int = 0,
        fault_plan=None,
    ) -> None:
        self.kernel = Kernel(
            num_processors=num_processors,
            seed=seed,
            layers=() if fault_plan is None else (fault_plan,),
        )
        self.engine = LazyHashEngine(self.kernel, capacity=capacity, mode=mode)

    def check(self, expected: dict | None = None):
        from repro.hash.verify import check_hash_table

        return check_hash_table(self.engine, expected=expected)
