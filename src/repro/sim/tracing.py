"""Trace recording: the raw material for the history checkers.

The correctness theory of the paper (Section 3) is phrased over
*histories*: per-copy sequences of update actions, plus the set
``M_n`` of all initial update actions performed on node ``n``.  The
engine reports every update it applies to this :class:`Trace`, which
the :mod:`repro.verify` checkers then audit at quiescence:

* ``record_initial`` registers the action in ``M_n`` and appends it to
  the copy's history,
* ``record_relayed`` appends a relayed application,
* ``record_birth`` stores a new copy's *birth set* -- the ids of
  updates already incorporated into its original value, which is the
  mechanical form of the paper's *backwards extension* (Section 3.1),
* ``record_copy_deleted`` excuses a deleted copy from the final-value
  check (the paper: a deleted copy's contents no longer matter).

Operation-level events (submit/complete) and block/unblock events are
also recorded here; they feed the latency, throughput, and
blocked-time metrics.

Trace levels
------------

Recording a full per-copy update history costs an object allocation
per update and dominates memory on million-op runs, so the trace has
three levels (:class:`TraceLevel`):

* ``FULL`` -- everything, as described above.  Required by the
  history checkers in :mod:`repro.verify`.
* ``OPS`` -- operation lifecycle + counters only; update histories,
  birth sets and M_n are skipped.  Latency/throughput metrics still
  work; the history checkers do not (they raise
  :class:`TraceLevelError`).
* ``OFF`` -- counters only.  Perf runs measuring raw throughput.

At non-FULL levels the skipped ``record_*`` methods are rebound to a
no-op *on the instance*, so hot call sites pay one attribute load and
an empty call, not a level check.  Call sites that would do real work
just to build the arguments (e.g. assembling a params tuple) should
gate on :attr:`Trace.record_updates` instead.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable


class TraceLevel(str, enum.Enum):
    """How much the trace records; see the module docstring."""

    FULL = "full"
    OPS = "ops"
    OFF = "off"

    @classmethod
    def coerce(cls, value: "TraceLevel | str") -> "TraceLevel":
        """Accept a TraceLevel or its string name/value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(level.value for level in cls)
            raise ValueError(
                f"unknown trace level {value!r}; expected one of: {names}"
            ) from None


class TraceLevelError(RuntimeError):
    """A verifier needs trace data the chosen level did not record."""


def _noop(*_args: Any, **_kwargs: Any) -> None:
    """Replacement body for record methods disabled by the level."""


@dataclass(frozen=True)
class AppliedUpdate:
    """One update action applied to one copy."""

    action_id: int
    kind: str
    mode: str  # "initial" or "relayed"
    params: Hashable
    version: int
    time: float


@dataclass
class CopyHistory:
    """The recorded (update) history of one copy of one node."""

    node_id: int
    pid: int
    birth_set: frozenset[int] = frozenset()
    created_at: float = 0.0
    deleted_at: float | None = None
    #: why the copy died: "deleted" (unjoin / migration / retire) or
    #: "crash" (crash-stop wiped the processor that held it).
    deleted_reason: str = "deleted"
    applied: list[AppliedUpdate] = field(default_factory=list)

    @property
    def alive(self) -> bool:
        return self.deleted_at is None

    def applied_ids(self) -> set[int]:
        """Ids of updates applied directly to this copy."""
        return {update.action_id for update in self.applied}

    def known_ids(self) -> set[int]:
        """Birth set plus directly applied updates: the uniform history."""
        return set(self.birth_set) | self.applied_ids()


@dataclass
class OperationRecord:
    """Lifecycle of one client operation (search or insert)."""

    op_id: int
    kind: str
    key: Hashable
    home_pid: int
    submitted_at: float
    completed_at: float | None = None
    result: Any = None
    hops: int = 0

    @property
    def latency(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class Trace:
    """Accumulates everything the verifiers and metrics need."""

    def __init__(self, level: TraceLevel | str = TraceLevel.FULL) -> None:
        self.level = TraceLevel.coerce(level)
        #: Whether update histories are being recorded.  Hot call
        #: sites that build params tuples should gate on this rather
        #: than calling a noop'd method with expensive arguments.
        self.record_updates = self.level is TraceLevel.FULL
        if self.level is not TraceLevel.FULL:
            self.record_birth = _noop  # type: ignore[method-assign]
            self.record_copy_deleted = _noop  # type: ignore[method-assign]
            self.record_initial = _noop  # type: ignore[method-assign]
            self.record_relayed = _noop  # type: ignore[method-assign]
        if self.level is TraceLevel.OFF:
            self.record_op_submitted = _noop  # type: ignore[method-assign]
            self.record_op_hop = _noop  # type: ignore[method-assign]
            self.record_op_completed = _noop  # type: ignore[method-assign]
            self.record_block = _noop  # type: ignore[method-assign]
            self.record_unblock = _noop  # type: ignore[method-assign]
        self._next_action_id = 0
        # M_n: node_id -> {action_id: (kind, params)}
        self.issued: dict[int, dict[int, tuple[str, Hashable]]] = defaultdict(dict)
        self.copies: dict[tuple[int, int], CopyHistory] = {}
        # Histories of copies that were deleted and whose slot was
        # later reused (migration back, re-join after unjoin).
        self.archived_copies: list[CopyHistory] = []
        self.operations: dict[int, OperationRecord] = {}
        #: op_id -> result of every completed operation: what a run's
        #: ``completed`` is read from.  The ops still owed a result are
        #: the engine's ledger, not the trace's.
        self.results: dict[int, Any] = {}
        self.blocked_time: float = 0.0
        self.blocked_events: int = 0
        self._block_starts: dict[int, float] = {}
        self.counters: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # action ids
    # ------------------------------------------------------------------
    def new_action_id(self) -> int:
        """Allocate a globally unique id for an initial update action."""
        self._next_action_id += 1
        return self._next_action_id

    # ------------------------------------------------------------------
    # copy lifecycle
    # ------------------------------------------------------------------
    def record_birth(
        self,
        node_id: int,
        pid: int,
        birth_set: Iterable[int],
        time: float,
    ) -> None:
        """A copy of ``node_id`` came into existence on ``pid``.

        ``birth_set`` lists the initial-update action ids already
        incorporated into the copy's original value (its backwards
        extension).
        """
        key = (node_id, pid)
        existing = self.copies.get(key)
        if existing is not None:
            if existing.alive:
                raise ValueError(f"copy {key} already exists and is alive")
            self.archived_copies.append(existing)
        self.copies[key] = CopyHistory(
            node_id=node_id,
            pid=pid,
            birth_set=frozenset(birth_set),
            created_at=time,
        )

    def record_copy_deleted(
        self, node_id: int, pid: int, time: float, reason: str = "deleted"
    ) -> None:
        """The copy on ``pid`` was destroyed (unjoin / migration / crash)."""
        copy = self.copies.get((node_id, pid))
        if copy is None or not copy.alive:
            raise ValueError(f"no live copy ({node_id}, {pid}) to delete")
        copy.deleted_at = time
        copy.deleted_reason = reason

    def live_copies(self, node_id: int) -> list[CopyHistory]:
        """All live copies of ``node_id``."""
        return [
            copy
            for (nid, _pid), copy in self.copies.items()
            if nid == node_id and copy.alive
        ]

    def node_ids(self) -> set[int]:
        """Every node that ever had a copy."""
        return {nid for (nid, _pid) in self.copies}

    # ------------------------------------------------------------------
    # update application
    # ------------------------------------------------------------------
    def record_initial(
        self,
        node_id: int,
        pid: int,
        action_id: int,
        kind: str,
        params: Hashable,
        version: int,
        time: float,
    ) -> None:
        """An *initial* update was performed at copy (node, pid)."""
        if action_id in self.issued[node_id]:
            raise ValueError(
                f"initial action {action_id} performed twice on node {node_id}"
            )
        self.issued[node_id][action_id] = (kind, params)
        self._append(node_id, pid, action_id, kind, "initial", params, version, time)
        self.counters[f"initial_{kind}"] += 1

    def record_relayed(
        self,
        node_id: int,
        pid: int,
        action_id: int,
        kind: str,
        params: Hashable,
        version: int,
        time: float,
    ) -> None:
        """A *relayed* update was applied at copy (node, pid)."""
        self._append(node_id, pid, action_id, kind, "relayed", params, version, time)
        self.counters[f"relayed_{kind}"] += 1

    def _append(
        self,
        node_id: int,
        pid: int,
        action_id: int,
        kind: str,
        mode: str,
        params: Hashable,
        version: int,
        time: float,
    ) -> None:
        copy = self.copies.get((node_id, pid))
        if copy is None:
            raise ValueError(
                f"update applied to unrecorded copy ({node_id}, {pid}); "
                "engine must record_birth first"
            )
        copy.applied.append(
            AppliedUpdate(
                action_id=action_id,
                kind=kind,
                mode=mode,
                params=params,
                version=version,
                time=time,
            )
        )

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def record_op_submitted(
        self, op_id: int, kind: str, key: Hashable, home_pid: int, time: float
    ) -> None:
        if op_id in self.operations:
            raise ValueError(f"operation {op_id} submitted twice")
        self.operations[op_id] = OperationRecord(
            op_id=op_id, kind=kind, key=key, home_pid=home_pid, submitted_at=time
        )

    def record_op_hop(self, op_id: int) -> None:
        record = self.operations.get(op_id)
        if record is not None:
            record.hops += 1

    def record_op_completed(self, op_id: int, result: Any, time: float) -> None:
        record = self.operations.get(op_id)
        if record is None:
            raise ValueError(f"operation {op_id} completed but never submitted")
        if op_id in self.results:
            raise ValueError(f"operation {op_id} completed twice")
        record.completed_at = time
        record.result = self.results[op_id] = result

    def latencies(self, kind: str | None = None) -> list[float]:
        """Latencies of completed operations, optionally by kind."""
        return [
            op.latency
            for op in self.operations.values()
            if op.latency is not None and (kind is None or op.kind == kind)
        ]

    # ------------------------------------------------------------------
    # blocking accounting (synchronous protocol / baselines)
    # ------------------------------------------------------------------
    def record_block(self, token: int, time: float) -> None:
        """An action was blocked (AAS or lock); ``token`` identifies it."""
        self._block_starts[token] = time
        self.blocked_events += 1

    def record_unblock(self, token: int, time: float) -> None:
        start = self._block_starts.pop(token, None)
        if start is None:
            raise ValueError(f"unblock for unknown block token {token}")
        self.blocked_time += time - start

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a free-form named counter (splits, migrations...)."""
        self.counters[counter] += amount
