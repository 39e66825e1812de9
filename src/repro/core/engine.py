"""The engine skeleton every search structure here runs on.

The dB-tree (:class:`~repro.core.dbtree.engine.DBTreeEngine`), the
hash table (:class:`~repro.hash.table.LazyHashEngine`) and the trie
(:class:`~repro.trie.table.LazyTrieEngine`) each apply the paper's
lazy-update recipe to a different structure.  The plumbing around the
recipe is the same for all three, and lives here once:

* **the action table** -- :meth:`Engine.handle` performs an action
  by its class's row; :meth:`Engine.on` adds a row;
* **the operation ledger** -- :meth:`Engine.open_op` allocates an op
  id, records the submission and enters the op in
  :attr:`Engine.in_flight`, the ops still owed a result.  The op's
  first return (:meth:`Engine._on_return`) or a verdict
  (:meth:`Engine.fail_op`) takes it out.  A return for an op not in
  the ledger is dropped and counted: ``late_return_ignored`` when the
  op already has a verdict, ``duplicate_return_ignored`` otherwise (a
  retry raced the original, a fail-over moved the op's home, or the
  substrate delivered the return twice);
* **round-robin home placement** for new storage (:meth:`Engine
  ._alloc_home`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:
    from repro.sim.processor import ActionHandler, Processor
    from repro.sim.simulator import Kernel
    from repro.sim.tracing import Trace


class Engine:
    """Action table, operation ledger and home placement.

    A subclass names its op type (built as ``op_type(op_id, kind, key,
    value, home_pid)``), passes its action table, the row for its
    return-value action (:meth:`_on_return`) included, and installs
    :meth:`handle` on the kernel once it is ready to run.
    """

    op_type: Callable[..., Any]

    def __init__(
        self, kernel: "Kernel", trace: "Trace", rows: Mapping[type, "ActionHandler"]
    ) -> None:
        self.kernel = kernel
        self.trace = trace
        #: The action table: one row per action type.
        self._handlers: dict[type, ActionHandler] = dict(rows)
        #: op_id -> op for every operation still owed a result; a
        #: fail-over writes the moved op back.
        self.in_flight: dict[int, Any] = {}
        #: op_id -> "failed" | "timed_out" for operations that will
        #: never produce a return value (home crashed / retries spent).
        self.op_verdicts: dict[int, str] = {}
        # Called as listener(op, result) when an operation completes;
        # closed-loop workload drivers hang their next submission here.
        self.op_completion_listeners: list[Callable[[Any, Any], None]] = []
        self._next_op_id = 0
        self._next_home = 0

    @property
    def now(self) -> float:
        return self.kernel.events.now

    # ------------------------------------------------------------------
    # the action table
    # ------------------------------------------------------------------
    def on(self, action_type: type, handler: "ActionHandler") -> None:
        """Add the table row for an action type the engine does not
        know (a collaborator's, the repair service's, a balancer's).
        One row per type: a second registration is a wiring bug."""
        if action_type in self._handlers:
            raise ValueError(
                f"{action_type.__name__} already has a handler: "
                f"{self._handlers[action_type]!r}"
            )
        self._handlers[action_type] = handler

    def handle(self, proc: "Processor", action: Any) -> None:
        """Perform one action: its class's row in the action table."""
        try:
            handler = self._handlers[action.__class__]
        except KeyError:
            raise RuntimeError(
                f"processor {proc.pid} received unhandled action {action!r}"
            ) from None
        handler(proc, action)

    # ------------------------------------------------------------------
    # the operation ledger
    # ------------------------------------------------------------------
    def open_op(self, kind: str, key: Any, value: Any, home_pid: int) -> Any:
        """A new op under the next op id, entered in the ledger and
        recorded as submitted now."""
        op_id = self._next_op_id = self._next_op_id + 1
        op = self.in_flight[op_id] = self.op_type(op_id, kind, key, value, home_pid)
        self.trace.record_op_submitted(op_id, kind, key, home_pid, self.kernel.events.now)
        return op

    def _on_return(self, proc: "Processor", action: Any) -> None:
        """The row for a return value: an op's first return stands."""
        op = action.op
        op_id = op.op_id
        if self.in_flight.pop(op_id, None) is None:
            # A verdict already stands (so run()'s partitions stay
            # disjoint), or the op already returned: keep the first.
            self.trace.bump(
                "late_return_ignored"
                if op_id in self.op_verdicts
                else "duplicate_return_ignored"
            )
            return
        self._returned(proc, action)
        self.trace.record_op_completed(op_id, action.result, self.kernel.events.now)
        for listener in self.op_completion_listeners:
            listener(op, action.result)

    def _returned(self, proc: "Processor", action: Any) -> None:
        """An op's first return landed at ``proc``; runs before its
        completion is recorded."""

    def fail_op(self, op: Any, verdict: str) -> None:
        """Dispose of an operation that will never return a value."""
        self.op_verdicts[op.op_id] = verdict
        self.in_flight.pop(op.op_id, None)
        self.trace.bump("ops_timed_out" if verdict == "timed_out" else "ops_failed")

    # ------------------------------------------------------------------
    def _alloc_home(self) -> int:
        """The next processor in round-robin order."""
        pids = self.kernel.pids
        pid = pids[self._next_home % len(pids)]
        self._next_home += 1
        return pid
