"""Per-operation timeouts and idempotent retry for the dB-tree engine.

Exists only on a cluster built with ``op_timeout``.  Every submitted
operation gets a timer; an operation that has not returned when it
fires is re-issued from the root (same op identity -- the home
processor's return de-duplication keeps exactly one outcome per op id
even when the original response was merely slow rather than lost) up
to ``retries`` times, with decorrelated-jitter back-off, and then
recorded as ``timed_out``.

The timer is the fallback, not the only signal: a restarted home that
relearns the root knows that whatever it still has pending was never
issued (submitted while it was down or rootless) or lost its return to
the crash, and re-issues it then
(:meth:`OpTimers.reissue_after_recovery`) instead of sitting out the
rest of the timeout.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING

from repro.core.actions import OpContext, SearchStep

if TYPE_CHECKING:
    from repro.core.dbtree.engine import DBTreeEngine


class OpTimers:
    """One timer per pending operation; retries back off, then give up."""

    #: Retry delays are capped at this multiple of ``timeout``.
    BACKOFF_CAP = 8.0

    def __init__(self, engine: "DBTreeEngine", timeout: float, retries: int) -> None:
        self.engine = engine
        self.timeout = timeout
        self.retries = retries
        # op_id -> [retries_left, timer EventHandle, last timer delay, op]
        self._pending: dict[int, list] = {}
        # Derived lazily so runs that never retry register no stream.
        self._backoff_rng: random.Random | None = None
        engine.timers = self

    def _backoff_delay(self, prev_delay: float) -> float:
        """Next retry delay: decorrelated jitter (capped).

        ``min(cap, uniform(base, prev * 3))`` -- each delay is drawn
        relative to the *previous* one rather than the attempt number,
        which decorrelates retry storms across operations (the
        AWS-architecture-blog variant of exponential backoff).  Seeded
        via the kernel's ledger so runs replay exactly.
        """
        rng = self._backoff_rng
        if rng is None:
            rng = random.Random(self.engine.kernel.seeds.derive("op-backoff"))
            self._backoff_rng = rng
        cap = self.timeout * self.BACKOFF_CAP
        return min(cap, rng.uniform(self.timeout, prev_delay * 3.0))

    def arm(self, op: OpContext) -> None:
        engine = self.engine
        entry = self._pending.get(op.op_id)
        if entry is None:
            # First attempt: plain timeout, no jitter (the fast path's
            # pinned traces depend on it).
            delay = self.timeout
            entry = self._pending[op.op_id] = [self.retries, None, delay, op]
        else:
            # Re-arm after a retry: back off with decorrelated jitter
            # so a struggling home does not re-issue in lockstep.
            delay = entry[2] = self._backoff_delay(entry[2])
            engine.trace.bump("op_backoff_delay_total", delay - self.timeout)
        entry[1] = engine.kernel.events.schedule(
            engine.now + delay, partial(self._op_timer_fired, op)
        )

    def cancel(self, op_id: int) -> None:
        """The operation returned: its timer must not fire a retry."""
        entry = self._pending.pop(op_id, None)
        if entry is not None:
            entry[1].cancel()

    def _op_timer_fired(self, op: OpContext) -> None:
        engine = self.engine
        entry = self._pending.get(op.op_id)
        if entry is None:
            return  # completed (or verdicted) before the timer fired
        if entry[0] <= 0:
            del self._pending[op.op_id]
            engine.fail_op(op, "timed_out")
            return
        entry[0] -= 1
        self._issue_from_root(op, "op_retries")
        self.arm(op)

    def reissue_after_recovery(self, home_pid: int) -> None:
        """``home_pid`` has restarted and relearned the root: issue what
        it still has pending, without waiting for the timers.

        Every such operation was submitted while the home was down or
        rootless and never issued, or lost its return to the crash;
        the same idempotent re-issue the timer makes serves both.  No
        retry is spent and each timer stays armed as it was, as the
        fallback.
        """
        for *_timer, op in self._pending.values():
            if op.home_pid == home_pid:
                self._issue_from_root(op, "op_reissued_on_recovery")

    def _issue_from_root(self, op: OpContext, counter: str) -> None:
        """Idempotent re-issue: same op identity, fresh root descent."""
        engine = self.engine
        proc = engine.kernel.processor(op.home_pid)
        root_id = proc.state["root_id"]
        if proc.alive and root_id is not None:
            engine.trace.bump(counter)
            engine.route_to_node(
                proc, root_id, SearchStep(node_id=root_id, op=op), level=None, key=op.key
            )
