"""Per-operation timeouts and idempotent retry for the dB-tree engine.

Exists only on a cluster built with ``op_timeout``.  Every submitted
operation gets a timer; an operation that has not returned when it
fires is re-issued from the root (same op identity -- the home
processor's return de-duplication keeps exactly one outcome per op id
even when the original response was merely slow rather than lost) up
to ``retries`` times, with decorrelated-jitter back-off, and then
recorded as ``timed_out``.

The timer is the fallback, not the only signal: an operation whose
home crashes, or that is pending when the first processor is rooted
again after none was, fails over (:meth:`OpTimers.fail_over`) instead
of sitting out the rest of its timeout.
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
            engine.now + delay, partial(self._op_timer_fired, op.op_id)
        )

    def cancel(self, op_id: int) -> None:
        """The operation returned: its timer must not fire a retry."""
        entry = self._pending.pop(op_id, None)
        if entry is not None:
            entry[1].cancel()

    def _op_timer_fired(self, op_id: int) -> None:
        engine = self.engine
        entry = self._pending.get(op_id)
        if entry is None:
            return  # completed (or verdicted) before the timer fired
        op = entry[3]
        if entry[0] <= 0:
            del self._pending[op_id]
            engine.fail_op(op, "timed_out")
            return
        entry[0] -= 1
        self._issue_from_root(op, "op_retries")
        self.arm(op)

    def fail_over(self, home_pid: int | None = None) -> None:
        """Issue the pending ops homed at ``home_pid`` (every pending op
        when None) from wherever the fail-over rule puts them.

        Called for a crashed home, whose pending ops lost their returns
        with it, and when the first processor is rooted again after
        none was, when every pending op is stranded.  An op no
        processor can serve stays where it is.  The same idempotent
        re-issue the timer makes; no retry is spent and each timer
        stays armed as it was, as the fallback.
        """
        crash = self.engine.crash
        for entry in self._pending.values():
            op = entry[3]
            if home_pid is None or op.home_pid == home_pid:
                moved = crash.fail_over(op)
                if moved is not None:
                    entry[3] = moved
                    self._issue_from_root(moved, "op_failed_over")

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
