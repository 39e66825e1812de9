"""Event kernel: a virtual clock and a deterministic event queue.

The kernel is intentionally tiny.  An event is a callback scheduled at
a virtual time; ties are broken by a monotonically increasing sequence
number (an :func:`itertools.count`) so that two runs with the same
seed produce byte-identical traces.  The rest of the simulator
(network delivery, action service completion, timers) is built from
these primitives.

Hot-path design: the heap holds plain ``(time, seq, callback)``
tuples -- tuple comparison is C-level and allocation is a fraction of
a dataclass instance -- and cancellation is a side table of sequence
numbers (:class:`EventHandle` is only allocated by :meth:`~EventQueue
.schedule`; the :meth:`~EventQueue.push` fast path used by the
network and processor layers skips the handle entirely).  Every event
enters through one of those two methods, so a tracer that wraps them
sees everything scheduled.  ``run()`` inlines the pop loop rather than
calling :meth:`~EventQueue.step` per event; at millions of events per
run the per-event saving dominates total simulation wall-clock.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


_heappush = heapq.heappush


class QuiescenceError(RuntimeError):
    """Raised when a run exceeds its event budget (protocol livelock)."""


class EventHandle:
    """Cancellation handle for one scheduled event.

    Cancelling marks the event's sequence number in the queue's
    cancelled table; the pop loop skips it when it surfaces.  The heap
    entry itself is untouched (lazy deletion).
    """

    __slots__ = ("_queue", "seq", "time")

    def __init__(self, queue: "EventQueue", seq: int, time: float) -> None:
        self._queue = queue
        self.seq = seq
        self.time = time

    @property
    def cancelled(self) -> bool:
        """Whether this event has been cancelled."""
        return self.seq in self._queue._cancelled

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self._queue._cancelled.add(self.seq)


class EventQueue:
    """A deterministic priority queue of scheduled events.

    >>> q = EventQueue()
    >>> fired = []
    >>> _ = q.schedule(2.0, lambda: fired.append("b"))
    >>> _ = q.schedule(1.0, lambda: fired.append("a"))
    >>> q.run()
    2
    >>> fired
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], Any]]] = []
        self._cancelled: set[int] = set()
        self._next_seq = itertools.count().__next__
        #: Current virtual time (time of the last executed event).  A
        #: plain attribute, read more often than once per event; only
        #: the queue's own run loops assign it.
        self.now = 0.0
        self._executed = 0

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def executed(self) -> int:
        """Total number of events executed so far."""
        return self._executed

    def push(self, time: float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` at ``time`` without a cancel handle.

        The fast path for the simulator's own layers (network
        deliveries, service completions) which never cancel: no
        :class:`EventHandle` is allocated.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        _heappush(self._heap, (time, self._next_seq(), callback))

    def schedule(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run at virtual ``time``.

        Scheduling in the past is an error: the simulation clock only
        moves forward.  Returns a handle whose ``cancel()`` marks the
        event as dead.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        seq = self._next_seq()
        _heappush(self._heap, (time, seq, callback))
        return EventHandle(self, seq, time)

    def schedule_after(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback)

    def step(self) -> bool:
        """Execute the next non-cancelled event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty (quiescence).
        """
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            time, seq, callback = heapq.heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self.now = time
            self._executed += 1
            callback()
            return True
        return False

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains; return the number of events run.

        ``max_events`` bounds the run as a runaway guard; the guard
        raises :class:`QuiescenceError` *before* executing the event past the
        bound (exactly ``max_events`` events run, never more), because
        in this codebase an unbounded event cascade always indicates a
        protocol bug (e.g. a message ping-pong), never legitimate
        work.  The offending event stays queued so the caller can
        still inspect the stalled state.  :attr:`executed` is brought
        up to date when the run ends, however it ends.
        """
        heap = self._heap
        cancelled = self._cancelled
        pop = heapq.heappop
        # -1 is never reached: one comparison per event either way.
        budget = -1 if max_events is None else max(max_events, 0)
        ran = 0
        try:
            while heap:
                event = pop(heap)
                if cancelled and event[1] in cancelled:
                    cancelled.discard(event[1])
                    continue
                if ran == budget:
                    heapq.heappush(heap, event)
                    raise QuiescenceError(
                        f"event cascade exceeded max_events={max_events}; "
                        "likely a protocol livelock"
                    )
                self.now = event[0]
                ran += 1
                event[2]()
        finally:
            # Counted once per run; an event whose callback raised ran.
            self._executed += ran
        return ran

    def run_until(self, deadline: float) -> int:
        """Run events with time <= ``deadline``; return events run.

        The clock is advanced to ``deadline`` even if the queue drains
        earlier, so periodic processes can be resumed consistently.
        """
        heap = self._heap
        cancelled = self._cancelled
        ran = 0
        while heap:
            head = heap[0]
            if cancelled and head[1] in cancelled:
                heapq.heappop(heap)
                cancelled.discard(head[1])
                continue
            if head[0] > deadline:
                break
            heapq.heappop(heap)
            self.now = head[0]
            self._executed += 1
            ran += 1
            head[2]()
        self.now = max(self.now, deadline)
        return ran
