"""Relay batching: piggybacking that waits for company.

Paper, Section 1.1: *"Since the lazy update commutes with other
updates, there is no pressing need to inform the other copies of the
update immediately.  Instead, the lazy update can be piggybacked onto
messages used for other purposes, greatly reducing the cost of
replication management."*

Every action already piggybacks with no delay: what it sends to one
processor leaves as one :class:`~repro.sim.network.Bundle` when the
action ends (:meth:`~repro.sim.processor.Processor.hold`).  The
batcher goes further, and holds
relayed keyed updates for a time window, so those from many actions
to one destination ride one bundle.  Correctness is untouched --
per-channel FIFO still holds and relays were already asynchronous.

Experiment A1 reports both: no delay, then the window sweep on top.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.network import Bundle

if TYPE_CHECKING:
    from repro.core.dbtree import DBTreeEngine


class RelayBatcher:
    """Per-channel buffering of relayed updates with a flush window.

    The first relay on an idle channel arms a flush ``window`` time
    units later; everything queued for that destination meanwhile
    rides along in a single :class:`~repro.sim.network.Bundle`.
    """

    def __init__(self, engine: "DBTreeEngine", window: float) -> None:
        if window <= 0:
            raise ValueError(f"batch window must be positive, got {window}")
        self._engine = engine
        self.window = window
        self._buffers: dict[tuple[int, int], list[Any]] = {}
        # One flush callback per channel, allocated on first use: the
        # flush never cancels, so it rides EventQueue.push (the PR 1
        # hot-path convention -- no EventHandle, no per-arm closure).
        self._flushers: dict[tuple[int, int], Callable[[], None]] = {}
        self.batches_sent = 0
        self.relays_batched = 0

    def enqueue(self, src_pid: int, dst_pid: int, action: Any) -> None:
        """Buffer a relayed update; arms a flush if the channel is idle."""
        channel = (src_pid, dst_pid)
        buffer = self._buffers.get(channel)
        if buffer is not None:
            buffer.append(action)
            return
        self._buffers[channel] = [action]
        flusher = self._flushers.get(channel)
        if flusher is None:
            flusher = self._flushers[channel] = partial(self._flush, channel)
        events = self._engine.kernel.events
        events.push(events.now + self.window, flusher)

    def _flush(self, channel: tuple[int, int]) -> None:
        buffer = self._buffers.pop(channel, None)
        if not buffer:
            return
        src, dst = channel
        self.batches_sent += 1
        self.relays_batched += len(buffer)
        self._engine.kernel.route(src, dst, Bundle(buffer))
