"""Relay batching: the paper's piggybacking optimization.

Paper, Section 1.1: *"Since the lazy update commutes with other
updates, there is no pressing need to inform the other copies of the
update immediately.  Instead, the lazy update can be piggybacked onto
messages used for other purposes, greatly reducing the cost of
replication management."*

The simulator has no independent message stream to piggyback on, so
the same saving is modelled as *batching*: relayed keyed updates to
the same destination within a time window travel as one message.
Correctness is untouched -- per-channel FIFO still holds (the batch
is sent on the same channel) and relays were already asynchronous.

Experiment A1 sweeps the window and reports messages per insert.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.core.dbtree import DBTreeEngine
    from repro.sim.processor import Processor


@dataclass(frozen=True)
class BatchedRelays:
    """One network message carrying several relayed updates."""

    kind = "batched_relays"

    actions: tuple[Any, ...]


class RelayBatcher:
    """Per-channel buffering of relayed updates with a flush window.

    The first relay on an idle channel arms a flush ``window`` time
    units later; everything queued for that destination meanwhile
    rides along in a single :class:`BatchedRelays` message.
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
        engine.on(BatchedRelays, self.unpack)

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
        self._engine.kernel.route(src, dst, BatchedRelays(actions=tuple(buffer)))

    @staticmethod
    def unpack(proc: "Processor", action: BatchedRelays) -> None:
        """The batch arrived: its relays join the local queue in order."""
        for inner in action.actions:
            proc.submit(inner)
