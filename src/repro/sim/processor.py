"""The per-processor queue manager and node manager.

Paper, Section 1.1: *"Each processor that maintains part of the search
structure has two components: a queue manager and a node manager.  The
queue manager maintains the message queue, which stores pending
actions to perform on locally stored nodes.  The node manager
repeatedly takes an action from the queue manager and performs the
action on a node. [...] the processing of one action can't be
interrupted by the processing of another action, so an action on a
node is implicitly atomic."*

:class:`Processor` implements exactly this: a FIFO action queue and a
single server that executes one action at a time, each taking
``SERVICE_TIME``.  The actual effect of an action (the protocol logic)
lives in a handler installed by the dB-tree engine.

The messages an action sends are held by the processor until the
action ends, and then leave one per destination: everything bound for
one processor rides one message (paper, Section 1.1: the lazy update
"can be piggybacked onto messages used for other purposes").  Nothing
waits longer than the action that sent it, with one bounded exception:
a gossip round's offer (:mod:`repro.repair.gossip`) waits for the next
message to its peer to ride on, at most one gossip period.

A message that lands reaches :meth:`Processor.submit` straight from
the network's table of processors (:meth:`~repro.sim.network.Network
.install_delivery`), and a service completion is one pre-bound method
pushed on the event queue: neither builds anything per action.  A
completion takes the next queued action into service itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.events import EventQueue
from repro.sim.network import Bundle, message_kind

ActionHandler = Callable[["Processor", Any], None]

#: Virtual time one action takes on a node manager; a remote hop of
#: the default latency model is 10 of these.
SERVICE_TIME = 1.0


class ProcessorDownError(RuntimeError):
    """An action was submitted to a crashed processor."""

    def __init__(self, pid: int, action: Any) -> None:
        super().__init__(
            f"processor {pid} is down; cannot accept {message_kind(action)!r}"
        )
        self.pid = pid
        self.action = action


class _ServiceCompletion:
    """Service-completion event for a crashable processor.

    Captures the processor's service token at scheduling time; if the
    processor crashed (and possibly restarted) in between, the token
    no longer matches and the completion is a stale no-op -- the
    in-service action died with the crash.  Only a crashable processor's
    path allocates these; the default path pushes the one pre-bound
    method, so no-crash runs are event-for-event identical.
    """

    __slots__ = ("proc", "token")

    def __init__(self, proc: "Processor", token: int) -> None:
        self.proc = proc
        self.token = token

    def __call__(self) -> None:
        proc = self.proc
        if self.token != proc._service_token:
            return
        proc._complete_in_service()


@dataclass
class ProcessorStats:
    """Utilization accounting for one processor."""

    actions_executed: int = 0
    busy_time: float = 0.0


class Processor:
    """A simulated processor: FIFO action queue + atomic node manager.

    The handler receives ``(processor, action)`` when the action's
    service completes; anything the handler does (enqueue local
    actions, send network messages) happens atomically at that instant
    of virtual time.  Once :meth:`hold_sends` is called, the remote
    sends a handler makes are held (:meth:`hold`), one payload or
    :class:`~repro.sim.network.Bundle` per destination, and the
    handler's end sends them, in the order the destinations were first
    named.
    """

    def __init__(self, pid: int, events: EventQueue) -> None:
        self.pid = pid
        self._events = events
        # Crash-stop support is opt-in (make_crashable): only a kernel
        # with a crash plan pays for the token-checked completion events.
        self._crashable = False
        # Whether the processor is up (always True unless crashable);
        # the crash controller reads it, and only crash/restart set it.
        self.alive = True
        self._service_token = 0
        # Bumped on every restart; timer chains armed for a previous
        # incarnation (e.g. repair gossip ticks) check it and die
        # instead of double-firing alongside the restart's fresh chain.
        self.incarnation = 0
        self._queue: deque[Any] = deque()
        self._busy = False
        self._in_service: Any = None
        # Bound once: every service completion pushes this one object.
        self._complete = self._complete_in_service
        self._handler: ActionHandler | None = None
        # The kernel this processor acts on while it holds its sends;
        # None: nothing is held.
        self._kernel: Any = None
        # What the running action sends, by destination; every action
        # reuses it, and it is empty between actions.
        self._held: dict[int, Any] = {}
        self.stats = ProcessorStats()
        # Arbitrary per-processor state owned by the engine (node
        # store, locator, root id); the simulator core never reads it.
        self.state: dict[str, Any] = {}

    def __repr__(self) -> str:
        return f"Processor(pid={self.pid}, queued={len(self._queue)})"

    @property
    def busy(self) -> bool:
        """Whether an action is currently in service."""
        return self._busy

    @property
    def holding(self) -> bool:
        """Whether this processor holds its actions' remote sends
        (:meth:`hold_sends`)."""
        return self._kernel is not None

    def install_handler(self, handler: ActionHandler) -> None:
        """Install the engine callback that executes actions."""
        self._handler = handler

    def hold_sends(self, kernel: Any) -> None:
        """Hold each action's remote sends until the action ends.

        While an action runs, this processor is ``kernel.acting``, and
        the kernel passes its remote sends to :meth:`hold`; the end of
        the action puts them on ``kernel.network``.  ``None`` turns
        holding off: every send then leaves at once.
        """
        self._kernel = kernel

    def hold(self, dst: int, payload: Any) -> None:
        """Keep ``payload`` for ``dst`` until the running action ends."""
        held = self._held
        if dst in held:
            held[dst] = Bundle.join(held[dst], payload)
        else:
            held[dst] = payload

    def submit(self, action: Any) -> None:
        """Enqueue an action for execution on this processor.

        Called both for locally generated subsequent actions and for
        network deliveries.
        """
        if self._handler is None:
            raise RuntimeError(f"processor {self.pid} has no handler installed")
        if not self.alive:
            raise ProcessorDownError(self.pid, action)
        if self._busy:
            self._queue.append(action)
            return
        self._serve(action)

    def _serve(self, action: Any) -> None:
        """Take ``action`` into service; its completion is an event."""
        self._busy = True
        service = SERVICE_TIME
        self.stats.busy_time += service
        # No per-action closure: the single-server discipline means at
        # most one action is in service, so it rides an instance slot.
        self._in_service = action
        events = self._events
        if self._crashable:
            events.push(
                events.now + service,
                _ServiceCompletion(self, self._service_token),
            )
        else:
            events.push(events.now + service, self._complete)

    def _complete_in_service(self) -> None:
        action = self._in_service
        stats = self.stats
        stats.actions_executed += 1
        # submit() refused every action while no handler was installed.
        kernel = self._kernel
        if kernel is not None:
            kernel.acting = self
        try:
            self._handler(self, action)
        finally:
            if kernel is not None:
                kernel.acting = None
                held = self._held
                if held:
                    # The action is over: one message to each processor
                    # it named, in the order it named them.
                    network = kernel.network
                    for dst in held:
                        network.send(self.pid, dst, held[dst])
                    held.clear()
            queue = self._queue
            if queue:
                # The next queued action goes into service here, as
                # _serve would take it: the processor stays busy.
                self._in_service = queue.popleft()
                service = SERVICE_TIME
                stats.busy_time += service
                events = self._events
                if self._crashable:
                    events.push(
                        events.now + service,
                        _ServiceCompletion(self, self._service_token),
                    )
                else:
                    events.push(events.now + service, self._complete)
            else:
                self._busy = False

    # ------------------------------------------------------------------
    # crash-stop semantics
    # ------------------------------------------------------------------
    def make_crashable(self) -> None:
        """Let this processor crash: from now on every completion event
        is token-checked (done before any action is served)."""
        self._crashable = True

    def crash(self) -> int:
        """Crash-stop: lose the queue and the in-service action.

        Returns the number of actions lost (queued + in service).
        Bumping the service token turns any already-scheduled
        completion event into a stale no-op, so nothing partial
        survives the crash.
        """
        if not self._crashable:
            raise RuntimeError(
                f"processor {self.pid} was not built crashable"
            )
        if not self.alive:
            raise RuntimeError(f"processor {self.pid} is already down")
        lost = len(self._queue) + (1 if self._busy else 0)
        self._queue.clear()
        self._busy = False
        self._in_service = None
        self._service_token += 1
        self.alive = False
        return lost

    def restart(self) -> None:
        """Come back up with an empty queue and no in-service action.

        The engine's recovery hooks rebuild durable-side state; the
        processor itself restarts amnesiac, per crash-stop semantics.
        """
        if self.alive:
            raise RuntimeError(f"processor {self.pid} is already up")
        self.alive = True
        self.incarnation += 1
