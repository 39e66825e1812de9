"""Reliable delivery over a lossy channel.

The paper's protocols are proved correct only under a reliable,
exactly-once, per-channel FIFO network (Section 4), and the A2
ablation shows the assumption is load-bearing: drops lose updates and
reordering breaks the relayed-split ordering.  A real deployment does
not get that network for free -- it *manufactures* it, the way TCP
manufactures a reliable byte stream over a lossy datagram substrate.

:class:`ReliableTransport` is that manufacture for the simulator.
With ``reliability="enforced"`` on the :class:`~repro.sim.network
.Network`, every logical send is framed with a per-channel sequence
number and travels over the faulty substrate (fault plan + latency
model); the layer then restores each half of the paper's assumption:

* **exactly once** -- the receiver tracks the per-channel cumulative
  sequence number and a reorder buffer, so duplicate frames (fault
  duplication or retransmission overlap) are suppressed;
* **no loss** -- the sender keeps every frame until it is covered by
  a cumulative ack, retransmitting on a timeout with exponential
  backoff up to a retry cap (exceeding the cap raises
  :class:`ReliabilityError` -- in a simulation that always means the
  timeout/backoff configuration cannot overcome the configured loss
  rate, not bad luck).  With a crash plan active, a *dead* peer is
  instead suspected after ``suspect_retries`` retransmissions: the
  channel is reset and a PeerDown signal fires, because no amount of
  retransmission revives a crash-stopped processor;
* **in order** -- frames arriving ahead of the cumulative sequence
  number are buffered and released only when the gap fills, so
  per-channel FIFO holds even under ``FaultPlan.reorder_p > 0``;
* **acks are cheap** -- a data frame travelling ``dst -> src``
  piggybacks the ack for the reverse channel; only when no reverse
  traffic appears within ``ack_delay`` does a standalone
  :class:`AckFrame` go out (the same piggybacking economics the paper
  applies to lazy relays);
* **acks are selective** -- every ack that goes out anyway, piggybacked
  or standalone, carries next to the cumulative sequence number the
  out-of-order frames the receiver's reorder buffer holds (TCP's SACK
  option, at no frame of its own), so one ack names every hole in the
  window instead of the first.

Retransmission has two triggers and **one timer per sender channel**,
the way TCP keeps one retransmission timer per connection.  Every
unacked frame records its own deadline.  The channel's timer is aimed
at or before the deadline of the head (the oldest unacked frame) and
resends only the head; frames behind it arm nothing.  An ack resends
holes, all of them at the instant it lands: the frame it stopped
short of and every frame below the highest one it reports held that
is not held itself.  A hole past its own deadline left more than a
timeout ago and is lost rather than in flight (NewReno's partial-ack
rule, generalised from the head to every reported hole).  A hole
below a held frame was overtaken by a frame sent after it, so it goes
out again whatever its deadline says -- loss inferred from delivery
order, not from a timer (RACK, RFC 8985) -- but only once: a frame
resent by either path waits for the fresh deadline that resend
stamped.  A head with nothing held beyond it (a tail loss) waits for
its deadline too.  The price: a frame merely reordered past a later
one is sent twice and suppressed once.  Only the timer charges
a retry, so backoff, suspicion of a dead peer and the retry cap are
reached only by a frame no ack vouches for.

Everything is scheduled on the simulation's :class:`~repro.sim.events
.EventQueue` via the no-handle ``push`` fast path, so nothing is ever
cancelled: a timer that fires before the head is due re-aims itself,
and one superseded by an earlier aim, or belonging to a channel that
was reset, finds that out when it fires and does nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.sim.network import Network

#: Reliability modes for the network: ``"assumed"`` is the paper's
#: model (the substrate itself is reliable exactly-once FIFO; the
#: existing no-fault fast path, byte-identical to before this layer
#: existed), ``"enforced"`` manufactures the assumption end-to-end
#: over whatever the substrate does.
RELIABILITY_MODES = ("assumed", "enforced")


class ReliabilityError(RuntimeError):
    """A frame exhausted its retransmission budget.

    Under any sane configuration the retry cap is unreachable (the
    chance of ``max_retries`` consecutive drops at ``drop_p=0.2`` and
    the default cap is ~1e-9 per frame); hitting it means the
    timeout, backoff, or cap is misconfigured for the fault plan.
    (A *dead* peer never raises: with a crash plan active the sender
    suspects the peer and resets the channel instead; see
    ``ReliableTransport.install_peer_down``.)

    Carries the failing channel and frame so the client layer can
    report which traffic was affected instead of dying mid-event.
    """

    def __init__(
        self,
        message: str,
        *,
        src: int | None = None,
        dst: int | None = None,
        seq: int | None = None,
        payload: Any = None,
    ) -> None:
        super().__init__(message)
        self.src = src
        self.dst = dst
        self.seq = seq
        self.payload = payload


@dataclass(frozen=True)
class ReliabilityConfig:
    """Tuning knobs for the reliable-delivery layer.

    ``retransmit_timeout``
        Time the sender waits for an ack before the first
        retransmission.  Must comfortably exceed one round trip
        (default transit is 10 units each way plus ``ack_delay``).
        A frame overtaken by a later one does not wait for it: the
        ack that reports the later frame held resends it, so a frame
        reordered past a later one is sent twice, whatever the timeout.
    ``backoff``
        Multiplier applied to the timeout after each retransmission
        of the same frame.
    ``max_retries``
        Retransmissions allowed per frame before giving up with
        :class:`ReliabilityError`.
    ``ack_delay``
        How long the receiver waits for reverse traffic to piggyback
        a cumulative ack on before sending a standalone ack frame.
    ``suspect_retries``
        With a crash plan active: retransmissions tolerated before a
        *dead* destination is suspected and the channel is reset with
        a peer-down signal.  Irrelevant without crashes (an alive
        peer is never suspected; the sender retransmits up to
        ``max_retries`` as before).  Kept small so a crashed peer is
        given up on within a few timeouts rather than after the full
        backoff ladder.
    """

    retransmit_timeout: float = 80.0
    backoff: float = 1.5
    max_retries: int = 20
    ack_delay: float = 5.0
    suspect_retries: int = 3

    def __post_init__(self) -> None:
        if self.retransmit_timeout <= 0:
            raise ValueError(
                f"retransmit_timeout must be positive, got {self.retransmit_timeout}"
            )
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.ack_delay < 0:
            raise ValueError(f"ack_delay must be non-negative, got {self.ack_delay}")
        if self.suspect_retries < 1:
            raise ValueError(
                f"suspect_retries must be >= 1, got {self.suspect_retries}"
            )


#: Sentinel distinguishing "no buffered frame" from a None payload.
_MISSING = object()
#: ``_SenderChannel.timer_at`` while no retransmit timer is armed.
_NEVER = float("inf")
#: What an ack says of an empty reorder buffer (the usual case).
_NOTHING_HELD: frozenset[int] = frozenset()


class DataFrame:
    """One sequenced transmission of a logical payload.

    ``kind`` delegates to the wrapped payload so that per-kind fault
    plans (``FaultPlan.only_kinds``) and message accounting see the
    logical message, not the framing -- ``by_kind`` counts stay
    comparable between the assumed and enforced modes.

    ``epoch`` is the channel's incarnation tag (see
    :meth:`ReliableTransport._current_epoch`): a crash-restart of
    either endpoint changes it, so stragglers from a previous
    incarnation cannot be confused with the fresh stream that also
    starts at seq 0.  ``ack_epoch`` tags the piggybacked ack with the
    *reverse* channel's incarnation for the same reason.
    """

    __slots__ = ("seq", "payload", "ack", "epoch", "ack_epoch", "held")

    def __init__(
        self,
        seq: int,
        payload: Any,
        ack: int,
        epoch: tuple[int, int] = (0, 0),
        ack_epoch: tuple[int, int] = (0, 0),
        held: frozenset[int] = _NOTHING_HELD,
    ) -> None:
        self.seq = seq
        self.payload = payload
        # Ack for the *reverse* channel, piggybacked: the cumulative
        # sequence number and what the reorder buffer holds beyond it.
        self.ack = ack
        self.epoch = epoch
        self.ack_epoch = ack_epoch
        self.held = held

    @property
    def kind(self) -> str:
        from repro.sim.network import message_kind

        return message_kind(self.payload)

    def __repr__(self) -> str:
        return f"DataFrame(seq={self.seq}, ack={self.ack}, payload={self.payload!r})"


class AckFrame:
    """Standalone ack, sent when no reverse traffic appears.

    Carries no sequence number of its own: cumulative acks are
    monotone and idempotent, so loss, duplication, and reordering of
    ack frames are all harmless (the receiver takes the max), and
    ``held`` -- the out-of-order frames in the receiver's reorder
    buffer when the ack left -- causes at most one early resend of
    each hole it reveals.  ``epoch`` tags the incarnation of the data
    channel being acked.
    """

    __slots__ = ("ack", "epoch", "held")

    kind = "reliable_ack"

    def __init__(
        self,
        ack: int,
        epoch: tuple[int, int] = (0, 0),
        held: frozenset[int] = _NOTHING_HELD,
    ) -> None:
        self.ack = ack
        self.epoch = epoch
        self.held = held

    def __repr__(self) -> str:
        return f"AckFrame(ack={self.ack})"


class _SenderChannel:
    """Send-side state of one directed channel (one incarnation)."""

    __slots__ = ("next_seq", "unacked", "epoch", "timer_at")

    def __init__(self, epoch: tuple[int, int] = (0, 0)) -> None:
        self.next_seq = 0
        # [payload, retries, deadline, resent] of frames next_seq - len
        # .. next_seq - 1, oldest (the head) first.
        self.unacked: deque[list] = deque()
        self.epoch = epoch
        # When the channel's one live retransmit timer fires (never
        # after the head's deadline); inf while none is armed.
        self.timer_at = _NEVER


class _ReceiverChannel:
    """Receive-side state of one directed channel (one incarnation)."""

    __slots__ = ("cumulative", "buffer", "ack_pending", "ack_sent", "epoch")

    def __init__(self, epoch: tuple[int, int] = (0, 0)) -> None:
        # Highest seq s such that all frames <= s were delivered.
        self.cumulative = -1
        # Out-of-order frames awaiting the gap to fill: seq -> payload.
        self.buffer: dict[int, Any] = {}
        # A standalone-ack timer is armed and has not fired/been
        # satisfied by piggybacking yet.
        self.ack_pending = False
        # Last cumulative value actually transmitted (piggybacked or
        # standalone); a fired timer re-acks only when behind this.
        self.ack_sent = -1
        self.epoch = epoch

    def held(self) -> frozenset[int]:
        """What an ack leaving now reports beyond ``cumulative``."""
        return frozenset(self.buffer) if self.buffer else _NOTHING_HELD


class ReliableTransport:
    """Per-channel reliable delivery state machine.

    Owned by a :class:`~repro.sim.network.Network` in ``"enforced"``
    mode; the network remains the only thing that touches the wire
    (latency sampling, fault verdicts, accounting) through the two
    callbacks handed in here.
    """

    def __init__(
        self,
        network: "Network",
        config: ReliabilityConfig | None = None,
    ) -> None:
        self._network = network
        self._events = network._events
        self.config = config or ReliabilityConfig()
        self._senders: dict[tuple[int, int], _SenderChannel] = {}
        self._receivers: dict[tuple[int, int], _ReceiverChannel] = {}
        # Crash-restart incarnation per processor; a channel's epoch
        # is the incarnation pair of its endpoints at creation time.
        self._incarnation: dict[int, int] = {}
        # Called as handler(src, dst, lost_payloads) when a sender
        # gives up on a dead peer (PeerDown signal).
        self._peer_down: Any = None

    def install_peer_down(self, handler: Any) -> None:
        """Install the PeerDown signal: ``handler(src, dst, lost)``.

        Invoked when retransmissions to a *dead* destination hit the
        suspect cap; the channel is reset and the still-unacked
        payloads are reported as lost instead of raising
        :class:`ReliabilityError` mid-event.
        """
        self._peer_down = handler

    def _current_epoch(self, src: int, dst: int) -> tuple[int, int]:
        inc = self._incarnation
        return (inc.get(src, 0), inc.get(dst, 0))

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any) -> None:
        """Frame and transmit one logical message on channel src->dst."""
        channel = (src, dst)
        sender = self._senders.get(channel)
        if sender is None:
            sender = self._senders[channel] = _SenderChannel(
                self._current_epoch(src, dst)
            )
        seq = sender.next_seq
        sender.next_seq = seq + 1
        entry = [payload, 0, 0.0, False]
        sender.unacked.append(entry)
        self._transmit_data(src, dst, sender, seq, entry)
        if len(sender.unacked) == 1:  # frames behind the head arm nothing
            self._aim_timer(src, dst, sender, entry[2])

    def _transmit_data(
        self, src: int, dst: int, sender: _SenderChannel, seq: int, entry: list
    ) -> None:
        """Put ``entry`` on the wire and stamp its retransmit deadline."""
        ack, ack_epoch, held = self._piggyback_ack(dst, src)
        frame = DataFrame(seq, entry[0], ack, sender.epoch, ack_epoch, held)
        self._network._transmit_frame(src, dst, frame)
        config = self.config
        timeout = config.retransmit_timeout * config.backoff ** entry[1]
        entry[2] = self._events.now + timeout

    def _resend(
        self, src: int, dst: int, sender: _SenderChannel, seq: int, entry: list
    ) -> None:
        """The one place a frame is put back on the wire: the channel
        timer resends a head that is due, an ack the holes it reports."""
        self._network.stats.retransmits += 1
        entry[3] = True
        self._transmit_data(src, dst, sender, seq, entry)

    def _aim_timer(
        self, src: int, dst: int, sender: _SenderChannel, deadline: float
    ) -> None:
        """Make sure the channel's timer fires no later than ``deadline``."""
        if deadline < sender.timer_at:
            sender.timer_at = deadline
            self._events.push(deadline, _RetransmitTimer(self, src, dst, sender))

    def _retransmit_due(self, src: int, dst: int, sender: _SenderChannel) -> None:
        """Retransmit timer body: the channel's live timer services the head.

        Resends the oldest unacked frame if it is due, else waits for
        it.  Only this path charges a retry, so only here does a frame
        climb the backoff ladder, trip suspicion of a dead peer, or
        exhaust the retry cap: an ack from the peer is proof of life.
        """
        if self._senders.get((src, dst)) is not sender:
            return  # channel was reset (peer crash/suspicion); stale timer
        if self._events.now != sender.timer_at:
            return  # superseded by a timer aimed earlier
        sender.timer_at = _NEVER
        unacked = sender.unacked
        if not unacked:
            return  # everything acked; the channel needs no timer
        entry = unacked[0]
        if entry[2] > self._events.now:
            self._aim_timer(src, dst, sender, entry[2])
            return
        seq = sender.next_seq - len(unacked)
        liveness = self._network._liveness
        if liveness is not None and not liveness(src):
            # A crashed host transmits nothing and spends no retry;
            # its channels are reset when it restarts (forget_peer).
            return
        entry[1] += 1
        if (
            liveness is not None
            and not liveness(dst)
            and entry[1] > self.config.suspect_retries
        ):
            # The peer is crash-stopped: give up on the whole channel
            # (a fresh incarnation starts at seq 0 after the restart)
            # and surface a PeerDown signal instead of spinning up
            # the backoff ladder or dying with ReliabilityError.
            self._suspect(src, dst)
            return
        if entry[1] > self.config.max_retries:
            raise ReliabilityError(
                f"channel {src}->{dst} seq {seq} exceeded "
                f"max_retries={self.config.max_retries}; the "
                "retransmit timeout/backoff cannot overcome the fault plan",
                src=src,
                dst=dst,
                seq=seq,
                payload=entry[0],
            )
        self._resend(src, dst, sender, seq, entry)
        self._aim_timer(src, dst, sender, entry[2])

    def _suspect(self, src: int, dst: int) -> None:
        """Reset channel src->dst after giving up on a dead peer."""
        sender = self._senders.pop((src, dst), None)
        lost: list[Any] = []
        if sender is not None:
            lost = [entry[0] for entry in sender.unacked]
            sender.unacked.clear()
        if self._peer_down is not None:
            self._peer_down(src, dst, lost)

    def forget_peer(self, pid: int) -> None:
        """Reset every channel touching ``pid``: crash-stop amnesia.

        Called when ``pid`` *restarts*: its own send/receive state
        died with the crash, and the surviving peers' state about it
        describes streams the fresh incarnation knows nothing about.
        Bumping the incarnation retags all future channels so
        straggler frames (or retransmissions) from the previous
        incarnation are discarded by the epoch check rather than
        colliding with new streams that also start at seq 0.
        """
        self._incarnation[pid] = self._incarnation.get(pid, 0) + 1
        for channel in [c for c in self._senders if pid in c]:
            self._senders[channel].unacked.clear()
            del self._senders[channel]
        for channel in [c for c in self._receivers if pid in c]:
            del self._receivers[channel]

    def _piggyback_ack(
        self, remote_src: int, local_dst: int
    ) -> tuple[int, tuple[int, int], frozenset[int]]:
        """The ack to ride on a frame we are about to send.

        Called with the channel *we receive on* (remote -> local);
        marks the value as transmitted so a pending standalone-ack
        timer can stand down.  Returns the cumulative ack, the
        incarnation epoch of the acked channel, and the out-of-order
        frames held beyond the ack.
        """
        receiver = self._receivers.get((remote_src, local_dst))
        if receiver is None:
            return -1, (0, 0), _NOTHING_HELD
        if receiver.cumulative > receiver.ack_sent:
            receiver.ack_sent = receiver.cumulative
        return receiver.ack_sent, receiver.epoch, receiver.held()

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def on_frame(self, src: int, dst: int, frame: Any) -> None:
        """A physical frame survived the substrate and arrived at dst."""
        if type(frame) is AckFrame:
            self._apply_ack(dst, src, frame.ack, frame.epoch, frame.held)
            return
        # Data frame: its piggybacked ack covers the reverse channel.
        if frame.ack >= 0 or frame.held:
            self._apply_ack(dst, src, frame.ack, frame.ack_epoch, frame.held)
        if frame.epoch != self._current_epoch(src, dst):
            # Straggler from a previous incarnation of the channel
            # (either endpoint crash-restarted since it was sent);
            # its sequence numbers mean nothing to the fresh stream.
            return
        channel = (src, dst)
        receiver = self._receivers.get(channel)
        if receiver is None or receiver.epoch != frame.epoch:
            receiver = self._receivers[channel] = _ReceiverChannel(frame.epoch)
        network = self._network
        seq = frame.seq
        if seq <= receiver.cumulative or seq in receiver.buffer:
            # Duplicate (fault duplication or a retransmission racing
            # its own ack): suppress, and *force* a re-ack -- a
            # retransmission of something we already hold usually
            # means our previous ack was lost on the way back, so
            # "already acked that" must not stand down the ack timer.
            network.stats.dup_suppressed += 1
            receiver.ack_sent = -1
            self._schedule_ack(src, dst, receiver)
            return
        if seq > receiver.cumulative + 1:
            # Ahead of the gap: park it.  FIFO is restored when the
            # missing frames arrive (or are retransmitted).
            receiver.buffer[seq] = frame.payload
            network.stats.resequenced += 1
            self._schedule_ack(src, dst, receiver)
            return
        # In order: deliver, then drain whatever the gap was hiding.
        receiver.cumulative = seq
        network._land(dst, frame.payload)
        buffer = receiver.buffer
        while buffer:
            nxt = receiver.cumulative + 1
            payload = buffer.pop(nxt, _MISSING)
            if payload is _MISSING:
                break
            receiver.cumulative = nxt
            network._land(dst, payload)
        self._schedule_ack(src, dst, receiver)

    def _apply_ack(
        self,
        local: int,
        remote: int,
        ack: int,
        epoch: tuple[int, int],
        held: frozenset[int],
    ) -> None:
        """Process an ack ``local`` received from ``remote``.

        The ack covers frames ``local`` previously sent to ``remote``
        (the reverse of the channel the ack arrived on), so it
        releases send-side state of channel ``(local, remote)``.  An
        ack tagged with a stale incarnation epoch is ignored: it
        describes a stream that died with a crash, and applying it
        would wrongly release frames of the fresh stream.

        Besides releasing what it covers, the ack names holes: the
        head it stopped short of, and every frame below the highest
        one ``held`` that is not held itself.  They go out again at
        this instant if past their own deadline -- left more than a
        timeout ago and still not arrived (NewReno's partial-ack rule,
        from the head to every reported hole) -- or if a later frame
        overtook them and they were never resent (RACK's rule).  A
        head with nothing held beyond it waits for its deadline.  No
        retry is charged: the backoff ladder, suspicion and the retry
        cap belong to the timer, which a silent peer still runs into.
        """
        sender = self._senders.get((local, remote))
        if sender is None or sender.epoch != epoch:
            return
        unacked = sender.unacked
        head = sender.next_seq - len(unacked)
        if ack >= head:
            # Frames the ack covers: everything up to it, from the head on.
            for _ in range(min(ack - head + 1, len(unacked))):
                unacked.popleft()
            head = ack + 1
        elif not held:
            return  # nothing released, no hole named
        if not unacked:
            return
        now = self._events.now
        liveness = self._network._liveness
        if (held or unacked[0][2] <= now) and (liveness is None or liveness(remote)):
            stats = self._network.stats
            stop = max(held) if held else ack + 2
            for seq, entry in zip(range(head, stop), unacked):
                if seq not in held and (entry[2] <= now or (held and not entry[3])):
                    stats.retransmits_on_ack += 1
                    self._resend(local, remote, sender, seq, entry)
        # A due head left alone (the peer crashed after acking) is the
        # timer's: it fires now, charges the retry and may suspect.
        self._aim_timer(local, remote, sender, max(unacked[0][2], now))

    def _schedule_ack(
        self, remote_src: int, local_dst: int, receiver: _ReceiverChannel
    ) -> None:
        """Arm the standalone-ack fallback for channel remote->local."""
        if receiver.ack_pending:
            return
        receiver.ack_pending = True
        self._events.push(
            self._events.now + self.config.ack_delay,
            _AckTimer(self, remote_src, local_dst, receiver),
        )

    def _ack_due(
        self, remote_src: int, local_dst: int, receiver: _ReceiverChannel
    ) -> None:
        """Standalone-ack timer body: still owed -> send an AckFrame."""
        receiver.ack_pending = False
        if self._receivers.get((remote_src, local_dst)) is not receiver:
            return  # channel was reset (crash incarnation); stale timer
        if receiver.cumulative <= receiver.ack_sent:
            return  # piggybacked in the meantime; nothing owed
        receiver.ack_sent = receiver.cumulative
        network = self._network
        network.stats.acks += 1
        network._transmit_frame(
            local_dst,
            remote_src,
            AckFrame(receiver.ack_sent, receiver.epoch, receiver.held()),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """Frames sent but not yet covered by a cumulative ack."""
        return sum(len(s.unacked) for s in self._senders.values())

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict state summary for reports and debugging."""
        return {
            "channels": len(self._senders),
            "in_flight": self.in_flight(),
            "reorder_buffered": sum(
                len(r.buffer) for r in self._receivers.values()
            ),
        }


class _RetransmitTimer:
    """A channel's retransmit-timer callback without a per-arm closure.

    A plain class with ``__slots__`` beats a lambda capturing four
    variables on the hot path, and makes the pending-event queue
    introspectable in a debugger.
    """

    __slots__ = ("_transport", "_src", "_dst", "_sender")

    def __init__(
        self, transport: ReliableTransport, src: int, dst: int, sender: _SenderChannel
    ) -> None:
        self._transport = transport
        self._src = src
        self._dst = dst
        self._sender = sender

    def __call__(self) -> None:
        self._transport._retransmit_due(self._src, self._dst, self._sender)


class _AckTimer:
    """Standalone-ack fallback callback; see :class:`_RetransmitTimer`."""

    __slots__ = ("_transport", "_remote", "_local", "_receiver")

    def __init__(
        self,
        transport: ReliableTransport,
        remote_src: int,
        local_dst: int,
        receiver: _ReceiverChannel,
    ) -> None:
        self._transport = transport
        self._remote = remote_src
        self._local = local_dst
        self._receiver = receiver

    def __call__(self) -> None:
        self._transport._ack_due(self._remote, self._local, self._receiver)
