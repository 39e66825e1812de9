"""Reliable delivery over a lossy channel.

The paper's protocols are proved correct only under a reliable,
exactly-once, per-channel FIFO network (Section 4), and the A2
ablation shows the assumption is load-bearing: drops lose updates and
reordering breaks the relayed-split ordering.  A real deployment does
not get that network for free -- it *manufactures* it, the way TCP
manufactures a reliable byte stream over a lossy datagram substrate.

:class:`ReliableTransport` is that manufacture for the simulator.
With a :class:`ReliabilityConfig` among the kernel's layers (the
facades' ``reliability="enforced"``), every logical send is framed
with a per-channel sequence number and travels over the faulty
substrate (fault plan + latency model); the layer then restores each
half of the paper's assumption:

* **exactly once** -- the receiver tracks the per-channel cumulative
  sequence number and a reorder buffer, so duplicate frames (fault
  duplication or retransmission overlap) are suppressed;
* **no loss** -- the sender keeps every frame until it is covered by
  a cumulative ack, retransmitting on a timeout with exponential
  backoff up to a retry cap (exceeding the cap raises
  :class:`ReliabilityError` -- in a simulation that always means the
  timeout/backoff configuration cannot overcome the configured loss
  rate, not bad luck).  With a crash plan active, a *dead* peer is
  instead suspected after ``SUSPECT_RETRIES`` retransmissions: the
  channel is reset and a PeerDown signal fires, because no amount of
  retransmission revives a crash-stopped processor;
* **in order** -- frames arriving ahead of the cumulative sequence
  number are buffered and released only when the gap fills, so
  per-channel FIFO holds even under ``FaultPlan.reorder_p > 0``;
* **acks are cheap** -- a data frame travelling ``dst -> src``
  piggybacks the ack for the reverse channel; only when no reverse
  traffic appears within ``ACK_DELAY`` does a standalone
  :class:`AckFrame` go out (the same piggybacking economics the paper
  applies to lazy relays);
* **acks are selective** -- every ack that goes out anyway, piggybacked
  or standalone, carries next to the cumulative sequence number the
  out-of-order frames the receiver's reorder buffer holds (TCP's SACK
  option, at no frame of its own), so one ack names every hole in the
  window instead of the first.

The state lives in one :class:`_Link` per ordered processor pair
``(local, remote)``: the send half of ``local -> remote``, the receive
half of ``remote -> local`` and the incarnation both ends were in when
the link opened.  A send and an arrival each find their link with one
lookup, and the ack a frame carries out, or brings in, is read off the
same object.

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

A link's two timers -- the retransmit timer and the standalone-ack
fallback -- are callbacks bound when the link opens and pushed on the
simulation's :class:`~repro.sim.events.EventQueue` via the no-handle
``push`` fast path, so nothing is ever cancelled: a retransmit timer
that fires before the head is due re-aims itself, and one superseded
by an earlier aim, or left over from a send half that was reset or a
link that was forgotten, finds that out when it fires and does nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.sim.failure import message_kind
from repro.sim.layer import Layer

if TYPE_CHECKING:
    from repro.sim.network import Network
    from repro.sim.simulator import Kernel
    from repro.sim.tracing import Trace


class ReliabilityError(RuntimeError):
    """A frame exhausted its retransmission budget.

    Under any sane configuration the retry cap is unreachable (the
    chance of ``MAX_RETRIES`` consecutive drops at ``drop_p=0.2`` and
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


#: Time the sender waits for an ack before the first retransmission.
#: It must comfortably exceed one round trip (default transit is 10
#: units each way plus ``ACK_DELAY``).  A frame overtaken by a later
#: one does not wait for it: the ack that reports the later frame held
#: resends it, so a frame reordered past a later one is sent twice,
#: whatever the timeout.
RETRANSMIT_TIMEOUT = 80.0
#: Multiplier applied to the timeout after each retransmission of the
#: same frame.
BACKOFF = 1.5
#: Retransmissions allowed per frame before giving up with
#: :class:`ReliabilityError`.
MAX_RETRIES = 20
#: How long the receiver waits for reverse traffic to piggyback a
#: cumulative ack on before sending a standalone ack frame.
ACK_DELAY = 5.0
#: With a crash plan active: retransmissions tolerated before a *dead*
#: destination is suspected and the channel is reset with a peer-down
#: signal.  Irrelevant without crashes (an alive peer is never
#: suspected; the sender retransmits up to ``MAX_RETRIES``).  Kept
#: small so a crashed peer is given up on within a few timeouts rather
#: than after the full backoff ladder.
SUSPECT_RETRIES = 3


@dataclass(frozen=True)
class ReliabilityConfig(Layer):
    """The reliable-delivery layer.

    Its presence among a kernel's layers *is* enforced mode: the paper's
    assumption is manufactured end-to-end rather than trusted.  It has
    nothing to tune: the timers and budgets are the module constants
    ``RETRANSMIT_TIMEOUT``, ``BACKOFF``, ``MAX_RETRIES``, ``ACK_DELAY``
    and ``SUSPECT_RETRIES``.
    """

    layer = "reliability"

    def install(self, kernel: "Kernel") -> None:
        kernel.network.install_transport()

    def summary(self, kernel: "Kernel", trace: "Trace | None") -> dict[str, Any]:
        """Cost and work of the transport (X5 quantities).

        ``amplification`` is physical frames on the wire per logical
        message.  A logical message may carry several payloads (a
        :class:`~repro.sim.network.Bundle`); ``piggybacked`` counts
        those that rode on another's.  The remaining counters show
        *why*: what the substrate did (dropped/duplicated), what the
        layer absorbed (dup_suppressed/resequenced), and which signal
        put a frame back on the wire (``retransmits_on_ack`` of the
        ``retransmits`` answered an ack that reported the hole; the
        rest waited for the channel timer).
        """
        stats = kernel.network.stats
        return {
            "enabled": True,
            "logical_sent": stats.sent,
            "piggybacked": stats.piggybacked,
            "physical_sent": stats.physical_sent,
            "amplification": stats.physical_sent / stats.sent if stats.sent else 1.0,
            "retransmits": stats.retransmits,
            "retransmits_on_ack": stats.retransmits_on_ack,
            "acks": stats.acks,
            "dropped": stats.dropped,
            "duplicated": stats.duplicated,
            "dup_suppressed": stats.dup_suppressed,
            "resequenced": stats.resequenced,
            "in_flight": kernel.network.transport.in_flight(),
        }


#: ``_Link.timer_at`` while no retransmit timer is armed.
_NEVER = float("inf")
#: What an ack says of an empty reorder buffer (the usual case).
_NOTHING_HELD: frozenset[int] = frozenset()


class DataFrame(NamedTuple):
    """One sequenced transmission of a logical payload.

    ``kind`` delegates to the wrapped payload so that per-kind fault
    plans (``FaultPlan.only_kinds``) and message accounting see the
    logical message, not the framing -- ``by_kind`` counts stay
    comparable between the assumed and enforced modes.

    ``epoch`` is the incarnation pair ``(src, dst)`` of the link that
    sent it: a crash-restart of either endpoint changes it, so
    stragglers from a previous incarnation cannot be confused with the
    fresh stream that also starts at seq 0.  The piggybacked ack
    (``ack`` and ``held``, for the reverse channel) belongs to the same
    link, so the same tag vouches for it.  A frame is a named tuple,
    built in one C call.
    """

    seq: int
    payload: Any
    # Ack for the *reverse* channel, piggybacked: the cumulative
    # sequence number and what the reorder buffer holds beyond it.
    ack: int
    epoch: tuple[int, int] = (0, 0)
    held: frozenset[int] = _NOTHING_HELD

    @property
    def kind(self) -> str:
        return message_kind(self.payload)

    def __repr__(self) -> str:
        return f"DataFrame(seq={self.seq}, ack={self.ack}, payload={self.payload!r})"


class AckFrame(NamedTuple):
    """Standalone ack, sent when no reverse traffic appears.

    Carries no sequence number of its own: cumulative acks are
    monotone and idempotent, so loss, duplication, and reordering of
    ack frames are all harmless (the receiver takes the max), and
    ``held`` -- the out-of-order frames in the receiver's reorder
    buffer when the ack left -- causes at most one early resend of
    each hole it reveals.  ``epoch`` tags it like a data frame: the
    incarnation pair of the link that sent it.
    """

    ack: int
    epoch: tuple[int, int] = (0, 0)
    held: frozenset[int] = _NOTHING_HELD

    kind = "reliable_ack"

    def __repr__(self) -> str:
        return f"AckFrame(ack={self.ack})"


class _Link:
    """The pair of processors ``(local, remote)`` as ``local`` sees it,
    for one incarnation of both ends: the send half of ``local ->
    remote`` and the receive half of ``remote -> local``.

    ``epoch`` tags every frame the link sends; an arriving frame is
    current only if it carries ``peer_epoch``, the same pair seen from
    the other end.  A forgotten link is closed: its timers, bound once
    here, find nothing to do when they fire.
    """

    __slots__ = (
        "transport", "network", "events", "local", "remote", "epoch",
        "peer_epoch", "wire", "land",
        # send half: next seq, the unacked window and its one timer
        "next_seq", "head", "unacked", "timer_at", "retransmit",
        # receive half: cumulative seq, the reorder buffer and its keys
        # as an ack reports them, and the standalone-ack fallback
        "cumulative", "buffer", "held", "ack_pending", "ack_sent", "ack_timer",
    )

    def __init__(
        self, transport: "ReliableTransport", local: int, remote: int,
        epoch: tuple[int, int],
    ) -> None:
        self.transport = transport
        network = self.network = transport._network
        self.events = transport._events
        self.local = local
        self.remote = remote
        self.epoch = epoch
        self.peer_epoch = (epoch[1], epoch[0])
        # Called as wire(frame, land): one crossing of the substrate.
        self.wire = network._frame_wire(local, remote)
        self.land = partial(transport.on_frame, local, remote)
        self._restart_send()
        # Highest seq s such that all frames <= s were delivered.
        self.cumulative = -1
        # Out-of-order frames awaiting the gap to fill: seq -> payload;
        # ``held`` is its keys, rebuilt whenever it changes.
        self.buffer: dict[int, Any] = {}
        self.held = _NOTHING_HELD
        # A standalone-ack timer is armed and has not fired yet.
        self.ack_pending = False
        # Last cumulative value actually transmitted (piggybacked or
        # standalone; never above ``cumulative``); a fired ack timer
        # sends only when behind it.
        self.ack_sent = -1
        self.ack_timer = self._ack_due

    def _restart_send(self) -> None:
        """A fresh send half at seq 0, whose timer ignores the old one's."""
        self.next_seq = 0
        # [payload, retries, deadline, resent] of frames head ..
        # next_seq - 1, oldest (the head) first.
        self.head = 0
        self.unacked: deque[list] = deque()
        # When the one live retransmit timer fires (never after the
        # head's deadline); inf while none is armed.
        self.timer_at = _NEVER
        self.retransmit = partial(self._retransmit_due, self.unacked)

    def close(self) -> None:
        """Forget the link (crash-stop amnesia): nothing it sent is
        retransmitted and nothing it owes is acked."""
        self.unacked.clear()
        self.timer_at = _NEVER
        self.ack_sent = _NEVER  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # send half
    # ------------------------------------------------------------------
    def put(self, seq: int, payload: Any) -> None:
        """Put data frame ``seq`` on the wire with the reverse half's ack."""
        ack = self.ack_sent = self.cumulative
        frame = DataFrame(seq, payload, ack, self.epoch, self.held)
        self.wire(frame, partial(self.land, frame))

    def _resend(self, seq: int, entry: list) -> None:
        """The one place a frame is put back on the wire: the channel
        timer resends a head that is due, an ack the holes it reports."""
        self.network.stats.retransmits += 1
        entry[3] = True
        entry[2] = self.events.now + RETRANSMIT_TIMEOUT * BACKOFF ** entry[1]
        self.put(seq, entry[0])

    def aim(self, deadline: float) -> None:
        """Make sure the channel's timer fires no later than ``deadline``."""
        if deadline < self.timer_at:
            self.timer_at = deadline
            self.events.push(deadline, self.retransmit)

    def _retransmit_due(self, unacked: deque) -> None:
        """Retransmit timer body: the channel's live timer services the head.

        Resends the oldest unacked frame if it is due, else waits for
        it.  Only this path charges a retry, so only here does a frame
        climb the backoff ladder, trip suspicion of a dead peer, or
        exhaust the retry cap: an ack from the peer is proof of life.
        """
        now = self.events.now
        if unacked is not self.unacked or now != self.timer_at:
            return  # a reset send half, a closed link or a superseded aim
        self.timer_at = _NEVER
        if not unacked:
            return  # everything acked; the channel needs no timer
        entry = unacked[0]
        if entry[2] > now:
            self.aim(entry[2])
            return
        src, dst = self.local, self.remote
        liveness = self.network._liveness
        if liveness is not None and not liveness(src):
            # A crashed host transmits nothing and spends no retry;
            # its links are forgotten when it restarts (forget_peer).
            return
        entry[1] += 1
        if liveness is not None and not liveness(dst) and entry[1] > SUSPECT_RETRIES:
            # The peer is crash-stopped: give up on the whole channel
            # (a fresh send half starts at seq 0) and surface a
            # PeerDown signal instead of spinning up the backoff ladder
            # or dying with ReliabilityError.
            lost = [entry[0] for entry in unacked]
            self._restart_send()
            peer_down = self.transport._peer_down
            if peer_down is not None:
                peer_down(src, dst, lost)
            return
        seq = self.head
        if entry[1] > MAX_RETRIES:
            raise ReliabilityError(
                f"channel {src}->{dst} seq {seq} exceeded "
                f"MAX_RETRIES={MAX_RETRIES}; the "
                "retransmit timeout/backoff cannot overcome the fault plan",
                src=src,
                dst=dst,
                seq=seq,
                payload=entry[0],
            )
        self._resend(seq, entry)
        self.aim(entry[2])

    def apply_ack(self, ack: int, held: frozenset[int]) -> None:
        """Process an ack ``remote`` sent for this link's send half.

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
        unacked = self.unacked
        head = self.head
        if ack >= head:
            # Frames the ack covers: everything up to it, from the head on.
            if ack >= self.next_seq - 1:
                unacked.clear()
                self.head = self.next_seq
                return
            for _ in range(ack - head + 1):
                unacked.popleft()
            head = self.head = ack + 1
        elif not held or not unacked:
            return  # nothing released, no hole named
        now = self.events.now
        deadline = unacked[0][2]
        if not held and deadline > now:
            # The head is in flight: at most the timer needs aiming.
            if deadline < self.timer_at:
                self.aim(deadline)
            return
        network = self.network
        liveness = network._liveness
        if liveness is None or liveness(self.remote):
            stats = network.stats
            if not held:
                stats.retransmits_on_ack += 1
                self._resend(head, unacked[0])
            else:
                # The holes: unacked seqs below the highest held, not held.
                top = min(max(held), self.next_seq)
                for seq in sorted(set(range(head, top)) - held):
                    entry = unacked[seq - head]
                    if entry[2] <= now or not entry[3]:
                        stats.retransmits_on_ack += 1
                        self._resend(seq, entry)
        # A due head left alone (the peer crashed after acking) is the
        # timer's: it fires now, charges the retry and may suspect.
        self.aim(max(unacked[0][2], now))

    # ------------------------------------------------------------------
    # receive half
    # ------------------------------------------------------------------
    def _ack_due(self) -> None:
        """Standalone-ack timer body: still owed -> send an AckFrame."""
        self.ack_pending = False
        cumulative = self.cumulative
        if cumulative <= self.ack_sent:
            return  # piggybacked in the meantime, or the link was closed
        self.ack_sent = cumulative
        self.network.stats.acks += 1
        frame = AckFrame(cumulative, self.epoch, self.held)
        self.wire(frame, partial(self.land, frame))


class ReliableTransport:
    """Per-channel reliable delivery state machine.

    Owned by a :class:`~repro.sim.network.Network` once a
    :class:`ReliabilityConfig` is installed; the network remains the
    only thing that touches the wire (latency sampling, fault
    verdicts, accounting): every frame crosses it through
    ``Network._transmit`` and lands on :meth:`on_frame`.
    """

    def __init__(self, network: "Network") -> None:
        self._network = network
        self._events = network._events
        self._links: dict[tuple[int, int], _Link] = {}
        # Crash-restart incarnation per processor; a link's epoch is
        # the incarnation pair of its endpoints when it opened.
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

    def _open(self, a: int, b: int) -> _Link:
        """Open both links of the pair ``a``, ``b``; return ``(a, b)``'s."""
        inc = self._incarnation
        epoch = (inc.get(a, 0), inc.get(b, 0))
        self._links[(b, a)] = _Link(self, b, a, (epoch[1], epoch[0]))
        link = self._links[(a, b)] = _Link(self, a, b, epoch)
        return link

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Frame and transmit one logical message on channel src->dst."""
        link = self._links.get((src, dst)) or self._open(src, dst)
        seq = link.next_seq
        link.next_seq = seq + 1
        deadline = self._events.now + RETRANSMIT_TIMEOUT
        link.unacked.append([payload, 0, deadline, False])
        link.put(seq, payload)
        if seq == link.head:  # frames behind the head arm nothing
            link.aim(deadline)

    def on_frame(self, src: int, dst: int, frame: Any) -> None:
        """A physical frame survived the substrate and arrived at dst."""
        link = self._links.get((dst, src))
        if link is None or frame.epoch != link.peer_epoch:
            # Straggler from a previous incarnation of the pair (either
            # endpoint crash-restarted since it was sent): its sequence
            # numbers and its ack mean nothing to the fresh streams.
            return
        # A standalone ack, or one riding on a data frame for the reverse
        # channel: only one that releases a frame or names a hole acts.
        ack, held = frame.ack, frame.held
        if held or ack >= link.head:
            link.apply_ack(ack, held)
        if type(frame) is AckFrame:
            return
        network = self._network
        seq = frame.seq
        buffer = link.buffer
        if seq == link.cumulative + 1:
            # In order: deliver, then drain whatever the gap was hiding.
            link.cumulative = seq
            network._land(dst, frame.payload)
            if seq + 1 in buffer:
                while seq + 1 in buffer:
                    seq += 1
                    link.cumulative = seq
                    network._land(dst, buffer.pop(seq))
                link.held = frozenset(buffer) if buffer else _NOTHING_HELD
        elif seq <= link.cumulative or seq in buffer:
            # Duplicate (fault duplication or a retransmission racing
            # its own ack): suppress, and *force* a re-ack -- a
            # retransmission of something we already hold usually
            # means our previous ack was lost on the way back, so
            # "already acked that" must not stand down the ack timer.
            network.stats.dup_suppressed += 1
            link.ack_sent = -1
        else:
            # Ahead of the gap: park it.  FIFO is restored when the
            # missing frames arrive (or are retransmitted).
            buffer[seq] = frame.payload
            link.held = frozenset(buffer)
            network.stats.resequenced += 1
        if not link.ack_pending:
            # Arm the standalone-ack fallback.
            link.ack_pending = True
            events = self._events
            events.push(events.now + ACK_DELAY, link.ack_timer)

    def forget_peer(self, pid: int) -> None:
        """Forget every link touching ``pid``: crash-stop amnesia.

        Called when ``pid`` *restarts*: its own send/receive state
        died with the crash, and the surviving peers' state about it
        describes streams the fresh incarnation knows nothing about.
        Bumping the incarnation retags all future links so straggler
        frames (or retransmissions) from the previous incarnation are
        discarded by the epoch check rather than colliding with new
        streams that also start at seq 0.
        """
        self._incarnation[pid] = self._incarnation.get(pid, 0) + 1
        for pair in [pair for pair in self._links if pid in pair]:
            self._links.pop(pair).close()

    def in_flight(self) -> int:
        """Frames sent but not yet covered by a cumulative ack."""
        return sum(len(link.unacked) for link in self._links.values())
