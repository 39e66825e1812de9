"""Reliable FIFO network model with message accounting.

The paper's standing assumption (Section 4): *"the network is
reliable, delivering every message exactly once in order."*  The
:class:`Network` enforces per-channel FIFO delivery regardless of the
latency model by never scheduling a delivery earlier than the
previously scheduled delivery on the same (src, dst) channel.

The assumption can be *held* two ways (the ``reliability`` mode):

* ``"assumed"`` (default) -- the substrate itself is reliable, as the
  paper posits; a fault plan, if any, punches holes straight through
  to the protocols (the A2 ablation).
* ``"enforced"`` -- every logical send travels through the
  :class:`~repro.sim.reliable.ReliableTransport` layer (sequence
  numbers, dedup, cumulative acks, retransmission, resequencing),
  which rebuilds exactly-once FIFO delivery *end-to-end* over
  whatever the substrate drops, duplicates, or reorders.

Every message is counted by *kind* (the class name of the payload, or
an explicit ``kind`` attribute), which is how the benchmarks measure
the paper's message-complexity claims (e.g. the semi-synchronous split
protocol using |copies| messages per split versus ~3|copies| for the
synchronous protocol).

Several logical messages to one processor may travel as one
:class:`Bundle` (everything one action sends there, or a batch of
relays): one wire message, one fault verdict, one reliable frame, one
dead letter.  Where it lands it is unpacked, so the permuter and the
processor queue see each item on its own.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, NamedTuple, Protocol

from repro.sim.events import EventQueue
from repro.sim.reliable import (
    RELIABILITY_MODES,
    ReliabilityConfig,
    ReliableTransport,
)

#: Message-accounting modes: ``"full"`` keeps the per-kind and
#: per-channel Counters, ``"aggregate"`` only the scalar totals
#: (sent/delivered/dropped/duplicated/...).  Large perf runs use
#: aggregate; everything that audits message complexity needs full
#: (the default).
ACCOUNTING_MODES = ("full", "aggregate")


class LatencyModel(Protocol):
    """Strategy deciding the transit time of a message."""

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        """Return the network transit time from ``src`` to ``dst``."""
        ...


@dataclass(frozen=True)
class UniformLatency:
    """Fixed latency for every remote hop.

    ``jitter`` > 0 adds a uniform random component in [0, jitter);
    FIFO order is still enforced by the network layer.
    """

    base: float = 10.0
    jitter: float = 0.0

    @property
    def fixed_latency(self) -> float | None:
        """Constant transit time, when the model degenerates to one."""
        return self.base if self.jitter <= 0 else None

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        if self.jitter <= 0:
            return self.base
        return self.base + rng.uniform(0.0, self.jitter)


@dataclass(frozen=True)
class LogNormalLatency:
    """Heavy-tailed transit times, the shape real networks show.

    ``median`` is the 50th-percentile latency; ``sigma`` controls the
    tail (0 degenerates to a constant).  Per-channel FIFO is still
    enforced by the network layer, so a straggler delays everything
    behind it on its channel -- which is exactly how a FIFO transport
    behaves.
    """

    median: float = 10.0
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError(f"median must be positive, got {self.median}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")

    @property
    def fixed_latency(self) -> float | None:
        """Constant transit time, when the model degenerates to one."""
        return self.median if self.sigma == 0 else None

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        if self.sigma == 0:
            return self.median
        import math

        return self.median * math.exp(rng.gauss(0.0, self.sigma))


@dataclass(frozen=True)
class TopologyLatency:
    """Latency derived from a per-pair table with a default fallback.

    Useful for modelling clustered processors (cheap intra-rack,
    expensive inter-rack) in the locality experiments.
    """

    pairs: dict[tuple[int, int], float]
    default: float = 10.0

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        return self.pairs.get((src, dst), self.default)


class Bundle:
    """Logical messages for one processor that travel as one message.

    The items are handed to the processor one by one, in order, each
    its own action.  Paper, Section 1.1: the lazy update "can be
    piggybacked onto messages used for other purposes".
    """

    __slots__ = ("items",)

    kind = "bundle"

    def __init__(self, items: list[Any]) -> None:
        self.items = items

    @staticmethod
    def join(held: Any, payload: Any) -> "Bundle":
        """``payload`` after ``held`` (a payload or a bundle), as one."""
        if type(held) is Bundle:
            held.items.append(payload)
            return held
        return Bundle([held, payload])

    def __repr__(self) -> str:
        return f"Bundle({self.items!r})"


@dataclass
class NetworkStats:
    """Aggregate message accounting, reset-able between phases.

    ``sent``, ``delivered`` and ``by_channel`` count messages put on
    the wire; a :class:`Bundle` counts once.  ``by_kind`` counts the
    *logical* messages (the payloads protocols exchange), a bundle's
    items one by one, and ``piggybacked`` the items that rode on
    another's message, so ``sum(by_kind.values()) == sent +
    piggybacked``.  The reliable-delivery layer's extra wire traffic
    is broken out separately: ``retransmits`` (extra physical
    transmissions of a data frame; ``retransmits_on_ack`` is how many
    of them an ack asked for -- holes past their deadline and holes a
    later frame overtook -- the rest the channel timer), ``acks``
    (standalone ack frames; piggybacked acks are free),
    ``dup_suppressed`` (arrivals the
    receiver discarded as already-delivered), and ``resequenced``
    (arrivals parked in the reorder buffer until the gap filled).
    ``dropped``/``duplicated`` count substrate fault verdicts in both
    reliability modes.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    retransmits: int = 0
    retransmits_on_ack: int = 0
    acks: int = 0
    dup_suppressed: int = 0
    resequenced: int = 0
    #: messages/frames that arrived at a crashed processor and were
    #: discarded (datagrams to a dead host are not counted).
    dead_letters: int = 0
    #: messages/frames silently swallowed by an active partition cut
    #: (:mod:`repro.sim.partition`); indistinguishable from loss at
    #: the sender, which is the point.
    partition_blocked: int = 0
    #: logical messages that travelled inside another's :class:`Bundle`.
    piggybacked: int = 0
    by_kind: Counter = field(default_factory=Counter)
    by_channel: Counter = field(default_factory=Counter)

    @property
    def physical_sent(self) -> int:
        """Frames actually put on the wire (the enforcement overhead).

        Sends plus retransmissions plus standalone acks; in
        ``"assumed"`` mode this equals ``sent``.
        """
        return self.sent + self.retransmits + self.acks

    def snapshot(self) -> dict[str, Any]:
        """Return a plain-dict copy suitable for reports."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "retransmits": self.retransmits,
            "retransmits_on_ack": self.retransmits_on_ack,
            "acks": self.acks,
            "dup_suppressed": self.dup_suppressed,
            "resequenced": self.resequenced,
            "dead_letters": self.dead_letters,
            "partition_blocked": self.partition_blocked,
            "piggybacked": self.piggybacked,
            "physical_sent": self.physical_sent,
            "by_kind": dict(self.by_kind),
            "by_channel": dict(self.by_channel),
        }


def message_kind(payload: Any) -> str:
    """The accounting label of a message payload.

    Payloads may expose an explicit ``kind`` attribute (the action
    classes do); otherwise the class name is used.
    """
    kind = getattr(payload, "kind", None)
    if isinstance(kind, str):
        return kind
    return type(payload).__name__


class Traffic(NamedTuple):
    """The three facts that tell one class of transmission from another.

    Everything else about crossing the substrate -- the partition
    judge, latency, gray inflation, scheduling -- is common to all
    traffic and lives in :meth:`Network._transmit`.
    """

    #: Does the fault plan judge each transmission?
    judged: bool
    #: Is it held to per-channel FIFO order by the channel clock?
    fifo: bool
    #: Is one addressed to a crashed host counted as a dead letter?
    dead_letter: bool


#: Logical messages on the ``"assumed"`` substrate.  The fault plan,
#: if any, punches straight through to the protocols (A2).
LOGICAL = Traffic(judged=True, fifo=True, dead_letter=True)
#: Reliable-transport frames (``"enforced"``).  Judged afresh per
#: (re)transmission like real packets, and never clamped: ordering is
#: the transport's job, via sequence numbers and resequencing, so
#: frames race freely -- which is what makes the enforcement
#: end-to-end rather than cosmetic.
FRAME = Traffic(judged=True, fifo=False, dead_letter=True)
#: Failure-detector heartbeats.  A lost heartbeat is *information*, so
#: no fault plan; it must not queue behind the traffic whose absence
#: it reveals, so no clamp; and a dead host reads nothing, not even a
#: dead letter.
DATAGRAM = Traffic(judged=False, fifo=False, dead_letter=False)

#: The verdict of a substrate nobody is judging: one copy, on time.
_UNJUDGED = ((False, 0.0),)


class Network:
    """Reliable, exactly-once, per-channel FIFO message transport.

    Deliveries invoke the ``deliver(dst, payload)`` callback installed
    by the kernel.  Every layer that breaks or re-manufactures the
    paper's reliability sentence does so at one point, a transmission
    crossing the substrate (:meth:`_transmit`) and landing at its
    host (:meth:`_arrive`); :meth:`send`, :meth:`send_datagram` and
    the reliable transport's frames are the three kinds of
    :class:`Traffic` that cross it.  Which layers may be installed
    together is decided where they are assembled
    (:func:`repro.sim.simulator.check_layers`), not here.
    """

    def __init__(
        self,
        events: EventQueue,
        latency_model: LatencyModel | None = None,
        rng: random.Random | None = None,
        fault_plan: "FaultPlanLike | None" = None,
        accounting: str = "full",
        reliability: str = "assumed",
        reliability_config: ReliabilityConfig | None = None,
    ) -> None:
        if accounting not in ACCOUNTING_MODES:
            raise ValueError(
                f"accounting must be one of {ACCOUNTING_MODES}, got {accounting!r}"
            )
        if reliability not in RELIABILITY_MODES:
            raise ValueError(
                f"reliability must be one of {RELIABILITY_MODES}, "
                f"got {reliability!r}"
            )
        self._events = events
        self._latency_model = latency_model or UniformLatency()
        if rng is None:
            # Standalone construction (unit tests, ad-hoc tools): a
            # fixed default is fine, but never *silent* -- the seed is
            # recorded here so a run can report every stream it used.
            # The kernel always passes an rng derived from the root
            # seed and records it in its own seed ledger.
            self.rng_seed: int | None = 0
            rng = random.Random(0)
        else:
            self.rng_seed = None  # caller-owned; recorded by the caller
        self._rng = rng
        self._fault_plan = fault_plan
        self._deliver: Callable[[int, Any], None] | None = None
        self.accounting = accounting
        self._count_kinds = accounting == "full"
        self.reliability = reliability
        self.transport: ReliableTransport | None = (
            ReliableTransport(self, reliability_config)
            if reliability == "enforced"
            else None
        )
        # Constant transit time, when the latency model admits one;
        # lets a transmission skip the strategy call entirely.
        self._fixed_latency: float | None = getattr(
            self._latency_model, "fixed_latency", None
        )
        # A plain substrate: no fault plan, partition or liveness
        # oracle, and one fixed transit time (see _transmit).
        self._plain = fault_plan is None and self._fixed_latency is not None
        # Last *scheduled* delivery time per channel; FIFO enforcement.
        self._channel_clock: dict[tuple[int, int], float] = {}
        # Where each landed logical message goes: straight to the
        # processor, or to the schedule permuter (repro.sim.permute)
        # once installed.
        self._receive: Callable[[int, Any], None] | None = None
        #: A kind-restricted fault plan is an instrument on logical
        #: messages: it judges each on its own, so a bundle is sent as
        #: its items (see :meth:`send`).
        self.judges_kinds = bool(getattr(fault_plan, "only_kinds", None))
        # Liveness oracle (repro.sim.crash) and partition controller
        # (repro.sim.partition); None until a plan installs them, so
        # the default path never pays for either.
        self._liveness: Callable[[int], bool] | None = None
        self._partition = None
        self.stats = NetworkStats()

    def install_delivery(self, deliver: Callable[[int, Any], None]) -> None:
        """Install the callback invoked on message arrival."""
        self._deliver = deliver
        if self._receive is None:
            self._receive = deliver

    def install_liveness(self, liveness: Callable[[int], bool]) -> None:
        """Teach the network which destinations are alive.

        From now on every transmission lands via :meth:`_arrive`: one
        addressed to a crashed processor is discarded (retransmission
        and suspicion are the reliable layer's problem).
        """
        self._liveness = liveness
        self._plain = False

    def install_permuter(self, permuter: Any) -> None:
        """Land logical messages on a schedule permuter.

        The permuter holds and swaps arrivals, a bundle's items one by
        one, then hands each to the processor.
        """
        self._receive = permuter.on_arrival
        permuter.install_deliver(lambda dst, payload: self._deliver(dst, payload))

    def install_partition(self, controller: Any) -> None:
        """Route every transmission past a partition controller.

        The controller's ``judge(src, dst)`` is consulted per logical
        message (assumed mode) or per physical frame (enforced mode,
        so retransmissions into a cut are swallowed afresh, exactly
        like real packets): a cut link drops the transmission
        silently, a gray link multiplies its transit time.
        """
        self._partition = controller
        self._plain = False

    def reset_stats(self) -> None:
        """Zero the accounting counters (e.g. after a warm-up phase)."""
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    # the three kinds of traffic
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any) -> None:
        """Send ``payload`` from processor ``src`` to processor ``dst``.

        Local sends (src == dst) are not network messages in the
        paper's cost model; callers should enqueue locally instead.
        Sending to self is treated as a bug to keep the accounting
        honest.  A :class:`Bundle` is one message, unless a
        kind-restricted fault plan is installed: that plan is an
        instrument on logical messages, so each item then goes alone.
        """
        if self._deliver is None:
            raise RuntimeError("network has no delivery callback installed")
        if src == dst:
            raise ValueError(
                f"processor {src} attempted a network send to itself; "
                "local actions must be enqueued locally"
            )

        stats = self.stats
        land = self._hand_off
        if type(payload) is Bundle:
            items = payload.items
            if self.judges_kinds:
                for item in items:
                    self.send(src, dst, item)
                return
            stats.piggybacked += len(items) - 1
            if self._count_kinds:
                for item in items:
                    stats.by_kind[message_kind(item)] += 1
                stats.by_channel[(src, dst)] += 1
            land = self._unpack
        elif self._count_kinds:
            stats.by_kind[message_kind(payload)] += 1
            stats.by_channel[(src, dst)] += 1
        stats.sent += 1

        if self.transport is not None:
            # Enforced mode: the reliable layer frames the payload and
            # owns ordering/dedup; each physical frame crosses the
            # substrate through _transmit_frame.
            self.transport.send(src, dst, payload)
        else:
            self._transmit(src, dst, payload, partial(land, dst, payload), LOGICAL)

    def send_datagram(
        self,
        src: int,
        dst: int,
        payload: Any,
        deliver: Callable[[int, Any], None],
    ) -> None:
        """Fire-and-forget delivery outside the logical message path.

        Heartbeats must not queue behind the traffic whose absence
        they are supposed to reveal, so datagrams bypass the reliable
        transport (no framing, no retransmission) and the message
        accounting, and cross the substrate as :data:`DATAGRAM`
        traffic.  Partition cuts, gray inflation, and crash-stop
        liveness still apply: a datagram to an unreachable or dead
        destination vanishes.

        Delivery invokes ``deliver(dst, payload)`` directly rather
        than the processor queue: reading a heartbeat costs no
        service time and survives queue saturation, like a kernel
        timestamping a packet before the application gets scheduled.
        """
        self._transmit(src, dst, payload, partial(deliver, dst, payload), DATAGRAM)

    def _transmit_frame(self, src: int, dst: int, frame: Any) -> None:
        """Put one physical frame of the reliable transport on the wire."""
        on_frame = self.transport.on_frame  # type: ignore[union-attr]
        self._transmit(src, dst, frame, partial(on_frame, src, dst, frame), FRAME)

    # ------------------------------------------------------------------
    # the wire: one crossing, one landing
    # ------------------------------------------------------------------
    def _transmit(
        self,
        src: int,
        dst: int,
        payload: Any,
        land: Callable[[], None],
        traffic: Traffic,
    ) -> None:
        """One transmission crosses the substrate; ``land()`` runs on arrival.

        The order of judgement is fixed, and with it the order of rng
        draws: the partition judge first (a cut link swallows the
        transmission and draws nothing), then the fault plan's
        verdicts (drop / duplicate / delay, all drawn before any
        latency), then one latency draw per surviving verdict in
        verdict order, inflated by the link's gray factor.  A
        fixed-latency model on an unjudged substrate draws nothing.

        On a plain substrate nothing is judged or drawn, and every
        transmission lands the same time after it leaves, so channel
        FIFO holds without the channel clock: the transmission is one
        push.  This is the path every message of a bare run takes.
        """
        if self._plain:
            self._events.push(self._events.now + self._fixed_latency, land)
            return
        judged, fifo, dead_letter = traffic
        gray = 1.0
        if self._partition is not None:
            up, gray = self._partition.judge(src, dst)
            if not up:
                self.stats.partition_blocked += 1
                return
        if judged and self._fault_plan is not None:
            verdicts = self._fault_plan.judge(src, dst, payload, self._rng)
        else:
            verdicts = _UNJUDGED
        if self._liveness is not None:
            land = partial(self._arrive, dst, dead_letter, land)
        events = self._events
        for dropped, extra_delay in verdicts:
            if dropped:
                self.stats.dropped += 1
                continue
            transit = self._fixed_latency
            if transit is None:
                transit = self._latency_model.latency(src, dst, self._rng)
            arrival = events.now + (transit * gray + extra_delay)
            if fifo and extra_delay <= 0:
                # Never before the channel's previous delivery.  A
                # delayed (reorder/duplicate) verdict neither obeys
                # nor advances the channel clock; escaping FIFO is
                # the point of that fault injection.
                channel = (src, dst)
                floor = self._channel_clock.get(channel)
                if floor is not None and floor > arrival:
                    arrival = floor
                self._channel_clock[channel] = arrival
            events.push(arrival, land)
        if len(verdicts) > 1:
            self.stats.duplicated += len(verdicts) - 1

    def _arrive(self, dst: int, dead_letter: bool, land: Callable[[], None]) -> None:
        """A transmission reaches ``dst``'s host, which may have crashed.

        Crash-stop: whatever is addressed to a dead processor is lost
        on the floor; the sender's retransmission timer (and
        eventually its retry-cap suspicion) or the operation timeout
        deals with it.
        """
        if self._liveness(dst):  # type: ignore[misc]
            land()
        elif dead_letter:
            self.stats.dead_letters += 1

    def _hand_off(self, dst: int, payload: Any) -> None:
        """Hand an in-order, exactly-once logical payload to its processor."""
        self.stats.delivered += 1
        self._receive(dst, payload)  # type: ignore[misc]

    def _unpack(self, dst: int, bundle: Bundle) -> None:
        """A bundle lands: one message, its items handed on in order."""
        self.stats.delivered += 1
        receive = self._receive
        for item in bundle.items:
            receive(dst, item)  # type: ignore[misc]

    def _land(self, dst: int, payload: Any) -> None:
        """Hand on what the reliable transport releases, in order."""
        if type(payload) is Bundle:
            self._unpack(dst, payload)
        else:
            self._hand_off(dst, payload)


class FaultPlanLike(Protocol):
    """Interface the network expects from a fault plan."""

    def judge(
        self, src: int, dst: int, payload: Any, rng: random.Random
    ) -> tuple[tuple[bool, float], ...]:
        """Decide fate of a message: tuple of (dropped, extra_delay)."""
        ...
