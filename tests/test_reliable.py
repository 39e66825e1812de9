"""The reliable-delivery layer: manufacturing the network assumption.

Unit tests drive a raw :class:`Network` in ``"enforced"`` mode over
hostile fault plans and assert the paper's assumption is restored
end-to-end (exactly-once, per-channel FIFO, nothing lost); cluster
tests assert the protocols therefore stay audit-clean on substrates
that demonstrably break them in ``"assumed"`` mode; regression tests
pin the default mode to the old behaviour byte-for-byte.
"""

import dataclasses
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import landing, run_insert_workload
from repro import (
    CrashPlan,
    DBTreeCluster,
    FaultPlan,
    ReliabilityConfig,
    ReliabilityError,
)
from repro.sim import reliable
from repro.sim.events import EventQueue
from repro.sim.network import Network, UniformLatency
from repro.sim.reliable import AckFrame, DataFrame, _Link
from repro.sim.simulator import Kernel
from repro.stats import layer_report


def make_net(
    fault_plan=None,
    jitter=0.0,
    seed=0,
    accounting="full",
):
    events = EventQueue()
    net = Network(
        events,
        latency_model=UniformLatency(base=10.0, jitter=jitter),
        rng=random.Random(seed),
        accounting=accounting,
    )
    if fault_plan is not None:
        net.install_faults(fault_plan)
    net.install_transport()
    delivered = []
    net.install_delivery(
        landing(lambda dst, payload: delivered.append((events.now, dst, payload)))
    )
    return events, net, delivered


def payloads(delivered, dst):
    return [p for _t, d, p in delivered if d == dst]


class TestConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="reliability"):
            DBTreeCluster(reliability="hopeful")


class TestExactlyOnceFifo:
    """The three restored guarantees, one hostile substrate each."""

    def test_survives_drops(self):
        events, net, delivered = make_net(FaultPlan(drop_p=0.3), seed=2)
        for i in range(150):
            net.send(0, 1, i)
        events.run()
        assert payloads(delivered, 1) == list(range(150))
        assert net.stats.retransmits > 0
        assert net.stats.dropped > 0

    def test_survives_reordering(self):
        events, net, delivered = make_net(
            FaultPlan(reorder_p=0.4, reorder_delay=120.0), seed=2
        )
        for i in range(150):
            net.send(0, 1, i)
        events.run()
        assert payloads(delivered, 1) == list(range(150))
        assert net.stats.resequenced > 0

    def test_suppresses_duplicates(self):
        events, net, delivered = make_net(FaultPlan(duplicate_p=0.5), seed=2)
        for i in range(150):
            net.send(0, 1, i)
        events.run()
        assert payloads(delivered, 1) == list(range(150))
        assert net.stats.dup_suppressed > 0

    def test_survives_everything_at_once(self):
        events, net, delivered = make_net(
            FaultPlan(drop_p=0.2, duplicate_p=0.3, reorder_p=0.2), seed=4
        )
        for i in range(120):
            net.send(0, 1, i)
            net.send(1, 0, ("rev", i))
        events.run()
        assert payloads(delivered, 1) == list(range(120))
        assert payloads(delivered, 0) == [("rev", i) for i in range(120)]
        stats = net.stats
        assert stats.delivered == stats.sent == 240
        assert stats.physical_sent > stats.sent

    def test_fifo_restored_over_jittery_substrate(self):
        # No fault plan at all: latency jitter alone reorders frames
        # on the wire, and the resequencer still delivers in order.
        events, net, delivered = make_net(jitter=40.0, seed=6)
        for i in range(100):
            net.send(0, 1, i)
        events.run()
        assert payloads(delivered, 1) == list(range(100))

    def test_channels_are_sequenced_independently(self):
        events, net, delivered = make_net(FaultPlan(drop_p=0.3), seed=9)
        for i in range(60):
            net.send(0, 1, ("a", i))
            net.send(2, 1, ("b", i))
        events.run()
        got = payloads(delivered, 1)
        assert [x for x in got if x[0] == "a"] == [("a", i) for i in range(60)]
        assert [x for x in got if x[0] == "b"] == [("b", i) for i in range(60)]


class TestRetransmission:
    def test_clean_substrate_never_retransmits(self):
        # Fixed latency, no faults: acks return well inside the
        # timeout, so enforcement costs acks only.
        events, net, delivered = make_net()
        for i in range(50):
            events.schedule(float(i), lambda i=i: net.send(0, 1, i))
        events.run()
        assert payloads(delivered, 1) == list(range(50))
        assert net.stats.retransmits == 0
        assert net.stats.acks > 0

    def test_piggybacked_acks_replace_standalone(self, monkeypatch):
        monkeypatch.setattr(reliable, "ACK_DELAY", 30.0)

        def standalone_acks(reverse_traffic):
            events, net, delivered = make_net()
            for i in range(50):
                events.schedule(float(i) * 2, lambda i=i: net.send(0, 1, i))
                if reverse_traffic:
                    events.schedule(
                        float(i) * 2 + 1, lambda i=i: net.send(1, 0, ("r", i))
                    )
            events.run()
            return net.stats.acks

        # With steady reverse traffic the cumulative ack rides data
        # frames; without it every ack is a standalone frame.
        assert standalone_acks(True) < standalone_acks(False)

    def test_retry_cap_raises(self, monkeypatch):
        monkeypatch.setattr(reliable, "RETRANSMIT_TIMEOUT", 5.0)
        monkeypatch.setattr(reliable, "BACKOFF", 1.0)
        monkeypatch.setattr(reliable, "MAX_RETRIES", 3)
        events, net, _delivered = make_net(FaultPlan(drop_p=1.0))
        net.send(0, 1, "doomed")
        with pytest.raises(ReliabilityError, match="MAX_RETRIES"):
            events.run()

    def test_backoff_spreads_retransmissions(self, monkeypatch):
        # Everything drops, so the cap must trip -- at the virtual
        # time the exponential schedule predicts: retransmissions at
        # 10, 30, 70, 150, and the 5th deadline (10+20+40+80+160=310)
        # finds the attempt budget spent.
        monkeypatch.setattr(reliable, "RETRANSMIT_TIMEOUT", 10.0)
        monkeypatch.setattr(reliable, "BACKOFF", 2.0)
        monkeypatch.setattr(reliable, "MAX_RETRIES", 4)
        events, net, _delivered = make_net(FaultPlan(drop_p=1.0))
        net.send(0, 1, "x")
        with pytest.raises(ReliabilityError):
            events.run()
        assert events.now == pytest.approx(310.0)
        assert net.stats.retransmits == 4

    def test_head_blocking_does_not_spam_retransmits(self):
        # Only the oldest unacked frame retransmits on timeout; the
        # frames buffered behind one lost head must not each resend
        # (that would be go-back-N amplification).
        class DropFirstTransmission:
            def __init__(self):
                self.armed = True

            def judge(self, src, dst, payload, rng):
                if self.armed:
                    self.armed = False
                    return ((True, 0.0),)
                return ((False, 0.0),)

        events, net, delivered = make_net(DropFirstTransmission())
        net.send(0, 1, "head")  # dropped once; retransmitted at t=80
        for i in range(30):
            net.send(0, 1, i)  # arrive at t=10 and buffer behind it
        events.run()
        assert payloads(delivered, 1) == ["head"] + list(range(30))
        assert net.stats.retransmits == 1
        assert net.stats.resequenced == 30


class ScriptedWire:
    """Fault plan and latency model in one: a wire with a script.

    Drops the first ``drops[seq]`` transmissions of data frame ``seq``
    on channel 0->1, gives ``slow[seq]`` as the transit time of that
    frame's first transmission (10 otherwise), and logs every frame put
    on the wire as ``(time, src, dst, frame)``.
    """

    def __init__(self, events, drops=(), slow=()):
        self.events = events
        self.drops = dict(drops)
        self.slow = dict(slow)
        self.log = []
        self._transit = 10.0

    def judge(self, src, dst, frame, rng):
        self.log.append((self.events.now, src, dst, frame))
        self._transit = 10.0
        if type(frame) is DataFrame and (src, dst) == (0, 1):
            if self.drops.get(frame.seq, 0) > 0:
                self.drops[frame.seq] -= 1
                return ((True, 0.0),)
            self._transit = self.slow.pop(frame.seq, 10.0)
        return ((False, 0.0),)

    def latency(self, src, dst, rng):
        return self._transit

    def sent(self, seq):
        """Times at which data frame ``seq`` of channel 0->1 went out."""
        return [
            t
            for t, src, dst, frame in self.log
            if type(frame) is DataFrame and (src, dst) == (0, 1) and frame.seq == seq
        ]


def make_scripted(**script):
    events = EventQueue()
    wire = ScriptedWire(events, **script)
    net = Network(events, latency_model=wire)
    net.install_faults(wire)
    net.install_transport()
    delivered = []
    net.install_delivery(
        landing(lambda dst, payload: delivered.append((events.now, dst, payload)))
    )
    return events, net, wire, delivered


class TestChannelTimer:
    """One retransmit timer per channel, aimed at the head's deadline."""

    def test_parked_frames_cost_no_events(self):
        # A head dropped three times is resent at 80, 200 and 380; the
        # 200 frames behind it sit in the reorder buffer from t=10 on.
        # They cost their own arrival and nothing else: no timer of
        # their own, no poll per timeout while the head recovers.
        events, net, wire, delivered = make_scripted(drops={0: 3})
        for i in range(201):
            net.send(0, 1, i)
        ran = events.run()
        assert payloads(delivered, 1) == list(range(201))
        assert wire.sent(0) == [0.0, 80.0, 200.0, 380.0]
        assert net.stats.retransmits == 3
        assert ran <= 2 * 201 + 20

    def test_hole_is_resent_when_the_ack_exposes_it(self):
        events, net, wire, delivered = make_scripted(drops={0: 1, 5: 1})
        for i in range(10):
            net.send(0, 1, i)
        events.run()
        # seq 0 goes again at its deadline and lands at 90, releasing
        # 0..4; the ack for them goes out at 95 and lands at 105, which
        # is when seq 5 -- due since 80 -- is sent again, not at some
        # later poll.
        [(ack_sent_at, *_)] = [
            entry
            for entry in wire.log
            if type(entry[3]) is AckFrame and entry[3].ack == 4
        ]
        assert wire.sent(0) == [0.0, 80.0]
        assert wire.sent(5) == [0.0, ack_sent_at + 10.0] == [0.0, 105.0]
        assert delivered == [(90.0, 1, i) for i in range(5)] + [
            (115.0, 1, i) for i in range(5, 10)
        ]
        assert net.stats.retransmits == 2
        assert net.stats.dup_suppressed == 0

    def test_exposed_head_not_yet_due_is_not_resent(self):
        # seq 1 leaves at 70 on a slow path (lands at 130, due at 150).
        # The ack for seq 0 exposes it at 105, inside its timeout: it
        # is in flight, not lost, and must be left alone.
        events, net, wire, delivered = make_scripted(drops={0: 1}, slow={1: 60.0})
        net.send(0, 1, "head")
        events.schedule(70.0, lambda: net.send(0, 1, "late"))
        events.run()
        assert wire.sent(0) == [0.0, 80.0]
        assert wire.sent(1) == [70.0]
        assert delivered == [(90.0, 1, "head"), (130.0, 1, "late")]
        assert net.stats.retransmits == 1
        assert net.stats.dup_suppressed == 0

    def test_exposed_head_is_resent_at_its_own_deadline(self):
        # Same, but seq 1 really is lost: exposed at 105 with 45 vt of
        # its timeout left, it goes again at 150 -- the channel timer
        # (then aimed at seq 0's second deadline, 200) is re-aimed.
        events, net, wire, delivered = make_scripted(drops={0: 1, 1: 1})
        net.send(0, 1, "head")
        events.schedule(70.0, lambda: net.send(0, 1, "lost"))
        events.run()
        assert wire.sent(1) == [70.0, 150.0]
        assert delivered == [(90.0, 1, "head"), (160.0, 1, "lost")]

    def test_retry_cap_names_the_head_with_frames_parked_behind_it(
        self, monkeypatch
    ):
        # The schedule test_backoff_spreads_retransmissions pins, with
        # five frames behind the doomed head: same instant, same
        # count, and the error carries the head.
        monkeypatch.setattr(reliable, "RETRANSMIT_TIMEOUT", 10.0)
        monkeypatch.setattr(reliable, "BACKOFF", 2.0)
        monkeypatch.setattr(reliable, "MAX_RETRIES", 4)
        events, net, _delivered = make_net(FaultPlan(drop_p=1.0))
        for i in range(6):
            net.send(0, 1, ("p", i))
        with pytest.raises(ReliabilityError) as caught:
            events.run()
        error = caught.value
        assert (error.src, error.dst, error.seq) == (0, 1, 0)
        assert error.payload == ("p", 0)
        assert events.now == pytest.approx(310.0)
        assert net.stats.retransmits == 4

    def test_dead_peer_is_suspected_with_its_lost_payloads(self, monkeypatch):
        monkeypatch.setattr(reliable, "RETRANSMIT_TIMEOUT", 10.0)
        monkeypatch.setattr(reliable, "BACKOFF", 1.0)
        monkeypatch.setattr(reliable, "SUSPECT_RETRIES", 2)
        events, net, wire, delivered = make_scripted()
        net.install_liveness(lambda pid: pid != 1)
        downs = []
        net.transport.install_peer_down(
            lambda src, dst, lost: downs.append((events.now, src, dst, lost))
        )
        for payload in "abc":
            net.send(0, 1, payload)
        events.run()
        # Resent at 10 and 20; the third deadline finds the budget for
        # a dead peer spent and gives the whole channel up.
        assert wire.sent(0) == [0.0, 10.0, 20.0]
        assert downs == [(30.0, 0, 1, ["a", "b", "c"])]
        assert delivered == []
        assert net.transport.in_flight() == 0

    def test_timer_of_a_forgotten_channel_is_inert(self):
        events, net, wire, delivered = make_scripted(drops={0: 99})
        net.send(0, 1, "old")
        events.schedule(5.0, lambda: net.transport.forget_peer(1))
        events.run()
        assert wire.sent(0) == [0.0]
        assert net.stats.retransmits == 0

    def test_ack_of_a_forgotten_channel_is_inert(self):
        # "old" lands at 10 and its ack is on the wire from 15 to 25;
        # processor 1 restarts at 12 and "new" goes out at 13 as seq 0
        # of the fresh incarnation, dropped once.  The old ack also
        # says 0 and must not release it.
        events, net, wire, delivered = make_scripted()
        net.send(0, 1, "old")
        events.schedule(12.0, lambda: net.transport.forget_peer(1))

        def send_new():
            wire.drops[0] = 1
            net.send(0, 1, "new")

        events.schedule(13.0, send_new)
        events.run()
        assert wire.sent(0) == [0.0, 13.0, 93.0]
        assert payloads(delivered, 1) == ["old", "new"]

    def test_one_live_timer_per_channel(self):
        events, net, _delivered = make_net(
            FaultPlan(drop_p=0.3, reorder_p=0.2, reorder_delay=120.0), seed=4
        )
        for i in range(150):
            events.schedule(float(i), lambda i=i: net.send(0, 1, i))
            events.schedule(float(i), lambda i=i: net.send(1, 0, i))
            events.schedule(float(i), lambda i=i: net.send(2, 1, i))
        links = net.transport._links
        most = 0
        while events.step():
            # A link's retransmit timer is the callback it bound once:
            # its timer body, with the send half it serves.
            timers = [
                (time, callback)
                for time, _seq, callback in events._heap
                if type(callback) is partial
                and getattr(callback.func, "__func__", None) is _Link._retransmit_due
            ]
            most = max(most, len(timers))
            for channel, link in links.items():
                live = [
                    time
                    for time, callback in timers
                    if callback.func.__self__ is link
                    and callback.args[0] is link.unacked
                    and time == link.timer_at
                ]
                # One timer will act, and unacked frames always have
                # it; anything else in the heap for this channel is a
                # superseded aim that finds that out when it fires.
                assert len(live) <= 1, channel
                assert live or not link.unacked, channel
        assert net.transport.in_flight() == 0
        # Superseded aims are rare: the heap never holds a timer per
        # frame (the parent held 150 per channel here).
        senders = [link for link in links.values() if link.next_seq]
        assert most <= 3 * len(senders)


class TestSelectiveAck:
    """Every ack names the holes in the window; the due ones and the
    overtaken ones go at once."""

    def test_every_hole_goes_out_on_the_first_ack_that_reports_it(self):
        events, net, wire, delivered = make_scripted(drops={0: 1, 2: 1, 4: 1, 6: 1})
        for i in range(10):
            net.send(0, 1, i)
        events.run()
        # seq 0 goes again at its deadline and lands at 90, releasing 0
        # and 1.  The ack for them leaves at 95 saying what is held
        # beyond -- 3, 5, 7, 8, 9 -- and lands at 105: 2, 4 and 6, all
        # due since 80, are resent then and there, not one per ack
        # round trip (105, 130, 155 at the parent).
        [ack] = [f for _t, _s, _d, f in wire.log if type(f) is AckFrame and f.ack == 1]
        assert ack.held == {3, 5, 7, 8, 9}
        assert wire.sent(0) == [0.0, 80.0]
        assert wire.sent(2) == wire.sent(4) == wire.sent(6) == [0.0, 105.0]
        assert delivered == [(90.0, 1, 0), (90.0, 1, 1)] + [
            (115.0, 1, i) for i in range(2, 10)
        ]
        assert net.stats.retransmits == 4
        assert net.stats.retransmits_on_ack == 3
        assert net.stats.dup_suppressed == 0

    def test_overtaken_hole_goes_out_when_the_ack_lands(self):
        # seq 1 takes 60 vt; 0 and 2 land at 10 and the ack for 0,
        # holding 2, is back at 25.  seq 1 is 55 vt short of its
        # deadline, but a frame sent after it got through: it goes out
        # again then and there and is delivered at 35, not at 60.  The
        # original copy still lands at 60 and is suppressed.
        events, net, wire, delivered = make_scripted(slow={1: 60.0})
        for payload in "abc":
            net.send(0, 1, payload)
        events.run()
        acks = [f.held for _t, _s, _d, f in wire.log if type(f) is AckFrame]
        assert acks[0] == {2}
        assert wire.sent(1) == [0.0, 25.0]
        assert delivered == [(10.0, 1, "a"), (35.0, 1, "b"), (35.0, 1, "c")]
        stats = net.stats
        assert (stats.retransmits, stats.retransmits_on_ack) == (1, 1)
        assert stats.resequenced == stats.dup_suppressed == 1

    def test_second_ack_naming_the_same_hole_resends_nothing(self):
        # Reverse data leaving at 20 carries the same news as the ack
        # that landed at 25 (ack 0, holding 2) and lands at 30, while
        # the early resend of seq 1 is still on the wire.
        events, net, wire, delivered = make_scripted(slow={1: 60.0})
        for payload in "abc":
            net.send(0, 1, payload)
        events.schedule(20.0, lambda: net.send(1, 0, "reverse"))
        events.run()
        [reverse] = [f for _t, src, _d, f in wire.log if src == 1 and type(f) is DataFrame]
        assert (reverse.ack, reverse.held) == (0, {2})
        assert wire.sent(1) == [0.0, 25.0]
        assert net.stats.retransmits == 1

    def test_lost_early_resend_goes_again_at_its_deadline(self):
        # seq 1 is dropped, and so is its resend at 25, which stamped
        # a fresh deadline: the timer sends it once more at 105.
        events, net, wire, delivered = make_scripted(drops={1: 2})
        for payload in "abc":
            net.send(0, 1, payload)
        events.run()
        assert wire.sent(1) == [0.0, 25.0, 105.0]
        assert delivered == [(10.0, 1, "a"), (115.0, 1, "b"), (115.0, 1, "c")]
        assert (net.stats.retransmits, net.stats.retransmits_on_ack) == (2, 1)

    def test_piggybacked_ack_reports_holes_too(self):
        # seq 0 goes again at 80 and lands at 90, releasing 0 and 1.
        # Reverse data leaving at 91 carries (ack 1, holding 3 and 4)
        # and lands at 101, which is when seq 2 goes again; the
        # standalone ack due at 95 has nothing left to say.
        events, net, wire, delivered = make_scripted(drops={0: 1, 2: 1})
        for i in range(5):
            net.send(0, 1, i)
        events.schedule(91.0, lambda: net.send(1, 0, "reverse"))
        events.run()
        [reverse] = [f for _t, src, _d, f in wire.log if src == 1 and type(f) is DataFrame]
        assert (reverse.ack, reverse.held) == (1, {3, 4})
        assert wire.sent(2) == [0.0, 101.0]
        assert payloads(delivered, 1) == list(range(5))
        assert (net.stats.retransmits, net.stats.retransmits_on_ack) == (2, 1)
        acks_from_1 = [
            f.ack for _t, src, _d, f in wire.log if src == 1 and type(f) is AckFrame
        ]
        assert acks_from_1 == [4]

    def test_costs_no_frame_the_parent_did_not_send(self):
        # Every 5th of 300 frames is dropped once, every 15th twice,
        # two frames offered per 4 vt with sparse reverse traffic.  The
        # parent (head-only resend) put 470 frames on the wire, 60 of
        # them standalone acks, and fell 3,000 vt behind (done at
        # 4054): selective acks ride the acks that flow anyway, so the
        # same 80 losses cost fewer frames, not more.
        drops = {seq: 2 if seq % 15 == 0 else 1 for seq in range(0, 300, 5)}
        events, net, wire, delivered = make_scripted(drops=drops)
        for i in range(300):
            events.schedule(i * 2.0, lambda i=i: net.send(0, 1, i))
            if i % 10 == 0:
                events.schedule(i * 2.0 + 1, lambda i=i: net.send(1, 0, ("r", i)))
        events.run()
        assert payloads(delivered, 1) == list(range(300))
        stats = net.stats
        assert stats.retransmits == 80  # one per loss, none spurious
        assert stats.dup_suppressed == 0
        assert stats.acks <= 60
        assert stats.physical_sent <= 470
        assert events.now <= 1000.0

    def test_ack_from_a_peer_since_crashed_resends_nothing(self, monkeypatch):
        # Processor 1 acks at 95 and crashes at 100.  The ack lands at
        # 105 and reports seq 2 missing and due, but a dead peer is the
        # timer's business: it alone charges retries, and so suspects.
        monkeypatch.setattr(reliable, "SUSPECT_RETRIES", 2)
        events, net, wire, delivered = make_scripted(drops={0: 1, 2: 99})
        net.install_liveness(lambda pid: pid != 1 or events.now < 100.0)
        downs = []
        net.transport.install_peer_down(
            lambda src, dst, lost: downs.append((src, dst, lost))
        )
        for i in range(5):
            net.send(0, 1, i)
        events.run()
        assert net.stats.retransmits_on_ack == 0
        assert wire.sent(2) == [0.0, 105.0, 225.0]  # the timer's ladder
        assert downs == [(0, 1, [2, 3, 4])]

    def test_ack_for_a_crashed_sender_resends_nothing(self):
        # The same ack, but it is processor 0 that is down when it
        # lands: a dead host reads no ack and transmits nothing.
        events, net, wire, delivered = make_scripted(drops={0: 1, 2: 1})
        net.install_liveness(lambda pid: pid != 0 or events.now < 100.0)
        for i in range(5):
            net.send(0, 1, i)
        events.run()
        assert wire.sent(2) == [0.0]
        assert net.stats.retransmits == 1  # seq 0, at 80
        assert net.stats.dead_letters == 1  # the ack

    def test_closed_loop_lossy_burst_does_not_fall_behind(self):
        # BENCH_core.json's enforced burst at half its length.  With
        # head-only resend processor 0's channels fell behind without
        # bound: 4,366 frames unacked when the 2,000th insert completed,
        # 22,601 after 10,000.  Resending every reported hole keeps the
        # count under one bound for the whole run: no growth.
        from repro.perf import insert_burst_workload
        from repro.workloads.driver import ClosedLoopDriver

        cluster = DBTreeCluster(
            num_processors=4,
            protocol="semisync",
            capacity=8,
            seed=0,
            trace_level="off",
            accounting="aggregate",
            leaf_cache=True,
            fault_plan=FaultPlan(drop_p=0.1),
            reliability="enforced",
        )
        transport = cluster.kernel.network.transport
        in_flight = []
        cluster.engine.op_completion_listeners.append(
            lambda _op, _result: in_flight.append(transport.in_flight())
        )
        ClosedLoopDriver(cluster, insert_burst_workload(10000, 4), depth=4).run()
        assert len(in_flight) == 10000
        assert max(in_flight) < 1000

    def test_paced_lossy_run_does_not_wait_out_deadlines(self):
        # 600 inserts, one every 4 vt, over a substrate that drops one
        # frame in ten and reorders one in twenty.  Resending a hole
        # only at its 80-vt deadline held every frame behind it just
        # as long: the median insert took 97 vt.  Resent when an ack
        # shows a later frame got through, it takes 57.
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="variable",
            capacity=8,
            seed=0,
            trace_level="off",
            accounting="aggregate",
            leaf_cache=True,
            fault_plan=FaultPlan(drop_p=0.1, reorder_p=0.05, reorder_delay=100.0),
            reliability="enforced",
        )
        keys = list(range(600))
        random.Random(0).shuffle(keys)
        arrival = {key: index * 4.0 for index, key in enumerate(keys)}
        latencies = []
        cluster.engine.op_completion_listeners.append(
            lambda op, _result: latencies.append(cluster.now - arrival[op.key])
        )
        for index, key in enumerate(keys):
            cluster.schedule(arrival[key], "insert", key, key, client=index % 4)
        cluster.run()
        assert len(latencies) == 600
        assert sorted(latencies)[300] <= 75.0


def window_walk(head, entries, ack, held, now):
    """The seqs an ack resends, by the O(window) walk the transport used
    before it scanned only the holes: release what the ack covers, then
    walk the window up to the highest held seq, resending each seq not
    held that is past its deadline or, with something held, was never
    resent.  ``entries`` are ``[payload, retries, deadline, resent]``
    of seqs ``head`` on."""
    unacked = list(entries)
    if ack >= head:
        del unacked[: ack - head + 1]
        head = ack + 1
    elif not held:
        return []
    if not unacked or not (held or unacked[0][2] <= now):
        return []
    stop = max(held) if held else ack + 2
    return [
        seq
        for seq, entry in zip(range(head, stop), unacked)
        if seq not in held and (entry[2] <= now or (held and not entry[3]))
    ]


class RecordingWire:
    """A fault plan that loses every frame and logs each one it judges."""

    def __init__(self):
        self.log = []

    def judge(self, src, dst, frame, rng):
        self.log.append((src, dst, frame))
        return ((True, 0.0),)


@st.composite
def ack_cases(draw):
    """A sender's window, and an ack for it that may be stale, may
    report held frames below the head, and may reach past the window."""
    head = draw(st.integers(0, 30))
    size = draw(st.integers(0, 16))
    entries = [
        [
            f"p{head + offset}",
            draw(st.integers(0, 2)),
            float(draw(st.integers(0, 12)) * 10),
            draw(st.booleans()),
        ]
        for offset in range(size)
    ]
    seqs = st.integers(max(head - 4, 0), head + size + 3)
    ack = draw(st.one_of(st.just(-1), seqs))
    held = frozenset(draw(st.sets(seqs, max_size=8)))
    now = float(draw(st.integers(0, 12)) * 10)
    return head, entries, ack, held, now


class TestHoleSelection:
    """An ack resends exactly what the window walk resent, in order."""

    @settings(max_examples=400, deadline=None)
    @given(case=ack_cases())
    def test_same_seqs_in_the_same_order_as_the_window_walk(self, case):
        head, entries, ack, held, now = case
        expected = window_walk(head, [list(e) for e in entries], ack, held, now)
        wire = RecordingWire()
        events, net, _delivered = make_net(wire)
        link = net.transport._open(0, 1)
        link.head = head
        link.next_seq = head + len(entries)
        link.unacked.extend([list(e) for e in entries])
        events.now = now
        net.transport.on_frame(1, 0, AckFrame(ack, (0, 0), held))
        assert [f.seq for _s, _d, f in wire.log] == expected
        assert [f.payload for _s, _d, f in wire.log] == [f"p{seq}" for seq in expected]
        released = min(max(ack - head + 1, 0), len(entries))
        assert len(link.unacked) == len(entries) - released
        assert link.head == head + released

    def test_stale_ack_reaching_past_the_window(self):
        # A held set from before the send half restarted can name seqs
        # the fresh window never sent: they bound nothing.
        wire = RecordingWire()
        events, net, _delivered = make_net(wire)
        link = net.transport._open(0, 1)
        link.head, link.next_seq = 2, 5
        link.unacked.extend([[f"p{seq}", 0, 50.0, False] for seq in (2, 3, 4)])
        events.now = 10.0
        net.transport.on_frame(1, 0, AckFrame(0, (0, 0), frozenset({3, 9})))
        assert [f.seq for _s, _d, f in wire.log] == [2, 4]
        assert window_walk(2, [[0, 0, 50.0, False]] * 3, 0, {3, 9}, 10.0) == [2, 4]


class HeldChecker:
    """A fault plan that checks, as each frame leaves, that the held set
    it carries is the sending link's reorder buffer at that instant."""

    def __init__(self, plan):
        self.plan = plan
        self.net = None
        self.checked = []

    def judge(self, src, dst, frame, rng):
        link = self.net.transport._links[(src, dst)]
        self.checked.append((type(frame).__name__, frame.held, frozenset(link.buffer)))
        return self.plan.judge(src, dst, frame, rng)


class TestHeldOnTheWire:
    def test_every_frame_carries_the_buffer_it_left_with(self):
        # Both directions of 0<->1 lose, duplicate and reorder frames,
        # so buffers park, drain and see duplicates; processor 1
        # restarts at 300, resetting both links mid-stream.
        checker = HeldChecker(
            FaultPlan(drop_p=0.2, duplicate_p=0.1, reorder_p=0.2, reorder_delay=60.0)
        )
        events, net, delivered = make_net(checker, seed=6)
        checker.net = net
        for i in range(120):
            events.schedule(float(i * 5), lambda i=i: net.send(0, 1, i))
            events.schedule(float(i * 5 + 2), lambda i=i: net.send(1, 0, i))
        events.schedule(300.0, lambda: net.transport.forget_peer(1))
        events.run()
        assert all(sent == buffered for _kind, sent, buffered in checker.checked)
        kinds = {kind for kind, sent, _buffered in checker.checked if sent}
        assert kinds == {"DataFrame", "AckFrame"}
        assert net.stats.resequenced > 0 and net.stats.dup_suppressed > 0
        assert net.transport.in_flight() == 0


class TestCrashedSender:
    def test_crashed_host_transmits_nothing(self):
        # Processor 0 crashes at 5 with an unacked head on 0->1 and
        # restarts at 600.  A dead host has no timers: nothing leaves
        # it while it is down, and no retry is charged.
        kernel = Kernel(
            2,
            layers=(ReliabilityConfig(), CrashPlan(schedule=((0, 5.0, 600.0),))),
        )
        wire = ScriptedWire(kernel.events, drops={0: 99})
        kernel.network._fault_plan = wire
        received = []
        kernel.install_handler(lambda proc, action: received.append(action))
        network = kernel.network
        network.send(0, 1, "before")
        kernel.events.run_until(599.0)
        assert network.stats.physical_sent == 1
        assert network.stats.retransmits == 0
        assert wire.sent(0) == [0.0]
        kernel.events.run_until(601.0)  # restart: the channel is reset
        wire.drops.clear()
        network.send(0, 1, "after")
        kernel.events.run()
        [fresh] = [
            frame
            for t, src, dst, frame in wire.log
            if t > 600.0 and type(frame) is DataFrame
        ]
        assert (fresh.seq, fresh.epoch) == (0, (1, 0))
        assert received == ["after"]
        assert network.stats.retransmits == 0


def bundling_kernel(**kwargs):
    """Two processors: pid 0, on "go", sends "a", "b", "c" to pid 1."""
    kernel = Kernel(2, **kwargs)
    received = []

    def handler(proc, action):
        if action == "go":
            for item in "abc":
                kernel.route(0, 1, item)
        else:
            received.append(action)

    kernel.install_handler(handler)
    return kernel, received


class TestBundles:
    """What one action sends to one processor is one frame, one letter."""

    def test_one_frame_and_its_resend_carries_every_item(self):
        # Built with a (faultless) plan, so every frame is judged, and
        # then judged by the scripted wire.
        kernel, received = bundling_kernel(layers=(ReliabilityConfig(), FaultPlan()))
        wire = ScriptedWire(kernel.events, drops={0: 1})
        kernel.network._fault_plan = wire
        kernel.route(0, 0, "go")
        kernel.run_to_quiescence()
        assert received == ["a", "b", "c"]
        assert wire.sent(0) == [1.0, 81.0]  # dropped once, resent once
        frames = [
            frame
            for _t, src, dst, frame in wire.log
            if type(frame) is DataFrame and (src, dst) == (0, 1)
        ]
        assert [frame.payload.items for frame in frames] == [["a", "b", "c"]] * 2
        stats = kernel.network.stats
        assert (stats.sent, stats.piggybacked, stats.retransmits) == (1, 2, 1)

    def test_a_bundle_to_a_crashed_processor_is_one_dead_letter(self):
        kernel, received = bundling_kernel(
            layers=(CrashPlan(schedule=((1, 5.0, 600.0),)),)
        )
        kernel.events.schedule(10.0, lambda: kernel.route(0, 0, "go"))
        kernel.run_to_quiescence()
        assert received == []
        stats = kernel.network.stats
        assert (stats.sent, stats.piggybacked, stats.dead_letters) == (1, 2, 1)


class TestAccountingInteraction:
    def test_aggregate_accounting_keeps_totals_not_kinds(self):
        events, net, delivered = make_net(
            FaultPlan(drop_p=0.3, duplicate_p=0.3), accounting="aggregate", seed=3
        )
        for i in range(80):
            net.send(0, 1, i)
        events.run()
        # Delivery is exactly-once in-order and the scalar books say
        # how; only the per-kind breakdown is skipped.
        assert payloads(delivered, 1) == list(range(80))
        snap = net.stats.snapshot()
        assert snap["sent"] == snap["delivered"] == 80
        assert snap["dropped"] > 0 and snap["duplicated"] > 0
        assert snap["retransmits"] > 0 and snap["dup_suppressed"] > 0
        assert snap["physical_sent"] == 80 + snap["retransmits"] + snap["acks"]
        assert snap["by_kind"] == {}

    def test_by_kind_counts_logical_kinds_not_frames(self):
        class Tagged:
            kind = "tagged"

        events, net, _delivered = make_net(FaultPlan(drop_p=0.3), seed=5)
        for _ in range(40):
            net.send(0, 1, Tagged())
        events.run()
        by_kind = net.stats.by_kind
        assert by_kind["tagged"] == 40
        # Frames and retransmissions never pollute the kind counters.
        assert "DataFrame" not in by_kind
        assert "reliable_ack" not in by_kind

    def test_frame_kind_delegates_to_payload(self):
        class Tagged:
            kind = "tagged"

        class Numbered:
            kind = 7

        frame = DataFrame(0, Tagged(), -1)
        assert frame.kind == "tagged"
        assert DataFrame(0, Numbered(), -1).kind == "Numbered"
        assert AckFrame(3).kind == "reliable_ack"

    def test_reliability_summary(self):
        cluster = DBTreeCluster(
            num_processors=4,
            capacity=4,
            seed=3,
            fault_plan=FaultPlan(drop_p=0.2),
            reliability="enforced",
        )
        run_insert_workload(cluster, count=150)
        summary = layer_report(cluster)["reliability"]
        assert summary["enabled"]
        assert summary["amplification"] > 1.0
        assert summary["retransmits"] > summary["retransmits_on_ack"] > 0
        assert summary["in_flight"] == 0  # quiescent: everything acked


class TestClusterEnforcement:
    """The X5 claim at test scale: audits pass where assumed fails."""

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_drops_enforced_audit_clean(self, seed):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=seed,
            fault_plan=FaultPlan(drop_p=0.2),
            reliability="enforced",
        )
        expected = run_insert_workload(cluster, count=200)
        report = cluster.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:5])

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_reorder_enforced_audit_clean(self, seed):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=seed,
            fault_plan=FaultPlan(reorder_p=0.2, reorder_delay=100.0),
            reliability="enforced",
        )
        expected = run_insert_workload(cluster, count=200)
        report = cluster.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:5])

    def test_assumed_fails_the_same_scenario(self):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=3,
            fault_plan=FaultPlan(drop_p=0.2),
        )
        expected = run_insert_workload(cluster, count=200)
        assert not cluster.check(expected=expected).ok

    def test_sync_protocol_enforced_over_drops(self):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="sync",
            capacity=4,
            seed=5,
            fault_plan=FaultPlan(drop_p=0.2),
            reliability="enforced",
        )
        expected = run_insert_workload(cluster, count=150)
        assert cluster.check(expected=expected).ok

    def test_enforced_with_holding_and_faults(self):
        # What one action sends to a peer is one reliable frame; the
        # items inside it are still each counted as themselves.
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=3,
            fault_plan=FaultPlan(drop_p=0.15),
            reliability="enforced",
        )
        expected = run_insert_workload(cluster, count=200)
        assert cluster.check(expected=expected).ok
        stats = cluster.kernel.network.stats
        assert stats.piggybacked > 0
        assert sum(stats.by_kind.values()) == stats.sent + stats.piggybacked


class TestAssumedModeUnchanged:
    """Regression: the default path is byte-identical with the layer off."""

    def test_trace_identical_to_default(self):
        def fingerprint(**kwargs):
            cluster = DBTreeCluster(
                num_processors=4, capacity=4, seed=3, **kwargs
            )
            run_insert_workload(cluster, count=200)
            ops = [
                (op.op_id, op.submitted_at, op.completed_at, op.result)
                for op in cluster.trace.operations.values()
            ]
            return (
                ops,
                cluster.kernel.events.executed,
                cluster.now,
                cluster.kernel.network.stats.snapshot(),
            )

        assert fingerprint() == fingerprint(reliability="assumed")

    def test_assumed_mode_has_no_transport(self):
        cluster = DBTreeCluster(num_processors=2, seed=0)
        assert cluster.kernel.network.transport is None
        assert ReliabilityConfig not in cluster.kernel.layers

    def test_enforced_mode_is_the_plan_alone(self):
        # Nothing to tune: the plan has no field, its presence is the mode.
        cluster = DBTreeCluster(num_processors=2, seed=0, reliability="enforced")
        assert cluster.kernel.network.transport is not None
        assert cluster.kernel.layers[ReliabilityConfig] == ReliabilityConfig()
        assert dataclasses.fields(ReliabilityConfig) == ()

    def test_enforced_same_final_state_as_assumed_when_clean(self):
        # On a clean substrate enforcement changes timing (acks) but
        # must not change what the tree ends up containing.
        from repro.verify.checker import leaf_contents

        def leaves(reliability):
            cluster = DBTreeCluster(
                num_processors=4, capacity=4, seed=3, reliability=reliability
            )
            run_insert_workload(cluster, count=200)
            return leaf_contents(cluster.engine)

        assert leaves("assumed") == leaves("enforced")
