"""The reliable FIFO network: ordering, accounting, faults, the wire."""

import itertools
import random

import pytest

from tests.helpers import landing
from repro.sim.events import EventQueue
from repro.sim.failure import FaultPlan
from repro.sim.network import (
    ACCOUNTING_MODES,
    Bundle,
    LogNormalLatency,
    Network,
    NetworkStats,
    TopologyLatency,
    UniformLatency,
    message_kind,
)


class Tagged:
    kind = "tagged"


def make_net(latency=None, fault_plan=None, seed=0):
    events = EventQueue()
    net = Network(
        events,
        latency_model=latency or UniformLatency(base=10.0),
        rng=random.Random(seed),
    )
    if fault_plan is not None:
        net.install_faults(fault_plan)
    delivered = []
    net.install_delivery(
        landing(lambda dst, payload: delivered.append((events.now, dst, payload)))
    )
    return events, net, delivered


class TestDelivery:
    def test_basic_delivery_with_latency(self):
        events, net, delivered = make_net()
        net.send(0, 1, "hello")
        events.run()
        assert delivered == [(10.0, 1, "hello")]

    def test_send_without_callback_rejected(self):
        net = Network(EventQueue())
        with pytest.raises(RuntimeError):
            net.send(0, 1, "x")

    def test_self_send_rejected(self):
        _events, net, _delivered = make_net()
        with pytest.raises(ValueError):
            net.send(2, 2, "loop")

    def test_fifo_per_channel_under_jitter(self):
        events, net, delivered = make_net(
            latency=UniformLatency(base=5.0, jitter=20.0)
        )
        for index in range(50):
            net.send(0, 1, index)
        events.run()
        payloads = [p for _t, _d, p in delivered]
        assert payloads == list(range(50))

    def test_channels_are_independent(self):
        events, net, delivered = make_net(
            latency=TopologyLatency(pairs={(0, 1): 100.0}, default=1.0)
        )
        net.send(0, 1, "slow")
        net.send(0, 2, "fast")
        events.run()
        assert [p for _t, _d, p in delivered] == ["fast", "slow"]

    def test_plain_substrate_lands_as_a_judged_one_does(self):
        # No plan, one fixed latency: each transmission is one push, and
        # it lands exactly when and in the order a judged but faultless
        # network lands it.
        def run(fault_plan):
            events, net, delivered = make_net(fault_plan=fault_plan)
            for index in range(12):
                when = float(index // 3)
                events.schedule(
                    when, lambda i=index: net.send(i % 2, 2 + i % 3, i)
                )
            events.run()
            return delivered, net._plain

        plain, was_plain = run(None)
        judged, was_judged_plain = run(FaultPlan())
        assert (was_plain, was_judged_plain) == (True, False)
        assert plain == judged
        assert [t for t, _d, _p in plain] == sorted(t for t, _d, _p in plain)

    def test_later_send_not_delivered_before_earlier_same_channel(self):
        # Decreasing latency draws must not reorder a channel.
        events, net, delivered = make_net(
            latency=UniformLatency(base=1.0, jitter=50.0), seed=3
        )
        send_times = [0.0, 1.0, 2.0]
        for index, when in enumerate(send_times):
            events.schedule(when, lambda i=index: net.send(0, 1, i))
        events.run()
        assert [p for _t, _d, p in delivered] == [0, 1, 2]
        times = [t for t, _d, _p in delivered]
        assert times == sorted(times)

    def test_fifo_per_channel_under_lognormal(self):
        # The heavy-tailed model draws wildly different transits; the
        # channel clock must still deliver in send order.  Regression
        # guard for the no-fault fast path, which skips sampling only
        # when the model advertises a fixed latency.
        events, net, delivered = make_net(
            latency=LogNormalLatency(median=5.0, sigma=1.5), seed=11
        )
        for index in range(100):
            net.send(0, 1, index)
        events.run()
        assert [p for _t, _d, p in delivered] == list(range(100))

    def test_fifo_staggered_sends_under_lognormal(self):
        events, net, delivered = make_net(
            latency=LogNormalLatency(median=2.0, sigma=2.0), seed=5
        )
        for index in range(30):
            events.schedule(float(index), lambda i=index: net.send(3, 1, i))
        events.run()
        assert [p for _t, _d, p in delivered] == list(range(30))
        times = [t for t, _d, _p in delivered]
        assert times == sorted(times)

    def test_fifo_under_jitter_all_accounting_modes(self):
        # The accounting mode changes bookkeeping only, never timing:
        # identical delivery schedule in every mode.
        schedules = []
        for mode in ACCOUNTING_MODES:
            events = EventQueue()
            net = Network(
                events,
                latency_model=UniformLatency(base=5.0, jitter=20.0),
                rng=random.Random(9),
                accounting=mode,
            )
            delivered = []
            net.install_delivery(
                landing(lambda dst, payload: delivered.append((events.now, payload)))
            )
            for index in range(40):
                net.send(0, 1, index)
            events.run()
            assert [p for _t, p in delivered] == list(range(40))
            schedules.append(delivered)
        assert all(schedule == schedules[0] for schedule in schedules)


class TestAccounting:
    def test_counts_by_kind(self):
        events, net, _delivered = make_net()
        net.send(0, 1, Tagged())
        net.send(0, 1, Tagged())
        net.send(1, 0, "plain string")
        events.run()
        stats = net.stats
        assert stats.sent == 3
        assert stats.delivered == 3
        assert stats.by_kind["tagged"] == 2
        assert stats.by_kind["str"] == 1

    def test_message_kind_fallback(self):
        assert message_kind(Tagged()) == "tagged"
        assert message_kind(123) == "int"

    def test_reset_stats(self):
        events, net, _delivered = make_net()
        net.send(0, 1, "x")
        events.run()
        net.reset_stats()
        assert net.stats.sent == 0

    def test_snapshot_is_plain_data(self):
        snap = NetworkStats().snapshot()
        assert snap["sent"] == 0
        assert isinstance(snap["by_kind"], dict)


class TestBundles:
    """A bundle is one wire message that lands as its items."""

    def test_one_message_lands_as_its_items_in_order(self):
        events, net, delivered = make_net()
        tagged = Tagged()
        net.send(0, 1, Bundle(["a", tagged, "b"]))
        events.run()
        assert delivered == [(10.0, 1, "a"), (10.0, 1, tagged), (10.0, 1, "b")]
        stats = net.stats
        assert (stats.sent, stats.delivered, stats.piggybacked) == (1, 1, 2)
        assert stats.by_kind == {"str": 2, "tagged": 1}
        assert sum(stats.by_kind.values()) == stats.sent + stats.piggybacked
        assert net.stats.snapshot()["piggybacked"] == 2

    def test_one_verdict_for_the_whole_bundle(self):
        events, net, delivered = make_net(fault_plan=FaultPlan(duplicate_p=1.0))
        net.send(0, 1, Bundle(["a", "b"]))
        events.run()
        assert [p for _t, _d, p in delivered] == ["a", "b", "a", "b"]
        assert (net.stats.duplicated, net.stats.delivered) == (1, 2)

    def test_join_wraps_a_payload_and_extends_a_bundle(self):
        joined = Bundle.join("a", "b")
        assert type(joined) is Bundle and joined.items == ["a", "b"]
        assert Bundle.join(joined, "c") is joined
        assert joined.items == ["a", "b", "c"]

    def test_a_dropped_bundle_loses_every_item(self):
        events, net, delivered = make_net(fault_plan=FaultPlan(drop_p=1.0))
        net.send(0, 1, Bundle(["a", "b", "c"]))
        events.run()
        assert delivered == []
        stats = net.stats
        assert (stats.sent, stats.dropped, stats.delivered) == (1, 1, 0)
        # Each item was still sent, as a logical message.
        assert stats.by_kind == {"str": 3}
        assert sum(stats.by_kind.values()) == stats.sent + stats.piggybacked

    def test_the_permuter_sees_items(self):
        class Recorder:
            def __init__(self):
                self.arrivals = []

            def install_deliver(self, deliver):
                self.deliver = deliver

            def on_arrival(self, dst, payload):
                self.arrivals.append(payload)
                self.deliver(dst, payload)

        events, net, delivered = make_net()
        permuter = Recorder()
        net.install_permuter(permuter)
        net.send(0, 1, Bundle(["a", "b"]))
        events.run()
        assert permuter.arrivals == ["a", "b"]
        assert [p for _t, _d, p in delivered] == ["a", "b"]
        assert net.stats.delivered == 1


class TestFaults:
    def test_drop_all(self):
        events, net, delivered = make_net(fault_plan=FaultPlan(drop_p=1.0))
        net.send(0, 1, "gone")
        events.run()
        assert delivered == []
        assert net.stats.dropped == 1

    def test_duplicate_all(self):
        events, net, delivered = make_net(fault_plan=FaultPlan(duplicate_p=1.0))
        net.send(0, 1, "twice")
        events.run()
        assert len(delivered) == 2
        assert net.stats.duplicated == 1

    def test_fault_kind_filter(self):
        plan = FaultPlan(drop_p=1.0, only_kinds=frozenset({"tagged"}))
        events, net, delivered = make_net(fault_plan=plan)
        net.send(0, 1, Tagged())
        net.send(0, 1, "kept")
        events.run()
        assert [p for _t, _d, p in delivered] == ["kept"]

    def test_fault_kind_filter_selects_by_the_accounting_label(self):
        # A ``kind`` that is not a str is no label: the accounting
        # counts such a payload by its class name, and so must a plan
        # that targets kinds.
        class Numbered:
            kind = 7

        plan = FaultPlan(drop_p=1.0, only_kinds=frozenset({"Numbered"}))
        events, net, delivered = make_net(fault_plan=plan)
        net.send(0, 1, Numbered())
        net.send(0, 1, "kept")
        events.run()
        assert [p for _t, _d, p in delivered] == ["kept"]
        assert net.stats.by_kind["Numbered"] == 1
        assert message_kind(Numbered()) == "Numbered"

    def test_reorder_can_break_fifo(self):
        plan = FaultPlan(reorder_p=1.0, reorder_delay=100.0)
        events, net, delivered = make_net(fault_plan=plan, seed=1)
        for index in range(10):
            net.send(0, 1, index)
        events.run()
        payloads = [p for _t, _d, p in delivered]
        assert sorted(payloads) == list(range(10))
        assert payloads != list(range(10))

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_p=1.5)


# ----------------------------------------------------------------------
# the wire as a lattice: every layer that touches a transmission, crossed
# ----------------------------------------------------------------------
#: The fixed send script: (time, src, dst, payload).
WIRE_SCRIPT = (
    (0.0, 0, 1, "a"),
    (0.0, 0, 1, "b"),
    (0.0, 1, 0, "c"),
    (0.0, 0, 2, "d"),
    (2.0, 0, 1, "e"),
    (2.0, 2, 1, "f"),
    (70.0, 0, 1, "g"),
    (70.0, 1, 2, "h"),
)
WIRE_AXES = (
    ("assumed", "enforced"),
    ("noplan", "plan"),
    ("open", "cut", "gray"),
    ("alive", "dead"),
    ("logical", "datagram"),
)


class LinkJudge:
    """Partition-controller stand-in: link 0->1 cut until t=50, or gray x3."""

    def __init__(self, events, mode):
        self.events, self.mode = events, mode

    def judge(self, src, dst):
        if (src, dst) != (0, 1):
            return True, 1.0
        if self.mode == "cut":
            return self.events.now >= 50.0, 1.0
        return True, 3.0


def run_wire_case(reliability, plan, partition, liveness, kind):
    """Drive WIRE_SCRIPT through one corner of the lattice."""
    events = EventQueue()
    net = Network(
        events,
        latency_model=UniformLatency(base=10.0, jitter=4.0),
        rng=random.Random(7),
    )
    if plan == "plan":
        net.install_faults(
            FaultPlan(drop_p=0.25, duplicate_p=0.25, reorder_p=0.25, reorder_delay=40.0)
        )
    if reliability == "enforced":
        net.install_transport()
    trace = []

    def deliver(dst, payload):
        trace.append(f"{events.now:.6f}:{dst}:{payload}")

    net.install_delivery(landing(deliver))
    if partition != "open":
        net.install_partition(LinkJudge(events, partition))
    if liveness == "dead":
        # processor 1 is down until t=30
        net.install_liveness(lambda pid: pid != 1 or events.now >= 30.0)
    for when, src, dst, payload in WIRE_SCRIPT:
        if kind == "logical":
            events.schedule(when, lambda s=src, d=dst, p=payload: net.send(s, d, p))
        else:
            events.schedule(
                when,
                lambda s=src, d=dst, p=payload: net.send_datagram(s, d, p, deliver),
            )
    events.run()
    stats = net.stats
    counters = (
        stats.dropped,
        stats.duplicated,
        stats.partition_blocked,
        stats.dead_letters,
        stats.delivered,
    )
    return " ".join(trace), counters


#: case -> ((dropped, duplicated, partition_blocked, dead_letters,
#: delivered), delivery trace "time:dst:payload ...").  Recorded from
#: the three hand-written delivery paths the wire replaced, so a
#: difference here is a behaviour change (rng draw order included),
#: never something to re-record in passing.
#:
#: Nine corners were re-recorded when the reliable transport went from
#: a timer per frame to a timer per channel with holes resent the moment
#: an ack exposes them -- every ``enforced-*-logical`` corner in which a
#: frame of channel 0->1 is lost, cut or lands on the dead host.  In all
#: nine the five counters are what they were; only delivery times moved,
#: and only in these ways:
#:
#: * ``noplan-open-dead``, ``noplan-cut-alive``, ``noplan-cut-dead``: a,
#:   b and e are lost together; a comes back at its deadline as before
#:   (~90-92), then b goes out when a's ack lands (~119-121, was its
#:   poll at 160 -> ~172) and e when b's does (~148-152 with g parked
#:   behind it, was the poll at 240 -> ~252-254).
#: * ``plan-open-alive``, ``plan-cut-alive``, ``plan-cut-dead``,
#:   ``plan-gray-alive``: a recovers on the backoff ladder exactly as
#:   recorded (213.36 / 212.34 / 240.08); the holes behind it follow one
#:   ack round trip later, not at their next poll (b 253->242, 250->239,
#:   360->295; g 451->398, 332->267, 555->475).
#: * ``plan-open-dead``, ``plan-gray-dead``: the same on 0->1 (b 170->122
#:   and e, g 383->150; b, e, g 191->173), and h on the untouched channel
#:   1->2 lands 3 vt earlier (163.36 -> 160.09 / 160.24): resends happen
#:   in another order, so it takes another draw of the shared latency rng.
#:
#: Eight of those nine were re-recorded again when acks became selective
#: (every ack lists what the receiver holds out of order; every hole it
#: reports that is past its own deadline is resent at that instant, and
#: only the timer charges a retry).  Every delivery is at the recorded
#: time or earlier, and only these moved:
#:
#: * ``noplan-open-dead``, ``noplan-cut-alive``, ``noplan-cut-dead``: g
#:   is parked at the receiver from ~80 on, so a's ack names b *and* e
#:   as holes: e goes out with b (~120-122 with g released behind it,
#:   was b's ack round trip later, ~147-152).
#: * ``plan-open-dead``: the same (e, g 150.23 -> 121.70, with b).
#: * ``plan-cut-alive``, ``plan-cut-dead``: the same (b, e, g all at
#:   224.75; were 238.84 and 267.22); three frames fewer cross the wire,
#:   so the fault plan judges three fewer: dropped 12 -> 9, duplicated
#:   6 -> 5.  The other counters, and all counters elsewhere, are as
#:   recorded.
#: * ``plan-open-alive``, ``plan-gray-alive``: g, resent once on an ack
#:   and lost again, waits its plain 80-vt timeout and not the 120 vt of
#:   a charged retry: 398.45 -> 358.45 and 474.87 -> 434.87.
#:
#: ``plan-gray-dead`` did not move (b, e and g already landed together).
#:
#: The other 39 -- every assumed corner, every datagram corner, and the
#: three enforced corners where no lost frame has another queued behind
#: it -- are as first recorded.
WIRE_RECORDED = {
    "assumed-noplan-open-alive-logical": (
        (0, 0, 0, 0, 8),
        "10.289745:2:d 11.295331:1:a 11.295331:1:b 12.603738:0:c 13.462756:1:f "
        "14.143528:1:e 80.231996:1:g 82.029743:2:h",
    ),
    "assumed-noplan-open-alive-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 10.603397:1:b 11.295331:1:a 12.603738:0:c 13.462756:1:f "
        "14.143528:1:e 80.231996:1:g 82.029743:2:h",
    ),
    "assumed-noplan-open-dead-logical": (
        (0, 0, 0, 4, 4),
        "10.289745:2:d 12.603738:0:c 80.231996:1:g 82.029743:2:h",
    ),
    "assumed-noplan-open-dead-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 80.231996:1:g 82.029743:2:h",
    ),
    "assumed-noplan-cut-alive-logical": (
        (0, 0, 3, 0, 5),
        "10.603397:2:d 11.295331:0:c 14.603738:1:f 80.289745:1:g 82.143528:2:h",
    ),
    "assumed-noplan-cut-alive-datagram": (
        (0, 0, 3, 0, 0),
        "10.603397:2:d 11.295331:0:c 14.603738:1:f 80.289745:1:g 82.143528:2:h",
    ),
    "assumed-noplan-cut-dead-logical": (
        (0, 0, 3, 1, 4),
        "10.603397:2:d 11.295331:0:c 80.289745:1:g 82.143528:2:h",
    ),
    "assumed-noplan-cut-dead-datagram": (
        (0, 0, 3, 0, 0),
        "10.603397:2:d 11.295331:0:c 80.289745:1:g 82.143528:2:h",
    ),
    "assumed-noplan-gray-alive-logical": (
        (0, 0, 0, 0, 8),
        "10.289745:2:d 12.603738:0:c 13.462756:1:f 33.885993:1:a 33.885993:1:b "
        "38.430584:1:e 82.029743:2:h 100.695987:1:g",
    ),
    "assumed-noplan-gray-alive-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 13.462756:1:f 31.810190:1:b 33.885993:1:a "
        "38.430584:1:e 82.029743:2:h 100.695987:1:g",
    ),
    "assumed-noplan-gray-dead-logical": (
        (0, 0, 0, 1, 7),
        "10.289745:2:d 12.603738:0:c 33.885993:1:a 33.885993:1:b 38.430584:1:e "
        "82.029743:2:h 100.695987:1:g",
    ),
    "assumed-noplan-gray-dead-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 31.810190:1:b 33.885993:1:a 38.430584:1:e "
        "82.029743:2:h 100.695987:1:g",
    ),
    "assumed-plan-open-alive-logical": (
        (5, 1, 0, 0, 4),
        "12.892956:1:e 13.586722:1:f 30.447412:0:c 85.945617:2:h",
    ),
    "assumed-plan-open-alive-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 10.603397:1:b 11.295331:1:a 12.603738:0:c 13.462756:1:f "
        "14.143528:1:e 80.231996:1:g 82.029743:2:h",
    ),
    "assumed-plan-open-dead-logical": (
        (5, 1, 0, 2, 2),
        "30.447412:0:c 85.945617:2:h",
    ),
    "assumed-plan-open-dead-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 80.231996:1:g 82.029743:2:h",
    ),
    "assumed-plan-cut-alive-logical": (
        (4, 1, 3, 0, 2),
        "32.447412:1:f 80.892956:2:h",
    ),
    "assumed-plan-cut-alive-datagram": (
        (0, 0, 3, 0, 0),
        "10.603397:2:d 11.295331:0:c 14.603738:1:f 80.289745:1:g 82.143528:2:h",
    ),
    "assumed-plan-cut-dead-logical": (
        (4, 1, 3, 0, 2),
        "32.447412:1:f 80.892956:2:h",
    ),
    "assumed-plan-cut-dead-datagram": (
        (0, 0, 3, 0, 0),
        "10.603397:2:d 11.295331:0:c 80.289745:1:g 82.143528:2:h",
    ),
    "assumed-plan-gray-alive-logical": (
        (5, 1, 0, 0, 4),
        "13.586722:1:f 30.447412:0:c 34.678868:1:e 85.945617:2:h",
    ),
    "assumed-plan-gray-alive-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 13.462756:1:f 31.810190:1:b 33.885993:1:a "
        "38.430584:1:e 82.029743:2:h 100.695987:1:g",
    ),
    "assumed-plan-gray-dead-logical": (
        (5, 1, 0, 1, 3),
        "30.447412:0:c 34.678868:1:e 85.945617:2:h",
    ),
    "assumed-plan-gray-dead-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 31.810190:1:b 33.885993:1:a 38.430584:1:e "
        "82.029743:2:h 100.695987:1:g",
    ),
    "enforced-noplan-open-alive-logical": (
        (0, 0, 0, 0, 8),
        "10.289745:2:d 11.295331:1:a 11.295331:1:b 12.603738:0:c 13.462756:1:f "
        "14.143528:1:e 80.279422:1:g 80.362852:2:h",
    ),
    "enforced-noplan-open-alive-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 10.603397:1:b 11.295331:1:a 12.603738:0:c 13.462756:1:f "
        "14.143528:1:e 80.231996:1:g 82.029743:2:h",
    ),
    "enforced-noplan-open-dead-logical": (
        (0, 0, 0, 5, 8),
        "10.289745:2:d 12.603738:0:c 81.734583:2:h 90.279422:1:a 93.698077:1:f "
        "121.096563:1:b 122.377666:1:e 122.377666:1:g",
    ),
    "enforced-noplan-open-dead-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 80.231996:1:g 82.029743:2:h",
    ),
    "enforced-noplan-cut-alive-logical": (
        (0, 0, 4, 0, 8),
        "10.603397:2:d 11.295331:0:c 14.603738:1:f 80.231996:2:h 92.029743:1:a "
        "119.090672:1:b 120.700003:1:e 120.700003:1:g",
    ),
    "enforced-noplan-cut-alive-datagram": (
        (0, 0, 3, 0, 0),
        "10.603397:2:d 11.295331:0:c 14.603738:1:f 80.289745:1:g 82.143528:2:h",
    ),
    "enforced-noplan-cut-dead-logical": (
        (0, 0, 4, 1, 8),
        "10.603397:2:d 11.295331:0:c 81.462756:2:h 90.231996:1:a 92.149983:1:f "
        "118.664655:1:b 120.273987:1:e 120.273987:1:g",
    ),
    "enforced-noplan-cut-dead-datagram": (
        (0, 0, 3, 0, 0),
        "10.603397:2:d 11.295331:0:c 80.289745:1:g 82.143528:2:h",
    ),
    "enforced-noplan-gray-alive-logical": (
        (0, 0, 0, 0, 8),
        "10.289745:2:d 12.603738:0:c 13.462756:1:f 33.885993:1:a 33.885993:1:b "
        "38.430584:1:e 81.698077:2:h 101.088556:1:g",
    ),
    "enforced-noplan-gray-alive-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 13.462756:1:f 31.810190:1:b 33.885993:1:a "
        "38.430584:1:e 82.029743:2:h 100.695987:1:g",
    ),
    "enforced-noplan-gray-dead-logical": (
        (0, 0, 0, 1, 8),
        "10.289745:2:d 12.603738:0:c 33.885993:1:a 33.885993:1:b 38.430584:1:e "
        "80.362852:2:h 93.698077:1:f 100.838265:1:g",
    ),
    "enforced-noplan-gray-dead-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 31.810190:1:b 33.885993:1:a 38.430584:1:e "
        "82.029743:2:h 100.695987:1:g",
    ),
    "enforced-plan-open-alive-logical": (
        (12, 6, 0, 0, 8),
        "13.586722:1:f 30.447412:0:c 82.190978:2:h 92.342247:2:d 213.359871:1:a "
        "241.890248:1:b 241.890248:1:e 358.448892:1:g",
    ),
    "enforced-plan-open-alive-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 10.603397:1:b 11.295331:1:a 12.603738:0:c 13.462756:1:f "
        "14.143528:1:e 80.231996:1:g 82.029743:2:h",
    ),
    "enforced-plan-open-dead-logical": (
        (12, 6, 0, 2, 8),
        "30.447412:0:c 92.190978:1:a 92.342247:2:d 94.795978:1:f 121.702600:1:b "
        "121.702600:1:e 121.702600:1:g 160.090252:2:h",
    ),
    "enforced-plan-open-dead-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 80.231996:1:g 82.029743:2:h",
    ),
    "enforced-plan-cut-alive-logical": (
        (9, 5, 3, 0, 8),
        "32.447412:1:f 81.586722:2:h 95.945617:0:c 211.151751:2:d 212.342247:1:a "
        "224.751830:1:b 224.751830:1:e 224.751830:1:g",
    ),
    "enforced-plan-cut-alive-datagram": (
        (0, 0, 3, 0, 0),
        "10.603397:2:d 11.295331:0:c 14.603738:1:f 80.289745:1:g 82.143528:2:h",
    ),
    "enforced-plan-cut-dead-logical": (
        (9, 5, 3, 0, 8),
        "32.447412:1:f 81.586722:2:h 95.945617:0:c 211.151751:2:d 212.342247:1:a "
        "224.751830:1:b 224.751830:1:e 224.751830:1:g",
    ),
    "enforced-plan-cut-dead-datagram": (
        (0, 0, 3, 0, 0),
        "10.603397:2:d 11.295331:0:c 80.289745:1:g 82.143528:2:h",
    ),
    "enforced-plan-gray-alive-logical": (
        (12, 6, 0, 0, 8),
        "13.586722:1:f 30.447412:0:c 82.190978:2:h 92.342247:2:d 240.079613:1:a "
        "295.185389:1:b 295.185389:1:e 434.871630:1:g",
    ),
    "enforced-plan-gray-alive-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 13.462756:1:f 31.810190:1:b 33.885993:1:a "
        "38.430584:1:e 82.029743:2:h 100.695987:1:g",
    ),
    "enforced-plan-gray-dead-logical": (
        (9, 5, 0, 1, 8),
        "30.447412:0:c 92.342247:2:d 94.795978:1:f 116.572934:1:a 160.242678:2:h "
        "172.907537:1:b 172.907537:1:e 172.907537:1:g",
    ),
    "enforced-plan-gray-dead-datagram": (
        (0, 0, 0, 0, 0),
        "10.289745:2:d 12.603738:0:c 31.810190:1:b 33.885993:1:a 38.430584:1:e "
        "82.029743:2:h 100.695987:1:g",
    ),
}


class ScriptedPlan:
    """Fault plan that hands out canned verdicts, one tuple per send."""

    def __init__(self, *verdicts):
        self.verdicts = list(verdicts)

    def judge(self, src, dst, payload, rng):
        return self.verdicts.pop(0)


class ScriptedLatency:
    """Latency model that hands out canned transit times, then 10."""

    def __init__(self, *transits):
        self.transits = list(transits)

    def latency(self, src, dst, rng):
        return self.transits.pop(0) if self.transits else 10.0


class TestWireLattice:
    @pytest.mark.parametrize(
        "case", itertools.product(*WIRE_AXES), ids=lambda case: "-".join(case)
    )
    def test_trace_and_counters_match_the_recording(self, case):
        counters, trace = WIRE_RECORDED["-".join(case)]
        got_trace, got_counters = run_wire_case(*case)
        assert got_trace.split() == trace.split()
        assert got_counters == counters

    def test_delayed_verdict_neither_obeys_nor_advances_the_channel_clock(self):
        on_time, delayed = ((False, 0.0),), ((False, 5.0),)
        events, net, delivered = make_net(
            latency=ScriptedLatency(100.0, 10.0),
            fault_plan=ScriptedPlan(on_time, delayed, on_time),
        )
        for payload in ("slow", "delayed", "next"):
            net.send(0, 1, payload)
        events.run()
        # "delayed" lands at 15, ahead of the channel clock (100) it does
        # not obey; "next" is clamped to 100, not to 15, so the delayed
        # verdict did not advance the clock either.
        assert delivered == [
            (15.0, 1, "delayed"),
            (100.0, 1, "slow"),
            (100.0, 1, "next"),
        ]

    def test_frames_are_never_clamped(self):
        events = EventQueue()
        net = Network(events, latency_model=ScriptedLatency(40.0, 10.0))
        net.install_transport()
        delivered = []
        net.install_delivery(
            landing(lambda dst, p: delivered.append((events.now, dst, p)))
        )
        net.send(0, 1, "first")
        net.send(0, 1, "second")
        events.run()
        # The second frame overtook the first on the substrate (it was
        # parked, not clamped); order is the transport's doing.
        assert net.stats.resequenced == 1
        assert delivered == [(40.0, 1, "first"), (40.0, 1, "second")]

    def test_datagram_to_a_dead_host_is_not_a_dead_letter(self):
        events, net, delivered = make_net()
        net.install_liveness(lambda pid: False)
        net.send_datagram(0, 1, "beat", lambda dst, p: delivered.append(p))
        events.run()
        assert (delivered, net.stats.dead_letters) == ([], 0)
        net.send(0, 1, "message")
        events.run()
        assert (delivered, net.stats.dead_letters) == ([], 1)
