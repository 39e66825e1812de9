"""The reliable-delivery layer: manufacturing the network assumption.

Unit tests drive a raw :class:`Network` in ``"enforced"`` mode over
hostile fault plans and assert the paper's assumption is restored
end-to-end (exactly-once, per-channel FIFO, nothing lost); cluster
tests assert the protocols therefore stay audit-clean on substrates
that demonstrably break them in ``"assumed"`` mode; regression tests
pin the default mode to the old behaviour byte-for-byte.
"""

import random

import pytest

from tests.helpers import run_insert_workload
from repro import DBTreeCluster, FaultPlan, ReliabilityConfig, ReliabilityError
from repro.sim.events import EventQueue
from repro.sim.network import Network, UniformLatency
from repro.sim.reliable import AckFrame, DataFrame
from repro.stats import reliability_summary


def make_net(
    fault_plan=None,
    reliability="enforced",
    config=None,
    jitter=0.0,
    seed=0,
    accounting="full",
):
    events = EventQueue()
    net = Network(
        events,
        latency_model=UniformLatency(base=10.0, jitter=jitter),
        rng=random.Random(seed),
        fault_plan=fault_plan,
        accounting=accounting,
        reliability=reliability,
        reliability_config=config,
    )
    delivered = []
    net.install_delivery(
        lambda dst, payload: delivered.append((events.now, dst, payload))
    )
    return events, net, delivered


def payloads(delivered, dst):
    return [p for _t, d, p in delivered if d == dst]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(retransmit_timeout=0.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retries=0)
        with pytest.raises(ValueError):
            ReliabilityConfig(ack_delay=-1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="reliability"):
            Network(EventQueue(), reliability="hopeful")


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

    def test_piggybacked_acks_replace_standalone(self):
        def standalone_acks(reverse_traffic):
            events, net, delivered = make_net(
                config=ReliabilityConfig(ack_delay=30.0)
            )
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

    def test_retry_cap_raises(self):
        events, net, _delivered = make_net(
            FaultPlan(drop_p=1.0),
            config=ReliabilityConfig(
                retransmit_timeout=5.0, backoff=1.0, max_retries=3
            ),
        )
        net.send(0, 1, "doomed")
        with pytest.raises(ReliabilityError, match="max_retries"):
            events.run()

    def test_backoff_spreads_retransmissions(self):
        # Everything drops, so the cap must trip -- at the virtual
        # time the exponential schedule predicts: retransmissions at
        # 10, 30, 70, 150, and the 5th deadline (10+20+40+80+160=310)
        # finds the attempt budget spent.
        events, net, _delivered = make_net(
            FaultPlan(drop_p=1.0),
            config=ReliabilityConfig(
                retransmit_timeout=10.0, backoff=2.0, max_retries=4
            ),
        )
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


class TestAccountingInteraction:
    def test_aggregate_accounting_keeps_totals_not_kinds(self):
        events, net, delivered = make_net(
            FaultPlan(drop_p=0.3, duplicate_p=0.3), accounting="aggregate", seed=3
        )
        for i in range(80):
            net.send(0, 1, i)
        events.run()
        # Delivery is exactly-once in-order and the scalar books say
        # how; only the per-kind / per-channel breakdown is skipped.
        assert payloads(delivered, 1) == list(range(80))
        snap = net.stats.snapshot()
        assert snap["sent"] == snap["delivered"] == 80
        assert snap["dropped"] > 0 and snap["duplicated"] > 0
        assert snap["retransmits"] > 0 and snap["dup_suppressed"] > 0
        assert snap["physical_sent"] == 80 + snap["retransmits"] + snap["acks"]
        assert snap["by_kind"] == {} and snap["by_channel"] == {}

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

        frame = DataFrame(0, Tagged(), -1)
        assert frame.kind == "tagged"
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
        summary = reliability_summary(cluster.kernel)
        assert summary["mode"] == "enforced"
        assert summary["amplification"] > 1.0
        assert summary["retransmits"] > 0
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

    def test_enforced_with_batching_and_faults(self):
        # Piggyback batching rides inside reliable frames; the two
        # layers compose (batch kinds still counted once per batch).
        cluster = DBTreeCluster(
            num_processors=4,
            capacity=4,
            seed=3,
            relay_batch_window=25.0,
            fault_plan=FaultPlan(drop_p=0.15),
            reliability="enforced",
        )
        expected = run_insert_workload(cluster, count=200)
        assert cluster.check(expected=expected).ok
        batcher = cluster.engine.relay_batcher
        by_kind = cluster.kernel.network.stats.by_kind
        assert by_kind.get("batched_relays", 0) == batcher.batches_sent


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
        assert cluster.kernel.network.reliability == "assumed"

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
