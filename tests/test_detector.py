"""Failure detection: the oracle, heartbeats, timeout and phi-accrual.

Covers :mod:`repro.sim.detector`, the crash plan's detector: plan
validation, the oracle (ground truth, announced ``detection_delay``
after a crash), heartbeat
emission/arrival over the datagram path, suspicion earned from
silence (not from the ground truth), rescission when a
suspected peer speaks again, the phi-accrual detector's adaptation to
observed inter-arrival distributions (the gray-failure acceptance
scenario), and the engine-level consequences -- false suspicion of a
live processor must heal back to a clean audit with no leaf loss.
"""

from __future__ import annotations

import math
from collections import deque

import pytest

from repro import (
    CrashPlan,
    DBTreeCluster,
    PartitionPlan,
)
from repro.sim import detector as detector_module
from repro.sim.detector import OracleDetector
from repro.stats import layer_report


def detector_cluster(
    crash_plan,
    protocol="variable",
    seed=3,
    partition_plan=None,
    **kwargs,
):
    kwargs.setdefault("op_timeout", 300.0)
    kwargs.setdefault("op_retries", 8)
    kwargs.setdefault("capacity", 8)
    return DBTreeCluster(
        num_processors=4,
        protocol=protocol,
        seed=seed,
        crash_plan=crash_plan,
        partition_plan=partition_plan,
        **kwargs,
    )


def spaced_inserts(cluster, count=40, spacing=10.0):
    expected = {}
    pids = cluster.kernel.pids
    for index in range(count):
        key = (index * 7) % 2003
        expected[key] = index
        cluster.schedule(
            index * spacing, "insert", key, index,
            client=pids[index % len(pids)],
        )
    return expected


# ----------------------------------------------------------------------
# the crash plan's detector fields
# ----------------------------------------------------------------------
class TestPlanValidation:
    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="detector"):
            CrashPlan(detector="gossip", detector_horizon=100.0)

    def test_oracle_needs_no_horizon(self):
        assert CrashPlan().detector == "oracle"
        assert CrashPlan().detector_horizon == 0.0
        # ...nor a delay above the (unused) heartbeat period
        assert CrashPlan(detection_delay=5.0).detection_delay == 5.0
        with pytest.raises(ValueError, match="detection_delay"):
            CrashPlan(detection_delay=0.0)

    def test_horizon_required(self):
        with pytest.raises(ValueError, match="horizon"):
            CrashPlan(detector="phi")

    def test_delay_must_exceed_period(self):
        with pytest.raises(ValueError, match="detection_delay"):
            CrashPlan(
                detector="phi",
                heartbeat_period=50.0,
                detection_delay=50.0,
                detector_horizon=100.0,
            )



# ----------------------------------------------------------------------
# the oracle: ground truth, announced detection_delay after a crash
# ----------------------------------------------------------------------
def oracle_cluster(schedule, replication_factor=2, detection_delay=50.0):
    """A crash plan that names no detector: the oracle."""
    return DBTreeCluster(
        num_processors=4,
        protocol="variable",
        capacity=4,
        seed=3,
        crash_plan=CrashPlan(schedule=schedule, detection_delay=detection_delay),
        op_timeout=3000.0,
        op_retries=5,
        replication_factor=replication_factor,
    )


def hook_log(detector):
    """Every suspicion and rescission the detector delivers, timed."""
    log = []
    for verdict, register in (
        ("suspect", detector.on_suspect),
        ("rescind", detector.on_rescind),
    ):
        register(
            lambda observer, peer, verdict=verdict: log.append(
                (verdict, detector.kernel.now, observer, peer)
            )
        )
    return log


class TestOracle:
    def test_crash_plan_alone_builds_the_oracle(self):
        cluster = oracle_cluster(((3, 50.0, None),))
        assert type(cluster.kernel.detector) is OracleDetector
        assert cluster.kernel.detector.plan.detector == "oracle"
        report = layer_report(cluster)
        assert "detector" not in report  # the crash entry carries it
        assert report["crash"]["detector"] == "oracle"
        assert report["crash"]["heartbeats_sent"] == 0

    @pytest.mark.parametrize("delay", [50.0, 70.0])
    def test_suspects_at_crash_plus_delay_at_every_live_processor(
        self, delay
    ):
        cluster = oracle_cluster(((3, 50.0, None),), detection_delay=delay)
        log = hook_log(cluster.kernel.detector)
        spaced_inserts(cluster)
        cluster.run()
        at = 50.0 + delay
        assert log == [("suspect", at, observer, 3) for observer in (0, 1, 2)]
        [record] = cluster.kernel.crash_controller.records
        assert record.detected_at == at
        assert record.suspected_by == []  # the oracle earns nothing

    def test_no_suspicion_when_back_before_delay(self):
        # Down for 20 < delay 50: peers never learn.
        cluster = oracle_cluster(((1, 100.0, 120.0),), replication_factor=1)
        log = hook_log(cluster.kernel.detector)
        spaced_inserts(cluster)
        cluster.run()
        assert log == []
        [record] = cluster.kernel.crash_controller.records
        assert record.detected_at is None
        assert cluster.trace.counters.get("peer_failure_stale", 0) == 0
        assert cluster.check().ok

    def test_opinion_is_ground_truth_throughout_a_crash_window(self):
        cluster = oracle_cluster(((1, 100.0, 400.0),))
        spaced_inserts(cluster)
        kernel = cluster.kernel
        controller, detector = kernel.crash_controller, kernel.detector
        seen = set()
        for step in range(0, 601, 5):
            kernel.run_until(float(step))
            down = {pid for pid in kernel.pids if not controller.is_alive(pid)}
            seen.add(frozenset(down))
            for observer in kernel.pids:
                assert detector.suspected_by(observer) == down
                for peer in kernel.pids:
                    assert detector.is_suspected(observer, peer) == (
                        peer in down
                    )
        assert seen == {frozenset(), frozenset({1})}
        assert cluster.run().ok

    def test_never_rescinds(self):
        cluster = oracle_cluster(((1, 100.0, 400.0), (2, 600.0, 900.0)))
        log = hook_log(cluster.kernel.detector)
        expected = spaced_inserts(cluster, count=100)
        cluster.run()
        assert [(verdict, at, peer) for verdict, at, _, peer in log] == (
            [("suspect", 150.0, 1)] * 3 + [("suspect", 650.0, 2)] * 3
        )
        assert cluster.trace.counters.get("peer_rescinds", 0) == 0
        assert cluster.check(expected=expected).ok


# ----------------------------------------------------------------------
# heartbeats and suspicion mechanics
# ----------------------------------------------------------------------
class TestHeartbeats:
    def test_heartbeats_flow_and_none_suspected_on_quiet_cluster(self):
        cluster = detector_cluster(
            CrashPlan(detector="timeout", detector_horizon=1000.0)
        )
        expected = spaced_inserts(cluster, count=20)
        cluster.run()
        summary = layer_report(cluster)["crash"]
        assert summary["enabled"]
        assert summary["heartbeats_sent"] > 0
        assert summary["heartbeats_received"] == summary["heartbeats_sent"]
        assert summary["suspicions"] == 0
        assert summary["false_suspicions"] == 0
        assert cluster.check(expected=expected).ok

    def test_heartbeats_bypass_transport_accounting(self):
        # Datagrams must not count as logical messages or disturb the
        # reliable transport's sequence space.
        cluster = detector_cluster(
            CrashPlan(detector="timeout", detector_horizon=500.0),
            reliability="enforced",
        )
        baseline = detector_cluster(None, reliability="enforced", seed=3)
        expected = spaced_inserts(cluster, count=20)
        spaced_inserts(baseline, count=20)
        cluster.run()
        baseline.run()
        assert (
            cluster.kernel.network.stats.sent
            == baseline.kernel.network.stats.sent
        )
        assert cluster.check(expected=expected).ok

    def test_crash_is_suspected_without_oracle(self):
        cluster = detector_cluster(
            CrashPlan(
                schedule=((1, 400.0, 600.0),),
                detector="timeout",
                detection_delay=50.0,
                detector_horizon=3000.0,
            ),
            replication_factor=2,
            repair_period=100.0,
        )
        expected = spaced_inserts(cluster)
        results = cluster.run()
        assert results.ok
        assert cluster.check(expected=expected).ok
        summary = layer_report(cluster)["crash"]
        # all three survivors earn the suspicion themselves
        assert summary["suspicions"] == 3
        assert summary["false_suspicions"] == 0
        assert summary["mean_detection"] >= 50.0
        # the oracle never ran: detection shows up in the crash
        # record via the detector's note_detected path
        assert cluster.kernel.detector.plan.detector == "timeout"
        record = cluster.kernel.crash_controller.records[0]
        assert record.detected_at is not None
        assert sorted(record.suspected_by) == [0, 2, 3]  # deduplicated

    def test_restart_rescinds_suspicion(self):
        cluster = detector_cluster(
            CrashPlan(
                schedule=((1, 400.0, 600.0),),
                detector="timeout",
                detection_delay=50.0,
                detector_horizon=3000.0,
            ),
            replication_factor=2,
        )
        expected = spaced_inserts(cluster)
        cluster.run()
        summary = layer_report(cluster)["crash"]
        assert summary["rescinds"] == summary["suspicions"] > 0
        detector = cluster.kernel.detector
        for observer in (0, 2, 3):
            assert not detector.is_suspected(observer, 1)
        assert cluster.check(expected=expected).ok

    def test_detector_with_an_empty_schedule_runs_the_crash_layer(self):
        cluster = detector_cluster(
            CrashPlan(detector="phi", detector_horizon=1000.0)
        )
        assert cluster.kernel.crash_controller is not None
        assert cluster.kernel.detector.plan.detector == "phi"
        expected = spaced_inserts(cluster, count=20)
        cluster.run()
        assert cluster.check(expected=expected).ok

    def test_phi_warmup_falls_back_to_timeout(self, monkeypatch):
        # Below MIN_SAMPLES the phi detector must still catch an
        # immediate crash via the timeout criterion.
        monkeypatch.setattr(detector_module, "MIN_SAMPLES", 1000)
        cluster = detector_cluster(
            CrashPlan(
                schedule=((2, 100.0, None),),
                detector="phi",
                detection_delay=60.0,
                detector_horizon=2000.0,
            ),
            replication_factor=2,
        )
        spaced_inserts(cluster, count=20)
        cluster.run()
        summary = layer_report(cluster)["crash"]
        assert summary["suspicions"] == 3
        assert summary["false_suspicions"] == 0


# ----------------------------------------------------------------------
# the phi model: window, sigma floor, sample cap
# ----------------------------------------------------------------------
class TestPhiModel:
    def test_window_keeps_the_last_window_gaps(self, monkeypatch):
        # 100 beats per link over the horizon; the model keeps 16.
        monkeypatch.setattr(detector_module, "WINDOW", 16)
        cluster = detector_cluster(
            CrashPlan(
                detector="phi", heartbeat_period=20.0, detector_horizon=2000.0
            )
        )
        spaced_inserts(cluster, count=10)
        cluster.run()
        windows = cluster.kernel.detector._windows
        assert len(windows) == 12  # every ordered link of 4 processors
        assert all(len(window) == 16 for window in windows.values())

    def test_phi_of_a_regular_stream_uses_the_sigma_floor(self):
        # A perfectly regular stream has sigma 0; the model floors it
        # at the period, so one period late is z = 1, not a division
        # by zero or an instant suspicion.
        cluster = detector_cluster(
            CrashPlan(
                detector="phi", heartbeat_period=25.0, detector_horizon=100.0
            )
        )
        detector = cluster.kernel.detector
        detector._windows[(0, 1)] = deque([25.0] * 10)
        phi = detector._phi_of_gap((0, 1), 50.0)
        expected = -math.log10(0.5 * math.erfc(1.0 / math.sqrt(2.0)))
        assert phi == pytest.approx(expected)

    def test_a_window_wider_than_the_floor_keeps_its_own_sigma(self):
        # Gaps of 0 and 100 have sigma 50, above the period's floor of
        # 25: a gap of 100 is one sigma late, as with the floor's z = 1.
        cluster = detector_cluster(
            CrashPlan(
                detector="phi", heartbeat_period=25.0, detector_horizon=100.0
            )
        )
        detector = cluster.kernel.detector
        detector._windows[(0, 1)] = deque([0.0, 100.0] * 5)
        phi = detector._phi_of_gap((0, 1), 100.0)
        expected = -math.log10(0.5 * math.erfc(1.0 / math.sqrt(2.0)))
        assert phi == pytest.approx(expected)

    def test_crash_sized_gap_is_kept_out_of_the_model(self):
        # Processor 1 is silent for 600 vt, beyond the 20-period cap
        # (400 vt): the resumed stream must not carry that gap.
        cluster = detector_cluster(
            CrashPlan(
                schedule=((1, 400.0, 1000.0),),
                detector="phi",
                heartbeat_period=20.0,
                detector_horizon=2000.0,
            ),
            replication_factor=2,
        )
        expected = spaced_inserts(cluster)
        cluster.run()
        windows = cluster.kernel.detector._windows
        for observer in (0, 2, 3):
            assert max(windows[(observer, 1)]) <= 400.0
        assert cluster.check(expected=expected).ok


# ----------------------------------------------------------------------
# the gray-failure acceptance scenario
# ----------------------------------------------------------------------
class TestGrayFailure:
    GRAY = PartitionPlan(gray=((500.0, 2500.0, 1, None, 10.0),))

    def run_mode(self, mode):
        cluster = detector_cluster(
            CrashPlan(detector=mode, detector_horizon=4000.0),
            protocol="semisync",
            seed=2,
            partition_plan=self.GRAY,
            op_timeout=500.0,
        )
        expected = spaced_inserts(cluster)
        results = cluster.run()
        return cluster, expected, results

    def test_timeout_detector_false_suspects_then_rescinds(self):
        cluster, expected, results = self.run_mode("timeout")
        summary = layer_report(cluster)["crash"]
        assert summary["false_suspicions"] > 0
        assert summary["rescinds"] == summary["suspicions"]
        assert results.ok
        assert cluster.check(expected=expected).ok

    def test_phi_detector_adapts_and_never_suspects(self):
        cluster, expected, results = self.run_mode("phi")
        summary = layer_report(cluster)["crash"]
        assert summary["suspicions"] == 0
        assert summary["false_suspicions"] == 0
        assert results.ok
        assert cluster.check(expected=expected).ok

    def test_phi_suspects_the_gray_link_below_its_threshold(self, monkeypatch):
        # The same gray link trips phi once the threshold is low
        # enough; every suspicion is false and rescinded.
        monkeypatch.setattr(detector_module, "PHI_THRESHOLD", 4.0)
        cluster, expected, results = self.run_mode("phi")
        summary = layer_report(cluster)["crash"]
        assert summary["false_suspicions"] == summary["suspicions"] == summary["rescinds"] > 0
        assert results.ok
        assert cluster.check(expected=expected).ok


# ----------------------------------------------------------------------
# engine consequences of false suspicion
# ----------------------------------------------------------------------
class TestFalseSuspicionHeals:
    def test_partitioned_live_processor_readmitted_no_leaf_loss(self):
        # A healed split: both sides falsely suspect each other, the
        # variable protocol force-unjoins live processors, and the
        # anti-entropy layer re-admits them -- clean audit, no lost
        # keys, nobody still written off (check_false_kill).
        cluster = detector_cluster(
            CrashPlan(detector="timeout", detector_horizon=6000.0),
            partition_plan=PartitionPlan(
                splits=((800.0, 1400.0, (0, 1)),)
            ),
            seed=9,
            capacity=16,
            op_retries=10,
            replication_factor=2,
            repair_period=100.0,
        )
        expected = spaced_inserts(cluster, count=60)
        results = cluster.run()
        assert results.ok
        report = cluster.check(expected=expected)
        assert report.ok, report.problems
        summary = layer_report(cluster)["crash"]
        assert summary["false_suspicions"] > 0
        assert summary["rescinds"] == summary["suspicions"]
        avail = cluster.availability_summary()
        assert avail["crashes"] == 0
        assert avail["peer_rescinds"] > 0
        # suspicion state fully cleared at quiescence
        detector = cluster.kernel.detector
        for observer in cluster.kernel.pids:
            assert not detector.suspected_by(observer)
        for proc in cluster.kernel.processors.values():
            assert not proc.state.get("dead_peers")

    def test_false_kill_checker_flags_stuck_suspicion(self):
        from repro.verify.checker import check_false_kill

        cluster = detector_cluster(
            CrashPlan(detector="timeout", detector_horizon=500.0)
        )
        spaced_inserts(cluster, count=10)
        cluster.run()
        assert check_false_kill(cluster.engine) == []
        # forge a stuck opinion of a live peer
        cluster.kernel.processor(0).state["dead_peers"] = {2}
        problems = check_false_kill(cluster.engine)
        assert len(problems) == 1
        assert "false kill" in problems[0]

    def test_eager_replacement_skips_a_falsely_suspected_live_peer(self):
        # A gray failure makes every observer falsely suspect live pid
        # 1.  Its primary copies force-unjoin it, and eager recovery
        # looks for a replacement member: the only pid outside the
        # thinned copy sets is pid 1 itself, which the PC believes is
        # down, so none may be chosen.  (The ground truth says pid 1
        # is alive; asking it would re-replicate onto the peer just
        # written off.)
        cluster = detector_cluster(
            CrashPlan(detector="timeout", detector_horizon=4000.0),
            seed=2,
            partition_plan=PartitionPlan(gray=((500.0, 2500.0, 1, None, 10.0),)),
            op_timeout=500.0,
            recovery_mode="eager",
            replication_factor=2,
            repair_period=100.0,
        )
        expected = spaced_inserts(cluster)
        assert cluster.run().ok
        assert cluster.check(expected=expected).ok
        counters = cluster.trace.counters
        assert counters["crash_forced_unjoins"] > 0
        assert counters.get("eager_rereplications", 0) == 0
