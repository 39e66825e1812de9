"""Network partitions: plan validation, link cuts, gray failures.

Covers the :mod:`repro.sim.partition` fault layer: the
:class:`PartitionPlan` timetable (scheduled splits, one-way losses,
gray latency inflation), the controller's judge and
heal mechanics, composition with the network send paths (fast,
fault-plan, and framed), and the opt-in invariant -- no plan, no
behaviour change.
"""

from __future__ import annotations

import pytest

from repro import DBTreeCluster, PartitionPlan
from repro.sim.partition import PartitionController, _expand_endpoint
from repro.sim.permute import PermutePlan
from repro.stats import layer_report


def split_cluster(plan, protocol="semisync", seed=5, **kwargs):
    return DBTreeCluster(
        num_processors=4,
        protocol=protocol,
        capacity=8,
        seed=seed,
        partition_plan=plan,
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
# PartitionPlan validation
# ----------------------------------------------------------------------
class TestPlanValidation:
    def test_heal_must_follow_cut(self):
        with pytest.raises(ValueError, match="must follow"):
            PartitionPlan(splits=((100.0, 50.0, (0, 1)),))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="group"):
            PartitionPlan(splits=((100.0, 200.0, ()),))

    def test_duplicate_group_member_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PartitionPlan(splits=((100.0, 200.0, (0, 0)),))

    def test_one_way_self_link_rejected(self):
        with pytest.raises(ValueError, match="self"):
            PartitionPlan(one_way=((100.0, 200.0, 1, 1),))

    def test_gray_factor_must_be_positive(self):
        with pytest.raises(ValueError, match="factor"):
            PartitionPlan(gray=((100.0, 200.0, 0, 1, 0.0),))

    def test_wildcard_endpoint_expansion(self):
        pids = (0, 1, 2)
        assert _expand_endpoint(1, 2, pids) == ((1, 2),)
        # src wildcard: every other pid sends to 2
        assert set(_expand_endpoint(None, 2, pids)) == {(0, 2), (1, 2)}
        # both wildcards excluded self-links
        links = _expand_endpoint(None, None, pids)
        assert all(src != dst for src, dst in links)
        assert len(links) == 6


# ----------------------------------------------------------------------
# controller mechanics (no engine)
# ----------------------------------------------------------------------
class TestController:
    def make(self, plan):
        from repro.sim.events import EventQueue

        events = EventQueue()
        controller = PartitionController(events, plan, (0, 1, 2, 3))
        controller.install()
        return events, controller

    def test_split_blocks_both_directions_then_heals(self):
        plan = PartitionPlan(splits=((100.0, 200.0, (0, 1)),))
        events, controller = self.make(plan)
        assert controller.judge(0, 2) == (True, 1.0)
        events.run_until(150.0)
        assert controller.judge(0, 2)[0] is False
        assert controller.judge(2, 0)[0] is False
        assert controller.judge(3, 1)[0] is False
        # intra-group links stay up on both sides
        assert controller.judge(0, 1)[0] is True
        assert controller.judge(2, 3)[0] is True
        events.run_until(250.0)
        assert controller.judge(0, 2) == (True, 1.0)
        assert controller.cuts_applied == 1
        assert controller.heals == 1

    def test_one_way_cut_is_asymmetric(self):
        plan = PartitionPlan(one_way=((100.0, 200.0, 1, 2),))
        events, controller = self.make(plan)
        events.run_until(150.0)
        assert controller.judge(1, 2)[0] is False
        assert controller.judge(2, 1)[0] is True

    def test_gray_inflates_latency_without_blocking(self):
        plan = PartitionPlan(gray=((100.0, 200.0, 1, None, 10.0),))
        events, controller = self.make(plan)
        events.run_until(150.0)
        up, factor = controller.judge(1, 3)
        assert up is True
        assert factor == 10.0
        # the slow direction only
        assert controller.judge(3, 1) == (True, 1.0)
        events.run_until(250.0)
        assert controller.judge(1, 3) == (True, 1.0)

    def test_overlapping_cuts_refcount(self):
        plan = PartitionPlan(
            splits=((100.0, 300.0, (0,)),),
            one_way=((150.0, 200.0, 0, 1),),
        )
        events, controller = self.make(plan)
        # The split isolating 0 cuts its 6 ordered links; the one-way
        # cut stacks a second count on 0->1.
        isolated = [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)]
        events.run_until(175.0)
        assert controller.judge(0, 1)[0] is False
        assert controller.cut_links() == isolated
        events.run_until(250.0)  # one-way healed, split still open
        assert controller.judge(0, 1)[0] is False
        assert controller.cut_links() == isolated
        events.run_until(350.0)
        assert controller.judge(0, 1)[0] is True
        assert controller.cut_links() == []
        assert (controller.cuts_applied, controller.heals) == (2, 2)

    def test_overlapping_gray_factors_compose(self):
        plan = PartitionPlan(
            gray=((100.0, 300.0, 1, 2, 2.0), (200.0, 400.0, 1, 2, 3.0)),
        )
        events, controller = self.make(plan)
        events.run_until(250.0)
        assert controller.judge(1, 2) == (True, 6.0)
        assert controller.gray_links() == {(1, 2): 6.0}
        events.run_until(350.0)
        assert controller.judge(1, 2) == (True, 3.0)
        events.run_until(450.0)
        assert controller.judge(1, 2) == (True, 1.0)
        assert controller.gray_links() == {}

    def test_heal_hooks_fire(self):
        plan = PartitionPlan(
            splits=((100.0, 200.0, (0, 1)),),
            gray=((100.0, 250.0, 2, 3, 4.0),),
        )
        events, controller = self.make(plan)
        healed = []
        controller.on_heal(healed.append)
        events.run_until(400.0)
        assert len(healed) == 2  # the split heal and the gray heal


# ----------------------------------------------------------------------
# network integration
# ----------------------------------------------------------------------
class TestNetworkIntegration:
    def test_cut_swallows_messages_and_run_recovers(self):
        cluster = split_cluster(
            PartitionPlan(splits=((100.0, 150.0, (0, 1)),)),
            reliability="enforced",
            op_timeout=300.0,
        )
        expected = spaced_inserts(cluster, count=30, spacing=5.0)
        results = cluster.run()
        assert results.ok
        assert cluster.check(expected=expected).ok
        summary = layer_report(cluster)["partition"]
        assert summary["enabled"]
        assert summary["cuts_applied"] == 1
        assert summary["heals"] == 1
        assert summary["messages_blocked"] > 0
        assert summary["open_cut_links"] == 0
        assert cluster.kernel.network.stats.partition_blocked == (
            summary["messages_blocked"]
        )

    def test_gray_slows_but_loses_nothing(self):
        plain = split_cluster(None, seed=2)
        expected = spaced_inserts(plain, count=30)
        plain.run()
        slow = split_cluster(
            PartitionPlan(gray=((0.0, None, 1, None, 10.0),)), seed=2
        )
        spaced_inserts(slow, count=30)
        results = slow.run()
        assert results.ok
        assert slow.check(expected=expected).ok
        assert slow.kernel.now > plain.kernel.now
        assert slow.kernel.network.stats.partition_blocked == 0

    def test_unhealed_cut_dead_letters_are_reported(self):
        # A permanent one-way cut under assumed reliability: sends
        # into the cut vanish; the run must still terminate.
        cluster = split_cluster(
            PartitionPlan(one_way=((0.0, None, 0, 1),)),
            op_timeout=200.0,
        )
        spaced_inserts(cluster, count=20, spacing=5.0)
        results = cluster.run()
        summary = layer_report(cluster)["partition"]
        assert summary["open_cut_links"] == 1
        assert summary["messages_blocked"] > 0
        # some operations may have died with the link; every one has
        # a verdict either way
        assert not results.incomplete

    def test_fast_path_untouched_without_plan(self):
        baseline = split_cluster(None, seed=11)
        expected = spaced_inserts(baseline, count=30)
        baseline.run()
        layered = split_cluster(PartitionPlan(), seed=11)
        # an empty plan is inert -- the cluster refuses nothing, and
        # the run is event-for-event identical
        spaced_inserts(layered, count=30)
        layered.run()
        assert layered.kernel.now == baseline.kernel.now
        assert (
            layered.kernel.events.executed == baseline.kernel.events.executed
        )
        assert layered.check(expected=expected).ok

    def test_permuter_incompatible(self):
        refused = "PermutePlan is incompatible with PartitionPlan"
        with pytest.raises(ValueError, match=refused):
            DBTreeCluster(
                permute_plan=PermutePlan(rate=0.1, window=10.0),
                partition_plan=PartitionPlan(
                    splits=((1.0, 2.0, (0,)),)
                ),
            )

    def test_summary_without_plan(self):
        cluster = split_cluster(None)
        assert layer_report(cluster)["partition"] == {"enabled": False}

    def test_scheduled_split_reproducible(self):
        plan = PartitionPlan(splits=((100.0, 250.0, (0, 1)),))
        runs = []
        for _ in range(2):
            cluster = split_cluster(
                plan, seed=13, reliability="enforced", op_timeout=400.0
            )
            spaced_inserts(cluster, count=30)
            cluster.run()
            summary = layer_report(cluster)["partition"]
            runs.append((cluster.kernel.now, summary["messages_blocked"]))
        assert runs[0] == runs[1]
        assert runs[0][1] > 0  # the split actually swallowed traffic
