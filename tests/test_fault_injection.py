"""The reliability assumption is load-bearing (A2 ablation).

The paper's protocols assume a reliable exactly-once FIFO network.
These tests show (a) the protocols stay audit-clean on the reliable
network, (b) dropping messages loses updates, and (c) the idempotent
apply layer absorbs duplicate deliveries (exactly-once is convenient
but duplication is survivable thanks to action-id de-duplication).
"""

import random

from tests.helpers import partitions_disjoint, run_insert_workload
from repro import DBTreeCluster, FaultPlan


def faulty_cluster(plan, seed=3):
    return DBTreeCluster(
        num_processors=4,
        protocol="semisync",
        capacity=4,
        seed=seed,
        fault_plan=plan,
    )


class TestReliableBaseline:
    def test_clean_without_faults(self):
        cluster = faulty_cluster(None)
        expected = run_insert_workload(cluster, count=200)
        assert cluster.check(expected=expected).ok


class TestDrops:
    def test_dropped_relays_break_convergence(self):
        plan = FaultPlan(drop_p=0.3, only_kinds=frozenset({"insert_relayed"}))
        cluster = faulty_cluster(plan)
        expected = run_insert_workload(cluster, count=200)
        report = cluster.check(expected=expected)
        assert not report.ok
        assert cluster.kernel.network.stats.dropped > 0

    def test_dropped_splits_break_the_tree(self):
        plan = FaultPlan(drop_p=0.5, only_kinds=frozenset({"relayed_split"}))
        cluster = faulty_cluster(plan)
        expected = run_insert_workload(cluster, count=200)
        report = cluster.check(expected=expected)
        assert not report.ok

    def test_a_kind_restricted_plan_judges_each_message_alone(self):
        # Under a plan on kinds every item is its own message, so every
        # relayed split is dropped -- and with it the sibling copy it
        # carries: each split's sibling lives only where it was made.
        plan = FaultPlan(drop_p=1.0, only_kinds=frozenset({"relayed_split"}))
        cluster = faulty_cluster(plan)
        run_insert_workload(cluster, count=100)
        stats = cluster.kernel.network.stats
        assert stats.piggybacked == 0
        assert stats.dropped == stats.by_kind["relayed_split"] > 0
        assert sum(stats.by_kind.values()) == stats.sent
        engine = cluster.engine
        node_ids = {copy.node_id for copy in engine.all_copies()}
        single = [n for n in node_ids if len(engine.copies_of(n)) == 1]
        assert len(single) == cluster.trace.counters["half_splits"] > 0


class TestDuplicates:
    def test_duplicate_relays_are_absorbed(self):
        # Exactly-once is assumed by the paper, but the action-id
        # de-duplication makes duplicated *relays* harmless.
        plan = FaultPlan(
            duplicate_p=0.5,
            only_kinds=frozenset({"insert_relayed", "relayed_split"}),
        )
        cluster = faulty_cluster(plan)
        expected = run_insert_workload(cluster, count=200)
        report = cluster.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:10])
        assert cluster.trace.counters.get("duplicate_relay_ignored", 0) > 0
        assert cluster.kernel.network.stats.duplicated > 0


class TestJudgeIndependence:
    """Each delivery attempt is judged on its own (the PR's bugfix).

    The old judge tied the verdicts together: a duplicated message
    could never lose one copy, and only the duplicate copy could be
    reordered.  Real per-packet faults are independent, and the
    reliable layer's dedup/resequencing is only honest if the
    substrate can combine them.
    """

    def judge_many(self, plan, trials=4000, seed=11):
        rng = random.Random(seed)
        return [plan.judge(0, 1, object(), rng) for _ in range(trials)]

    def test_duplicate_copy_can_be_dropped(self):
        plan = FaultPlan(drop_p=0.5, duplicate_p=1.0)
        verdicts = self.judge_many(plan)
        assert all(len(v) == 2 for v in verdicts)
        # Every drop pattern occurs: neither, either one, both.
        patterns = {(a[0], b[0]) for a, b in verdicts}
        assert patterns == {
            (False, False), (False, True), (True, False), (True, True)
        }

    def test_both_copies_can_be_reordered(self):
        plan = FaultPlan(reorder_p=0.5, duplicate_p=1.0, reorder_delay=50.0)
        verdicts = self.judge_many(plan)
        delayed_both = sum(
            1 for a, b in verdicts if a[1] > 0 and b[1] > 0
        )
        delayed_first_only = sum(
            1 for a, b in verdicts if a[1] > 0 and b[1] == 0
        )
        # Independence: both-copies-delayed and first-copy-only-delayed
        # each happen about a quarter of the time.
        assert delayed_both > 0
        assert delayed_first_only > 0

    def test_drop_rate_is_per_attempt(self):
        plan = FaultPlan(drop_p=0.25, duplicate_p=1.0)
        verdicts = self.judge_many(plan, trials=8000)
        attempts = [v for pair in verdicts for v in pair]
        drop_rate = sum(1 for dropped, _ in attempts if dropped) / len(attempts)
        assert abs(drop_rate - 0.25) < 0.02

    def test_single_attempt_shape_unchanged(self):
        plan = FaultPlan(drop_p=0.3)
        for verdict in self.judge_many(plan, trials=200):
            assert len(verdict) == 1
            dropped, extra = verdict[0]
            assert extra == 0.0


class TestReordering:
    def test_reordered_relays_flagged_by_counters(self):
        plan = FaultPlan(
            reorder_p=0.4,
            reorder_delay=200.0,
            only_kinds=frozenset({"insert_relayed", "relayed_split"}),
        )
        cluster = faulty_cluster(plan, seed=5)
        expected = run_insert_workload(cluster, count=300)
        report = cluster.check(expected=expected)
        # FIFO violations surface as out-of-range relayed splits and
        # fail the audit: the in-order assumption is load-bearing.
        assert not report.ok
        assert cluster.trace.counters.get("relayed_split_out_of_range", 0) > 0


class TestDuplicatedReturns:
    """A duplicated message can land a second return value at an op's
    home (a duplicated ``ReturnValue``, or a duplicated ``SearchStep``
    that finishes the op twice); the home keeps the first."""

    @staticmethod
    def run_duplicated(trace_level):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="variable",
            capacity=4,
            seed=3,
            fault_plan=FaultPlan(duplicate_p=0.3),
            trace_level=trace_level,
        )
        returns = []
        cluster.engine.op_completion_listeners.append(
            lambda op, _result: returns.append(op.op_id)
        )
        pids = cluster.pids
        expected = {}
        submitted = []
        for index in range(100):
            key = (index * 7) % 2003
            expected[key] = index
            submitted.append(cluster.insert(key, index, client=pids[index % 4]))
        cluster.run()
        for index, key in enumerate(expected):
            submitted.append(cluster.search(key, client=pids[(index + 1) % 4]))
        return cluster, cluster.run(), expected, submitted, returns

    def test_every_op_completes_exactly_once(self):
        cluster, results, expected, submitted, returns = self.run_duplicated("full")
        assert sorted(returns) == sorted(submitted)
        assert sorted(results.completed) == sorted(submitted)
        assert results.ok and partitions_disjoint(results)
        for value, search in zip(expected.values(), submitted[100:]):
            assert results.completed[search] == value
        assert cluster.trace.counters["duplicate_return_ignored"] > 0
        assert cluster.kernel.network.stats.duplicated > 0
        report = cluster.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:10])

    def test_listeners_hear_each_op_once_without_records(self):
        cluster, results, _expected, submitted, returns = self.run_duplicated("off")
        assert sorted(returns) == sorted(submitted)
        assert results.completed == {} and results.incomplete == ()
        assert cluster.trace.counters["duplicate_return_ignored"] > 0
