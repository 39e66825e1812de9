"""Crash-stop failures: plan, controller, recovery, and accounting.

Covers the failure layer end to end: the :class:`CrashPlan`
timetable, the simulator-level crash/restart mechanics (queue loss,
dead letters, channel resets), the engine's recovery protocol
(forced unjoins, PC donations, mirror re-homing, op timeouts with
idempotent retry), and the audit/stats surfaces
(:func:`check_crash_losses`, ``availability_summary``,
``RunResults`` partitions).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import CrashPlan, DBTreeCluster, FaultPlan
from repro.sim import reliable
from repro.sim.network import Bundle
from repro.sim.processor import ProcessorDownError
from repro.sim.reliable import ReliabilityError

# Every pair view the repair layer keeps is held to the from-scratch
# derivation on every call (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("checked_views")


def crash_cluster(
    schedule,
    protocol="variable",
    seed=3,
    num_processors=4,
    op_timeout=3000.0,
    op_retries=5,
    replication_factor=2,
    **kwargs,
):
    return DBTreeCluster(
        num_processors=num_processors,
        protocol=protocol,
        capacity=4,
        seed=seed,
        crash_plan=CrashPlan(schedule=schedule),
        op_timeout=op_timeout,
        op_retries=op_retries,
        replication_factor=replication_factor,
        **kwargs,
    )


def spaced_inserts(cluster, count=200, spacing=10.0, key_fn=lambda i: (i * 7) % 2003):
    """Schedule ``count`` distinct inserts at ``spacing`` intervals."""
    expected = {}
    pids = cluster.kernel.pids
    for index in range(count):
        key = key_fn(index)
        assert key not in expected
        expected[key] = index
        cluster.schedule(
            index * spacing, "insert", key, index, client=pids[index % len(pids)]
        )
    return expected


# ----------------------------------------------------------------------
# CrashPlan validation
# ----------------------------------------------------------------------
class TestCrashPlan:
    def test_restart_must_follow_crash(self):
        with pytest.raises(ValueError, match="restart_at must follow"):
            CrashPlan(schedule=((0, 100.0, 50.0),))

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            CrashPlan(schedule=((0, 100.0, 300.0), (0, 200.0, 400.0)))

    def test_permanent_crash_allows_later_schedule_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            CrashPlan(schedule=((0, 100.0, None), (0, 200.0, 300.0)))


# ----------------------------------------------------------------------
# simulator-level mechanics
# ----------------------------------------------------------------------
class TestCrashMechanics:
    def test_crash_loses_queue_and_restart_comes_back_empty(self):
        cluster = crash_cluster(((1, 30.0, 400.0),), replication_factor=1)
        # Pile work onto pid 1 so its queue is non-empty at the crash.
        for index in range(50):
            cluster.insert((index * 7) % 2003, index, client=1)
        cluster.run()
        controller = cluster.kernel.crash_controller
        [record] = controller.records
        assert record.pid == 1
        assert record.lost_actions > 0
        assert record.restarted_at == 400.0
        assert cluster.kernel.processor(1).alive

    def test_schedule_runs_in_crash_time_order(self):
        # The plan is a timetable: entries fire by crash time, not by
        # their order in the tuple.
        cluster = crash_cluster(((2, 300.0, 400.0), (1, 100.0, 200.0)))
        expected = spaced_inserts(cluster, count=60)
        cluster.run()
        records = cluster.kernel.crash_controller.records
        assert [(r.pid, r.crashed_at, r.restarted_at) for r in records] == [
            (1, 100.0, 200.0),
            (2, 300.0, 400.0),
        ]
        assert [r.downtime for r in records] == [100.0, 100.0]
        assert cluster.check(expected=expected).ok

    @pytest.mark.parametrize(
        "schedule, crashes",
        [
            # Back-to-back windows of one pid, listed either way round:
            # the restart at 200 is queued before the crash at 200.
            (
                ((1, 200.0, 300.0), (1, 100.0, 200.0)),
                [(1, 100.0, 200.0), (1, 200.0, 300.0)],
            ),
            (
                ((1, 100.0, 200.0), (1, 200.0, 300.0)),
                [(1, 100.0, 200.0), (1, 200.0, 300.0)],
            ),
            # Same-instant crashes run in pid order.
            (
                ((2, 150.0, 400.0), (1, 150.0, 400.0)),
                [(1, 150.0, 400.0), (2, 150.0, 400.0)],
            ),
        ],
    )
    def test_schedule_installs_by_crash_time_then_pid(self, schedule, crashes):
        cluster = crash_cluster(schedule)
        expected = spaced_inserts(cluster, count=60)
        results = cluster.run()
        records = cluster.kernel.crash_controller.records
        assert [(r.pid, r.crashed_at, r.restarted_at) for r in records] == crashes
        assert len(results.completed) == 60
        assert cluster.check(expected=expected).ok

    def test_permanent_crash_never_restarts(self):
        cluster = crash_cluster(((3, 50.0, None),))
        spaced_inserts(cluster, count=40)
        cluster.run()
        [record] = cluster.kernel.crash_controller.records
        assert record.restarted_at is None
        assert record.downtime is None
        assert record.recovery_latency is None
        assert not cluster.kernel.processor(3).alive
        assert cluster.kernel.crash_controller.alive_pids() == [0, 1, 2]

    def test_submit_to_dead_processor_raises_at_sim_layer(self):
        cluster = crash_cluster(((1, 10.0, 500.0),))
        cluster.kernel.run_until(50.0)
        proc = cluster.kernel.processor(1)
        assert not proc.alive
        with pytest.raises(ProcessorDownError):
            proc.submit(object())

    def test_dead_destination_becomes_dead_letter(self):
        cluster = crash_cluster(((1, 10.0, None),), replication_factor=1)
        cluster.kernel.run_until(100.0)
        before = cluster.kernel.network.stats.dead_letters
        # An op homed elsewhere that must touch pid 1's data would be
        # routed there; simplest: send directly via the network.
        cluster.kernel.network.send(0, 1, object())
        cluster.kernel.run_until(200.0)
        assert cluster.kernel.network.stats.dead_letters == before + 1

    def test_no_crash_plan_keeps_layer_uninstalled(self):
        cluster = DBTreeCluster(num_processors=2, protocol="variable", capacity=4)
        assert cluster.kernel.crash_controller is None
        assert cluster.engine.crash is None
        assert cluster.engine.mirrors is None


# ----------------------------------------------------------------------
# submit racing a crash: fail-over
# ----------------------------------------------------------------------
def stranded_cluster(**kwargs):
    """Two processors and a window in which neither can begin an op.

    Pid 0 is down from 10 to 300.  Pid 1 answers its restart
    announcement at 311 (root pointer, root copy, its leaves' mirrors)
    and goes down for good at 313, before that answer lands at 322.
    From 313 to 322 no processor is live and rooted: pid 1 is dead and
    pid 0 alive but rootless.  At 322 pid 0 is rooted again, with the
    root copy; its first op goes to the root 'at pid 1' and is
    dead-lettered, and pid 1's leaves come back to pid 0 when pid 1's
    crash is detected (363).
    """
    return crash_cluster(
        ((0, 10.0, 300.0), (1, 313.0, None)), num_processors=2, **kwargs
    )


def completion_homes(cluster):
    """op id -> the processor its completion fired at."""
    homes = {}
    cluster.engine.op_completion_listeners.append(
        lambda op, _result: homes.__setitem__(op.op_id, op.home_pid)
    )
    return homes


class TestFailOver:
    @pytest.mark.parametrize(
        "schedule, client, at, new_home",
        [
            (((1, 10.0, 2000.0),), 1, 50.0, 2),  # home down
            (((1, 10.0, 2000.0), (2, 10.0, 2000.0)), 1, 50.0, 3),  # successor down too
            (((3, 10.0, 2000.0),), 3, 50.0, 0),  # the ring wraps
            (((1, 10.0, 300.0),), 1, 305.0, 2),  # home back but rootless until 312
        ],
        ids=["down", "skips-dead-successor", "wraps", "rootless"],
    )
    def test_submit_fails_over_to_first_live_rooted_successor(
        self, schedule, client, at, new_home
    ):
        cluster = crash_cluster(schedule, op_timeout=500.0)
        cluster.kernel.run_until(at)
        homes = completion_homes(cluster)
        op_id = cluster.insert(999, "x", client=client)
        results = cluster.run()
        assert results.completed[op_id] is True
        assert homes == {op_id: new_home}
        summary = cluster.availability_summary()
        assert summary["op_failed_over"] == 1
        assert summary["op_retries"] == 0  # no retry spent, no timer waited on
        assert cluster.check().ok

    def test_crash_fails_over_pending_ops_and_swallows_late_returns(self):
        # Thirty inserts homed at pid 1, which is down from 40 to 45:
        # every op still pending at the crash is re-issued from pid 2
        # at once.  Originals whose returns land at the restarted pid 1
        # after their re-issue completed are duplicates, swallowed.
        cluster = crash_cluster(((1, 40.0, 45.0),))
        homes = completion_homes(cluster)
        for index in range(30):
            cluster.insert((index * 11) % 509, index, client=1)
        cluster.kernel.run_until(39.0)
        pending_at_crash = 30 - len(homes)
        results = cluster.run()
        assert len(results.completed) == 30
        counters = cluster.trace.counters
        assert counters["op_failed_over"] == pending_at_crash > 0
        assert counters["duplicate_return_ignored"] > 0
        assert counters.get("op_retries", 0) == 0
        assert 2 in homes.values()
        assert cluster.check().ok

    def test_crash_without_timers_fails_over_its_homes_ops(self):
        # Pid 1 goes down for good at 30 with its share of 300 inserts
        # still owed a result, and no op has a timer: the crash reads
        # the ledger, so each of them is re-issued from pid 2.
        cluster = crash_cluster(((1, 30.0, None),), seed=1, op_timeout=None)
        for index in range(300):
            cluster.insert(index, index, client=index % 4)
        results = cluster.run()
        assert results.ok
        assert len(results.completed) == 300
        assert cluster.trace.counters["op_failed_over"] == 75
        assert cluster.check().ok

    def test_crash_with_no_live_rooted_processor_fails_its_homes_ops(self):
        # Both processors go down for good and no timer will retry:
        # pid 0's ops fail over to pid 1 at 20, and every op pid 1
        # then holds fails at 30 -- none is left owed a result.
        cluster = crash_cluster(
            ((0, 20.0, None), (1, 30.0, None)), num_processors=2, op_timeout=None
        )
        for index in range(40):
            cluster.insert(index, index, client=index % 2)
        cluster.kernel.run_until(29.0)
        owed = {
            op_id for op_id, op in cluster.engine.in_flight.items() if op.home_pid == 1
        }
        results = cluster.run()
        assert owed and owed <= set(results.failed)
        assert results.incomplete == ()
        assert len(results.completed) + len(results.failed) == 40
        # Every copy is gone, so only the ops' half of the audit holds.
        assert not [p for p in cluster.check().problems if "complete-ops" in p]


class TestSubmitRacesCrash:
    """No processor live and rooted: park, fail and time out, or fail
    over once one is rooted again."""

    def test_submit_on_dead_home_fails_without_timeout(self):
        cluster = stranded_cluster(op_timeout=None)
        cluster.kernel.run_until(316.0)
        op_id = cluster.insert(999, "x", client=1)
        results = cluster.run()
        assert op_id in results.failed
        assert op_id not in results.completed
        assert cluster.check().ok  # verdict excuses the missing return

    def test_submit_on_dead_home_is_issued_when_a_processor_is_rooted_again(self):
        # The op waits for no timer (550): pid 0 issues it the moment
        # it relearns the root, and becomes its home.
        cluster = stranded_cluster(op_timeout=500.0)
        cluster.kernel.run_until(316.0)
        homes = completion_homes(cluster)
        op_id = cluster.insert(999, "x", client=1)
        cluster.kernel.run_until(321.0)
        assert cluster.trace.counters.get("op_failed_over", 0) == 0
        cluster.kernel.run_until(322.0)
        assert cluster.trace.counters["op_failed_over"] == 1
        assert cluster.trace.counters.get("op_retries", 0) == 0
        results = cluster.run()
        assert results.completed[op_id] is True
        assert homes == {op_id: 0}
        assert cluster.check().ok

    def test_root_copy_ends_a_window_with_no_rooted_processor(self):
        # Pid 1 is down from 84 to 124, too briefly to be detected, so
        # the root pid 0 grows at 129 is seated on pid 1 too.  Pid 0
        # goes down for good at 130, before pid 1's restart announcement
        # reaches it: no SetRoot answers pid 1, and the ops homed at
        # pid 0 are stranded.  The root's CreateCopy lands at pid 1 at
        # 140, and they are issued from pid 1 then and there.
        cluster = crash_cluster(
            ((1, 84.0, 124.0), (0, 130.0, None)),
            num_processors=2,
            seed=0,
            op_timeout=500.0,
        )
        spaced_inserts(cluster, count=40, spacing=2.0)
        cluster.kernel.run_until(139.0)
        proc = cluster.kernel.processor(1)
        assert proc.state["root_id"] is None
        # Every op still owed a result waits on a timer, armed in the
        # order the ops were opened.
        pending = cluster.engine.in_flight
        assert list(pending) == list(cluster.engine.timers._pending)
        assert {op.home_pid for op in pending.values()} == {0}
        before = cluster.trace.counters["op_failed_over"]
        cluster.kernel.run_until(140.0)
        assert proc.state["root_id"] in cluster.engine.store(proc)
        assert {op.home_pid for op in pending.values()} == {1}
        assert cluster.trace.counters["op_failed_over"] == before + len(pending) > before
        assert cluster.trace.counters.get("op_retries", 0) == 0

    def test_timer_is_still_the_fallback_after_a_recovery_reissue(self):
        # The issue at 322 runs into the dead root holder and is
        # dead-lettered.  The op's timer was left armed for exactly
        # this: its retry at 816 completes the op.
        cluster = stranded_cluster(op_timeout=500.0)
        cluster.kernel.run_until(316.0)
        op_id = cluster.insert(999, "x", client=1)
        results = cluster.run()
        assert results.completed[op_id] is True
        [record] = [r for r in cluster.operation_records() if r.op_id == op_id]
        assert record.completed_at == 819.0
        summary = cluster.availability_summary()
        assert summary["op_failed_over"] == 1
        assert summary["op_retries"] == 1
        assert cluster.check().ok

    def test_submit_on_dead_home_outlives_timeouts_spent_while_it_is_down(self):
        # The timer fires twice before 322: each firing spends an
        # attempt, finds nothing to issue from and backs off.  Once pid
        # 0 is rooted the op still completes, with attempts to spare.
        cluster = stranded_cluster(op_timeout=2.0, op_retries=8)
        cluster.kernel.run_until(314.0)
        op_id = cluster.insert(999, "x", client=1)
        cluster.kernel.run_until(321.0)
        counters = cluster.trace.counters
        assert counters["op_backoff_delay_total"] > 0
        assert counters.get("op_retries", 0) == 0
        assert counters.get("op_failed_over", 0) == 0
        results = cluster.run()
        assert results.completed[op_id] is True
        assert not results.timed_out
        assert cluster.check().ok

    def test_verdict_reached_while_the_home_is_down_stands(self):
        # Both attempts are spent before 322: the op is timed out, and
        # the processor rooted again does not dig it up.
        cluster = stranded_cluster(op_timeout=2.0, op_retries=1)
        cluster.kernel.run_until(314.0)
        op_id = cluster.insert(999, "x", client=1)
        results = cluster.run()
        assert op_id in results.timed_out
        assert op_id not in results.completed
        assert cluster.trace.counters.get("op_failed_over", 0) == 0
        assert cluster.check().ok

    # ROADMAP's self-resubmit livelock, one insert under a 20k-event
    # budget: the insert pid 1 issues at 340 dies with pid 0, the leaf's
    # owner (335); pid 1 adopts the only leaf when pid 0 is detected dead
    # (386) and announces its new location.  The announcement must go to
    # a live root holder, not to pid 0: a search that later reached pid
    # 0's root copy would otherwise recover to the leaf "at pid 0" for
    # ever.
    def test_rehome_announced_to_the_dead_owner_livelocks_recovery(self):
        cluster = crash_cluster(
            ((1, 10.0, 300.0), (0, 335.0, 500.0)), op_timeout=500.0
        )
        cluster.kernel.run_until(340.0)
        op_id = cluster.insert(999, "x", client=1)
        results = cluster.run(max_events=20_000)
        assert results.completed[op_id] is True

    # Pid 1 is down 84-124 and pid 0 from 130 to 400, and leaves 4 and
    # 5 (keys 42-98) are then held by neither processor.  The inserts of
    # keys 77 and 91 dead-end at interior node 7, which still names the
    # lost leaves, and time out; nothing recovers back to node 7.
    def test_leaves_lost_with_both_processors_livelock_recovery(self):
        cluster = crash_cluster(
            ((1, 84.0, 124.0), (0, 130.0, 400.0)),
            num_processors=2,
            seed=0,
            op_timeout=500.0,
        )
        expected = spaced_inserts(cluster, count=40, spacing=2.0)
        results = cluster.run(max_events=20_000)
        timed_out = sorted(cluster.trace.operations[op].key for op in results.timed_out)
        assert timed_out == [77, 91]
        # The audit walks every processor's knowledge: the lost leaves'
        # keys resolve from neither processor.
        problems = cluster.check(expected).problems
        assert "[routability] key 42 unresolvable from pid 0" in problems
        assert "[routability] key 42 unresolvable from pid 1" in problems

    def test_queue_races_crash_then_completes_before_restart(self):
        # Ops queued on pid 1 die in the crash; they fail over to pid 2
        # at once, and their timers stay armed as the fallback.
        cluster = crash_cluster(((1, 40.0, 300.0),), op_timeout=800.0)
        for index in range(30):
            cluster.insert((index * 11) % 509, index, client=1)
        results = cluster.run()
        assert len(results.completed) == 30
        assert not results.timed_out and not results.failed
        assert cluster.check().ok


# ----------------------------------------------------------------------
# timeout / duplicate-return machinery
# ----------------------------------------------------------------------
class TestOpTimeouts:
    def test_timeout_then_late_response_deduplicated(self):
        # Timeout far below the round trip: the original return
        # arrives after at least one re-issue, so duplicates and/or
        # late returns must be swallowed, never double-completed.
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="variable",
            capacity=4,
            seed=5,
            op_timeout=25.0,
            op_retries=20,
        )
        for index in range(40):
            cluster.insert((index * 7) % 2003, index, client=index % 4)
        results = cluster.run()
        counters = cluster.trace.counters
        assert counters["op_retries"] > 0
        assert (
            counters.get("duplicate_return_ignored", 0)
            + counters.get("late_return_ignored", 0)
            > 0
        )
        assert len(results.completed) + len(results.timed_out) == 40
        assert cluster.check().ok

    def test_verdict_wins_over_late_return(self):
        # No retries: the first timeout is final even though the
        # return value is still in flight.
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="variable",
            capacity=4,
            seed=5,
            op_timeout=5.0,
            op_retries=0,
        )
        op_id = cluster.insert(42, "v", client=3)
        results = cluster.run()
        assert op_id in results.timed_out
        assert op_id not in results.completed
        assert cluster.trace.counters.get("late_return_ignored", 0) >= 1
        assert cluster.check().ok

    def test_every_op_in_exactly_one_partition(self):
        cluster = crash_cluster(((1, 600.0, 1400.0), (2, 2200.0, 3000.0)))
        spaced_inserts(cluster, count=150, spacing=12.0)
        results = cluster.run()
        buckets = (
            set(results.completed),
            set(results.failed),
            set(results.timed_out),
            set(results.incomplete),
        )
        total = sum(len(b) for b in buckets)
        union = set().union(*buckets)
        assert total == len(union) == 150


class TestRunResults:
    def test_result_of_names_state(self):
        cluster = stranded_cluster(op_timeout=None)
        cluster.kernel.run_until(316.0)
        op_id = cluster.insert(999, "x", client=1)
        results = cluster.run()
        with pytest.raises(KeyError, match=f"operation {op_id}.*failed"):
            results.result_of(op_id)
        with pytest.raises(KeyError, match="never submitted"):
            results.result_of(987654)
        assert not results.ok

    def test_ok_on_clean_run(self):
        cluster = DBTreeCluster(num_processors=2, protocol="semisync", capacity=4)
        cluster.insert(1, "a")
        results = cluster.run()
        assert results.ok
        assert results.result_of(1) is True


# ----------------------------------------------------------------------
# recovery: rejoin, donations, mirrors
# ----------------------------------------------------------------------
class TestRecovery:
    def test_restart_rejoins_and_audit_is_clean(self):
        cluster = crash_cluster(((1, 600.0, 1400.0),))
        expected = spaced_inserts(cluster, count=200, spacing=10.0)
        results = cluster.run()
        assert len(results.completed) == 200
        report = cluster.check(expected=expected)
        assert report.ok, report.problems[:5]
        counters = cluster.trace.counters
        assert counters["processor_crashes"] == 1
        assert counters["processor_restarts"] == 1
        assert counters.get("crash_forced_unjoins", 0) >= 1

    def test_a_crash_plan_keeps_per_action_holding(self):
        # A crash falls between actions, so it never finds sends held:
        # piggybacking stays on, and the audit stays clean.
        cluster = crash_cluster(((1, 600.0, 1400.0),))
        expected = spaced_inserts(cluster, count=200, spacing=10.0)
        cluster.run()
        assert cluster.check(expected=expected).ok
        assert cluster.trace.counters["processor_crashes"] == 1
        stats = cluster.kernel.network.stats
        assert stats.piggybacked > 0
        assert sum(stats.by_kind.values()) == stats.sent + stats.piggybacked
        assert cluster.kernel.acting is None

    def test_mirrors_rehome_lost_leaves(self):
        # Pid 0 homes every leaf (splits stay at the splitting
        # processor).  Crash it mid-workload: the mirrors on its ring
        # successor must promote the leaves, and after the restart no
        # key may be lost.
        cluster = crash_cluster(((0, 900.0, 1700.0),))
        expected = spaced_inserts(cluster, count=200, spacing=10.0)
        results = cluster.run()
        assert cluster.trace.counters["leaves_rehomed"] >= 1
        assert len(results.completed) == 200
        report = cluster.check(expected=expected)
        assert report.ok, report.problems[:5]

    def test_search_for_a_lost_leaf_fails_and_quiesces(self):
        # rf 1, no timers: the only holder of a leaf is gone for good.
        # Every live processor still names it, so a search for one of
        # its keys dead-ends and fails instead of circling the others.
        cluster = crash_cluster(
            ((0, 900.0, None),), replication_factor=1, op_timeout=None
        )
        expected = spaced_inserts(cluster, count=60, spacing=10.0)
        cluster.kernel.run_until(800.0)
        engine = cluster.engine
        lost = next(
            key
            for key in expected
            if any(leaf.home_pid == 0 and leaf.has_key(key) for leaf in engine.leaves())
        )
        cluster.kernel.run_until(1000.0)
        op_id = cluster.search(lost, client=1)
        results = cluster.run(max_events=20_000)
        assert op_id in results.failed
        assert engine.op_verdicts[op_id] == "failed"
        assert cluster.trace.counters["dead_ends"] >= 1

    def test_single_copy_leaves_declared_lost(self):
        # replication_factor=1: a permanent crash of the leaf owner
        # destroys its leaves; the audit must *report* the loss.
        cluster = crash_cluster(
            ((0, 900.0, None),), replication_factor=1, op_timeout=None
        )
        spaced_inserts(cluster, count=200, spacing=10.0)
        cluster.run()
        assert cluster.trace.counters.get("leaves_rehomed", 0) == 0
        report = cluster.check()
        crash_problems = [p for p in report.problems if "crash-losses" in p]
        assert crash_problems, "lost leaves must be declared"
        assert "never re-homed" in crash_problems[0]

    def test_eager_mode_rereplicates_and_costs_more(self):
        # Interiors start fully replicated (they all descend from a
        # root), so a replacement member only exists once a prior
        # crash left a processor lazily un-rejoined: crash pid 1
        # (restart), then crash pid 2 -- eager recovery re-replicates
        # the thinned interiors onto pid 1, lazy waits for demand.
        schedule = ((1, 400.0, 900.0), (2, 1500.0, 2300.0))
        runs = {}
        for mode in ("lazy", "eager"):
            cluster = crash_cluster(schedule, recovery_mode=mode, seed=9)
            expected = spaced_inserts(cluster, count=250, spacing=10.0)
            cluster.run()
            assert cluster.check(expected=expected).ok
            runs[mode] = cluster
        assert runs["lazy"].trace.counters.get("eager_rereplications", 0) == 0
        assert runs["eager"].trace.counters["eager_rereplications"] >= 1
        assert (
            runs["eager"].kernel.network.stats.sent
            > runs["lazy"].kernel.network.stats.sent
        )


# ----------------------------------------------------------------------
# acceptance: two crash/restart cycles mid-workload, three seeds
# ----------------------------------------------------------------------
class TestAcceptance:
    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_two_crashes_recover_clean(self, seed):
        cluster = crash_cluster(
            ((1, 600.0, 1400.0), (2, 2200.0, 3000.0)), seed=seed
        )
        expected = spaced_inserts(cluster, count=250, spacing=12.0)
        results = cluster.run()
        # Crashes landed mid-workload, not before or after it.
        assert results.elapsed > 3000.0
        assert cluster.kernel.crash_controller.crash_count() == 2
        report = cluster.check(expected=expected)
        assert report.ok, report.problems[:5]
        buckets = (
            set(results.completed),
            set(results.failed),
            set(results.timed_out),
            set(results.incomplete),
        )
        assert sum(len(b) for b in buckets) == len(set().union(*buckets)) == 250


# ----------------------------------------------------------------------
# reliable transport vs dead peers
# ----------------------------------------------------------------------
class TestTransportSuspicion:
    def test_retry_cap_suspects_dead_peer_instead_of_raising(self, monkeypatch):
        # Enforced reliability + a permanently dead peer: senders must
        # give up via PeerDown suspicion, not die on ReliabilityError.
        monkeypatch.setattr(reliable, "RETRANSMIT_TIMEOUT", 40.0)
        monkeypatch.setattr(reliable, "MAX_RETRIES", 30)
        monkeypatch.setattr(reliable, "SUSPECT_RETRIES", 2)
        cluster = DBTreeCluster(
            num_processors=3,
            protocol="semisync",  # full replication: relays target everyone
            capacity=4,
            seed=2,
            reliability="enforced",
            crash_plan=CrashPlan(schedule=((2, 60.0, None),)),
        )
        for index in range(60):
            cluster.schedule(index * 5.0, "insert", (index * 7) % 2003, index,
                             client=index % 2)
        results = cluster.run()  # must not raise
        assert results.reliability_error is None
        [record] = cluster.kernel.crash_controller.records
        assert record.suspected_by, "transport never suspected the dead peer"

    def test_reliability_error_surfaces_in_results(self, monkeypatch):
        # No crash plan: a hopeless channel (100% drop, tiny retry
        # cap) exhausts its budget; run() reports it instead of
        # letting the traceback escape the event loop.
        monkeypatch.setattr(reliable, "RETRANSMIT_TIMEOUT", 20.0)
        monkeypatch.setattr(reliable, "BACKOFF", 1.0)
        monkeypatch.setattr(reliable, "MAX_RETRIES", 3)
        cluster = DBTreeCluster(
            num_processors=2,
            protocol="semisync",
            capacity=4,
            seed=2,
            fault_plan=FaultPlan(drop_p=1.0),
            reliability="enforced",
        )
        cluster.insert(1, "a", client=0)
        cluster.insert(1000, "b", client=1)
        results = cluster.run()
        error = results.reliability_error
        assert error is not None
        assert error["src"] is not None and error["dst"] is not None
        assert "MAX_RETRIES" in error["message"]
        assert (error["payload_kind"], error["op_id"]) == ("insert_relayed", None)
        assert not results.ok

    def test_a_stuck_bundle_names_its_items_and_first_op(self):
        # A bundle is one frame: the report names every item it carried
        # and the first operation among them.
        cluster = DBTreeCluster(num_processors=2, protocol="semisync", capacity=4)
        relay = SimpleNamespace(kind="insert_relayed")
        step = SimpleNamespace(kind="search_step", op=SimpleNamespace(op_id=7))

        def stuck():
            raise ReliabilityError(
                "stuck", src=0, dst=1, seq=4, payload=Bundle([relay, step])
            )

        cluster.kernel.events.schedule(1.0, stuck)
        error = cluster.run().reliability_error
        assert error["payload_kind"] == "insert_relayed+search_step"
        assert error["op_id"] == 7


# ----------------------------------------------------------------------
# availability accounting
# ----------------------------------------------------------------------
class TestAvailabilitySummary:
    def test_summary_without_crash_plan(self):
        cluster = DBTreeCluster(num_processors=2, protocol="semisync", capacity=4)
        assert cluster.availability_summary() == {"enabled": False}

    def test_summary_with_crashes(self):
        cluster = crash_cluster(((1, 600.0, 1400.0), (2, 2200.0, 3000.0)))
        spaced_inserts(cluster, count=150, spacing=12.0)
        cluster.run()
        summary = cluster.availability_summary()
        assert summary["crashes"] == 2
        assert summary["restarts"] == 2
        assert summary["mean_downtime"] == 800.0
        assert summary["mean_detection"] == 50.0
        assert summary["mean_recovery"] > 0.0
        assert summary["downtime_samples"] == summary["detection_samples"] == 2
        assert summary["recovery_samples"] == 2
        assert summary["pc_donations"] >= 0
        assert "ops_timed_out" in summary

    def test_a_mean_over_no_sample_counts_none(self):
        # pid 1 is back 20 after its crash, before the oracle's
        # detection delay: nothing was detected, which reads 0.0 as an
        # instant detection would; the sample count tells them apart.
        cluster = crash_cluster(((1, 100.0, 120.0),))
        spaced_inserts(cluster, count=40)
        cluster.run()
        summary = cluster.availability_summary()
        assert summary["crashes"] == summary["downtime_samples"] == 1
        assert summary["mean_downtime"] == 20.0
        assert summary["detection_samples"] == 0
        assert summary["mean_detection"] == 0.0

    def test_detection_delay_must_exceed_latency(self):
        with pytest.raises(ValueError, match="oracle detection_delay"):
            DBTreeCluster(
                num_processors=2,
                protocol="variable",
                crash_plan=CrashPlan(
                    schedule=((1, 100.0, 200.0),), detection_delay=5.0
                ),
            )
