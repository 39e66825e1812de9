"""Fault-tolerant lazy updates: healing lost copies (§5 future work).

A processor can lose a copy (crash/amnesia) without any protocol
action.  Under the variable-copies protocol the loss is healed
lazily: the next relayed keyed update addressed to the missing copy
triggers a re-join; the primary copy resends the current value (a
join refresh, no version bump) and the version re-relay covers
updates that raced the heal.  Voluntarily unjoined copies are NOT
resurrected (tombstones suppress healing for stragglers).
"""

from tests.helpers import assert_clean, run_insert_workload
from repro import DBTreeCluster


def crashed_cluster(seed=3):
    """A loaded variable-protocol cluster with one interior copy lost."""
    cluster = DBTreeCluster(num_processors=4, protocol="variable", capacity=4, seed=seed)
    expected = run_insert_workload(cluster, count=200)
    engine = cluster.engine
    # The leftmost interior node has unbounded key headroom on the
    # left, so post-crash inserts can always force leaf splits under
    # it (splits are what relay updates to the interior copies).
    from repro.core.keys import NEG_INF

    node = next(
        c
        for c in engine.all_copies()
        if c.level == 1 and c.is_pc and c.range.low is NEG_INF
    )
    victim = next(p for p in node.copy_pids if p != node.pc_pid)
    engine.crash_copy(victim, node.node_id)
    return cluster, expected, node, victim


_FRESH_KEY = [0]


def drive_updates_under(cluster, node, expected, count=40):
    """Inserts that force leaf splits under the (leftmost) node."""
    from repro.core.keys import NEG_INF

    assert node.range.low is NEG_INF
    for index in range(count):
        _FRESH_KEY[0] -= 1
        key = -(10**6) + _FRESH_KEY[0]
        expected[key] = f"post-crash-{index}"
        cluster.insert(key, f"post-crash-{index}", client=index % 4)
    cluster.run()


class TestCopyLossHealing:
    def test_crash_records_and_removes(self):
        cluster, _expected, node, victim = crashed_cluster()
        holders = {
            c.home_pid
            for c in cluster.engine.all_copies()
            if c.node_id == node.node_id
        }
        assert victim not in holders
        assert cluster.trace.counters.get("crashed_copies") == 1

    def test_crash_unknown_copy_rejected(self):
        cluster = DBTreeCluster(num_processors=2, protocol="variable", seed=1)
        import pytest

        with pytest.raises(ValueError):
            cluster.engine.crash_copy(0, 424242)

    def test_lost_copy_heals_on_next_relay(self):
        cluster, expected, node, victim = crashed_cluster()
        drive_updates_under(cluster, node, expected)
        holders = {
            c.home_pid
            for c in cluster.engine.all_copies()
            if c.node_id == node.node_id
        }
        assert victim in holders, "the lost copy should have re-joined"
        assert cluster.trace.counters.get("heal_rejoins_requested", 0) >= 1
        assert_clean(cluster, expected=expected)

    def test_healed_copy_converges_with_peers(self):
        cluster, expected, node, victim = crashed_cluster(seed=7)
        drive_updates_under(cluster, node, expected, count=60)
        from repro.verify.invariants import check_copy_convergence

        assert check_copy_convergence(cluster.engine) == []

    def test_multiple_crashes_heal(self):
        cluster = DBTreeCluster(num_processors=4, protocol="variable", capacity=4, seed=11)
        expected = run_insert_workload(cluster, count=200)
        engine = cluster.engine
        from repro.core.keys import NEG_INF

        node = next(
            c
            for c in engine.all_copies()
            if c.level == 1 and c.is_pc and c.range.low is NEG_INF
        )
        victims = [p for p in node.copy_pids if p != node.pc_pid][:2]
        for victim in victims:
            engine.crash_copy(victim, node.node_id)
        drive_updates_under(cluster, node, expected, count=60)
        holders = {
            c.home_pid for c in engine.all_copies() if c.node_id == node.node_id
        }
        for victim in victims:
            assert victim in holders
        assert_clean(cluster, expected=expected)

    def test_bounced_heal_asks_the_next_holder(self):
        # Two members lose the node; the first one's heal request lands
        # at the other victim and bounces.  No relay follows, so the
        # heal must go on by asking a holder that still has the copy.
        from repro.core.keys import NEG_INF

        cluster = DBTreeCluster(num_processors=4, protocol="variable", capacity=4, seed=11)
        expected = run_insert_workload(cluster, count=200)
        engine = cluster.engine
        node = next(
            c
            for c in engine.all_copies()
            if c.level == 1 and c.is_pc and c.range.low is NEG_INF
        )
        first, second = [p for p in node.copy_pids if p != node.pc_pid][:2]
        for victim in (first, second):
            engine.crash_copy(victim, node.node_id)
        proc = cluster.kernel.processor(first)
        assert cluster.protocol.rejoin(proc, node.node_id, node.level, NEG_INF, to=second)
        cluster.run()
        holders = {
            c.home_pid for c in engine.all_copies() if c.node_id == node.node_id
        }
        assert first in holders, "the bounced heal should have re-joined"
        assert second not in holders
        counters = cluster.trace.counters
        assert counters["exact_join_bounced"] == 1
        assert counters["exact_join_retried"] == 1
        assert node.node_id not in proc.state["joining"]
        assert not proc.state["join_bounces"]
        for key in list(expected)[:20]:
            assert cluster.search_sync(key, client=first) == expected[key]

    def test_operations_never_fail_while_copy_is_lost(self):
        cluster, expected, node, victim = crashed_cluster(seed=5)
        # Searches from the victim processor work throughout (its
        # descent recovers via other copies).
        for key in list(expected)[:20]:
            assert cluster.search_sync(key, client=victim) == expected[key]


class TestUnjoinTombstones:
    def test_voluntary_unjoin_is_not_resurrected(self):
        cluster = DBTreeCluster(num_processors=4, protocol="variable", capacity=4, seed=9)
        expected = run_insert_workload(cluster, count=200)
        engine = cluster.engine
        from repro.core.keys import NEG_INF

        node = next(
            c
            for c in engine.all_copies()
            if c.level == 1 and c.is_pc and c.range.low is NEG_INF
        )
        leaver = next(p for p in node.copy_pids if p != node.pc_pid)
        proc = cluster.kernel.processor(leaver)
        cluster.protocol.request_unjoin(proc, engine.copy_at(proc, node.node_id))
        cluster.run()
        drive_updates_under(cluster, node, expected, count=40)
        holders = {
            c.home_pid
            for c in engine.all_copies()
            if c.node_id == node.node_id
        }
        assert leaver not in holders, "unjoined copy must stay gone"
        assert cluster.trace.counters.get("heal_rejoins_requested", 0) == 0
        assert_clean(cluster, expected=expected)

    def test_explicit_rejoin_clears_tombstone(self):
        cluster = DBTreeCluster(num_processors=4, protocol="variable", capacity=4, seed=9)
        run_insert_workload(cluster, count=150)
        engine = cluster.engine
        node = next(c for c in engine.all_copies() if c.level == 1 and c.is_pc)
        leaver = next(p for p in node.copy_pids if p != node.pc_pid)
        proc = cluster.kernel.processor(leaver)
        cluster.protocol.request_unjoin(proc, engine.copy_at(proc, node.node_id))
        cluster.run()
        from repro.core.actions import JoinRequest

        cluster.kernel.processor(node.pc_pid).submit(
            JoinRequest(node.node_id, node.level, node.range.low, leaver)
        )
        cluster.run()
        assert node.node_id not in proc.state.get("unjoined", set())
        # After the explicit re-join, healing works again for this node.
        engine.crash_copy(leaver, node.node_id)
        expected = {}
        drive_updates_under(cluster, node, expected, count=30)
        holders = {
            c.home_pid for c in engine.all_copies() if c.node_id == node.node_id
        }
        assert leaver in holders


class TestRejoin:
    """``VariableCopiesProtocol.rejoin``: the one exact heal request,
    shared by relay healing and anti-entropy repair."""

    def lost_copy(self, monkeypatch):
        cluster, _expected, node, victim = crashed_cluster()
        sent = []
        monkeypatch.setattr(
            cluster.kernel, "route", lambda src, dst, act: sent.append((src, dst, act))
        )
        return cluster, node, cluster.kernel.processor(victim), sent

    def test_tombstoned_node_is_not_rejoined(self, monkeypatch):
        cluster, node, proc, sent = self.lost_copy(monkeypatch)
        proc.state.setdefault("unjoined", set()).add(node.node_id)
        assert not cluster.protocol.rejoin(proc, node.node_id, node.level, node.range.low)
        assert sent == []
        assert node.node_id not in proc.state.get("joining", ())

    def test_request_already_out_is_not_repeated(self, monkeypatch):
        cluster, node, proc, sent = self.lost_copy(monkeypatch)
        proc.state["joining"] = {node.node_id}
        assert not cluster.protocol.rejoin(
            proc, node.node_id, node.level, node.range.low, to=node.pc_pid
        )
        assert sent == []

    def test_node_with_no_known_holder_counts_unroutable(self, monkeypatch):
        cluster, node, proc, sent = self.lost_copy(monkeypatch)
        unknown = 1 + max(c.node_id for c in cluster.engine.all_copies())
        before = cluster.trace.counters.get("heal_unroutable", 0)
        assert not cluster.protocol.rejoin(proc, unknown, node.level, node.range.low)
        assert sent == []
        assert cluster.trace.counters["heal_unroutable"] == before + 1
        assert unknown not in proc.state.get("joining", ())

    def test_sends_one_exact_join_to_the_given_peer(self, monkeypatch):
        from repro.core.actions import JoinRequest

        cluster, node, proc, sent = self.lost_copy(monkeypatch)
        assert cluster.protocol.rejoin(
            proc, node.node_id, node.level, node.range.low, to=node.pc_pid
        )
        assert sent == [
            (
                proc.pid,
                node.pc_pid,
                JoinRequest(node.node_id, node.level, node.range.low, proc.pid, exact=True),
            )
        ]
        assert node.node_id in proc.state["joining"]
        # A second ask while the first is out sends nothing.
        assert not cluster.protocol.rejoin(
            proc, node.node_id, node.level, node.range.low, to=node.pc_pid
        )
        assert len(sent) == 1

    def test_without_a_peer_the_step_rule_picks_a_holder(self, monkeypatch):
        cluster, node, proc, sent = self.lost_copy(monkeypatch)
        assert cluster.protocol.rejoin(proc, node.node_id, node.level, node.range.low)
        [(src, dst, request)] = sent
        assert src == proc.pid
        assert dst in node.copy_pids and dst != proc.pid
        assert (request.node_id, request.requester_pid, request.exact) == (
            node.node_id,
            proc.pid,
            True,
        )
        assert node.node_id in proc.state["joining"]
