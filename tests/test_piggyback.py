"""Piggybacking: everything one action sends to one processor is one message."""

import pytest

from tests.helpers import assert_clean, count_executed, run_insert_workload
from repro import DBTreeCluster
from repro.sim.network import message_kind
from repro.verify.checker import leaf_contents


def semisync_cluster():
    return DBTreeCluster(num_processors=4, protocol="semisync", capacity=4, seed=3)


def cluster_holding(hold, protocol="semisync"):
    """A small cluster; ``hold=False`` sends everything at once."""
    cluster = DBTreeCluster(num_processors=4, protocol=protocol, capacity=4, seed=3)
    if not hold:
        for proc in cluster.kernel.processors.values():
            proc.hold_sends(None)
    return cluster


def spy_on_wire(cluster):
    """Record every ``(time, src, dst, payload)`` put on the wire."""
    wire = []
    network = cluster.kernel.network
    send = network.send

    def spy(src, dst, payload):
        wire.append((cluster.now, src, dst, payload))
        send(src, dst, payload)

    network.send = spy
    return wire


def kinds(payload):
    items = getattr(payload, "items", None)
    return tuple(message_kind(item) for item in items or (payload,))


class TestActionBundles:
    """Everything one action sends to one processor is one message."""

    def test_a_leaf_split_is_one_message_per_peer(self):
        cluster = semisync_cluster()
        for key in range(0, 40, 2):
            cluster.insert(key, key, client=0)
        cluster.run()
        wire = spy_on_wire(cluster)
        stats = cluster.kernel.network.stats
        before = dict(stats.by_kind)
        key = 1
        while not any("relayed_split" in kinds(p) for _t, _s, _d, p in wire):
            cluster.insert(key, key, client=0)
            cluster.run()
            key += 2
        # The first action whose messages carry a relayed split.
        first = min((t, src) for t, src, _d, p in wire if "relayed_split" in kinds(p))
        sent = [(dst, p) for t, src, dst, p in wire if (t, src) == first]
        relayed = sent[0][1]
        proc = cluster.kernel.processor(first[1])
        assert cluster.engine.store(proc)[relayed.node_id].level == 0
        # |copies| - 1 messages, one per peer, each the RelayedSplit
        # alone: the sibling's copy rides on the split.
        copies = relayed.split.sibling_pids
        assert sorted(dst for dst, _p in sent) == sorted(set(copies) - {first[1]})
        for _dst, payload in sent:
            assert kinds(payload) == ("relayed_split",)
            assert payload.split.sibling.node_id == payload.split.sibling_id
        # by_kind counts every relayed split, and no sibling CreateCopy.
        carried = sum(kinds(p).count("relayed_split") for _t, _s, _d, p in wire)
        assert stats.by_kind["relayed_split"] - before.get("relayed_split", 0) == carried > 0
        assert "create_copy_sibling" not in stats.by_kind

    def test_bundling_changes_messages_not_the_schedule(self):
        def run(hold):
            cluster = semisync_cluster()
            if not hold:
                for proc in cluster.kernel.processors.values():
                    proc.hold_sends(None)
            executed = count_executed(cluster.kernel.processors.values())
            for key in range(0, 200, 2):
                cluster.insert(key, key, client=key % 4)
            cluster.run()
            for key in range(1, 200, 6):
                cluster.insert(key, key, client=key % 4)
                cluster.search(key - 1, client=(key + 1) % 4)
            cluster.run()
            stats = cluster.kernel.network.stats
            done = [(r.op_id, r.completed_at) for r in cluster.operation_records()]
            return cluster.now, executed, done, stats

        *schedule, bundled = run(hold=True)
        *plain_schedule, plain = run(hold=False)
        # The same actions at the same times; only messages differ.
        assert schedule == plain_schedule
        assert plain.piggybacked == 0 < bundled.piggybacked
        assert bundled.sent + bundled.piggybacked == plain.sent
        assert bundled.by_kind == plain.by_kind
        assert sum(bundled.by_kind.values()) == bundled.sent + bundled.piggybacked


class TestHoldingOnAndOff:
    """Per-action holding on versus off, as the A1 ablation runs it."""

    @pytest.mark.parametrize("protocol", ["semisync", "sync"])
    def test_correctness_preserved_with_holding_off(self, protocol):
        cluster = cluster_holding(False, protocol)
        expected = run_insert_workload(cluster, count=250)
        assert_clean(cluster, expected=expected)
        assert cluster.kernel.network.stats.piggybacked == 0

    @pytest.mark.parametrize("protocol", ["semisync", "sync", "variable"])
    def test_holding_saves_messages(self, protocol):
        def stats(hold):
            cluster = cluster_holding(hold, protocol)
            run_insert_workload(cluster, count=250)
            return cluster.kernel.network.stats

        on, off = stats(True), stats(False)
        # The same logical messages; the ones that rode along are the
        # saving.
        assert on.by_kind == off.by_kind
        assert on.piggybacked > 0
        assert on.sent + on.piggybacked == off.sent

    def test_same_final_state_either_way(self):
        def fingerprint(hold):
            cluster = cluster_holding(hold)
            run_insert_workload(cluster, count=200)
            return leaf_contents(cluster.engine)

        assert fingerprint(True) == fingerprint(False)

    @pytest.mark.parametrize("protocol", ["sync", "variable", "mobile"])
    def test_holding_keeps_the_schedule(self, protocol):
        def schedule(hold):
            cluster = cluster_holding(hold, protocol)
            executed = count_executed(cluster.kernel.processors.values())
            run_insert_workload(cluster, count=150)
            done = [(r.op_id, r.completed_at) for r in cluster.operation_records()]
            return cluster.now, executed, done

        assert schedule(True) == schedule(False)
