"""Piggybacking: per-action bundles, and relay batching on top."""

import pytest

from tests.helpers import assert_clean, count_batch_flushes, run_insert_workload
from repro import DBTreeCluster
from repro.core.piggyback import RelayBatcher
from repro.sim.network import message_kind


def semisync_cluster():
    return DBTreeCluster(num_processors=4, protocol="semisync", capacity=4, seed=3)


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
        relayed = sent[0][1].items[1]
        proc = cluster.kernel.processor(first[1])
        assert cluster.engine.store(proc)[relayed.node_id].level == 0
        # |copies| - 1 messages, one per peer, each carrying that
        # peer's CreateCopy and RelayedSplit.
        copies = relayed.split.sibling_pids
        assert sorted(dst for dst, _p in sent) == sorted(set(copies) - {first[1]})
        for _dst, payload in sent:
            assert kinds(payload) == ("create_copy_sibling", "relayed_split")
        # by_kind still counts every item of both kinds.
        for kind in ("create_copy_sibling", "relayed_split"):
            carried = sum(kinds(p).count(kind) for _t, _s, _d, p in wire)
            assert stats.by_kind[kind] - before.get(kind, 0) == carried > 0

    def test_bundling_changes_messages_not_the_schedule(self):
        def run(hold):
            cluster = semisync_cluster()
            if not hold:
                for proc in cluster.kernel.processors.values():
                    proc.hold_sends(None)
            for key in range(0, 200, 2):
                cluster.insert(key, key, client=key % 4)
            cluster.run()
            for key in range(1, 200, 6):
                cluster.insert(key, key, client=key % 4)
                cluster.search(key - 1, client=(key + 1) % 4)
            cluster.run()
            stats = cluster.kernel.network.stats
            executed = {
                pid: proc.stats.by_kind
                for pid, proc in cluster.kernel.processors.items()
            }
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


class TestBatcherUnit:
    def test_window_validation(self):
        cluster = DBTreeCluster(num_processors=2, seed=1)
        with pytest.raises(ValueError):
            RelayBatcher(cluster.engine, window=0.0)

    def test_client_parameter_wires_batcher(self):
        plain = DBTreeCluster(num_processors=2, seed=1)
        assert plain.engine.relay_batcher is None
        batched = DBTreeCluster(num_processors=2, seed=1, relay_batch_window=5.0)
        assert batched.engine.relay_batcher is not None
        assert batched.engine.relay_batcher.window == 5.0


class TestBatchedRuns:
    def test_correctness_preserved(self):
        cluster = DBTreeCluster(
            num_processors=4, capacity=4, seed=3, relay_batch_window=25.0
        )
        expected = run_insert_workload(cluster, count=250)
        assert_clean(cluster, expected=expected)

    def test_messages_reduced(self):
        def total(window):
            cluster = DBTreeCluster(
                num_processors=4, capacity=4, seed=3, relay_batch_window=window
            )
            run_insert_workload(cluster, count=250)
            return cluster.kernel.network.stats.sent

        assert total(25.0) < 0.7 * total(None)

    def test_batch_accounting(self):
        cluster = DBTreeCluster(
            num_processors=4, capacity=4, seed=3, relay_batch_window=25.0
        )
        batcher = cluster.engine.relay_batcher
        stats = cluster.kernel.network.stats
        flushed = count_batch_flushes(batcher, stats)
        run_insert_workload(cluster, count=250)
        assert batcher.batches_sent > 0
        assert batcher.relays_batched > batcher.batches_sent  # >1 per batch
        # Each batch is one message; its other relays ride along on it.
        assert sum(wire for wire, _ in flushed) == batcher.batches_sent
        assert sum(rode for _, rode in flushed) == (
            batcher.relays_batched - batcher.batches_sent
        )
        # Every relayed insert travels in a batch, counted once as
        # itself.
        assert stats.by_kind["insert_relayed"] == batcher.relays_batched

    def test_same_final_state_as_unbatched(self):
        def fingerprints(window):
            cluster = DBTreeCluster(
                num_processors=4, capacity=4, seed=3, relay_batch_window=window
            )
            run_insert_workload(cluster, count=200)
            from repro.verify.checker import leaf_contents

            return leaf_contents(cluster.engine)

        assert fingerprints(None) == fingerprints(30.0)

    def test_batching_works_for_sync_protocol_too(self):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="sync",
            capacity=4,
            seed=3,
            relay_batch_window=20.0,
        )
        expected = run_insert_workload(cluster, count=200)
        assert_clean(cluster, expected=expected)
