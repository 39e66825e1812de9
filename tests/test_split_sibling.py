"""A half-split brings its sibling: one message per peer, one action.

The paper's semi-synchronous split costs |copies| - 1 messages
(Section 4.1.2): the relayed split itself carries the sibling's copy
(``HalfSplit.sibling``), and a peer installs it in the same action that
applies the split.  An interior split also points the moved children
at the sibling, at the splitter and at every peer.
"""

from __future__ import annotations

import pytest

from repro import DBTreeCluster
from repro.core.actions import HalfSplit, RelayedSplit, SplitEnd, SplitStart
from repro.core.keys import POS_INF, KeyRange
from repro.core.node import NodeCopy

LEAF = 1  # the bootstrap leaf
SIBLING = 99


def two_processor_cluster(protocol="semisync"):
    """pid 1 holds a non-PC copy of the bootstrap leaf with five keys."""
    cluster = DBTreeCluster(num_processors=2, protocol=protocol, capacity=4, seed=1)
    proc = cluster.kernel.processor(1)
    copy = cluster.engine.copy_at(proc, LEAF)
    assert not copy.is_pc and copy.copy_pids == (0, 1)
    for key in (10, 20, 30, 40, 50):
        copy.insert_entry(key, f"v{key}")
    return cluster, proc


def split_with_sibling(separator=30):
    """The half-split pid 0 would send: the upper keys on the sibling."""
    sibling = NodeCopy(
        node_id=SIBLING,
        level=0,
        key_range=KeyRange(separator, POS_INF),
        pc_pid=0,
        copy_versions={0: 0, 1: 0},
        capacity=4,
        parent_id=7,
        version=1,
    )
    for key in (30, 40, 50):
        if key >= separator:
            sibling.insert_entry(key, f"v{key}")
    return HalfSplit(
        action_id=9001,
        separator=separator,
        sibling_id=SIBLING,
        sibling_pids=(0, 1),
        parent_hint=7,
        sibling=sibling.snapshot(birth_set=frozenset()),
    )


class TestThePeerInstallsTheSibling:
    def test_from_the_relayed_split(self):
        cluster, proc = two_processor_cluster()
        engine = cluster.engine
        engine.handle(proc, RelayedSplit(LEAF, split_with_sibling()))
        sibling = engine.copy_at(proc, SIBLING)
        assert sibling is not None and not sibling.is_pc
        assert sibling.keys() == (30, 40, 50)
        assert (sibling.range.low, sibling.range.high) == (30, POS_INF)
        assert (SIBLING, 1) in cluster.trace.copies
        leaf = engine.copy_at(proc, LEAF)
        assert leaf.keys() == (10, 20) and leaf.right_id == SIBLING

    def test_even_when_the_split_node_is_missing(self):
        cluster, proc = two_processor_cluster()
        engine = cluster.engine
        engine.handle(proc, RelayedSplit(12345, split_with_sibling()))
        assert engine.copy_at(proc, SIBLING).keys() == (30, 40, 50)
        assert cluster.trace.counters["relay_to_missing_copy"] == 1

    def test_a_duplicated_split_installs_nothing_twice(self):
        cluster, proc = two_processor_cluster()
        engine = cluster.engine
        split = split_with_sibling()
        engine.handle(proc, RelayedSplit(LEAF, split))
        installed = engine.copy_at(proc, SIBLING)
        installed.insert_entry(60, "v60")  # a later update at the sibling
        engine.handle(proc, RelayedSplit(LEAF, split))
        assert engine.copy_at(proc, SIBLING) is installed
        assert installed.keys() == (30, 40, 50, 60)
        assert cluster.trace.counters["duplicate_relay_ignored"] == 1
        assert "duplicate_copy_ignored" not in cluster.trace.counters

    def test_from_the_synchronous_split_end(self):
        cluster, proc = two_processor_cluster("sync")
        engine = cluster.engine
        engine.handle(proc, SplitStart(LEAF, split_id=501, pc_pid=0))
        engine.handle(proc, SplitEnd(LEAF, 501, split_with_sibling()))
        assert engine.copy_at(proc, SIBLING).keys() == (30, 40, 50)
        assert engine.copy_at(proc, LEAF).keys() == (10, 20)


@pytest.mark.parametrize("protocol", ["semisync", "sync"])
def test_a_run_sends_no_sibling_copy_message(protocol):
    cluster = DBTreeCluster(num_processors=4, protocol=protocol, capacity=4, seed=3)
    expected = {}
    for index in range(200):
        key = (index * 7919) % 1009
        cluster.insert(key, index, client=index % 4)
        expected[key] = index
    assert cluster.run().ok
    assert cluster.check(expected=expected).ok
    assert "create_copy_sibling" not in cluster.kernel.network.stats.by_kind
    for proc in cluster.kernel.processors.values():
        assert "create_copy_sibling" not in proc.stats.by_kind
    # Full replication: every split's sibling reached every processor.
    engine = cluster.engine
    node_ids = {copy.node_id for copy in engine.all_copies()}
    assert all(len(engine.copies_of(node_id)) == 4 for node_id in node_ids)


@pytest.mark.parametrize("protocol", ["semisync", "sync", "variable", "mobile"])
def test_moved_children_name_the_sibling_as_parent(protocol):
    # Without the re-pointing about half of the child copies still
    # named the parent they had before its split.
    cluster = DBTreeCluster(num_processors=4, protocol=protocol, capacity=4, seed=0)
    for index in range(300):
        cluster.insert((index * 7919) % 1009, index, client=index % 4)
    assert cluster.run().ok
    engine = cluster.engine
    assert cluster.trace.counters["half_splits"] > 50
    checked = 0
    for proc in cluster.kernel.processors.values():
        store = engine.store(proc)
        for node in store.values():
            if node.level == 0:
                continue
            for _key, child_id in node.entries():
                child = store.get(child_id)
                if child is not None and child.level == node.level - 1:
                    assert child.parent_id == node.node_id, (proc.pid, child_id)
                    checked += 1
    assert checked > 100
