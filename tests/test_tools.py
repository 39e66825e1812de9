"""Inspection tooling: dumps."""

from tests.helpers import run_insert_workload
from repro import DBTreeCluster
from repro.tools import cluster_summary, dump_tree


def loaded_cluster():
    cluster = DBTreeCluster(num_processors=4, protocol="semisync", capacity=4, seed=3)
    run_insert_workload(cluster, count=100)
    return cluster


class TestDumps:
    def test_dump_tree_mentions_every_node(self):
        cluster = loaded_cluster()
        text = dump_tree(cluster.engine)
        from repro.verify.invariants import representative_nodes

        for node_id in representative_nodes(cluster.engine):
            assert f"node {node_id} " in text or f"node {node_id:<5}" in text

    def test_dump_tree_levels_descend(self):
        cluster = loaded_cluster()
        lines = dump_tree(cluster.engine).splitlines()
        level_lines = [l for l in lines if l.startswith("level ")]
        levels = [int(l.split()[1]) for l in level_lines]
        assert levels == sorted(levels, reverse=True)
        assert levels[-1] == 0

    def test_dump_tree_entries_flag(self):
        cluster = DBTreeCluster(num_processors=2, capacity=4, seed=1)
        cluster.insert_sync(5, "five")
        text = dump_tree(cluster.engine, show_entries=True)
        assert "'five'" in text

    def test_cluster_summary(self):
        cluster = loaded_cluster()
        summary = cluster_summary(cluster.engine)
        assert "leaves" in summary
        assert "messages sent" in summary
        assert "splits" in summary

