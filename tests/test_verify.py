"""The checkers themselves: a checker that can't fail is worthless.

Each test plants a specific violation into an otherwise healthy
cluster and asserts the corresponding check reports it.
"""

import pytest

from tests.helpers import assert_clean, run_insert_workload
from repro import DBTreeCluster, OracleMap
from repro.verify.checker import (
    check_compatible_histories,
    check_complete_operations,
    check_expected_contents,
    check_ordered_histories,
    check_replication_metadata,
    check_routability,
    check_trace_store_agreement,
)
from repro.sim.tracing import AppliedUpdate
from repro.verify.invariants import (
    check_copy_convergence,
    check_level_chains,
    check_parent_child,
    check_reachability,
    representative_nodes,
)


def healthy_cluster(seed=3):
    cluster = DBTreeCluster(num_processors=4, protocol="semisync", capacity=4, seed=seed)
    expected = run_insert_workload(cluster, count=150)
    return cluster, expected


class TestHealthyPasses:
    def test_all_checks_clean(self):
        cluster, expected = healthy_cluster()
        report = assert_clean(cluster, expected=expected)
        assert "compatible" in report.checks_run
        assert "ordered" in report.checks_run
        assert report.summary().startswith("CheckReport(OK")


class TestPlantedViolations:
    def test_diverged_copy_detected(self):
        cluster, _expected = healthy_cluster()
        copy = next(c for c in cluster.engine.all_copies() if c.is_leaf)
        copy.insert_entry(10**9, "corruption")
        problems = check_copy_convergence(cluster.engine)
        # Leaves are replicated under full replication: divergence.
        assert any("diverge" in p for p in problems)

    def test_broken_right_link_detected(self):
        cluster, _expected = healthy_cluster()
        from repro.verify.invariants import representative_nodes

        node = next(
            n
            for n in representative_nodes(cluster.engine).values()
            if n.is_leaf and n.right_id is not None
        )
        for copy in cluster.engine.copies_of(node.node_id):
            copy.right_id = 99999
        problems = check_level_chains(cluster.engine)
        assert any("right link" in p for p in problems)

    def test_missing_child_detected(self):
        cluster, _expected = healthy_cluster()
        interior = next(
            c for c in cluster.engine.all_copies() if c.level == 1
        )
        separator, _child = interior.entries()[-1]
        for copy in cluster.engine.copies_of(interior.node_id):
            copy.insert_entry(separator, 424242)  # dangling child pointer
        problems = check_parent_child(cluster.engine)
        assert any("missing child" in p for p in problems)

    def test_unreachable_node_detected(self):
        cluster, _expected = healthy_cluster()
        from repro.verify.invariants import representative_nodes

        # Orphan a leaf by cutting both its parent entry and the chain.
        nodes = representative_nodes(cluster.engine)
        leaf = next(
            n for n in nodes.values() if n.is_leaf and n.right_id is not None
        )
        target = leaf.right_id
        for copy in cluster.engine.copies_of(leaf.node_id):
            copy.right_id = None
        problems = check_reachability(cluster.engine)
        assert problems == [] or any(str(target) in p for p in problems)

    def test_erased_leaf_is_unroutable(self):
        cluster, expected = healthy_cluster()
        engine = cluster.engine
        leaf = next(c for c in engine.leaves() if c.num_entries)
        lost = leaf.keys()[0]
        for proc in cluster.kernel.processors.values():
            engine.remove_copy(proc, leaf.node_id)
            del proc.state["locator"][leaf.node_id]
        problems = check_routability(engine, expected)
        assert f"key {lost!r} unresolvable from pid 0" in problems
        with pytest.raises(RuntimeError, match="dead-ends"):
            engine.resolve(0, lost)

    def test_stale_locators_around_an_erased_leaf_are_a_cycle(self):
        # The leaf is gone and every processor's locator still names
        # the others: no draw leaves them, so the walk is a cycle.
        cluster, _expected = healthy_cluster()
        engine = cluster.engine
        leaf = next(c for c in engine.leaves() if c.num_entries)
        for proc in cluster.kernel.processors.values():
            engine.remove_copy(proc, leaf.node_id)
        with pytest.raises(RuntimeError, match="cycles among"):
            engine.resolve(1, leaf.keys()[0])

    def test_incomplete_operation_detected(self):
        cluster, _expected = healthy_cluster()
        op = cluster.engine.open_op("search", 1, None, 0)
        problems = check_complete_operations(cluster.engine)
        assert problems == [
            f"operation {op.op_id} (search 1 from pid 0) never completed"
        ]

    def test_missing_update_detected(self):
        cluster, _expected = healthy_cluster()
        trace = cluster.trace
        # Fabricate an issued insert no copy ever applied, with an
        # in-range key so no re-homing excuse applies.
        node = next(c for c in cluster.engine.all_copies() if c.is_leaf)
        key = node.range.low
        fake_id = trace.new_action_id()
        trace.issued[node.node_id][fake_id] = ("insert", ("insert", key, 0))
        problems = check_compatible_histories(cluster.engine)
        assert any(f"action {fake_id}" in p for p in problems)

    def test_expected_contents_mismatch_detected(self):
        cluster, expected = healthy_cluster()
        bogus = dict(expected)
        bogus[10**9] = "never inserted"
        problems = check_expected_contents(cluster.engine, bogus)
        assert any("missing" in p for p in problems)

    def test_unexpected_key_detected(self):
        cluster, expected = healthy_cluster()
        smaller = dict(expected)
        smaller.pop(next(iter(smaller)))
        problems = check_expected_contents(cluster.engine, smaller)
        assert any("unexpected" in p for p in problems)

    def test_wrong_value_detected(self):
        cluster, expected = healthy_cluster()
        wrong = dict(expected)
        some_key = next(iter(wrong))
        wrong[some_key] = "different-value"
        problems = check_expected_contents(cluster.engine, wrong)
        assert any("value" in p for p in problems)

    def test_replication_metadata_divergence_detected(self):
        cluster, _expected = healthy_cluster()
        copy = next(c for c in cluster.engine.all_copies())
        copy.version += 7
        problems = check_replication_metadata(cluster.engine)
        assert any("versions diverge" in p for p in problems)

    def test_trace_store_disagreement_detected(self):
        cluster, _expected = healthy_cluster()
        proc = cluster.kernel.processor(0)
        node_id = next(iter(cluster.engine.store(proc)))
        del cluster.engine.store(proc)[node_id]
        problems = check_trace_store_agreement(cluster.engine)
        assert any("not stored" in p for p in problems)

    def test_out_of_order_link_change_detected(self):
        cluster, _expected = healthy_cluster()
        trace = cluster.trace
        node = next(c for c in cluster.engine.all_copies())
        pid = node.home_pid
        trace.record_relayed(
            node.node_id, pid, trace.new_action_id(), "link_change",
            ("link_change", "left", 1, 5), 5, cluster.now,
        )
        trace.record_relayed(
            node.node_id, pid, trace.new_action_id(), "link_change",
            ("link_change", "left", 2, 3), 3, cluster.now,
        )
        problems = check_ordered_histories(trace)
        assert any("out of order" in p for p in problems)


class TestCutExcuse:
    """A cut (a shard migration's ``drain`` at every node reaching its
    key) ends the node it passes through at ``+inf``, so that node
    covers again keys it once re-homed by a half-split.  The audit
    excuses an update a copy never saw only when the copy's own history
    holds a later cut at or below the update's key; an update below the
    cut, or issued after it, that one copy lost is still reported."""

    CUT = 80

    @pytest.fixture
    def cut_tree(self):
        """A cut tree, an action id issued before its cut, and the node
        the cut passed through at the leaf level."""
        cluster, _expected = healthy_cluster()
        before = cluster.trace.new_action_id()
        cluster.engine.cut(self.CUT)
        assert cluster.run().ok
        straddler = max(
            (n for n in representative_nodes(cluster.engine).values() if n.is_leaf),
            key=lambda node: node.range.low,
        )
        return cluster, before, straddler.node_id

    @staticmethod
    def lose_at_one_copy(cluster, node_id, action_id, key):
        """Issue an insert of ``key`` at ``node_id`` that every live copy
        but one applied."""
        trace = cluster.trace
        params = ("insert", key, "planted")
        trace.issued[node_id][action_id] = ("insert", params)
        for history in trace.live_copies(node_id)[1:]:
            history.applied.append(
                AppliedUpdate(action_id, "insert", "relayed", params, 0, 0.0)
            )

    def test_an_update_the_cut_gave_away_is_excused(self, cut_tree):
        cluster, before, node_id = cut_tree
        self.lose_at_one_copy(cluster, node_id, before, self.CUT + 1)
        assert check_compatible_histories(cluster.engine) == []

    def test_an_update_below_the_cut_is_reported(self, cut_tree):
        cluster, before, node_id = cut_tree
        self.lose_at_one_copy(cluster, node_id, before, self.CUT - 1)
        report = cluster.check()
        assert [p for p in report.problems if f"action {before}" in p]
        assert all(p.startswith("[compatible]") for p in report.problems)

    def test_an_update_issued_after_the_cut_is_reported(self, cut_tree):
        cluster, _before, node_id = cut_tree
        after = cluster.trace.new_action_id()
        self.lose_at_one_copy(cluster, node_id, after, self.CUT + 1)
        report = cluster.check()
        assert [p for p in report.problems if f"action {after}" in p]
        assert all(p.startswith("[compatible]") for p in report.problems)


class TestOracle:
    def test_tracks_inserts_and_deletes(self):
        oracle = OracleMap()
        oracle.apply("insert", 1, "a")
        oracle.apply("insert", 2, "b")
        oracle.apply("delete", 1)
        assert oracle.expected_items() == {2: "b"}
        assert 2 in oracle
        assert len(oracle) == 1

    def test_search_is_a_noop(self):
        oracle = OracleMap()
        oracle.apply("search", 5)
        assert not oracle.conflicts
        assert len(oracle) == 0

    def test_conflicts_recorded(self):
        oracle = OracleMap()
        oracle.apply("insert", 1, "a")
        oracle.apply("insert", 1, "b")
        oracle.apply("delete", 9)
        assert len(oracle.conflicts) == 2

    def test_unknown_kind_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            OracleMap().apply("upsert", 1)
