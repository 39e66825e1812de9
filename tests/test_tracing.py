"""Trace recording: births, updates, operations, blocking."""

import pytest

from repro.sim.tracing import Trace


def traced_copy():
    trace = Trace()
    trace.record_birth(1, 0, birth_set=(), time=0.0)
    return trace


class TestCopies:
    def test_birth_and_live(self):
        trace = traced_copy()
        assert len(trace.live_copies(1)) == 1
        assert trace.node_ids() == {1}

    def test_double_birth_rejected(self):
        trace = traced_copy()
        with pytest.raises(ValueError):
            trace.record_birth(1, 0, birth_set=(), time=1.0)

    def test_delete_and_rebirth_archives(self):
        trace = traced_copy()
        trace.record_copy_deleted(1, 0, time=1.0)
        assert trace.live_copies(1) == []
        trace.record_birth(1, 0, birth_set=(5,), time=2.0)
        assert len(trace.archived_copies) == 1
        assert trace.live_copies(1)[0].birth_set == frozenset({5})

    def test_delete_unknown_rejected(self):
        with pytest.raises(ValueError):
            Trace().record_copy_deleted(1, 0, time=0.0)

    def test_known_ids_union_birth_and_applied(self):
        trace = Trace()
        trace.record_birth(1, 0, birth_set=(10,), time=0.0)
        trace.record_initial(1, 0, 11, "insert", ("insert", 5, 5), 0, 1.0)
        copy = trace.live_copies(1)[0]
        assert copy.known_ids() == {10, 11}
        assert copy.applied_ids() == {11}


class TestUpdates:
    def test_initial_registers_in_issued(self):
        trace = traced_copy()
        trace.record_initial(1, 0, 7, "insert", ("insert", 3, 3), 0, 1.0)
        assert 7 in trace.issued[1]
        assert trace.counters["initial_insert"] == 1

    def test_initial_double_perform_rejected(self):
        trace = traced_copy()
        trace.record_initial(1, 0, 7, "insert", ("insert", 3, 3), 0, 1.0)
        with pytest.raises(ValueError):
            trace.record_initial(1, 0, 7, "insert", ("insert", 3, 3), 0, 2.0)

    def test_update_on_unknown_copy_rejected(self):
        with pytest.raises(ValueError):
            Trace().record_relayed(9, 9, 1, "insert", ("insert", 1, 1), 0, 0.0)

    def test_relayed_recorded_in_order(self):
        trace = traced_copy()
        trace.record_relayed(1, 0, 5, "insert", ("insert", 1, 1), 0, 1.0)
        trace.record_relayed(1, 0, 6, "insert", ("insert", 2, 2), 0, 2.0)
        applied = trace.live_copies(1)[0].applied
        assert [u.action_id for u in applied] == [5, 6]
        assert all(u.mode == "relayed" for u in applied)


class TestOperations:
    def test_lifecycle_and_latency(self):
        trace = Trace()
        trace.record_op_submitted(1, "search", 5, 0, time=10.0)
        trace.record_op_hop(1)
        trace.record_op_hop(1)
        trace.record_op_completed(1, "found", time=25.0)
        op = trace.operations[1]
        assert op.latency == 15.0
        assert op.hops == 2
        assert trace.latencies() == [15.0]
        assert trace.latencies("insert") == []

    def test_double_submit_rejected(self):
        trace = Trace()
        trace.record_op_submitted(1, "search", 5, 0, 0.0)
        with pytest.raises(ValueError):
            trace.record_op_submitted(1, "search", 5, 0, 0.0)

    def test_complete_unknown_rejected(self):
        with pytest.raises(ValueError):
            Trace().record_op_completed(9, None, 0.0)

    def test_double_complete_rejected(self):
        trace = Trace()
        trace.record_op_submitted(1, "search", 5, 0, 0.0)
        trace.record_op_completed(1, None, 1.0)
        with pytest.raises(ValueError):
            trace.record_op_completed(1, None, 2.0)


class TestBlocking:
    def test_blocked_time_accumulates(self):
        trace = Trace()
        trace.record_block("a", 10.0)
        trace.record_block("b", 12.0)
        trace.record_unblock("a", 15.0)
        trace.record_unblock("b", 13.0)
        assert trace.blocked_time == 6.0
        assert trace.blocked_events == 2

    def test_unblock_unknown_rejected(self):
        with pytest.raises(ValueError):
            Trace().record_unblock("nope", 1.0)


class TestIds:
    def test_action_ids_unique_and_monotone(self):
        trace = Trace()
        ids = [trace.new_action_id() for _ in range(100)]
        assert len(set(ids)) == 100
        assert ids == sorted(ids)
