"""The queue manager / node manager: atomicity and accounting."""

import pytest

from repro.sim.events import EventQueue
from repro.sim.processor import Processor


def make_processor(service_time=1.0):
    events = EventQueue()
    proc = Processor(0, events, service_time=service_time)
    executed = []
    proc.install_handler(lambda p, action: executed.append((events.now, action)))
    return events, proc, executed


class TestExecution:
    def test_actions_execute_in_fifo_order(self):
        events, proc, executed = make_processor()
        for index in range(5):
            proc.submit(index)
        events.run()
        assert [a for _t, a in executed] == [0, 1, 2, 3, 4]

    def test_one_at_a_time_with_service_time(self):
        events, proc, executed = make_processor(service_time=2.0)
        proc.submit("a")
        proc.submit("b")
        events.run()
        assert executed == [(2.0, "a"), (4.0, "b")]

    def test_submit_without_handler_rejected(self):
        proc = Processor(0, EventQueue())
        with pytest.raises(RuntimeError):
            proc.submit("x")

    def test_handler_can_submit_followup(self):
        events = EventQueue()
        proc = Processor(0, events, service_time=1.0)
        executed = []

        def handler(p, action):
            executed.append((events.now, action))
            if action < 3:
                p.submit(action + 1)

        proc.install_handler(handler)
        proc.submit(0)
        events.run()
        assert executed == [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]

    def test_handler_exception_does_not_wedge_queue(self):
        events = EventQueue()
        proc = Processor(0, events)
        seen = []

        def handler(p, action):
            if action == "boom":
                raise ValueError("boom")
            seen.append(action)

        proc.install_handler(handler)
        proc.submit("boom")
        proc.submit("after")
        with pytest.raises(ValueError):
            events.run()
        events.run()  # the queue must still drain
        assert seen == ["after"]


class TestStats:
    def test_busy_time_and_counts(self):
        events, proc, _executed = make_processor(service_time=2.5)
        proc.submit("a")
        proc.submit("b")
        events.run()
        assert proc.stats.actions_executed == 2
        assert proc.stats.busy_time == 5.0

    def test_wait_time_accumulates(self):
        events, proc, _executed = make_processor(service_time=2.0)
        proc.submit("a")  # waits 0
        proc.submit("b")  # waits 2
        proc.submit("c")  # waits 4
        events.run()
        assert proc.stats.wait_time == 6.0

    def test_max_queue_len(self):
        events, proc, _executed = make_processor()
        for index in range(4):
            proc.submit(index)
        events.run()
        # The first submit enters service immediately, so the queue
        # peaks at 3 waiting actions.
        assert proc.stats.max_queue_len == 3

    def test_lone_action_counts_as_a_queue_of_one(self):
        # An idle processor takes the action straight into service;
        # the accounting reads as if it had queued for no time.
        events, proc, _executed = make_processor()
        proc.submit("a")
        events.run()
        assert proc.stats.max_queue_len == 1
        assert proc.stats.wait_time == 0.0

    def test_by_kind_counter(self):
        events, proc, _executed = make_processor()
        proc.submit("x")
        proc.submit("y")
        events.run()
        assert proc.stats.by_kind["str"] == 2
