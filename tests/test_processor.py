"""The queue manager / node manager: atomicity and accounting."""

import pytest

from types import SimpleNamespace

from repro.sim.events import EventQueue, QuiescenceError
from repro.sim.network import Bundle
from repro.sim import processor
from repro.sim.processor import Processor
from tests.helpers import count_executed


def make_processor():
    events = EventQueue()
    proc = Processor(0, events)
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

    def test_one_at_a_time_with_service_time(self, monkeypatch):
        monkeypatch.setattr(processor, "SERVICE_TIME", 2.0)
        events, proc, executed = make_processor()
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
        proc = Processor(0, events)
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


class TestServiceStepFailures:
    """A completion that raises still ends its action: it sends what the
    action held, clears the actor, serves the next queued action, and
    the event count stays exact."""

    @staticmethod
    def failing_holder():
        def handler(p, action):
            p.hold(1, action)
            if action == "boom":
                raise ValueError("boom")

        events, proc, kernel, wire = holding_processor(handler)
        proc.submit("boom")
        proc.submit("after")
        with pytest.raises(ValueError):
            events.run()
        return events, proc, kernel, wire

    def test_a_raising_action_still_sends_what_it_held(self):
        # At its own end, before the error surfaces (that the actor is
        # cleared is TestHolding's failing-action test).
        _events, _proc, _kernel, wire = self.failing_holder()
        assert wire == [(1.0, 0, 1, "boom")]

    def test_the_next_queued_action_is_already_in_service(self):
        events, proc, _kernel, wire = self.failing_holder()
        assert proc.busy and events.pending == 1
        events.run()
        assert wire[-1] == (2.0, 0, 1, "after")

    def test_executed_is_exact_after_a_callback_raises_mid_run(self):
        events = EventQueue()

        def boom():
            raise ValueError("boom")

        for time, callback in ((1.0, lambda: None), (2.0, boom), (3.0, lambda: None)):
            events.schedule(time, callback)
        with pytest.raises(ValueError):
            events.run()
        assert (events.executed, events.pending) == (2, 1)
        events.run()
        assert events.executed == 3

    def test_quiescence_error_counts_exactly_the_budget(self):
        events = EventQueue()
        for index in range(5):
            events.schedule(float(index), lambda: None)
        with pytest.raises(QuiescenceError):
            events.run(max_events=3)
        # The event past the budget is left queued, not run.
        assert (events.executed, events.pending, events.now) == (3, 2, 2.0)


class TestCrashStop:
    """A double transition raises: a crash schedule cannot ask for one."""

    def test_crash_when_already_down(self):
        proc = Processor(0, EventQueue())
        proc.make_crashable()
        proc.crash()
        with pytest.raises(RuntimeError, match="already down"):
            proc.crash()

    def test_restart_when_already_up(self):
        proc = Processor(0, EventQueue())
        proc.make_crashable()
        with pytest.raises(RuntimeError, match="already up"):
            proc.restart()

    def test_crash_needs_a_crashable_processor(self):
        proc = Processor(0, EventQueue())
        with pytest.raises(RuntimeError, match="not built crashable"):
            proc.crash()


class TestStats:
    def test_busy_time_and_counts(self, monkeypatch):
        monkeypatch.setattr(processor, "SERVICE_TIME", 2.5)
        events, proc, _executed = make_processor()
        proc.submit("a")
        proc.submit("b")
        events.run()
        assert proc.stats.actions_executed == 2
        assert proc.stats.busy_time == 5.0

    def test_executed_kinds_counted_at_the_handler(self):
        events, proc, _executed = make_processor()
        counts = count_executed([proc])
        proc.submit("x")
        proc.submit("y")
        events.run()
        assert counts[proc.pid]["str"] == 2


def holding_processor(handler):
    """A processor holding its sends for a stand-in kernel.

    The kernel's network records ``(time, src, dst, payload)``.
    """
    events = EventQueue()
    wire = []
    network = SimpleNamespace(
        send=lambda src, dst, payload: wire.append((events.now, src, dst, payload))
    )
    kernel = SimpleNamespace(acting=None, network=network)
    proc = Processor(0, events)
    proc.install_handler(handler)
    proc.hold_sends(kernel)
    return events, proc, kernel, wire


class TestHolding:
    """What an action holds leaves when it ends, one message a peer."""

    def test_held_sends_leave_when_the_action_ends(self):
        during = []

        def handler(p, action):
            p.hold(1, "a")
            p.hold(2, "x")
            p.hold(1, "b")
            during.append((kernel.acting, list(wire)))

        events, proc, kernel, wire = holding_processor(handler)
        proc.submit("go")
        events.run()
        # Nothing left while the action ran, and it was the actor.
        assert during == [(proc, [])]
        assert kernel.acting is None
        # One message per destination, in the order first named.
        assert [(t, src, dst) for t, src, dst, _p in wire] == [(1.0, 0, 1), (1.0, 0, 2)]
        bundle, lone = wire[0][3], wire[1][3]
        assert type(bundle) is Bundle and bundle.items == ["a", "b"]
        assert lone == "x"

    def test_each_action_starts_with_nothing_held(self):
        events, proc, _kernel, wire = holding_processor(
            lambda p, action: p.hold(1, action)
        )
        proc.submit("first")
        proc.submit("second")
        events.run()
        assert [(t, payload) for t, _s, _d, payload in wire] == [
            (1.0, "first"),
            (2.0, "second"),
        ]

    def test_hold_sends_none_turns_holding_off(self):
        seen = []
        events, proc, kernel, wire = holding_processor(
            lambda p, action: seen.append(kernel.acting)
        )
        proc.hold_sends(None)
        proc.submit("go")
        events.run()
        # The kernel never learns of the action, so it holds nothing.
        assert seen == [None]
        assert wire == []

    def test_a_failing_action_still_sends_what_it_held(self):
        def handler(p, action):
            p.hold(1, action)
            if action == "boom":
                raise ValueError("boom")

        events, proc, kernel, wire = holding_processor(handler)
        proc.submit("boom")
        proc.submit("after")
        with pytest.raises(ValueError):
            events.run()
        assert kernel.acting is None
        events.run()
        assert [payload for _t, _s, _d, payload in wire] == ["boom", "after"]
