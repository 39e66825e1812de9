"""Kernel facade: routing, broadcast, utilization, guards."""

import pytest

from repro.sim.simulator import Kernel, QuiescenceError


def echo_kernel(num=3, **kwargs):
    kernel = Kernel(num_processors=num, **kwargs)
    received = []
    kernel.install_handler(lambda proc, action: received.append((proc.pid, action)))
    return kernel, received


class TestRouting:
    def test_local_route_is_free(self):
        kernel, received = echo_kernel()
        kernel.route(1, 1, "local")
        kernel.run_to_quiescence()
        assert received == [(1, "local")]
        assert kernel.network.stats.sent == 0

    def test_remote_route_costs_a_message(self):
        kernel, received = echo_kernel()
        kernel.route(0, 2, "remote")
        kernel.run_to_quiescence()
        assert received == [(2, "remote")]
        assert kernel.network.stats.sent == 1

    def test_processor_lookup(self):
        kernel, _received = echo_kernel()
        assert kernel.processor(1).pid == 1
        with pytest.raises(KeyError):
            kernel.processor(99)

    def test_pids_sorted(self):
        kernel, _received = echo_kernel(num=5)
        assert kernel.pids == [0, 1, 2, 3, 4]

    def test_needs_a_processor(self):
        with pytest.raises(ValueError):
            Kernel(num_processors=0)


class TestRunControl:
    def test_quiescence_error_on_livelock(self):
        kernel = Kernel(num_processors=2)

        def ping_pong(proc, action):
            kernel.route(proc.pid, 1 - proc.pid, action)

        kernel.install_handler(ping_pong)
        kernel.route(0, 1, "ball")
        with pytest.raises(QuiescenceError):
            kernel.run_to_quiescence(max_events=200)

    def test_handler_error_surfaces_as_itself(self):
        kernel = Kernel(num_processors=2)

        def crash(proc, action):
            raise RuntimeError("boom")

        kernel.install_handler(crash)
        kernel.route(0, 1, "ball")
        with pytest.raises(RuntimeError, match="boom") as caught:
            kernel.run_to_quiescence()
        assert not isinstance(caught.value, QuiescenceError)

    def test_run_until(self):
        kernel, received = echo_kernel()
        kernel.route(0, 1, "early")  # delivered at t=10
        kernel.events.schedule(100.0, lambda: kernel.route(0, 1, "late"))
        kernel.run_until(50.0)
        assert [a for _p, a in received] == ["early"]
        kernel.run_to_quiescence()
        assert [a for _p, a in received] == ["early", "late"]

    def test_utilization_fractions(self):
        kernel, _received = echo_kernel(num=2)
        for _ in range(10):
            kernel.route(0, 1, "work")  # pid 1 serves 10 actions
        kernel.run_to_quiescence()
        utilization = kernel.utilization()
        assert utilization[1] > 0
        assert utilization[0] == 0.0

    def test_utilization_before_any_event(self):
        kernel, _received = echo_kernel(num=2)
        assert kernel.utilization() == {0: 0.0, 1: 0.0}


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        def run(seed):
            kernel, received = echo_kernel(seed=seed)
            for index in range(20):
                kernel.route(index % 3, (index + 1) % 3, index)
            kernel.run_to_quiescence()
            return received, kernel.now

        assert run(7) == run(7)
        # Different seeds may differ in jitter-based setups; with
        # fixed latency the outcome matches regardless.
        assert run(7)[0] == run(8)[0]


def sender_kernel(sends, num=3, **kwargs):
    """A kernel whose pid 0, on "go", makes ``sends``; others record."""
    kernel = Kernel(num_processors=num, **kwargs)
    received = []

    def handler(proc, action):
        if action == "go":
            for dst, payload in sends:
                kernel.route(proc.pid, dst, payload)
        else:
            received.append((kernel.now, proc.pid, action))

    kernel.install_handler(handler)
    return kernel, received


class TestOutbox:
    """What one action sends to one processor leaves as one message."""

    def test_one_message_per_destination_items_in_send_order(self):
        kernel, received = sender_kernel([(1, "a"), (2, "x"), (1, "b"), (1, "c")])
        kernel.route(0, 0, "go")
        kernel.run_to_quiescence()
        stats = kernel.network.stats
        assert (stats.sent, stats.delivered, stats.piggybacked) == (2, 2, 2)
        assert stats.by_kind == {"str": 4}
        # "go" ends at 1, both messages land at 11, and each item is
        # its own action with its own service time.
        assert received == [(12.0, 1, "a"), (12.0, 2, "x"), (13.0, 1, "b"), (14.0, 1, "c")]
        assert kernel.processor(1).stats.actions_executed == 3
        assert kernel.acting is None

    def test_a_lone_send_is_not_wrapped(self):
        kernel, received = sender_kernel([(1, "a"), (2, "x")])
        kernel.route(0, 0, "go")
        kernel.run_to_quiescence()
        assert kernel.network.stats.piggybacked == 0
        assert [action for _t, _pid, action in received] == ["a", "x"]

    def test_sends_outside_an_action_leave_at_once(self):
        kernel, received = sender_kernel([])
        stats = kernel.network.stats
        sent_by_timer = []

        def timer():
            kernel.route(0, 1, "t1")
            kernel.route(0, 1, "t2")
            sent_by_timer.append(stats.sent)

        kernel.events.schedule(5.0, timer)
        kernel.route(0, 1, "submitted")  # a client submission
        assert stats.sent == 1
        kernel.run_to_quiescence()
        assert sent_by_timer == [3]
        assert stats.piggybacked == 0
        assert [action for _t, _pid, action in received] == ["submitted", "t1", "t2"]
