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
