"""Tests for FIFO resources on the event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import FifoResource, Simulator


class TestSingleServer:
    def test_serves_in_order_with_waiting(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        waits = []
        core.submit(2.0, waits.append)
        core.submit(1.0, waits.append)
        core.submit(1.0, waits.append)
        sim.run()
        assert waits == [pytest.approx(0.0), pytest.approx(2.0), pytest.approx(3.0)]
        assert sim.now == pytest.approx(4.0)
        assert core.jobs_served == 3

    def test_idle_resource_serves_immediately(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        waits = []
        core.submit(1.0, waits.append)
        sim.run()
        core.submit(1.0, waits.append)
        sim.run()
        assert waits == [pytest.approx(0.0), pytest.approx(0.0)]

    def test_queue_depth_tracked(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        for _ in range(5):
            core.submit(1.0, lambda w: None)
        assert core.queue_depth == 4
        assert core.busy == 1
        sim.run()
        assert core.max_queue_depth == 4
        assert core.queue_depth == 0

    def test_zero_service_time_allowed(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        done = []
        core.submit(0.0, lambda w: done.append(w))
        sim.run()
        assert done == [0.0]

    def test_negative_service_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FifoResource(sim, "core").submit(-1.0, lambda w: None)

    def test_zero_servers_rejected(self):
        with pytest.raises(SimulationError):
            FifoResource(Simulator(), "core", servers=0)


class TestFluidHandOver:
    """``drained_at`` / ``occupy_until``: how a fluid window reads a
    single-server queue's backlog and hands its own back."""

    def test_drained_at_is_the_next_start_of_a_later_job(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        assert core.drained_at() == 0.0
        starts = []
        for service in (0.3, 0.1, 0.7):
            core.submit(service, lambda wait: None)
        sim.run(until=0.2)
        drained = core.drained_at()
        core.submit(0.5, lambda wait: starts.append(sim.now))
        sim.run()
        # Exact: the same float additions the event loop performs.
        assert starts == [drained + 0.5]
        assert drained == (0.3 + 0.1) + 0.7

    def test_drained_at_of_an_idle_queue_is_now(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        core.submit(1.0, lambda wait: None)
        sim.run(until=2.5)
        assert core.drained_at() == 2.5

    def test_occupy_until_queues_later_jobs_without_recording(self):
        charged = []
        sim = Simulator()
        core = FifoResource(
            sim, "core", busy_observer=lambda s, d: charged.append((s, d))
        )
        core.occupy_until(1.5)
        assert core.busy == 1
        assert core.drained_at() == 1.5
        waits = []
        sim.schedule(0.5, lambda: core.submit(1.0, waits.append))
        sim.run()
        assert waits == [1.0]
        assert sim.now == 2.5
        assert core.jobs_served == 1
        assert core.total_service == 1.0
        assert charged == [(1.5, 1.0)]

    def test_occupy_until_needs_an_idle_server(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        core.submit(1.0, lambda wait: None)
        with pytest.raises(SimulationError):
            core.occupy_until(2.0)


class TestMultiServer:
    def test_parallel_servers_overlap(self):
        sim = Simulator()
        pool = FifoResource(sim, "pool", servers=2)
        finish_times = []
        for _ in range(2):
            pool.submit(1.0, lambda w: finish_times.append(sim.now))
        sim.run()
        assert finish_times == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_third_job_waits_for_first_free_server(self):
        sim = Simulator()
        pool = FifoResource(sim, "pool", servers=2)
        waits = []
        pool.submit(1.0, waits.append)
        pool.submit(2.0, waits.append)
        pool.submit(1.0, waits.append)
        sim.run()
        assert waits[2] == pytest.approx(1.0)

    def test_utilization(self):
        sim = Simulator()
        pool = FifoResource(sim, "pool", servers=2)
        pool.submit(1.0, lambda w: None)
        pool.submit(1.0, lambda w: None)
        sim.run()
        assert pool.utilization(elapsed=1.0) == pytest.approx(1.0)
        assert pool.utilization(elapsed=2.0) == pytest.approx(0.5)

    def test_utilization_requires_positive_elapsed(self):
        pool = FifoResource(Simulator(), "pool")
        with pytest.raises(SimulationError):
            pool.utilization(0.0)

    def test_mean_wait(self):
        sim = Simulator()
        core = FifoResource(sim, "core")
        core.submit(2.0, lambda w: None)
        core.submit(2.0, lambda w: None)
        sim.run()
        assert core.mean_wait == pytest.approx(1.0)
