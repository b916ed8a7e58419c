"""Discrete-event simulation of one 3D stack serving Memcached traffic.

This is the library's stand-in for the paper's gem5 runs: requests arrive
at the stack's NIC MAC as a Poisson stream, the MAC routes each to its
core (each core runs an independent Memcached instance on its own TCP
port, §4.1.4), the core serves it for the time the latency model
predicts, and the response's wire time is appended.  Output is the full
RTT sample set, from which throughput, mean/percentile latency, and the
SLA fraction are computed.

The simulation also *validates* the paper's linear-scaling methodology
(§5.3): with per-core request streams and no shared locks, measured
throughput of an n-core stack is n times the single-core value until the
offered load approaches saturation.

Why this model stays beside :class:`~repro.sim.full_system.FullSystemStack`:
it is the storeless queueing reference, and the full-system run cannot
reproduce it.  It routes each request to a uniformly random core
(``rng.randrange``) where the full system routes by key through the
client ring; it takes any service-time callable where the full system
charges the latency model's time for the request's actual verb, size and
hit; and it excludes warm-up requests from the samples.
``analysis/validation.py`` needs exactly that to compare measured
latency against closed-form M/G/1, and ``tests/test_sim_request_sim.py``
and ``tests/test_integration_scaling.py`` use it as the queueing
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.sim.events import Simulator
from repro.sim.resources import FifoResource
from repro.sim.rng import make_rng


@dataclass
class SimResults:
    """Measured outcomes of a :class:`StackSimulation` run."""

    duration_s: float
    offered_rate_hz: float
    completed: int
    rtts: list[float] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)
    dropped: int = 0

    @property
    def throughput_hz(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def mean_rtt(self) -> float:
        return sum(self.rtts) / len(self.rtts) if self.rtts else 0.0

    @property
    def mean_wait(self) -> float:
        return sum(self.waits) / len(self.waits) if self.waits else 0.0

    def rtt_percentile(self, p: float) -> float:
        """Empirical percentile of RTT (p in (0, 1))."""
        if not 0.0 < p < 1.0:
            raise ConfigurationError("percentile must be in (0, 1)")
        if not self.rtts:
            return 0.0
        ordered = sorted(self.rtts)
        index = min(len(ordered) - 1, int(p * len(ordered)))
        return ordered[index]

    def sla_fraction(self, deadline_s: float = 1e-3) -> float:
        """Fraction of requests completing within the deadline."""
        if not self.rtts:
            return 0.0
        return sum(1 for r in self.rtts if r <= deadline_s) / len(self.rtts)


class StackSimulation:
    """Poisson-driven simulation of an n-core stack.

    Args:
        cores: Memcached instances (one per core, independent queues).
        service_time: callable returning the core-side service time of the
            next request (seconds); typically latency-model driven.
        wire_time: constant network serialisation+propagation time added
            outside the core (both directions), part of RTT but not of
            core occupancy.
        seed: RNG seed for arrivals and any service-time randomness.
    """

    def __init__(
        self,
        cores: int,
        service_time: Callable[[], float],
        wire_time: float = 0.0,
        seed: int = 0,
    ):
        if cores <= 0:
            raise ConfigurationError("a stack needs at least one core")
        if wire_time < 0:
            raise ConfigurationError("wire time cannot be negative")
        self.cores = cores
        self.service_time = service_time
        self.wire_time = wire_time
        self.seed = seed

    def run(
        self,
        offered_rate_hz: float,
        duration_s: float,
        warmup_s: float = 0.0,
    ) -> SimResults:
        """Drive the stack at ``offered_rate_hz`` total for ``duration_s``.

        Arrivals are split round-robin-by-hash across cores, matching the
        MAC's per-port routing of distinct client connections.  Requests
        arriving during warm-up are served but not measured.
        """
        if offered_rate_hz <= 0:
            raise ConfigurationError("offered rate must be positive")
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        sim = Simulator()
        rng = make_rng("arrivals", self.seed)
        core_resources = [
            FifoResource(sim, name=f"core{i}") for i in range(self.cores)
        ]
        results = SimResults(
            duration_s=duration_s, offered_rate_hz=offered_rate_hz, completed=0
        )
        horizon = warmup_s + duration_s

        def arrive() -> None:
            if sim.now >= horizon:
                return
            core = core_resources[rng.randrange(self.cores)]
            arrival_time = sim.now
            service = self.service_time()

            def complete(wait: float) -> None:
                def record() -> None:
                    # Only completions inside the measurement window count:
                    # a saturated stack's backlog drains after the horizon
                    # and must not inflate throughput.
                    if arrival_time >= warmup_s and sim.now <= horizon:
                        results.completed += 1
                        results.rtts.append(sim.now - arrival_time)
                        results.waits.append(wait)

                sim.schedule(self.wire_time, record)

            core.submit(service, complete)
            sim.schedule(rng.expovariate(offered_rate_hz), arrive)

        sim.schedule(rng.expovariate(offered_rate_hz), arrive)
        sim.run()
        return results

    def saturation_throughput(
        self,
        start_rate_hz: float,
        duration_s: float,
        sla_deadline_s: float = 1e-3,
        sla_target: float = 0.5,
    ) -> float:
        """Highest offered rate whose SLA fraction still meets the target.

        Doubles the rate until the SLA breaks, then binary-searches the
        boundary — the paper's notion of sustainable throughput.
        """
        if not 0.0 < sla_target <= 1.0:
            raise ConfigurationError("sla_target must be in (0, 1]")
        low = 0.0
        rate = start_rate_hz
        while self.run(rate, duration_s).sla_fraction(sla_deadline_s) >= sla_target:
            low = rate
            rate *= 2.0
            if rate > start_rate_hz * 2**20:
                return low
        high = rate
        for _ in range(12):
            mid = (low + high) / 2.0
            if self.run(mid, duration_s).sla_fraction(sla_deadline_s) >= sla_target:
                low = mid
            else:
                high = mid
        return low
