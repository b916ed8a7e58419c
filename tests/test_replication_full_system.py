"""Full-system acceptance for the replication subsystem (ISSUE PR 3).

The headline claim: with N=3 R=2 W=2 quorum replication, a core crash
that craters a single-copy system's hit rate becomes invisible — every
availability window of the crash run stays within 1% of the fault-free
run — while fault-free writes cost exactly N× the unreplicated
replica-write budget.  Scaled down to tier-1 size from the benchmark
scenario, same shape as :class:`TestFullSystemAcceptance` in
``test_faults.py``.
"""

from __future__ import annotations

import math

import pytest

from repro.core import mercury_stack
from repro.faults.resilience import DEFAULT_RESILIENCE
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.replication.config import ReplicationConfig
from repro.sim.full_system import FullSystemStack
from repro.sim.run_options import RunOptions
from repro.telemetry.tracing import TelemetrySession
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.distributions import fixed_size

CORES = 4
CRASH_S, RESTART_S = 0.3, 0.6
DURATION_S = 1.2
WINDOW_S = 0.1

SCHEDULE = FaultSchedule(
    name="replication-acceptance",
    events=(
        FaultEvent(kind="node_crash", at_s=CRASH_S, node="core0"),
        FaultEvent(kind="node_restart", at_s=RESTART_S, node="core0"),
    ),
)


def run_system(replication=None, faults=None, resilience=None, telemetry=None):
    system = FullSystemStack(
        stack=mercury_stack(cores=CORES),
        memory_per_core_bytes=8 * MB,
        seed=42,
    )
    capacity = CORES * system.model.tps("GET", 64)
    workload = WorkloadSpec(
        name="replication-acceptance",
        get_fraction=0.9,
        key_population=8_000,
        value_sizes=fixed_size(64),
    )
    return system.run(
        workload,
        RunOptions(
            offered_rate_hz=0.3 * capacity,
            duration_s=DURATION_S,
            warmup_requests=24_000,
            window_s=WINDOW_S,
            fill_on_miss=True,
            faults=faults,
            resilience=resilience,
            replication=replication,
            telemetry=telemetry,
        ),
    )


def window_availability(faulted, baseline):
    """Per-window hit rate of the crash run relative to the fault-free
    run; 1.0 means the crash was invisible in that window."""
    ratios = {}
    for window, gets in sorted(faulted.window_gets.items()):
        base_gets = baseline.window_gets.get(window, 0)
        if not gets or not base_gets:
            continue
        faulted_rate = faulted.window_hits.get(window, 0) / gets
        base_rate = baseline.window_hits.get(window, 0) / base_gets
        if base_rate > 0:
            ratios[window] = faulted_rate / base_rate
    return ratios


def stats(r):
    return (
        r.completed, r.failed, r.puts, r.replica_puts, r.redirected_reads,
        r.verify_reads, r.read_repairs, r.hints_queued, r.hints_replayed,
        r.antientropy_sweeps, r.antientropy_repairs, r.get_hits,
        r.get_misses, r.mean_rtt,
        tuple(sorted(r.window_gets.items())),
        tuple(sorted(r.window_hits.items())),
    )


N3 = ReplicationConfig(n=3, r=2, w=2)


class TestFaultFreeReplication:
    def test_write_amplification_is_exactly_n(self):
        result = run_system(replication=N3)
        assert result.puts > 0
        assert result.replica_puts == 3 * result.puts
        assert result.write_amplification == pytest.approx(3.0)

    def test_replication_none_is_pure_opt_in(self):
        plain = run_system()
        assert plain.replica_puts == 0
        assert plain.redirected_reads == 0 and plain.verify_reads == 0
        assert plain.read_repairs == 0
        assert plain.hints_queued == 0 and plain.hints_replayed == 0
        assert plain.antientropy_sweeps == 0
        assert plain.write_amplification == pytest.approx(1.0)

    def test_replication_does_not_change_logical_throughput(self):
        """Replica fan-out costs capacity, not completions: at 0.3 load
        the system absorbs the extra writes without shedding requests."""
        plain = run_system()
        replicated = run_system(replication=N3)
        assert replicated.completed == plain.completed
        assert replicated.failed == 0
        assert not math.isnan(replicated.mean_rtt)

    def test_read_quorum_verify_traffic_accounted(self):
        result = run_system(replication=N3)
        # r=2: every completed GET charges one extra verify read.
        assert result.verify_reads > 0
        assert result.antientropy_sweeps > 0


class TestCrashAvailability:
    """The paper-facing claim: replication turns the §2.3 crash trough
    into flat availability, at ~N× write cost."""

    def test_n3_availability_never_dips_below_99_percent(self):
        baseline = run_system(replication=N3)
        faulted = run_system(
            replication=N3, faults=SCHEDULE, resilience=DEFAULT_RESILIENCE
        )
        ratios = window_availability(faulted, baseline)
        assert ratios, "no comparable windows"
        worst = min(ratios.values())
        assert worst >= 0.99, f"availability trough {worst:.4f}: {ratios}"

    def test_single_copy_shows_the_crash_trough(self):
        baseline = run_system()
        faulted = run_system(faults=SCHEDULE, resilience=DEFAULT_RESILIENCE)
        worst = min(window_availability(faulted, baseline).values())
        assert worst < 0.95, f"expected a visible trough, got {worst:.4f}"

    def test_crash_run_exercises_handoff_and_antientropy(self):
        faulted = run_system(
            replication=N3, faults=SCHEDULE, resilience=DEFAULT_RESILIENCE
        )
        # Writes aimed at the down core park as hints and replay on
        # readmission; the periodic sweep backstops residual divergence.
        assert faulted.hints_queued > 0
        assert faulted.hints_replayed > 0
        assert faulted.antientropy_sweeps > 0
        assert faulted.antientropy_repairs > 0
        assert faulted.failed == 0

    def test_seeded_replicated_crash_run_is_bit_identical(self):
        first = run_system(
            replication=N3, faults=SCHEDULE, resilience=DEFAULT_RESILIENCE
        )
        second = run_system(
            replication=N3, faults=SCHEDULE, resilience=DEFAULT_RESILIENCE
        )
        assert stats(first) == stats(second)


class TestReplicationTelemetry:
    def test_replication_counters_reach_the_registry(self):
        session = TelemetrySession()
        run_system(
            replication=N3,
            faults=SCHEDULE,
            resilience=DEFAULT_RESILIENCE,
            telemetry=session,
        )
        names = {m.name for m in session.registry}
        assert "replication_replica_writes_total" in names
        assert "replication_hints_queued_total" in names
        assert "replication_hints_replayed_total" in names
        assert "replication_redirected_reads_total" in names

    @pytest.mark.parametrize("replication", [None, N3])
    def test_replication_histograms_register_only_on_replicated_runs(
        self, replication
    ):
        session = TelemetrySession()
        FullSystemStack(
            stack=mercury_stack(cores=CORES),
            memory_per_core_bytes=8 * MB,
            seed=42,
        ).run(
            WorkloadSpec(
                name="replication-registry",
                get_fraction=0.9,
                key_population=1_000,
                value_sizes=fixed_size(64),
            ),
            RunOptions(
                offered_rate_hz=5_000.0,
                duration_s=0.02,
                warmup_requests=500,
                replication=replication,
                telemetry=session,
            ),
        )
        series = [
            ("background_busy_seconds", {"task": task})
            for task in ("hint_replay", "antientropy", "read_repair", "verify_read")
        ] + [("replica_put_wait_seconds", None)]
        registered = [
            session.registry.get(name, labels) is not None
            for name, labels in series
        ]
        assert registered == [replication is not None] * len(series)

    def test_invalid_replication_config_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_system(replication=ReplicationConfig(n=8, r=2, w=2))
