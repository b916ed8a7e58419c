"""Hybrid DES/fluid fidelity: policy, planning, and DES-equivalence.

Three layers of guarantees, tested bottom-up.  The :class:`FidelityPolicy`
value object must validate and round-trip exactly (it is part of the
experiment cache key).  The segment planner must tile ``[0, duration]``
with guard-banded DES islands and fluid windows that are contiguous,
deterministic, and conservative around faults.  And the headline
contract: a hybrid run draws the same RNG stream and executes the same
store operations as pure DES, so everything RNG-determined (completions,
hits, misses, puts, response bytes) is *bit-identical*, and so are the
latency histograms' bucket counts: fluid windows run each core's exact
FIFO recursion.  The older 5 % bound on TPS, p99 and p99.9 stays as a
coarser check on every cell.
"""

import dataclasses

import pytest

from repro.core import mercury_stack
from repro.errors import ConfigurationError
from repro.exp.scenarios import get_scenario
from repro.faults.resilience import DEFAULT_RESILIENCE, ResiliencePolicy
from repro.faults.schedule import (
    FaultEvent,
    FaultSchedule,
    crash_restart,
    lossy_link,
)
from repro.sim.fidelity import (
    FidelityPolicy,
    fault_intervals,
    held_cores,
    plan_segments,
)
from repro.sim.full_system import FullSystemStack
from repro.sim.run_options import RunOptions
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.diurnal import DiurnalSchedule
from repro.workloads.distributions import fixed_size

CORES = 4
RATE_HZ = 20_000.0
DURATION_S = 1.0

WORKLOAD = WorkloadSpec(
    name="fidelity-equivalence",
    get_fraction=0.9,
    key_population=20_000,
    value_sizes=fixed_size(64),
)


def _run(**kwargs):
    return _run_stack(**kwargs)[1]


def _run_stack(
    seed=1,
    fidelity=None,
    faults=None,
    fill_on_miss=False,
    energy=False,
    diurnal=None,
    rate_hz=RATE_HZ,
    duration_s=DURATION_S,
    cores=CORES,
    workload=WORKLOAD,
    resilience=None,
):
    options = RunOptions(
        offered_rate_hz=rate_hz,
        duration_s=duration_s,
        warmup_requests=10_000,
        fill_on_miss=fill_on_miss,
        faults=faults,
        energy_summary=energy,
        diurnal=diurnal,
        fidelity=fidelity,
        resilience=resilience,
    )
    stack = FullSystemStack(
        stack=mercury_stack(cores), memory_per_core_bytes=8 * MB, seed=seed
    )
    return stack, stack.run(workload, options)


def _signature(results):
    """Everything determined by the RNG stream and store contents alone."""
    return (
        results.completed,
        results.get_hits,
        results.get_misses,
        results.puts,
        results.response_bytes,
    )


def _within(a, b, tol):
    ref = max(abs(a), abs(b))
    return ref == 0.0 or abs(a - b) <= tol * ref


def _assert_equivalent(des, hybrid):
    """The acceptance contract: exact functional outputs, 5 % timing."""
    assert _signature(hybrid) == _signature(des)
    assert _within(hybrid.throughput_hz, des.throughput_hz, 0.05)
    assert _within(hybrid.rtt_percentile(0.99), des.rtt_percentile(0.99), 0.05)
    assert _within(
        hybrid.rtt_percentile(0.999), des.rtt_percentile(0.999), 0.05
    )


def _assert_exact(des, hybrid):
    """Fluid windows run each core's FIFO recursion, so their latency
    is DES's own: same completions, same histograms bucket for bucket."""
    assert hybrid.completed == des.completed
    assert hybrid.rtt_histogram.counts == des.rtt_histogram.counts
    assert hybrid.wait_histogram.counts == des.wait_histogram.counts


class TestFidelityPolicy:
    def test_defaults(self):
        policy = FidelityPolicy()
        assert policy.mode == "hybrid"
        assert policy.guard_band_s == 0.05
        assert policy.calibration_s == 0.05
        assert policy.min_fluid_window_s == 0.05
        assert policy.max_fluid_step_s == 0.1
        assert policy.max_utilization == 0.9

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FidelityPolicy().mode = "fluid"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "turbo"},
            {"guard_band_s": -0.01},
            {"calibration_s": 0.0},
            {"min_fluid_window_s": 0.0},
            {"max_fluid_step_s": -1.0},
            {"max_utilization": 0.0},
            {"max_utilization": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FidelityPolicy(**kwargs)

    def test_round_trip(self):
        policy = FidelityPolicy(
            mode="fluid", guard_band_s=0.02, calibration_s=0.3
        )
        assert FidelityPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            FidelityPolicy.from_dict({"mode": "hybrid", "warp_factor": 9})

    def test_travels_through_run_options(self):
        options = RunOptions(
            offered_rate_hz=1000.0,
            duration_s=1.0,
            fidelity=FidelityPolicy(mode="hybrid", calibration_s=0.2),
        )
        rebuilt = RunOptions.from_dict(options.to_dict())
        assert rebuilt.fidelity == options.fidelity
        # Fidelity-free options must keep their historical cache keys.
        plain = RunOptions(offered_rate_hz=1000.0, duration_s=1.0)
        assert "fidelity" not in plain.to_dict()


class TestPlanSegments:
    def test_full_mode_is_one_des_segment(self):
        plan = plan_segments(FidelityPolicy(mode="full"), None, 4.0)
        assert plan == [(0.0, 4.0, "des")]

    def test_fault_free_hybrid_shape(self):
        plan = plan_segments(FidelityPolicy(), None, 1.0)
        assert plan == [
            (0.0, 0.05, "des"),
            (0.05, 0.95, "fluid"),
            (0.95, 1.0, "des"),
        ]

    def test_fault_island_is_guard_banded(self):
        plan = plan_segments(
            FidelityPolicy(), crash_restart("core0", 0.4, 0.5), 1.0
        )
        expected = [
            (0.0, 0.05, "des"),
            (0.05, 0.35, "fluid"),
            (0.35, 0.55, "des"),
            (0.55, 0.95, "fluid"),
            (0.95, 1.0, "des"),
        ]
        assert [kind for _, _, kind in plan] == [k for _, _, k in expected]
        for (start, end, _), (want_start, want_end, _) in zip(plan, expected):
            assert start == pytest.approx(want_start)
            assert end == pytest.approx(want_end)

    def test_overlapping_islands_merge(self):
        plan = plan_segments(
            FidelityPolicy(), crash_restart("core0", 0.08, 0.12), 1.0
        )
        # The guarded crash island [0.03, 0.17] overlaps the calibration
        # prefix, so the run opens with one fused DES segment.
        assert plan[0][2] == "des"
        assert plan[0][0] == 0.0
        assert plan[0][1] == pytest.approx(0.17)
        assert plan[1][2] == "fluid"

    def test_short_fluid_sliver_stays_des(self):
        plan = plan_segments(
            FidelityPolicy(), crash_restart("core0", 0.12, 0.3), 1.0
        )
        # The gap between calibration (ends 0.05) and the guarded island
        # (starts 0.07) is below min_fluid_window_s: not worth the mode
        # switch, so it folds into one DES segment.
        assert plan[0][2] == "des"
        assert plan[0][0] == 0.0
        assert plan[0][1] == pytest.approx(0.35)

    def test_unmatched_crash_pins_des_to_run_end(self):
        faults = FaultSchedule(
            name="no-restart",
            events=(FaultEvent(kind="node_crash", at_s=0.5, node="core0"),),
        )
        plan = plan_segments(FidelityPolicy(), faults, 1.0)
        assert plan[-1] == (0.45, 1.0, "des")

    def test_plans_tile_the_run_exactly(self):
        schedules = [
            None,
            crash_restart("core0", 0.4, 0.5),
            lossy_link(0.01, 0.2, 0.3),
            crash_restart("core0", 0.9, 2.0),
        ]
        for faults in schedules:
            plan = plan_segments(FidelityPolicy(), faults, 1.0)
            assert plan[0][0] == 0.0
            assert plan[-1][1] == 1.0
            for (_, end, kind), (start, _, next_kind) in zip(plan, plan[1:]):
                assert end == start
                assert kind != next_kind  # adjacent same-kind runs merge

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ConfigurationError):
            plan_segments(FidelityPolicy(), None, 0.0)


class TestHeldCores:
    def test_only_cores_over_the_guard_are_held(self):
        # 10 kHz at 100 us is 1.0 in total; shares 0.5/0.3/0.2.
        held = held_cores([50, 30, 20], 10_000.0, 100e-6, 0.4)
        assert held == {0: pytest.approx(0.5)}

    def test_guard_is_strict(self):
        # Binary-exact operands: rho is exactly 0.5 at 1024 Hz.
        service_s = 2.0**-10
        assert held_cores([1, 1], 1024.0, service_s, 0.5) == {}
        held = held_cores([1, 1], 1025.0, service_s, 0.5)
        assert held == {0: 1025.0 / 2048.0, 1: 1025.0 / 2048.0}

    def test_dropped_cores_are_held_below_the_guard(self):
        held = held_cores([50, 50], 1_000.0, 100e-6, 0.9, dropped={1})
        assert held == {1: pytest.approx(0.05)}

    def test_no_arrivals_splits_evenly(self):
        held = held_cores([0, 0, 0, 0], 40_000.0, 100e-6, 0.9)
        assert held == {c: pytest.approx(1.0) for c in range(4)}


class TestFaultIntervals:
    def test_crash_restart_pair_spans_the_outage(self):
        assert fault_intervals(crash_restart("core0", 1.0, 3.0)) == [
            (1.0, 3.0)
        ]

    def test_unmatched_crash_extends_forever(self):
        faults = FaultSchedule(
            name="down",
            events=(FaultEvent(kind="node_crash", at_s=2.0, node="core0"),),
        )
        assert fault_intervals(faults) == [(2.0, float("inf"))]

    def test_window_fault_spans_its_window(self):
        assert fault_intervals(lossy_link(0.01, 1.0, 2.5)) == [(1.0, 2.5)]


class TestHybridEquivalence:
    """DES vs hybrid on the tier-1 scenario shapes (4 cores, 20 kHz, 1 s)."""

    def test_baseline(self):
        des = _run(seed=1)
        hybrid = _run(seed=1, fidelity=FidelityPolicy(calibration_s=0.1))
        _assert_equivalent(des, hybrid)
        _assert_exact(des, hybrid)
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] >= 1
        assert "sim_fidelity_fallback_reason" not in hybrid.fidelity
        # No core held, so the provenance keeps its split-free layout.
        assert "sim_fidelity_des_cores" not in hybrid.fidelity

    def test_crash_restart(self):
        faults = crash_restart("core0", 0.4, 0.6)
        des = _run(seed=42, faults=faults, fill_on_miss=True)
        hybrid = _run(
            seed=42,
            faults=faults,
            fill_on_miss=True,
            fidelity=FidelityPolicy(calibration_s=0.2),
        )
        _assert_equivalent(des, hybrid)
        # The guarded outage ran as a DES island, so fault-plane
        # outcomes match exactly too.
        assert hybrid.failed == des.failed
        assert hybrid.mac_drops == des.mac_drops
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] >= 1
        # Once the outage produces losses, the runtime tripwire keeps
        # the rest of the run at DES fidelity — and says why.
        assert (
            hybrid.fidelity["sim_fidelity_fallback_reason"]
            == "losses_observed"
        )

    def test_lossy_link_window(self):
        faults = lossy_link(0.01, 0.4, 0.6)
        des = _run(seed=1, faults=faults, fill_on_miss=True)
        hybrid = _run(
            seed=1,
            faults=faults,
            fill_on_miss=True,
            fidelity=FidelityPolicy(calibration_s=0.1),
        )
        _assert_equivalent(des, hybrid)
        assert hybrid.mac_drops == des.mac_drops
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] >= 1

    def test_energy_diurnal(self):
        diurnal = DiurnalSchedule(day_length_s=1.0, trough_fraction=0.3)
        des = _run(seed=7, energy=True, diurnal=diurnal)
        hybrid = _run(
            seed=7,
            energy=True,
            diurnal=diurnal,
            fidelity=FidelityPolicy(calibration_s=0.3),
        )
        _assert_equivalent(des, hybrid)
        _assert_exact(des, hybrid)
        assert _within(hybrid.energy["total_j"], des.energy["total_j"], 0.05)
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] >= 1

    def test_hybrid_is_deterministic(self):
        policy = FidelityPolicy(calibration_s=0.1)
        first = _run(seed=1, fidelity=policy)
        second = _run(seed=1, fidelity=policy)
        assert _signature(second) == _signature(first)
        assert second.rtt_histogram.count == first.rtt_histogram.count
        assert second.rtt_histogram.mean == first.rtt_histogram.mean
        assert second.fidelity == first.fidelity

    def test_fluid_mode_fast_forwards_too(self):
        des = _run(seed=1)
        fluid = _run(
            seed=1, fidelity=FidelityPolicy(mode="fluid", calibration_s=0.1)
        )
        _assert_equivalent(des, fluid)
        _assert_exact(des, fluid)
        assert fluid.fidelity["sim_fidelity_mode"] == "fluid"
        assert fluid.fidelity["sim_fidelity_fluid_windows_total"] >= 1


class TestFallbacks:
    def test_structural_batching_falls_back_to_pure_des(self):
        scenario = get_scenario("batched")
        base = scenario.run_options(RATE_HZ, DURATION_S, warmup_requests=8_000)
        hybrid_options = dataclasses.replace(
            base, fidelity=FidelityPolicy(mode="hybrid")
        )
        workload = scenario.workload(64)
        stack = FullSystemStack(
            stack=mercury_stack(CORES), memory_per_core_bytes=8 * MB, seed=1
        )
        des = stack.run(workload, base)
        stack = FullSystemStack(
            stack=mercury_stack(CORES), memory_per_core_bytes=8 * MB, seed=1
        )
        hybrid = stack.run(workload, hybrid_options)
        # Frame coalescing is event-level interleaving — the phenomenon
        # itself — so the run silently degrades to full DES and says so.
        assert hybrid.fidelity["sim_fidelity_fallback_reason"] == "batching"
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] == 0
        assert _signature(hybrid) == _signature(des)
        assert hybrid.rtt_histogram.mean == des.rtt_histogram.mean
        assert hybrid.batches == des.batches

    def test_saturated_calibration_refuses_to_fold(self):
        # One core at ~1.3x its service capacity: the calibrated
        # utilisation exceeds max_utilization, every fluid candidate is
        # refused, and the run stays exact DES end to end.
        des = _run(seed=1, cores=1, rate_hz=15_000.0, duration_s=0.5)
        hybrid = _run(
            seed=1,
            cores=1,
            rate_hz=15_000.0,
            duration_s=0.5,
            fidelity=FidelityPolicy(calibration_s=0.1),
        )
        assert hybrid.fidelity["sim_fidelity_fallback_reason"] == "saturated"
        assert hybrid.fidelity["sim_fidelity_fluid_seconds_total"] == 0.0
        held = hybrid.fidelity["sim_fidelity_des_cores"]
        assert list(held) == ["0"] and held["0"] > 1.0
        assert _signature(hybrid) == _signature(des)
        assert hybrid.rtt_histogram.mean == des.rtt_histogram.mean

    def test_provenance_dict_accounts_for_the_whole_run(self):
        hybrid = _run(seed=1, fidelity=FidelityPolicy(calibration_s=0.1))
        prov = hybrid.fidelity
        assert prov["sim_fidelity_mode"] == "hybrid"
        assert prov["sim_fidelity_fluid_requests_total"] > 0
        total = (
            prov["sim_fidelity_fluid_seconds_total"]
            + prov["sim_fidelity_des_seconds_total"]
        )
        assert total == pytest.approx(DURATION_S)


class TestPerCoreFidelity:
    """One core past the guard at default skew: only it stays DES.

    At 40 kHz the four-core cell's hottest core (it owns the hottest
    zipf-0.99 key) runs at rho ~1.07 and overflows its MAC buffer; the
    other three stay under ``max_utilization`` and fold, with their
    FIFO delays computed per request — so the whole run's latency
    histograms match DES bucket for bucket.
    """

    RATE_HZ = 40_000.0
    POLICY = FidelityPolicy(calibration_s=0.1)

    def _pair(self, resilience=None, seed=1):
        des_stack, des = _run_stack(
            seed=seed, rate_hz=self.RATE_HZ, resilience=resilience
        )
        hybrid_stack, hybrid = _run_stack(
            seed=seed,
            rate_hz=self.RATE_HZ,
            fidelity=self.POLICY,
            resilience=resilience,
        )
        assert des.mac_drops > 0
        assert hybrid.failed == des.failed
        assert hybrid.mac_drops == des.mac_drops
        assert hybrid.fault_timeouts == des.fault_timeouts
        assert hybrid.retries == des.retries
        assert hybrid.failovers == des.failovers
        assert [s.store.stats for s in hybrid_stack.servers] == [
            s.store.stats for s in des_stack.servers
        ]
        # The held core is the one that owns the hottest zipf key.
        hot = str(hybrid_stack.core_for_key(b"key-0"))
        des_cores = hybrid.fidelity["sim_fidelity_des_cores"]
        assert list(des_cores) == [hot]
        assert des_cores[hot] > self.POLICY.max_utilization
        return des, hybrid

    # Seed 2 enters its window with folded cores mid-backlog, so it pins
    # the hand-over of their DES queues into the FIFO recursion.
    @pytest.mark.parametrize("seed", [1, 2])
    def test_hot_core_stays_exact_and_the_rest_fold(self, seed):
        des, hybrid = self._pair(seed=seed)
        _assert_equivalent(des, hybrid)
        assert _within(
            hybrid.rtt_percentile(0.5), des.rtt_percentile(0.5), 0.05
        )
        assert hybrid.rtt_histogram.counts == des.rtt_histogram.counts
        assert hybrid.wait_histogram.counts == des.wait_histogram.counts
        assert hybrid.per_core_served == des.per_core_served

        prov = hybrid.fidelity
        assert prov["sim_fidelity_fluid_windows_total"] >= 1
        assert "sim_fidelity_fallback_reason" not in prov

    def test_retries_on_the_held_core_stay_exact(self):
        # Retries re-dispatch a dropped request to the same held core
        # (failover off), drawing only the retry stream.
        des, hybrid = self._pair(
            resilience=ResiliencePolicy(failover_after=None)
        )
        assert des.retries > 0
        _assert_equivalent(des, hybrid)
        assert hybrid.rtt_histogram.counts == des.rtt_histogram.counts
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] >= 1
        assert "sim_fidelity_fallback_reason" not in hybrid.fidelity

    def test_exact_across_windows_split_by_a_fault_island(self):
        # The folded backlog goes back into the DES queues at the first
        # window's exit and is read out again at the second's entry.
        blip = FaultSchedule(
            name="blip",
            events=(
                FaultEvent(
                    kind="dram_degradation", at_s=0.5, until_s=0.52, factor=1.05
                ),
            ),
        )
        des = _run(seed=1, rate_hz=self.RATE_HZ, faults=blip)
        hybrid = _run(
            seed=1, rate_hz=self.RATE_HZ, faults=blip, fidelity=self.POLICY
        )
        assert hybrid.fidelity["sim_fidelity_fluid_windows_total"] == 2
        assert _signature(hybrid) == _signature(des)
        assert (hybrid.failed, hybrid.mac_drops) == (des.failed, des.mac_drops)
        assert hybrid.rtt_histogram.counts == des.rtt_histogram.counts
        assert hybrid.wait_histogram.counts == des.wait_histogram.counts

    def test_failover_armed_keeps_the_whole_stack_in_des(self):
        # Enough drops would fail the hot port over mid-window and move
        # its keys onto a folded core, so no core is held: the stack
        # stays DES and reports the hot core it could not hold.
        des, hybrid = self._pair(resilience=DEFAULT_RESILIENCE)
        assert des.failovers > 0
        assert _signature(hybrid) == _signature(des)
        assert hybrid.rtt_histogram.counts == des.rtt_histogram.counts
        prov = hybrid.fidelity
        assert prov["sim_fidelity_fluid_windows_total"] == 0
        assert prov["sim_fidelity_fallback_reason"] == "saturated"

    def test_double_run_is_identical(self):
        first = _run(seed=1, rate_hz=self.RATE_HZ, fidelity=self.POLICY)
        second = _run(seed=1, rate_hz=self.RATE_HZ, fidelity=self.POLICY)
        assert _signature(second) == _signature(first)
        assert (second.failed, second.mac_drops) == (
            first.failed,
            first.mac_drops,
        )
        assert second.rtt_histogram.counts == first.rtt_histogram.counts
        assert second.fidelity == first.fidelity
