"""Golden regression tests: pin whole full-system runs to checked-in JSON.

The differential suites (DES vs hybrid, batched vs serial, tiered vs
plain) compare two runs of the *same* code, so a change that moves both
sides by the same amount passes them.  These tests pin the absolute
outcome of a small matrix of runs — one cell per feature of
:meth:`FullSystemStack.run` — to ``tests/golden/full_system_runs.json``:
``FullSystemResults.to_dict()`` plus every core's store counters.

Strings and integers must match exactly, floats to ``REL_TOL`` (Python
3.12's ``sum()`` over floats is compensated, so float aggregates may
differ from 3.11 in the last bits and nowhere else).

To bless an *intentional* change of simulated behaviour::

    pytest tests/test_full_system_golden.py --regen-golden

then review the fixture diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.core import iridium_stack, mercury_stack
from repro.faults.resilience import DEFAULT_RESILIENCE, ResiliencePolicy
from repro.faults.schedule import FaultEvent, FaultSchedule, crash_restart
from repro.flashstore.compaction import TieredStoreConfig
from repro.kvstore.batching import BatchPolicy
from repro.power.dynamic import DynamicPowerModel
from repro.replication.config import ReplicationConfig
from repro.sim.fidelity import FidelityPolicy
from repro.sim.full_system import FullSystemStack
from repro.sim.run_options import RunOptions
from repro.telemetry.energy import EnergyMeter
from repro.telemetry.slo import SloMonitor, SloObjective
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.diurnal import DiurnalSchedule
from repro.workloads.distributions import fixed_size

GOLDEN = Path(__file__).parent / "golden" / "full_system_runs.json"

#: Relative tolerance for floats: round-off across interpreters only.
REL_TOL = 1e-9

CORES = 4
DURATION_S = 0.2


def _workload(get_fraction: float = 0.9, keys: int = 5_000, size: int = 64):
    return WorkloadSpec(
        name="golden",
        get_fraction=get_fraction,
        key_population=keys,
        value_sizes=fixed_size(size),
    )


def _slo() -> SloMonitor:
    return SloMonitor(
        objectives=[
            SloObjective(name="rtt-p99", target=0.99, deadline_s=0.020),
            SloObjective(name="availability", target=0.999),
        ],
    )


def _throttling_meter(stack) -> EnergyMeter:
    # A passive limit just above idle keeps every window hot, so the
    # derate engages early and stays on.
    model = DynamicPowerModel.for_stack(stack)
    return EnergyMeter(
        model,
        window_s=0.01,
        passive_limit_w=model.idle_floor_w + 1e-3,
        throttle_derate=0.5,
    )


def _cell(name: str):
    """``(stack, memory per core, workload, options)`` of one cell."""
    stack = mercury_stack(CORES)
    memory = 8 * MB
    workload = _workload()
    base = dict(
        offered_rate_hz=20_000.0, duration_s=DURATION_S, warmup_requests=3_000
    )
    if name == "plain":
        options = RunOptions(**base)
    elif name == "evicting":
        memory = 1 * MB
        workload = _workload(get_fraction=0.7, keys=20_000, size=4_096)
        options = RunOptions(**base)
    elif name == "crash-restart":
        options = RunOptions(
            **base,
            faults=crash_restart("core1", 0.05, 0.12),
            resilience=DEFAULT_RESILIENCE,
            fill_on_miss=True,
            window_s=0.02,
        )
    elif name == "hedging-degraded":
        options = RunOptions(
            **base,
            faults=FaultSchedule(
                name="degraded-dram",
                events=(
                    FaultEvent(
                        kind="dram_degradation",
                        at_s=0.05,
                        until_s=0.15,
                        factor=4.0,
                    ),
                ),
            ),
            resilience=ResiliencePolicy(hedge_after_s=100e-6),
            trace_digest=True,
        )
    elif name == "replicated":
        workload = _workload(get_fraction=0.7)
        options = RunOptions(
            **base,
            faults=crash_restart("core2", 0.05, 0.1),
            # Failover off, so reads reach the restarted, empty core and
            # read-repair it.
            resilience=ResiliencePolicy(failover_after=None),
            fill_on_miss=True,
            replication=ReplicationConfig(
                n=3, r=2, w=2, hinted_handoff=True, anti_entropy_interval_s=0.08
            ),
        )
    elif name == "batching-lossy":
        options = RunOptions(
            **base,
            # Loss and corruption together, so the order of the two
            # draws per frame is pinned too.
            faults=FaultSchedule(
                name="lossy-corrupting-link",
                events=(
                    FaultEvent(kind="packet_loss", at_s=0.0, probability=0.02),
                    FaultEvent(
                        kind="packet_corruption", at_s=0.0, probability=0.01
                    ),
                ),
            ),
            resilience=DEFAULT_RESILIENCE,
            batching=BatchPolicy(batch_max=8, linger_s=50e-6),
        )
    elif name == "flashstore-crash":
        stack = iridium_stack(CORES)
        workload = _workload(get_fraction=0.5)
        options = RunOptions(
            **base,
            faults=crash_restart("core0", 0.06, 0.12),
            resilience=DEFAULT_RESILIENCE,
            fill_on_miss=True,
            flashstore=TieredStoreConfig(log_segment_pages=16),
        )
    elif name == "iridium-energy":
        stack = iridium_stack(CORES)
        workload = _workload(get_fraction=0.5)
        options = RunOptions(
            **{**base, "offered_rate_hz": 5_000.0}, energy_summary=True
        )
    elif name == "hybrid-held-core":
        # The four-core cell whose hottest core (it owns the hottest
        # zipf-0.99 key) runs past the fluid guard at 40 kHz.
        workload = WorkloadSpec(
            name="golden",
            get_fraction=0.9,
            key_population=20_000,
            value_sizes=fixed_size(64),
        )
        options = RunOptions(
            offered_rate_hz=40_000.0,
            duration_s=DURATION_S,
            warmup_requests=10_000,
            fidelity=FidelityPolicy(
                calibration_s=0.04, guard_band_s=0.02, min_fluid_window_s=0.02
            ),
        )
    elif name == "fluid":
        options = RunOptions(
            **base,
            fidelity=FidelityPolicy(
                mode="fluid", calibration_s=0.04, guard_band_s=0.02,
                min_fluid_window_s=0.02,
            ),
        )
    elif name == "hybrid-diurnal":
        options = RunOptions(
            **base,
            energy_summary=True,
            slo=_slo(),
            diurnal=DiurnalSchedule(day_length_s=DURATION_S),
            fidelity=FidelityPolicy(
                calibration_s=0.04, guard_band_s=0.02, min_fluid_window_s=0.02
            ),
        )
    elif name == "thermal-throttle":
        options = RunOptions(**base, energy=_throttling_meter(stack))
    else:
        raise KeyError(name)
    return stack, memory, workload, options


CELLS = (
    "plain",
    "evicting",
    "crash-restart",
    "hedging-degraded",
    "replicated",
    "batching-lossy",
    "flashstore-crash",
    "iridium-energy",
    "hybrid-held-core",
    "fluid",
    "hybrid-diurnal",
    "thermal-throttle",
)


def run_cell(name: str) -> dict:
    """One cell's pinned outcome: the results payload and store counters."""
    stack, memory, workload, options = _cell(name)
    system = FullSystemStack(stack=stack, memory_per_core_bytes=memory, seed=1)
    results = system.run(workload, options)
    return {
        "results": results.to_dict(),
        "store_stats": [
            dataclasses.asdict(server.store.stats) for server in system.servers
        ],
    }


def _assert_close(expected, actual, path: str = "$") -> None:
    """Structural equality with float tolerance; paths name mismatches."""
    if isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), (
            f"{path}: expected a number, got {actual!r}"
        )
        assert math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=1e-12), (
            f"{path}: {actual!r} != golden {expected!r} (rel_tol={REL_TOL})"
        )
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (
            f"{path}: length mismatch against golden {len(expected)}"
        )
        for index, (e, a) in enumerate(zip(expected, actual)):
            _assert_close(e, a, f"{path}[{index}]")
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), (
            f"{path}: keys {sorted(actual) if isinstance(actual, dict) else 'n/a'} "
            f"!= golden {sorted(expected)}"
        )
        for key in expected:
            _assert_close(expected[key], actual[key], f"{path}.{key}")
    else:
        assert expected == actual, f"{path}: {actual!r} != golden {expected!r}"


@pytest.fixture(scope="module")
def golden(request) -> dict:
    if request.config.getoption("--regen-golden"):
        payload = {name: run_cell(name) for name in CELLS}
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return payload
    if not GOLDEN.exists():
        pytest.fail(f"missing golden fixture {GOLDEN}; generate it with --regen-golden")
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CELLS)
def test_run_matches_golden(name, golden):
    # Round-trip through JSON so tuples become lists and keys strings,
    # the same shapes the fixture holds.
    actual = json.loads(json.dumps(run_cell(name)))
    _assert_close(golden[name], actual, path=name)


def test_cells_exercise_their_feature(golden):
    """Each cell reaches the code path it is there to pin."""
    results = {name: golden[name]["results"] for name in CELLS}
    assert results["plain"]["completed"] > 0
    assert sum(s["evictions"] for s in golden["evicting"]["store_stats"]) > 0
    assert results["crash-restart"]["failovers"] > 0
    assert "window_gets" in results["crash-restart"]
    assert results["hedging-degraded"]["hedges"] > 0
    assert "trace_digest" in results["hedging-degraded"]
    replicated = results["replicated"]
    assert replicated["hints_replayed"] > 0
    assert replicated["antientropy_sweeps"] > 0
    assert replicated["read_repairs"] > 0
    assert results["batching-lossy"]["batches"] > 0
    assert results["batching-lossy"]["retries"] > 0
    assert results["flashstore-crash"]["flashstore"] is not None
    assert results["flashstore-crash"]["failed"] + results["flashstore-crash"][
        "retries"
    ] > 0
    assert results["iridium-energy"]["energy"]["components_j"]["flash_array"] > 0
    held = results["hybrid-held-core"]["fidelity"]
    assert held["sim_fidelity_fluid_windows_total"] >= 1
    assert "sim_fidelity_des_cores" in held
    assert results["fluid"]["fidelity"]["sim_fidelity_fluid_windows_total"] >= 1
    diurnal = results["hybrid-diurnal"]
    assert diurnal["fidelity"]["sim_fidelity_fluid_windows_total"] >= 1
    assert diurnal["energy"] is not None
    assert results["thermal-throttle"]["energy"]["throttle_windows"] > 0


@pytest.mark.parametrize("name", ["fluid", "hybrid-diurnal", "hybrid-held-core"])
def test_fluid_cells_equal_their_des_run(name):
    """Fluid windows run each core's exact FIFO recursion, so a cell
    that fast-forwards equals the same cell at full DES in its
    completions and its latency histograms, bucket for bucket."""
    stack, memory, workload, options = _cell(name)
    runs = [
        FullSystemStack(stack=stack, memory_per_core_bytes=memory, seed=1).run(
            workload, dataclasses.replace(options, fidelity=fidelity)
        )
        for fidelity in (options.fidelity, None)
    ]
    folded, des = runs
    assert folded.fidelity["sim_fidelity_fluid_windows_total"] >= 1
    assert folded.completed == des.completed
    assert folded.rtt_histogram.counts == des.rtt_histogram.counts
    assert folded.wait_histogram.counts == des.wait_histogram.counts


def test_each_get_is_hedged_at_most_once(monkeypatch):
    """A hedged twin arms no hedge of its own: like ResilientClient, the
    DES hedges a request once, however long it stays unanswered."""
    from repro.sim import full_system

    twins: dict[int, list] = {}
    serve = full_system._RunState.serve

    def counting_serve(self, request, state, core_index, via=None):
        if via == "hedge":
            # The state dict rides along so its id is not reused.
            twins.setdefault(id(state), [state, 0])[1] += 1
        return serve(self, request, state, core_index, via)

    monkeypatch.setattr(full_system._RunState, "serve", counting_serve)
    stack, memory, workload, options = _cell("hedging-degraded")
    results = FullSystemStack(
        stack=stack, memory_per_core_bytes=memory, seed=1
    ).run(workload, options)
    assert results.hedges == len(twins) > 0
    assert max(count for _, count in twins.values()) == 1
