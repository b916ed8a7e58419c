"""The four canonical cells the simulator benchmark drives.

Every workload uses zipf 0.99 keys (memcached's default skew), fixed
64 B values and a 16-core stack.  The modelled clients are an open
loop: Poisson arrivals in simulated time, each RTT measured from its
scheduled arrival.  On the host the benchmark is a closed loop: one
process, one thread, one ``FullSystemStack.run`` call at a time.  Every
key set fits in the modelled store, so no workload evicts, and the
stores start warm from the workload's warm-up PUTs.

``build(name, seed)`` returns the stack, the workload spec and the run
options; ``checks(name, system, results)`` returns the names of the
workload's correctness checks that failed on a finished run.
"""

from __future__ import annotations

import math

from repro.core import iridium_stack, mercury_stack
from repro.faults.resilience import DEFAULT_RESILIENCE
from repro.faults.schedule import crash_restart
from repro.flashstore.compaction import TieredStoreConfig
from repro.replication.config import ReplicationConfig
from repro.sim.fidelity import FidelityPolicy
from repro.sim.full_system import FullSystemStack
from repro.sim.run_options import RunOptions
from repro.telemetry.slo import SloMonitor, SloObjective
from repro.units import MB
from repro.workloads import WorkloadSpec
from repro.workloads.distributions import fixed_size

CORES = 16
KEYS = 50_000
WARMUP_PUTS = 8_000
MEMORY_PER_CORE = 8 * MB

#: name -> simulated seconds one run covers.  Each is sized so a run
#: takes a few host seconds on one core, long enough that the
#: per-process start-up noise stays small next to it.
DURATION_S = {
    "enclosure-hot": 0.3,
    "enclosure-fluid": 6.0,
    "replicated-crash": 0.5,
    "iridium-writes": 0.5,
}

NAMES = tuple(DURATION_S)


def _spec(name: str, get_fraction: float) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        get_fraction=get_fraction,
        key_population=KEYS,
        key_skew=0.99,
        value_sizes=fixed_size(64),
    )


def _enclosure_slo() -> SloMonitor:
    # The objectives an enclosure cell is operated against; no burn
    # rules, so the monitor observes without tripping the hybrid
    # fallback.
    return SloMonitor(
        objectives=[
            SloObjective(name="rtt-p99", target=0.99, deadline_s=0.020),
            SloObjective(name="availability", target=0.999),
        ],
    )


def build(name: str, seed: int):
    """``(stack, workload, options)`` for one run of workload ``name``."""
    duration_s = DURATION_S[name]
    if name in ("enclosure-hot", "enclosure-fluid"):
        stack = mercury_stack(CORES)
        workload = _spec(name, get_fraction=0.9)
        options = RunOptions(
            offered_rate_hz=100_000.0 if name == "enclosure-hot" else 60_000.0,
            duration_s=duration_s,
            warmup_requests=WARMUP_PUTS,
            energy_summary=True,
            slo=_enclosure_slo(),
            fidelity=FidelityPolicy(
                mode="hybrid", calibration_s=0.03, guard_band_s=0.02
            ),
        )
    elif name == "replicated-crash":
        stack = mercury_stack(CORES)
        workload = _spec(name, get_fraction=0.7)
        options = RunOptions(
            offered_rate_hz=40_000.0,
            duration_s=duration_s,
            warmup_requests=WARMUP_PUTS,
            faults=crash_restart(
                "core0", 0.25 * duration_s, 0.60 * duration_s
            ),
            resilience=DEFAULT_RESILIENCE,
            fill_on_miss=True,
            replication=ReplicationConfig(
                n=3, r=2, w=2, hinted_handoff=True, anti_entropy_interval_s=0.25
            ),
        )
    elif name == "iridium-writes":
        stack = iridium_stack(CORES)
        workload = _spec(name, get_fraction=0.5)
        options = RunOptions(
            offered_rate_hz=20_000.0,
            duration_s=duration_s,
            warmup_requests=WARMUP_PUTS,
            flashstore=TieredStoreConfig(log_segment_pages=256),
        )
    else:
        raise KeyError(f"unknown workload {name!r} (want one of {NAMES})")
    system = FullSystemStack(
        stack=stack, memory_per_core_bytes=MEMORY_PER_CORE, seed=seed
    )
    return system, workload, options


def fluid_share(results) -> float:
    """Share of simulated time the run covered in fluid windows."""
    fidelity = results.fidelity or {}
    fluid = fidelity.get("sim_fidelity_fluid_seconds_total", 0.0)
    des = fidelity.get("sim_fidelity_des_seconds_total", 0.0)
    return fluid / (fluid + des) if fluid + des else 0.0


def checks(name: str, system, results) -> list[str]:
    """Names of the correctness checks a finished run fails (empty = pass)."""
    failed = []
    if results.completed <= 0:
        failed.append("nothing completed")
    if any(server.store.stats.evictions for server in system.servers):
        failed.append("the store evicted, so the key set does not fit")
    if name.startswith("enclosure-"):
        energy = results.energy
        if energy is None:
            failed.append("energy ledger missing")
        elif not math.isclose(
            sum(energy["components_j"].values()),
            energy["total_j"],
            rel_tol=1e-12,
        ):
            failed.append("energy components do not sum to total_j")
    if name == "enclosure-fluid":
        reason = (results.fidelity or {}).get("sim_fidelity_fallback_reason")
        if reason is not None:
            failed.append(f"fluid run fell back to DES ({reason})")
        if fluid_share(results) < 0.9:
            failed.append("fluid share below 0.9")
    if name == "replicated-crash":
        if not (results.fault_timeouts or results.hints_queued):
            failed.append("crash did not fire")
        if not results.antientropy_sweeps:
            failed.append("anti-entropy did not run")
    if name == "iridium-writes" and results.flashstore is None:
        failed.append("flashstore summary missing")
    return failed
