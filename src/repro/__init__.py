"""repro — a reproduction of *Integrated 3D-Stacked Server Designs for
Increasing Physical Density of Key-Value Stores* (Gutierrez et al.,
ASPLOS 2014).

The package models the paper's two proposed architectures — **Mercury**
(ARM Cortex-A7 cores 3D-stacked with 4 GB of DRAM and a NIC) and
**Iridium** (the same stack with 19.8 GB of NAND flash) — along with every
substrate the evaluation needs: a functional Memcached engine, a TCP/IP
cost model, 3D DRAM/flash device models, an FTL, a discrete-event
simulator, workload generators, and the commodity/TSSP baselines.

Quick start::

    from repro import mercury_stack, ServerDesign, evaluate_server

    server = ServerDesign(stack=mercury_stack(cores=32))
    metrics = evaluate_server(server)          # 64 B GETs by default
    print(metrics.tps / 1e6, "MTPS", metrics.ktps_per_watt, "KTPS/W")
"""

from repro.core import (
    CalibrationConstants,
    DEFAULT_CALIBRATION,
    Demand,
    cheapest_plan,
    plan_fleet,
    LatencyModel,
    MemorySpec,
    OperatingPoint,
    RequestTiming,
    ServerConstraints,
    ServerDesign,
    ServerMetrics,
    StackConfig,
    best_config,
    design_space,
    dram_spec,
    evaluate_server,
    flash_spec,
    iridium_stack,
    mercury_stack,
    thermal_report,
)
from repro.baselines import (
    COMMODITY_BASELINES,
    MEMCACHED_14,
    MEMCACHED_16,
    MEMCACHED_BAGS,
    TSSP,
)
from repro.cpu import CORTEX_A7, CORTEX_A15_1GHZ, CORTEX_A15_1_5GHZ
from repro.kvstore import KVStore, MemcachedClient, MemcachedCluster, MemcachedServer
from repro.sim import FullSystemStack
from repro.telemetry import MetricsRegistry, StreamingHistogram, TelemetrySession
from repro.workloads import REQUEST_SIZE_SWEEP

__version__ = "1.1.0"

__all__ = [
    "CalibrationConstants",
    "DEFAULT_CALIBRATION",
    "LatencyModel",
    "MemorySpec",
    "OperatingPoint",
    "RequestTiming",
    "ServerConstraints",
    "ServerDesign",
    "ServerMetrics",
    "StackConfig",
    "best_config",
    "design_space",
    "dram_spec",
    "evaluate_server",
    "flash_spec",
    "iridium_stack",
    "mercury_stack",
    "thermal_report",
    "COMMODITY_BASELINES",
    "MEMCACHED_14",
    "MEMCACHED_16",
    "MEMCACHED_BAGS",
    "TSSP",
    "CORTEX_A7",
    "CORTEX_A15_1GHZ",
    "CORTEX_A15_1_5GHZ",
    "KVStore",
    "MemcachedClient",
    "MemcachedCluster",
    "MemcachedServer",
    "FullSystemStack",
    "RunOptions",
    "ExperimentSpec",
    "GridSpec",
    "ResultCache",
    "Scenario",
    "StackSpec",
    "run_experiments",
    "MetricsRegistry",
    "StreamingHistogram",
    "TelemetrySession",
    "Demand",
    "cheapest_plan",
    "plan_fleet",
    "REQUEST_SIZE_SWEEP",
    "QuorumConfig",
    "ReplicationConfig",
    "ReplicationCoordinator",
    "ReplicaPlacement",
    "HintQueue",
    "AntiEntropySweeper",
    "EnergyMeter",
    "DynamicPowerModel",
    "DiurnalSchedule",
    "__version__",
]

# The replication subsystem sits above kvstore (its coordinator owns
# per-node stores) while kvstore.client imports replication's placement;
# eager re-exports here would re-enter that partially-initialised chain.
# PEP 562 lazy attributes (the same pattern as ``repro.sim``) keep
# ``from repro import ReplicationCoordinator`` working without the cycle.
_LAZY = {
    "RunOptions": "repro.sim.run_options",
    # The experiment engine imports analysis/sim front-ends; lazy
    # re-exports keep package import light and cycle-free.
    "ExperimentSpec": "repro.exp",
    "GridSpec": "repro.exp",
    "ResultCache": "repro.exp",
    "Scenario": "repro.exp",
    "StackSpec": "repro.exp",
    "run_experiments": "repro.exp",
    "QuorumConfig": "repro.replication.config",
    "ReplicationConfig": "repro.replication.config",
    "ReplicationCoordinator": "repro.replication.coordinator",
    "ReplicaPlacement": "repro.replication.placement",
    "HintQueue": "repro.replication.handoff",
    "AntiEntropySweeper": "repro.replication.antientropy",
    # Energy metering rides RunOptions; same lazy pattern keeps the
    # telemetry<->power import order a non-issue at package import.
    "EnergyMeter": "repro.telemetry.energy",
    "DynamicPowerModel": "repro.power.dynamic",
    "DiurnalSchedule": "repro.workloads.diurnal",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
