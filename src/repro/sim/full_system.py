"""Full-system co-simulation: functional Memcached + timing model + DES.

This is the closest analogue in the library to the paper's gem5 runs.  A
simulated 3D stack runs one *real* :class:`MemcachedServer` store per
core (actual hash table, slab allocator, LRU; reply sizes from the
protocol's framing, see :meth:`FullSystemStack.serve_op`); a Poisson
client drives it with a workload; the NIC MAC routes each request to the
core that owns its key (client-side consistent hashing, as production
Memcached shards); and the latency model charges each request the service
time of its actual verb, actual value size, and actual hit/miss outcome.

Where the analytic pipeline *assumes* (linear scaling, fixed sizes, 100 %
hit rate), this measures: per-component time breakdown, hit rates under
finite per-core memory, queueing at each core, and MAC buffer drops.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.latency_model import MemorySpec, RequestTiming
from repro.core.stack import StackConfig
from repro.core.thermal import ThermalReport
from repro.errors import ConfigurationError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.flashstore.compaction import (
    TieredFlashStore,
    aggregate_tiered_results,
)
from repro.kvstore.batching import FLUSH_LINGER, FLUSH_SIZE, MAX_BATCH_OPS
from repro.kvstore.items import ITEM_OVERHEAD_BYTES
from repro.kvstore.consistent_hash import ConsistentHashRing
from repro.kvstore.protocol import (
    GET_MISS_LENGTH,
    get_hit_length,
    storage_reply_length,
)
from repro.kvstore.server_loop import MemcachedServer
from repro.kvstore.store import KVStore, StoreResult
from repro.network.packets import request_wire_payloads, wire_bytes_for_payload
from repro.power.dynamic import DynamicPowerModel
from repro.replication.antientropy import AntiEntropySweeper
from repro.replication.handoff import HintQueue
from repro.replication.placement import ReplicaPlacement
from repro.sim.events import Simulator
from repro.sim.fidelity import (
    allocate_proportional,
    fault_intervals,
    held_cores,
    plan_segments,
)
from repro.sim.resources import FifoResource
from repro.sim.rng import make_rng
from repro.sim.run_options import RunOptions
from repro.telemetry.critical_path import compute_trace_digest
from repro.telemetry.energy import EnergyMeter
from repro.telemetry.metrics import StreamingHistogram
from repro.telemetry.slo import SloMonitor
from repro.telemetry.timeseries import TimeSeriesRecorder, WindowedSeries
from repro.telemetry.tracing import NULL_TELEMETRY, TelemetrySession

#: Deadline used for tail-based trace sampling when a run only asks for
#: a digest (matches the paper's 1.1 ms RTT SLA).
_DIGEST_SLA_DEADLINE_S = 1.1e-3

# Imported lazily inside run(): repro.workloads.generator itself imports
# repro.sim.rng, and a module-level import here would close that cycle
# while repro.sim's package init is still running.
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.generator import WorkloadSpec

_BASE_TCP_PORT = 11211

#: Completed DES requests a fluid fast-forward window needs before its
#: calibration surrogate (latency distribution, per-core load split) is
#: trusted; thinner calibration keeps the window at full DES.
_MIN_CALIBRATION_SAMPLES = 32


@dataclass
class FullSystemResults:
    """Measured outcomes of a full-system run.

    Latency outcomes stream into fixed-bucket log histograms (exact
    count/mean/min/max, percentiles within one bucket width) instead of
    per-sample lists; pass ``keep_samples=True`` to additionally retain
    the raw ``rtts``/``waits`` samples for validation runs that need
    exact order statistics.
    """

    duration_s: float
    offered_rate_hz: float
    completed: int = 0
    keep_samples: bool = False
    rtt_histogram: StreamingHistogram = field(
        default_factory=lambda: StreamingHistogram("request_rtt_seconds")
    )
    wait_histogram: StreamingHistogram = field(
        default_factory=lambda: StreamingHistogram("queue_wait_seconds")
    )
    rtts: list[float] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)
    component_seconds: dict[str, float] = field(
        default_factory=lambda: {"hash": 0.0, "memcached": 0.0, "network": 0.0}
    )
    get_hits: int = 0
    get_misses: int = 0
    puts: int = 0
    response_bytes: int = 0
    mac_drops: int = 0
    per_core_served: dict[int, int] = field(default_factory=dict)
    # Fault-plane outcomes (all zero on a fault-free run).
    failed: int = 0
    retries: int = 0
    failovers: int = 0
    hedges: int = 0
    fault_timeouts: int = 0
    # Replication outcomes (all zero on an unreplicated run).
    replica_puts: int = 0
    redirected_reads: int = 0
    verify_reads: int = 0
    read_repairs: int = 0
    hints_queued: int = 0
    hints_replayed: int = 0
    antientropy_sweeps: int = 0
    antientropy_repairs: int = 0
    # Batched-path outcomes (all zero when batching is off).
    batches: int = 0
    batched_ops: int = 0
    batch_flush_reasons: dict[str, int] = field(default_factory=dict)
    # Tiered flash-store outcomes (amplifications, per-tier traffic and
    # index memory), populated only when RunOptions.flashstore is set.
    flashstore: dict | None = None
    # Optional windowed hit-rate timeline for recovery analysis; the
    # series share the dict-style {window_index: count} surface the
    # old ad-hoc maps had.
    window_s: float | None = None
    window_gets: WindowedSeries | None = None
    window_hits: WindowedSeries | None = None
    # Observatory outcomes: SLO alert lifecycle and the time-series
    # recorder, populated when run() is given an SloMonitor / recorder.
    slo_alerts: list = field(default_factory=list)
    timeseries: TimeSeriesRecorder | None = None
    # Compact causal-trace summary (sampling counters + tail
    # critical-path shares), populated when RunOptions.trace_digest is
    # set; JSON-safe so cached experiment cells can carry it.
    trace_digest: dict | None = None
    # Measured-energy summary (per-component joules, windowed power,
    # throttle alerts), populated when an EnergyMeter instrument is
    # attached or RunOptions.energy_summary is set; JSON-safe so cached
    # experiment cells carry the measured watts.
    energy: dict | None = None
    # Fidelity provenance (mode, fluid/DES seconds, fluid request count,
    # fallback reason), populated only when RunOptions.fidelity is set;
    # keys mirror the ``sim_fidelity_*`` registry metric names so sweep
    # exports and metrics snapshots grep alike.
    fidelity: dict | None = None

    def __post_init__(self) -> None:
        interval = self.window_s if self.window_s is not None else 1.0
        if self.window_gets is None:
            self.window_gets = WindowedSeries("window_gets", interval)
        if self.window_hits is None:
            self.window_hits = WindowedSeries("window_hits", interval)

    def record(self, rtt_s: float, wait_s: float) -> None:
        """Count one completed request's latency outcome."""
        self.completed += 1
        self.rtt_histogram.record(rtt_s)
        self.wait_histogram.record(wait_s)
        if self.keep_samples:
            self.rtts.append(rtt_s)
            self.waits.append(wait_s)

    @property
    def throughput_hz(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def mean_rtt(self) -> float:
        return self.rtt_histogram.mean

    @property
    def max_rtt(self) -> float:
        return self.rtt_histogram.maximum

    @property
    def mean_wait(self) -> float:
        return self.wait_histogram.mean

    def rtt_percentile(self, p: float) -> float:
        """RTT quantile: exact when samples are kept, else histogram-based."""
        if self.rtts:
            ordered = sorted(self.rtts)
            index = min(len(ordered) - 1, int(p * len(ordered)))
            return ordered[index]
        return self.rtt_histogram.percentile(p)

    @property
    def hit_rate(self) -> float:
        gets = self.get_hits + self.get_misses
        return self.get_hits / gets if gets else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Ops per coalesced batch (0.0 when batching never engaged)."""
        return self.batched_ops / self.batches if self.batches else 0.0

    @property
    def write_amplification(self) -> float:
        """Physical replica writes per logical PUT (≈N when healthy;
        exactly 1.0 for an unreplicated run)."""
        if not self.puts:
            return 0.0
        if not self.replica_puts:
            return 1.0
        return self.replica_puts / self.puts

    # Measured-energy accessors (0.0 when the run was not metered).
    @property
    def joules_per_op(self) -> float:
        """Measured energy per completed request (total stack + chassis
        joules over completions; 0.0 for unmetered runs)."""
        if self.energy is None:
            return 0.0
        return self.energy.get("joules_per_op", 0.0)

    @property
    def measured_tps_per_watt(self) -> float:
        """The paper's §5.4 figure of merit at *measured* power: server
        throughput over mean wall watts (0.0 for unmetered runs)."""
        if self.energy is None:
            return 0.0
        return self.energy.get("measured_tps_per_watt", 0.0)

    @property
    def peak_window_power_w(self) -> float:
        """Highest windowed server power seen during the run (0.0 for
        unmetered runs)."""
        if self.energy is None:
            return 0.0
        return self.energy.get("peak_window_power_w", 0.0)

    def sla_fraction(self, deadline_s: float = 1e-3) -> float:
        if self.rtts:
            return sum(1 for r in self.rtts if r <= deadline_s) / len(self.rtts)
        return self.rtt_histogram.fraction_below(deadline_s)

    def sla_violation_rate(self, deadline_s: float = 1e-3) -> float:
        """Share of requests that missed ``deadline_s`` *or never
        completed at all* — the SLA a fault schedule actually violates."""
        total = self.completed + self.failed
        if total == 0:
            return 0.0
        late = self.completed * (1.0 - self.sla_fraction(deadline_s))
        return (late + self.failed) / total

    # --- windowed hit-rate timeline (fault recovery analysis) ----------------

    def note_window_get(self, arrival_s: float, hit: bool) -> None:
        """Bucket one GET outcome into its arrival-time window."""
        if self.window_s is None:
            return
        self.window_gets.observe(arrival_s)
        if hit:
            self.window_hits.observe(arrival_s)

    def hit_rate_timeline(self) -> list[tuple[float, float]]:
        """(window start, hit rate) pairs; empty unless ``window_s`` set."""
        if self.window_s is None:
            return []
        return self.window_hits.rate_timeline(self.window_gets)

    def hit_rate_after(self, t_s: float) -> float:
        """Aggregate hit rate over windows starting at or after ``t_s``."""
        if self.window_s is None:
            raise ConfigurationError("run with window_s to get a timeline")
        horizon = math.inf
        gets = self.window_gets.sum_over(t_s, horizon)
        hits = self.window_hits.sum_over(t_s, horizon)
        return hits / gets if gets else 0.0

    def recovery_time_s(
        self,
        reference_hit_rate: float,
        after_s: float,
        within: float = 0.05,
    ) -> float | None:
        """Seconds from ``after_s`` (e.g. a restart) until the windowed
        hit rate is back within ``within`` of ``reference_hit_rate``;
        None if it never recovers inside the run."""
        floor = reference_hit_rate * (1.0 - within)
        for start_s, rate in self.hit_rate_timeline():
            if start_s >= after_s and rate >= floor:
                return max(0.0, start_s - after_s)
        return None

    # Component totals kept as named accessors for the Fig. 4 consumers.
    @property
    def hash_time_s(self) -> float:
        return self.component_seconds.get("hash", 0.0)

    @property
    def memcached_time_s(self) -> float:
        return self.component_seconds.get("memcached", 0.0)

    @property
    def network_time_s(self) -> float:
        return self.component_seconds.get("network", 0.0)

    def breakdown_fractions(self) -> dict[str, float]:
        """Measured Fig. 4-style component shares of total service time."""
        total = sum(self.component_seconds.values())
        if total == 0.0:
            return {name: 0.0 for name in self.component_seconds}
        return {
            name: seconds / total for name, seconds in self.component_seconds.items()
        }

    def core_load_imbalance(self) -> float:
        """max/mean requests served per core (1.0 = perfectly even)."""
        if not self.per_core_served:
            return 1.0
        counts = list(self.per_core_served.values())
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    def to_dict(self) -> dict:
        """The measured outcomes as a JSON-safe dict.

        This is the transport format of the experiment engine: workers
        return it across process boundaries and the result cache stores
        it verbatim, so it must be a pure function of the run (live
        instruments — ``slo_alerts``/``timeseries`` — are excluded, as
        are the raw sample lists, whose aggregate histograms are kept
        exactly).  Keys are stable and values round-trip through JSON
        bit-for-bit.
        """
        payload: dict = {
            "duration_s": self.duration_s,
            "offered_rate_hz": self.offered_rate_hz,
            "completed": self.completed,
            "get_hits": self.get_hits,
            "get_misses": self.get_misses,
            "puts": self.puts,
            "response_bytes": self.response_bytes,
            "mac_drops": self.mac_drops,
            "failed": self.failed,
            "retries": self.retries,
            "failovers": self.failovers,
            "hedges": self.hedges,
            "fault_timeouts": self.fault_timeouts,
            "replica_puts": self.replica_puts,
            "redirected_reads": self.redirected_reads,
            "verify_reads": self.verify_reads,
            "read_repairs": self.read_repairs,
            "hints_queued": self.hints_queued,
            "hints_replayed": self.hints_replayed,
            "antientropy_sweeps": self.antientropy_sweeps,
            "antientropy_repairs": self.antientropy_repairs,
            "component_seconds": {
                name: self.component_seconds[name]
                for name in sorted(self.component_seconds)
            },
            "per_core_served": {
                str(core): self.per_core_served[core]
                for core in sorted(self.per_core_served)
            },
            "rtt_histogram": self.rtt_histogram.to_dict(),
            "wait_histogram": self.wait_histogram.to_dict(),
            "window_s": self.window_s,
        }
        if self.window_s is not None:
            payload["window_gets"] = self.window_gets.to_dict()
            payload["window_hits"] = self.window_hits.to_dict()
        if self.trace_digest is not None:
            # Only present when the run asked for it, so digest-free
            # payloads stay byte-identical to pre-digest cache entries.
            payload["trace_digest"] = self.trace_digest
        if self.batches:
            # Same conditional-key rule as trace_digest: batch-free runs
            # keep their pre-batching cache-entry byte layout.
            payload["batches"] = self.batches
            payload["batched_ops"] = self.batched_ops
            payload["batch_flush_reasons"] = {
                reason: self.batch_flush_reasons[reason]
                for reason in sorted(self.batch_flush_reasons)
            }
        if self.flashstore is not None:
            # Conditional key again: runs without the tiered store keep
            # their pre-flashstore cache-entry byte layout.
            payload["flashstore"] = self.flashstore
        if self.energy is not None:
            # Conditional key again: unmetered runs keep their
            # pre-energy cache-entry byte layout.
            payload["energy"] = self.energy
        if self.fidelity is not None:
            # Conditional key again: full-DES runs keep their
            # pre-fidelity cache-entry byte layout.
            payload["fidelity"] = self.fidelity
        return payload


class _ReplicaFabric:
    """A coordinator-shaped view of the stack's per-core stores.

    :class:`~repro.replication.antientropy.AntiEntropySweeper` is
    duck-typed against the client-side coordinator; this adapter gives
    it the same surface (``stores``, ``live_nodes``, ``node_is_down``,
    ``placement``) over the DES's cores, keyed by TCP port.  ``down``
    is shared with the run loop, so the sweeper always sees the current
    crash state.
    """

    def __init__(
        self,
        stores: dict[str, KVStore],
        placement: ReplicaPlacement,
        down: set[str],
    ):
        self.stores = stores
        self.placement = placement
        self._down = down

    @property
    def live_nodes(self) -> list[str]:
        return sorted(port for port in self.stores if port not in self._down)

    def node_is_down(self, port: str) -> bool:
        return port in self._down


class FullSystemStack:
    """One simulated 3D stack running real Memcached instances."""

    def __init__(
        self,
        stack: StackConfig,
        memory: MemorySpec | None = None,
        memory_per_core_bytes: int | None = None,
        max_queue_per_core: int | None = 256,
        seed: int = 0,
    ):
        """Args:
            stack: the 3D stack configuration to simulate.
            memory: optional memory-timing override.
            memory_per_core_bytes: per-core store budget (defaults to the
                stack capacity split evenly).
            max_queue_per_core: the MAC's finite buffering, expressed as
                requests queued per core; arrivals beyond it are dropped
                (``None`` = infinite).
            seed: RNG seed for arrivals and the workload.
        """
        if max_queue_per_core is not None and max_queue_per_core < 1:
            raise ConfigurationError("queue bound must be positive (or None)")
        self.max_queue_per_core = max_queue_per_core
        self.stack = stack
        self.model = stack.latency_model(memory=memory)
        if memory_per_core_bytes is None:
            memory_per_core_bytes = stack.capacity_bytes // stack.cores
        if memory_per_core_bytes < 1 << 20:
            raise ConfigurationError("each core needs at least one slab page")
        self.servers = [
            MemcachedServer(KVStore(memory_per_core_bytes))
            for _ in range(stack.cores)
        ]
        self._stores = [server.store for server in self.servers]
        # One shared PUT payload per value size, and the per-op-shape
        # energy activity table (see serve_op / _op_activity).
        self._payloads: dict[int, bytes] = {}
        self._activity: dict[tuple[str, int], tuple] = {}
        # Client-side sharding over the stack's cores, each a "node"
        # listening on its own TCP port behind the shared MAC (§4.1.4).
        self.ring = ConsistentHashRing(
            (str(_BASE_TCP_PORT + i) for i in range(stack.cores)), vnodes=128
        )
        self.seed = seed

    def core_for_key(self, key: bytes) -> int:
        return int(self.ring.node_for(key)) - _BASE_TCP_PORT

    # --- the run -----------------------------------------------------------------

    def _core_index(self, node: str) -> int:
        """Map a fault-schedule node label (``core3``, ``3``, or a TCP
        port) to a core index."""
        label = node[4:] if node.startswith("core") else node
        try:
            index = int(label)
        except ValueError:
            raise ConfigurationError(f"unknown full-system node {node!r}") from None
        if index >= _BASE_TCP_PORT:
            index -= _BASE_TCP_PORT
        if not 0 <= index < self.stack.cores:
            raise ConfigurationError(f"no core for fault target {node!r}")
        return index

    def run(
        self, workload: "WorkloadSpec", options: RunOptions
    ) -> FullSystemResults:
        """Drive the stack with ``workload`` under ``options``.

        ``options`` is one frozen, serialisable value object carrying the
        rate, duration, fault/replication configuration, and any
        attached instruments (see
        :class:`~repro.sim.run_options.RunOptions`).

        ``warmup_requests`` PUTs pre-populate the stores (zero simulated
        time) so GET hit rates reflect a warm cache.  ``telemetry``
        (default: the shared no-op session) receives per-request span
        traces and registry metrics; it observes the simulation without
        perturbing it, so results are identical with it on or off.
        ``keep_samples`` retains raw RTT/wait sample lists alongside the
        streaming histograms.

        ``faults`` replays a :class:`FaultSchedule` during the run: a
        crashed core loses its data (§2.3) and times out requests until
        its restart; packet loss/corruption windows eat attempts; memory
        degradation windows stretch service times.  ``resilience`` is
        the client's answer — timeouts, retries with backoff + jitter,
        hedged GETs, and failover rebalancing of the client-side ring;
        without it a faulted request simply fails.  Both are driven by
        dedicated RNG streams, so a fault-free run is request-for-request
        identical to one without these arguments, and the same
        (schedule, seed) pair reproduces outcomes bit-for-bit.
        ``window_s`` buckets GET outcomes into an arrival-time hit-rate
        timeline for recovery analysis.  ``fill_on_miss`` models the
        cache-aside pattern: a GET miss is followed by an out-of-band
        store of the value (the application re-fetching from its
        database), which is what actually refills a restarted node.

        ``replication`` (with ``n > 1``) runs the stack as a quorum
        replica group: each PUT fans to the key's N preferred cores
        (each copy charged full service time — the ≈N× write
        amplification shows up in core load and TPS), completing at the
        W-th ack; GETs target the preferred list with retries and
        hedges walking to the *next replica*, plus ``r - 1`` background
        verify-reads charging the read-quorum cost; copies for a
        crashed core are parked as hints and replayed at its restart;
        and an anti-entropy sweep reconverges replicas on a DES timer.
        ``n=1`` (or ``None``) is the original sharded behaviour,
        request-for-request identical.

        ``batching`` (a :class:`~repro.kvstore.batching.BatchPolicy`
        with ``batch_max > 1``) coalesces arrivals per destination
        core: each op joins its core's open batch, which flushes when
        it reaches ``batch_max`` ops ("size") or when the oldest rider
        has lingered ``linger_s`` ("linger").  A flushed batch charges
        the latency model's *batched* cost — one TCP/wire traversal for
        the coalesced frame plus per-op hash/memcached work — and
        occupies the core as a single job, so riders share the queue
        wait.  Functional outcomes are identical to the serial path
        (each op still executes in arrival order against the real
        store); faults eat whole batches, after which every rider
        retries serially.  Hedging does not apply to batched ops, and
        batching cannot be combined with replication ``n > 1``.

        ``flashstore`` (a :class:`~repro.flashstore.TieredStoreConfig`,
        flash stacks only) mirrors every op against a per-core
        SILT-style tiered store and swaps the latency model's
        calibrated flash stalls for the tiers' *measured* flash work:
        PUTs charge an amortised share of one sequential page program,
        GETs charge their actual candidate-page reads, and log→hash
        conversion / hash→sorted compaction land as background busy
        time (``background_busy_seconds{task=conversion|compaction}``)
        on the triggering core.  Functional outcomes are identical to
        the plain path; amplification and index-memory accounting
        appear in ``results.flashstore`` and ``flashstore_*`` metrics.
        Incompatible with replication ``n > 1`` and batching.

        The observatory hooks ride on the same simulated clock:
        ``timeseries`` (a :class:`TimeSeriesRecorder`, typically over
        ``telemetry.registry``) is installed as a recurring DES event
        and snapshots windowed metric deltas — it ends up in
        ``results.timeseries``; ``slo`` (an :class:`SloMonitor`) is fed
        every request outcome at its completion time and evaluated on
        its own cadence, with the alert lifecycle in
        ``results.slo_alerts``; ``profiler`` attaches to the simulator
        and attributes wall-clock to event types.  All three observe
        without perturbing the simulation.
        """
        from repro.workloads.generator import WorkloadGenerator

        serve_op = self.serve_op
        offered_rate_hz = options.offered_rate_hz
        duration_s = options.duration_s
        warmup_requests = options.warmup_requests
        keep_samples = options.keep_samples
        window_s = options.window_s
        fill_on_miss = options.fill_on_miss
        faults = options.faults
        resilience = options.resilience
        replication = options.replication
        telemetry = options.telemetry
        timeseries = options.timeseries
        slo = options.slo
        profiler = options.profiler
        if telemetry is None:
            telemetry = NULL_TELEMETRY
        if options.trace_digest and not telemetry.tracer.enabled:
            # A digest was requested but no live session attached (the
            # experiment engine's cached cells run instrument-free):
            # trace internally with the paper SLA as the tail-sampling
            # deadline, seeded off the stack seed for reproducibility.
            telemetry = TelemetrySession(
                slo_deadline_s=_DIGEST_SLA_DEADLINE_S, sampling_seed=self.seed
            )
        registry, tracer = telemetry.registry, telemetry.tracer
        stack_label = self.stack.name
        sim = Simulator()
        if profiler is not None:
            profiler.attach(sim)
        if timeseries is not None:
            timeseries.install(sim, horizon_s=duration_s)
        if slo is not None:
            slo.install(sim, horizon_s=duration_s)
            if tracer.enabled:
                # Link alerts to representative traces: at fire time the
                # alert samples the RTT histogram's exemplars from every
                # bucket reaching past the tightest latency objective.
                deadlines = [
                    objective.deadline_s
                    for objective in slo.objectives.values()
                    if objective.deadline_s is not None
                ]
                if deadlines:
                    rtt_histogram = registry.histogram("request_rtt_seconds")
                    exemplar_floor = min(deadlines)
                    slo.attach_exemplars(
                        lambda: rtt_histogram.exemplars_above(exemplar_floor)
                    )
        slo_record = slo.record if slo is not None else None
        energy_meter = options.energy
        if energy_meter is None and options.energy_summary:
            # A summary was requested but no live meter attached (the
            # experiment engine's cached cells run instrument-free):
            # meter internally against this stack's derived power model,
            # sized to the run's window_s (default: twenty windows).
            energy_meter = EnergyMeter(
                DynamicPowerModel.for_stack(self.stack),
                window_s=(
                    window_s if window_s is not None else duration_s / 20.0
                ),
                registry=registry,
            )
        if energy_meter is not None:
            energy_meter.install(sim, horizon_s=duration_s)

        # Fixed item framing shared with the latency model: the
        # calibrated default key length, not each request's actual key
        # bytes, so tiered and baseline runs charge the same item
        # footprint.
        item_overhead = ITEM_OVERHEAD_BYTES + self.model.cal.default_key_bytes

        # Per-op activity charges for the energy meter, read from the
        # op-shape table (see _op_activity).  Core busy energy needs no
        # per-site hook — the FifoResource busy_observer charges it over
        # exactly the busy intervals.
        if energy_meter is not None:
            _energy_flash = self.stack.flash

            def charge_op_energy(
                t: float,
                verb: str,
                served_bytes: int,
                tiered_cost=None,
                wire: bool = True,
            ) -> None:
                mem_bytes, wire_bytes, reads, programs, erases = (
                    self._op_activity(verb, served_bytes)
                )
                energy_meter.charge_memory_bytes(t, mem_bytes)
                if wire:
                    energy_meter.charge_nic_bytes(t, wire_bytes)
                if _energy_flash is None:
                    return
                if tiered_cost is not None:
                    # Tiered store: reads cost what the tier probe
                    # actually touched; log-structured writes amortise
                    # to the item's share of a page, and erases to that
                    # share of a block.
                    if verb == "GET":
                        energy_meter.charge_flash_reads(
                            t, float(tiered_cost.pages_read)
                        )
                    else:
                        pages = (
                            item_overhead + served_bytes
                        ) / _energy_flash.page_bytes
                        energy_meter.charge_flash_programs(t, pages)
                        energy_meter.charge_flash_erases(
                            t, pages / _energy_flash.pages_per_block
                        )
                elif verb == "GET":
                    energy_meter.charge_flash_reads(t, reads)
                else:
                    energy_meter.charge_flash_programs(t, programs)
                    energy_meter.charge_flash_erases(t, erases)

        else:
            charge_op_energy = None
        rng = make_rng("full-system", self.seed)
        generator = WorkloadGenerator(workload, seed=self.seed)
        cores = [
            FifoResource(
                sim,
                name=f"core{i}",
                registry=registry,
                busy_observer=(
                    energy_meter.charge_core_busy
                    if energy_meter is not None
                    else None
                ),
            )
            for i in range(self.stack.cores)
        ]
        for server, core in zip(self.servers, cores):
            server.attach_queue(core)
        results = FullSystemResults(
            duration_s=duration_s,
            offered_rate_hz=offered_rate_hz,
            keep_samples=keep_samples,
            window_s=window_s,
        )
        completed_total = registry.counter("requests_completed_total")
        drops_total = registry.counter("mac_drops_total")
        hits_total = registry.counter("get_hits_total")
        misses_total = registry.counter("get_misses_total")
        puts_total = registry.counter("puts_total")
        response_bytes_total = registry.counter("response_bytes_total")
        served_per_core = [
            registry.counter("requests_served_total", {"core": str(i)})
            for i in range(self.stack.cores)
        ]
        failed_total = registry.counter("requests_failed_total")
        retries_total = registry.counter("client_retries_total")
        timeouts_total = registry.counter("client_timeouts_total")
        failovers_total = registry.counter("client_failovers_total")
        hedges_total = registry.counter("client_hedged_requests_total")

        policy = resilience
        retry_rng = make_rng("resilience", self.seed)
        memory_kind = "flash" if self.model.memory.is_flash else "dram"
        # The client's live view of the cluster: failover removes nodes
        # here and health checks re-add them; ``self.ring`` (the MAC's
        # port map) is never mutated.
        client_ring = ConsistentHashRing(
            (str(_BASE_TCP_PORT + i) for i in range(self.stack.cores)), vnodes=128
        )
        down_cores: set[int] = set()
        failed_over: set[str] = set()
        drops_per_core = [0] * self.stack.cores
        consecutive_timeouts: dict[str, int] = {}

        repl = replication
        if repl is not None and repl.n > self.stack.cores:
            raise ConfigurationError(
                f"replication factor {repl.n} exceeds the "
                f"{self.stack.cores}-core stack"
            )
        replicated = repl is not None and repl.n > 1
        batching = options.batching
        batch_enabled = batching is not None and batching.enabled
        if batch_enabled and replicated:
            raise ConfigurationError(
                "batched dispatch and replication (n > 1) cannot be "
                "combined in the full-system run; batch against a "
                "sharded stack"
            )
        flashstore_config = options.flashstore
        tiered_stores: list[TieredFlashStore] | None = None
        if flashstore_config is not None:
            if not self.model.memory.is_flash:
                raise ConfigurationError(
                    "the tiered flash store needs a flash (Iridium) "
                    "stack; Mercury keeps its DRAM path"
                )
            if replicated:
                raise ConfigurationError(
                    "the tiered flash store and replication (n > 1) "
                    "cannot be combined yet; run sharded"
                )
            if batch_enabled:
                raise ConfigurationError(
                    "the tiered flash store and batched dispatch cannot "
                    "be combined yet; run the serial path"
                )
            assert self.stack.flash is not None
            # One tiered store per core, each seeded off (stack seed,
            # core index) so runs are reproducible and cores differ.
            tiered_stores = [
                TieredFlashStore(
                    self.stack.flash,
                    flashstore_config,
                    seed=self.seed,
                    label=f"core{i}",
                    registry=registry,
                )
                for i in range(self.stack.cores)
            ]
            conversion_busy = registry.histogram(
                "background_busy_seconds", {"task": "conversion"}
            )
            compaction_busy = registry.histogram(
                "background_busy_seconds", {"task": "compaction"}
            )

            def charge_background(core_index: int, works, trace=None) -> None:
                """Charge conversion/compaction flash time to the core
                that triggered it (the tier moves already happened
                functionally inside the store)."""
                for work in works:
                    busy = (
                        conversion_busy
                        if work.kind == "conversion"
                        else compaction_busy
                    )
                    busy.record(work.service_s)
                    if tracer.enabled:
                        tracer.follow_from(
                            work.kind,
                            sim.now,
                            work.service_s,
                            node=f"core{core_index}",
                            stack=stack_label,
                            trace=trace,
                        )
                    if energy_meter is not None:
                        # Tier moves hit the NAND array: every page the
                        # move read and rewrote, plus the rewritten
                        # pages' amortised share of block erases.
                        energy_meter.charge_flash_reads(
                            sim.now, float(work.pages_read)
                        )
                        energy_meter.charge_flash_programs(
                            sim.now, float(work.pages_written)
                        )
                        energy_meter.charge_flash_erases(
                            sim.now,
                            work.pages_written
                            / self.stack.flash.pages_per_block,
                        )
                    cores[core_index].submit(work.service_s, lambda wait: None)
        if batch_enabled:
            # One pending-op list per core: the client-side buffer in
            # front of each node's coalesced frame.  ``open_id`` detects
            # stale linger timers — a size flush reopens the buffer and
            # the old timer must not flush the successor batch early.
            batch_pending: list[list] = [[] for _ in range(self.stack.cores)]
            batch_open_id = [0] * self.stack.cores
            batch_flush_total = {
                reason: registry.counter("batch_flushes_total", {"reason": reason})
                for reason in (FLUSH_SIZE, FLUSH_LINGER)
            }
            batch_ops_counter = registry.counter("batch_ops_total")
            batch_size_histogram = registry.histogram(
                "batch_size", min_value=1.0, max_value=float(MAX_BATCH_OPS)
            )
        # Background busy-time histograms: simulated core seconds charged
        # to replication housekeeping, windowed into the time-series
        # recorder like any other metric so a run's timeline shows the
        # fault -> hint replay -> anti-entropy -> recovery sequence.
        hint_replay_busy = registry.histogram(
            "background_busy_seconds", {"task": "hint_replay"}
        )
        antientropy_busy = registry.histogram(
            "background_busy_seconds", {"task": "antientropy"}
        )
        read_repair_busy = registry.histogram(
            "background_busy_seconds", {"task": "read_repair"}
        )
        verify_read_busy = registry.histogram(
            "background_busy_seconds", {"task": "verify_read"}
        )
        replica_put_wait = registry.histogram("replica_put_wait_seconds")
        down_ports: set[str] = set()
        placement: ReplicaPlacement | None = None
        hintq: HintQueue | None = None
        put_seq = [0]  # the DES's version epoch (hint resolution order)
        if replicated:
            # Each core is its own failure domain here — the whole run
            # is one physical stack — so placement skips by node; the
            # rack/stack-aware rule matters in the multi-stack client.
            placement = ReplicaPlacement(
                self.ring, repl.n, stack_of=lambda port: port
            )
            hintq = HintQueue(registry=registry)
            replica_writes_total = registry.counter(
                "replication_replica_writes_total"
            )
            redirected_total = registry.counter(
                "replication_redirected_reads_total"
            )
            verify_total = registry.counter("replication_verify_reads_total")
            read_repairs_total = registry.counter(
                "replication_read_repairs_total"
            )

        injector: FaultInjector | None = None
        if faults is not None:
            injector = FaultInjector(faults, seed=self.seed, registry=registry)

            def crash_core(node: str) -> None:
                # §2.3: a downed node loses its share of the cache.
                index = self._core_index(node)
                down_cores.add(index)
                down_ports.add(str(_BASE_TCP_PORT + index))
                self.servers[index].store.flush_all()
                if tiered_stores is not None:
                    # The crash also loses the tiers' in-memory indexes,
                    # so the tiered store restarts empty with its peer.
                    tiered_stores[index].flush()

            def restart_core(node: str) -> None:
                index = self._core_index(node)
                down_cores.discard(index)
                down_ports.discard(str(_BASE_TCP_PORT + index))
                if replicated and repl.hinted_handoff:
                    hints = hintq.drain(str(_BASE_TCP_PORT + index))
                    if hints:
                        replay_service = 0.0
                        for hint in hints:
                            serve_op(index, hint.key, "PUT", hint.payload)
                            service = self.model.request_timing(
                                "PUT", hint.payload
                            ).total_s
                            if charge_op_energy is not None:
                                # Replays are stack-internal: memory and
                                # flash activity but no client wire.
                                charge_op_energy(
                                    sim.now, "PUT", hint.payload, wire=False
                                )
                            if tracer.enabled:
                                # Replay work follows from the PUT that
                                # parked the hint; laid out back-to-back
                                # as the burst occupies the core.
                                tracer.follow_from(
                                    "handoff_replay",
                                    sim.now + replay_service,
                                    service,
                                    node=f"core{index}",
                                    stack=stack_label,
                                    trace=hint.trace_id,
                                )
                            replay_service += service
                        results.hints_replayed += len(hints)
                        hint_replay_busy.record(replay_service)
                        # Replay occupies the restarted core like one
                        # back-to-back burst of PUTs.
                        cores[index].submit(replay_service, lambda wait: None)

            injector.install(
                sim, horizon_s=duration_s,
                on_crash=crash_core, on_restart=restart_core,
            )

        def adjust_timing(timing: RequestTiming) -> RequestTiming:
            """``timing`` under the live slowdowns: the injector's
            memory-degradation factor stretches the memcached stage,
            then thermal throttle feedback (the derated clock) stretches
            the on-core stages (hash + memcached).  Wire time is
            unaffected."""
            if injector is not None:
                factor = injector.service_factor(memory_kind)
                if factor != 1.0:
                    timing = RequestTiming(
                        verb=timing.verb,
                        value_bytes=timing.value_bytes,
                        hash_s=timing.hash_s,
                        memcached_s=timing.memcached_s * factor,
                        network_s=timing.network_s,
                    )
            if energy_meter is not None and energy_meter.derate_factor != 1.0:
                derate = energy_meter.derate_factor
                timing = RequestTiming(
                    verb=timing.verb,
                    value_bytes=timing.value_bytes,
                    hash_s=timing.hash_s / derate,
                    memcached_s=timing.memcached_s / derate,
                    network_s=timing.network_s,
                )
            return timing

        if replicated and repl.anti_entropy_interval_s is not None:
            fabric = _ReplicaFabric(
                {
                    str(_BASE_TCP_PORT + i): server.store
                    for i, server in enumerate(self.servers)
                },
                placement,
                down_ports,
            )
            sweeper = AntiEntropySweeper(
                fabric,
                buckets=repl.anti_entropy_buckets,
                max_repairs_per_sweep=repl.max_repairs_per_sweep,
                registry=registry,
            )
            ae_interval = repl.anti_entropy_interval_s

            def antientropy_fire(t: float) -> None:
                report = sweeper.sweep()
                results.antientropy_sweeps += 1
                results.antientropy_repairs += report.repairs
                for port, count in sorted(report.repairs_by_node.items()):
                    # Charge each receiving core the service time of its
                    # repair writes (functional copies already landed).
                    mean_bytes = report.bytes_by_node[port] // count
                    service = (
                        self.model.request_timing("PUT", mean_bytes).total_s * count
                    )
                    antientropy_busy.record(service)
                    if charge_op_energy is not None:
                        # Repair writes are stack-internal (no client
                        # wire); count is bounded by the sweeper's
                        # max_repairs_per_sweep.
                        for _ in range(count):
                            charge_op_energy(t, "PUT", mean_bytes, wire=False)
                    if tracer.enabled:
                        # Sweeps repair keys from many writers: no
                        # single originating trace to link.
                        tracer.follow_from(
                            "antientropy",
                            t,
                            service,
                            node=f"core{int(port) - _BASE_TCP_PORT}",
                            stack=stack_label,
                        )
                    cores[int(port) - _BASE_TCP_PORT].submit(
                        service, lambda wait: None
                    )

            sim.recurring(ae_interval, antientropy_fire, duration_s)

        def try_readmit(port: str) -> None:
            """Health check: re-add a failed-over node once it is up."""
            if port not in failed_over:
                return
            if self._core_index(port) not in down_cores:
                failed_over.discard(port)
                client_ring.add_node(port)
                consecutive_timeouts[port] = 0
            elif sim.now < duration_s:
                sim.schedule(
                    policy.health_check_interval_s, lambda: try_readmit(port)
                )

        def fail_over(port: str) -> None:
            if port in failed_over or len(client_ring) <= 1:
                return
            failed_over.add(port)
            client_ring.remove_node(port)
            results.failovers += 1
            failovers_total.inc()
            if sim.now < duration_s:
                sim.schedule(
                    policy.health_check_interval_s, lambda: try_readmit(port)
                )

        def give_up(request, state) -> None:
            results.failed += 1
            failed_total.inc()
            if slo_record is not None:
                slo_record(sim.now, ok=False)
            if tracer.enabled:
                # Error traces are always retained by tail sampling.
                trace = state["trace"]
                trace.annotate(
                    verb=request.verb,
                    error="gave_up",
                    attempts=state["attempts"],
                )
                trace.finish(sim.now)
                tracer.commit(trace)
            if request.verb == "GET":
                results.note_window_get(state["arrival"], hit=False)

        def timed_out(request, state, attempt: int, port: str) -> None:
            results.fault_timeouts += 1
            timeouts_total.inc()
            consecutive_timeouts[port] = consecutive_timeouts.get(port, 0) + 1
            if policy is not None and policy.should_fail_over(
                consecutive_timeouts[port]
            ):
                fail_over(port)
            if policy is not None and attempt + 1 < policy.max_attempts:
                results.retries += 1
                retries_total.inc()
                delay = policy.request_timeout_s + policy.backoff_s(
                    attempt, retry_rng
                )
                sim.schedule(delay, lambda: dispatch(request, state, attempt + 1))
            else:
                give_up(request, state)

        def serve(
            request, state, core_index: int, port: str, via: str | None = None
        ) -> None:
            arrival = state["arrival"]
            dispatched = sim.now
            hit, response_len = serve_op(
                core_index, request.key, request.verb, request.value_bytes
            )
            tiered = (
                tiered_stores[core_index] if tiered_stores is not None else None
            )
            tiered_cost = None
            if tiered is not None:
                # Mirror the op against this core's tiered store: the
                # functional outcome stays the plain store's (so runs
                # with the tier on/off match request for request), the
                # *cost* becomes the tiers' measured flash work.
                if request.verb == "GET":
                    tiered_cost = tiered.get(request.key)
                else:
                    tiered_cost = tiered.put(
                        request.key, item_overhead + request.value_bytes
                    )
                if tiered_cost.background:
                    charge_background(
                        core_index, tiered_cost.background, state["trace"]
                    )
            if replicated and request.verb == "GET" and not hit:
                # Quorum read: the coordinator consults R replicas and
                # any copy answers — a replica that misses while a live
                # peer holds the key is read-repaired with that copy.
                for peer_port in placement.replicas_for(request.key):
                    peer_core = int(peer_port) - _BASE_TCP_PORT
                    if peer_core == core_index or peer_core in down_cores:
                        continue
                    if self.servers[peer_core].store.peek(request.key) is None:
                        continue
                    hit, response_len = serve_op(
                        peer_core, request.key, "GET", request.value_bytes
                    )
                    if hit:
                        serve_op(
                            core_index, request.key, "PUT", request.value_bytes
                        )
                        results.read_repairs += 1
                        read_repairs_total.inc()
                        # The repair write occupies the lagging core.
                        repair_service = self.model.request_timing(
                            "PUT", request.value_bytes
                        ).total_s
                        read_repair_busy.record(repair_service)
                        if charge_op_energy is not None:
                            # Internal repair write: no client wire.
                            charge_op_energy(
                                sim.now, "PUT", request.value_bytes, wire=False
                            )
                        if tracer.enabled:
                            tracer.follow_from(
                                "read_repair",
                                sim.now,
                                repair_service,
                                node=f"core{core_index}",
                                stack=stack_label,
                                trace=state["trace"],
                            )
                        cores[core_index].submit(repair_service, lambda wait: None)
                    break
            if fill_on_miss and request.verb == "GET" and not hit:
                # Cache-aside refill: the application fetches the value
                # from its backing store and re-caches it (functional
                # only; the DB round trip is outside the simulated SLA).
                if replicated:
                    for fill_port in placement.replicas_for(request.key):
                        fill_core = int(fill_port) - _BASE_TCP_PORT
                        if fill_core not in down_cores:
                            serve_op(
                                fill_core, request.key, "PUT", request.value_bytes
                            )
                else:
                    serve_op(core_index, request.key, "PUT", request.value_bytes)
                    if tiered is not None:
                        # The refill lands in the tiers too (free, like
                        # the plain functional PUT), but any conversion
                        # it tips over is real background flash work.
                        refill = tiered.put(
                            request.key, item_overhead + request.value_bytes
                        )
                        if refill.background:
                            charge_background(
                                core_index, refill.background, state["trace"]
                            )
            if replicated and request.verb == "GET":
                preferred = placement.replicas_for(request.key)
                if port != preferred[0]:
                    results.redirected_reads += 1
                    redirected_total.inc()
            served_bytes = response_len if request.verb == "GET" else request.value_bytes
            if tiered_cost is not None:
                timing = self.model.request_timing_tiered(
                    request.verb, served_bytes, tiered_cost.service_s
                )
            else:
                timing = self.model.request_timing(request.verb, served_bytes)
            timing = adjust_timing(timing)
            if charge_op_energy is not None:
                charge_op_energy(sim.now, request.verb, served_bytes, tiered_cost)
            trace = state["trace"]
            node_label = f"core{core_index}"

            def complete(wait: float) -> None:
                if state["done"]:
                    # A hedged twin already answered: the losing branch
                    # is causally linked but outside the trace, so the
                    # RTT identity over the span tree survives.
                    if tracer.enabled:
                        tracer.follow_from(
                            "hedge_straggler" if via == "hedge" else "straggler",
                            dispatched,
                            sim.now - dispatched,
                            node=node_label,
                            stack=stack_label,
                            kind="client",
                            trace=trace,
                        )
                    return
                state["done"] = True
                consecutive_timeouts[port] = 0
                if request.verb == "GET":
                    if hit:
                        results.get_hits += 1
                        hits_total.inc()
                    else:
                        results.get_misses += 1
                        misses_total.inc()
                    results.note_window_get(arrival, hit)
                else:
                    results.puts += 1
                    puts_total.inc()
                results.response_bytes += response_len
                response_bytes_total.inc(response_len)
                if sim.now <= duration_s:
                    results.record(sim.now - arrival, wait)
                    completed_total.inc()
                    if slo_record is not None:
                        slo_record(sim.now, latency_s=sim.now - arrival, ok=True)
                    results.component_seconds["hash"] += timing.hash_s
                    results.component_seconds["memcached"] += timing.memcached_s
                    results.component_seconds["network"] += timing.network_s
                    results.per_core_served[core_index] = (
                        results.per_core_served.get(core_index, 0) + 1
                    )
                    served_per_core[core_index].inc()
                    if tracer.enabled:
                        # The span tree retraces the request's path: any
                        # client retry / hedge wait as a root interval,
                        # then the MAC queue and the latency model's
                        # network / hash-lookup / memcached stages — as
                        # roots on the plain path (the flat Fig. 4
                        # layout), or nested under a "hedge" wrapper
                        # when the winning attempt was the hedged twin.
                        trace.annotate(
                            core=core_index,
                            verb=request.verb,
                            value_bytes=served_bytes,
                            hit=hit,
                        )
                        if state["attempts"] > 1:
                            trace.annotate(attempts=state["attempts"])
                        parent = None
                        if via == "hedge":
                            if dispatched > arrival:
                                trace.add_span(
                                    "hedge_wait",
                                    arrival,
                                    dispatched - arrival,
                                    kind="client",
                                    node="client",
                                    stack=stack_label,
                                )
                            parent = trace.add_span(
                                "hedge",
                                dispatched,
                                sim.now - dispatched,
                                kind="client",
                                node=node_label,
                                stack=stack_label,
                            )
                        elif dispatched > arrival:
                            trace.add_span(
                                "retry",
                                arrival,
                                dispatched - arrival,
                                kind="client",
                                node="client",
                                stack=stack_label,
                            )
                        trace.add_span(
                            "queue",
                            dispatched,
                            wait,
                            parent=parent,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        served_at = dispatched + wait
                        trace.add_span(
                            "network",
                            served_at,
                            timing.network_s,
                            parent=parent,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        trace.add_span(
                            "hash",
                            served_at + timing.network_s,
                            timing.hash_s,
                            parent=parent,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        mc_span = trace.add_span(
                            "memcached",
                            served_at + timing.network_s + timing.hash_s,
                            timing.memcached_s,
                            parent=parent,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        if tiered_cost is not None and tiered_cost.probes:
                            # Per-tier flash intervals nest inside the
                            # memcached stage (where the tiered timing
                            # folded them), laid back to back in probe
                            # order: log, hash stores, sorted.
                            probe_at = (
                                served_at + timing.network_s + timing.hash_s
                            )
                            for tier_name, seconds in tiered_cost.probes:
                                trace.add_span(
                                    f"flash_{tier_name}",
                                    probe_at,
                                    seconds,
                                    parent=mc_span,
                                    kind="server",
                                    node=node_label,
                                    stack=stack_label,
                                )
                                probe_at += seconds
                        for v_start, v_duration, v_core in state.get(
                            "verify_spans", ()
                        ):
                            # Verify reads nest only while they fit the
                            # trace interval; late finishers become
                            # follow-from spans to keep every span
                            # inside its parent.
                            if v_start + v_duration <= sim.now + 1e-12:
                                trace.add_span(
                                    "verify_read",
                                    v_start,
                                    v_duration,
                                    kind="server",
                                    node=f"core{v_core}",
                                    stack=stack_label,
                                )
                            else:
                                tracer.follow_from(
                                    "verify_read",
                                    v_start,
                                    v_duration,
                                    node=f"core{v_core}",
                                    stack=stack_label,
                                    trace=trace,
                                )
                        trace.finish(sim.now)
                        tracer.commit(trace)

            cores[core_index].submit(timing.total_s, complete)

            if (
                replicated
                and repl.r > 1
                and request.verb == "GET"
                and not state.get("verified", False)
            ):
                # Read-quorum cost: the coordinator also consults r-1
                # more replicas.  Their replies don't gate the RTT (the
                # fastest copy answers the caller) but the reads occupy
                # those replicas' cores.
                state["verified"] = True
                extra = 0
                for verify_port in placement.replicas_for(request.key):
                    if extra == repl.r - 1:
                        break
                    if verify_port == port:
                        continue
                    verify_core = int(verify_port) - _BASE_TCP_PORT
                    if verify_core in down_cores:
                        continue
                    verify_timing = self.model.request_timing(
                        "GET", request.value_bytes
                    )
                    verify_read_busy.record(verify_timing.total_s)
                    if charge_op_energy is not None:
                        # Internal quorum read: no client wire.
                        charge_op_energy(
                            sim.now, "GET", request.value_bytes, wire=False
                        )
                    if tracer.enabled:
                        # Parked until the winning attempt commits; the
                        # service interval is known now, the queue wait
                        # is deliberately ignored (the reply does not
                        # gate the caller).
                        state.setdefault("verify_spans", []).append(
                            (sim.now, verify_timing.total_s, verify_core)
                        )
                    cores[verify_core].submit(
                        verify_timing.total_s, lambda wait: None
                    )
                    results.verify_reads += 1
                    verify_total.inc()
                    extra += 1

            if (
                policy is not None
                and policy.hedge_after_s is not None
                and request.verb == "GET"
            ):
                def hedge() -> None:
                    if state["done"]:
                        return
                    if replicated:
                        # Hedge to the key's next replica — the node
                        # that actually holds a copy.
                        preferred = placement.replicas_for(request.key)
                        start = (
                            preferred.index(port) if port in preferred else -1
                        )
                        alt = None
                        for offset in range(1, len(preferred)):
                            candidate = preferred[(start + offset) % len(preferred)]
                            if self._core_index(candidate) not in down_cores:
                                alt = candidate
                                break
                        if alt is None:
                            return
                    else:
                        if len(client_ring) < 2:
                            return
                        nodes = sorted(client_ring.nodes)
                        try:
                            alt = nodes[(nodes.index(port) + 1) % len(nodes)]
                        except ValueError:  # primary failed over meanwhile
                            alt = nodes[0]
                    alt_core = self._core_index(alt)
                    if alt_core in down_cores:
                        return
                    if (
                        self.max_queue_per_core is not None
                        and cores[alt_core].queue_depth >= self.max_queue_per_core
                    ):
                        return
                    results.hedges += 1
                    hedges_total.inc()
                    serve(request, state, alt_core, alt, via="hedge")

                sim.schedule(policy.hedge_after_s, hedge)

        def put_copy_resolved(
            request, state, copy_state, attempt: int,
            ok: bool, wait: float, response_len: int,
        ) -> None:
            """One replica copy of a fanned PUT finished (or timed out)."""
            copy_state["resolved"] += 1
            if ok:
                copy_state["acks"] += 1
                if (
                    copy_state["acks"] == copy_state["need"]
                    and not state["done"]
                ):
                    # The W-th ack completes the logical PUT.
                    state["done"] = True
                    results.puts += 1
                    puts_total.inc()
                    results.response_bytes += response_len
                    response_bytes_total.inc(response_len)
                    if sim.now <= duration_s:
                        results.record(sim.now - state["arrival"], wait)
                        completed_total.inc()
                        if slo_record is not None:
                            slo_record(
                                sim.now,
                                latency_s=sim.now - state["arrival"],
                                ok=True,
                            )
                        if tracer.enabled:
                            trace = state["trace"]
                            trace.annotate(
                                verb="PUT",
                                value_bytes=request.value_bytes,
                                acks=copy_state["acks"],
                                replicas=copy_state["total"],
                            )
                            if state["attempts"] > 1:
                                trace.annotate(attempts=state["attempts"])
                            trace.finish(sim.now)
                            tracer.commit(trace)
            if (
                copy_state["resolved"] == copy_state["total"]
                and not state["done"]
            ):
                # Every copy resolved and the quorum never formed.
                if policy is not None and attempt + 1 < policy.max_attempts:
                    results.retries += 1
                    retries_total.inc()
                    delay = policy.backoff_s(attempt, retry_rng)
                    sim.schedule(
                        delay, lambda: dispatch(request, state, attempt + 1)
                    )
                else:
                    give_up(request, state)

        def send_put_copy(
            request, state, copy_state, port: str, attempt: int, version: int
        ) -> None:
            """Fan one physical copy of a PUT to one replica core."""
            core_index = int(port) - _BASE_TCP_PORT
            down = core_index in down_cores
            lost = down
            if not lost and injector is not None and (
                injector.should_drop() or injector.should_corrupt()
            ):
                lost = True
            if not lost and (
                self.max_queue_per_core is not None
                and cores[core_index].queue_depth >= self.max_queue_per_core
            ):
                results.mac_drops += 1
                drops_total.inc()
                lost = True
            if lost:
                if down and repl.hinted_handoff:
                    if hintq.park(
                        port,
                        request.key,
                        version,
                        request.value_bytes,
                        trace_id=(
                            state["trace"].request_id if tracer.enabled else None
                        ),
                    ):
                        results.hints_queued += 1
                        if tracer.enabled and state["trace"].end_s is None:
                            # An instant producer span: the copy was
                            # parked, its replay follows from this
                            # trace at the node's restart.
                            state["trace"].add_span(
                                "hint",
                                sim.now,
                                0.0,
                                kind="producer",
                                node=f"core{core_index}",
                                stack=stack_label,
                            )
                results.fault_timeouts += 1
                timeouts_total.inc()
                consecutive_timeouts[port] = consecutive_timeouts.get(port, 0) + 1
                if policy is not None and policy.should_fail_over(
                    consecutive_timeouts[port]
                ):
                    fail_over(port)
                timeout = (
                    policy.request_timeout_s if policy is not None else 0.0
                )
                sim.schedule(
                    timeout,
                    lambda: put_copy_resolved(
                        request, state, copy_state, attempt,
                        ok=False, wait=0.0, response_len=0,
                    ),
                )
                return
            _hit, response_len = serve_op(
                core_index, request.key, "PUT", request.value_bytes
            )
            timing = adjust_timing(
                self.model.request_timing("PUT", request.value_bytes)
            )
            if charge_op_energy is not None:
                # Each physical copy moves over the wire and through
                # memory like its own PUT.
                charge_op_energy(sim.now, "PUT", request.value_bytes)
            results.replica_puts += 1
            replica_writes_total.inc()
            dispatched = sim.now
            node_label = f"core{core_index}"

            def complete(wait: float) -> None:
                consecutive_timeouts[port] = 0
                replica_put_wait.record(wait)
                if sim.now <= duration_s:
                    results.component_seconds["hash"] += timing.hash_s
                    results.component_seconds["memcached"] += timing.memcached_s
                    results.component_seconds["network"] += timing.network_s
                    results.per_core_served[core_index] = (
                        results.per_core_served.get(core_index, 0) + 1
                    )
                    served_per_core[core_index].inc()
                if tracer.enabled:
                    trace = state["trace"]
                    if trace.end_s is None:
                        # This copy resolves before the W-th ack, so its
                        # whole chain nests inside the logical PUT: one
                        # wrapper per replica, pipeline stages beneath.
                        wrapper = trace.add_span(
                            "replica_put",
                            dispatched,
                            sim.now - dispatched,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        trace.add_span(
                            "queue",
                            dispatched,
                            wait,
                            parent=wrapper,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        served_at = dispatched + wait
                        trace.add_span(
                            "network",
                            served_at,
                            timing.network_s,
                            parent=wrapper,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        trace.add_span(
                            "hash",
                            served_at + timing.network_s,
                            timing.hash_s,
                            parent=wrapper,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        trace.add_span(
                            "memcached",
                            served_at + timing.network_s + timing.hash_s,
                            timing.memcached_s,
                            parent=wrapper,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                    else:
                        # Acks past W land after the PUT completed.
                        tracer.follow_from(
                            "replica_put_straggler",
                            dispatched,
                            sim.now - dispatched,
                            node=node_label,
                            stack=stack_label,
                            kind="server",
                            trace=trace,
                        )
                put_copy_resolved(
                    request, state, copy_state, attempt,
                    ok=True, wait=wait, response_len=response_len,
                )

            cores[core_index].submit(timing.total_s, complete)

        def dispatch_replicated_put(request, state, attempt: int) -> None:
            """Fan a logical PUT to its preferred list (W-quorum)."""
            state["attempts"] = attempt + 1
            preferred = placement.replicas_for(request.key)
            put_seq[0] += 1
            copy_state = {
                "acks": 0,
                "resolved": 0,
                "total": len(preferred),
                "need": min(repl.w, len(preferred)),
            }
            for port in preferred:
                send_put_copy(
                    request, state, copy_state, port, attempt, put_seq[0]
                )

        def dispatch(request, state, attempt: int) -> None:
            """One attempt of one logical request (``attempt`` 0-based)."""
            if replicated and request.verb != "GET":
                dispatch_replicated_put(request, state, attempt)
                return
            state["attempts"] = attempt + 1
            if replicated:
                # Read path: walk the key's preferred list, skipping
                # failed-over members; retries rotate to the next
                # replica instead of hammering the same node.
                preferred = placement.replicas_for(request.key)
                candidates = [
                    p for p in preferred if p not in failed_over
                ] or list(preferred)
                port = candidates[attempt % len(candidates)]
            else:
                if len(client_ring) == 0:
                    give_up(request, state)
                    return
                port = client_ring.node_for(request.key)
            core_index = int(port) - _BASE_TCP_PORT

            lost = False
            if injector is not None:
                if core_index in down_cores:
                    lost = True
                elif injector.should_drop() or injector.should_corrupt():
                    lost = True
            if not lost and (
                self.max_queue_per_core is not None
                and cores[core_index].queue_depth >= self.max_queue_per_core
            ):
                # MAC buffer full for this core: the packet is dropped
                # and the client sees it as a timeout.
                results.mac_drops += 1
                drops_per_core[core_index] += 1
                drops_total.inc()
                lost = True
            if lost:
                timed_out(request, state, attempt, port)
                return
            serve(request, state, core_index, port)

        def flush_batch(core_index: int, reason: str) -> None:
            """Ship one core's pending ops as a single coalesced frame."""
            ops = batch_pending[core_index]
            if not ops:
                return
            batch_pending[core_index] = []
            batch_open_id[core_index] += 1
            port = str(_BASE_TCP_PORT + core_index)
            # The whole batch rides one packet train: a down core, an
            # injected drop, or a full MAC queue loses every op in it
            # together.  Each op then retries down the serial path —
            # coalescing is a fast path, not a reliability change.
            lost = False
            if injector is not None:
                if core_index in down_cores:
                    lost = True
                elif injector.should_drop() or injector.should_corrupt():
                    lost = True
            if not lost and (
                self.max_queue_per_core is not None
                and cores[core_index].queue_depth >= self.max_queue_per_core
            ):
                results.mac_drops += 1
                drops_total.inc()
                lost = True
            if lost:
                for request, state in ops:
                    timed_out(request, state, 0, port)
                return
            results.batches += 1
            results.batched_ops += len(ops)
            results.batch_flush_reasons[reason] = (
                results.batch_flush_reasons.get(reason, 0) + 1
            )
            batch_flush_total[reason].inc()
            batch_ops_counter.inc(len(ops))
            batch_size_histogram.record(float(len(ops)))
            dispatched = sim.now
            node_label = f"core{core_index}"
            outcomes = []
            timing_ops = []
            for request, state in ops:
                state["attempts"] = 1
                hit, response_len = serve_op(
                    core_index, request.key, request.verb, request.value_bytes
                )
                if fill_on_miss and request.verb == "GET" and not hit:
                    serve_op(core_index, request.key, "PUT", request.value_bytes)
                served_bytes = (
                    response_len if request.verb == "GET" else request.value_bytes
                )
                if charge_op_energy is not None:
                    # Every rider moves its own item and wire payload;
                    # only the per-request framing the batch coalesces
                    # away is saved (matching batch_timing's model).
                    charge_op_energy(sim.now, request.verb, served_bytes)
                outcomes.append((request, state, hit, response_len, served_bytes))
                timing_ops.append((request.verb, served_bytes))
            timing = adjust_timing(self.model.batch_timing(timing_ops))

            def complete(wait: float) -> None:
                served_at = dispatched + wait
                for request, state, hit, response_len, _served in outcomes:
                    state["done"] = True
                    if request.verb == "GET":
                        if hit:
                            results.get_hits += 1
                            hits_total.inc()
                        else:
                            results.get_misses += 1
                            misses_total.inc()
                        results.note_window_get(state["arrival"], hit)
                    else:
                        results.puts += 1
                        puts_total.inc()
                    results.response_bytes += response_len
                    response_bytes_total.inc(response_len)
                if sim.now > duration_s:
                    return
                # The batch occupies the core once: component seconds
                # and the served counter charge per batch/op exactly as
                # the latency model splits them, while every rider gets
                # its own RTT sample back to its own arrival.
                results.component_seconds["hash"] += timing.hash_s
                results.component_seconds["memcached"] += timing.memcached_s
                results.component_seconds["network"] += timing.network_s
                results.per_core_served[core_index] = (
                    results.per_core_served.get(core_index, 0) + len(outcomes)
                )
                served_per_core[core_index].inc(len(outcomes))
                for request, state, hit, response_len, served_bytes in outcomes:
                    arrival = state["arrival"]
                    results.record(sim.now - arrival, wait)
                    completed_total.inc()
                    if slo_record is not None:
                        slo_record(sim.now, latency_s=sim.now - arrival, ok=True)
                    if tracer.enabled:
                        # Per-rider span tree: the time spent waiting
                        # for the batch to fill, then a "batch" wrapper
                        # holding the shared pipeline stages.
                        trace = state["trace"]
                        trace.annotate(
                            core=core_index,
                            verb=request.verb,
                            value_bytes=served_bytes,
                            hit=hit,
                            batch_size=len(outcomes),
                            batch_flush=reason,
                        )
                        if dispatched > arrival:
                            trace.add_span(
                                "batch_wait",
                                arrival,
                                dispatched - arrival,
                                kind="client",
                                node="client",
                                stack=stack_label,
                            )
                        parent = trace.add_span(
                            "batch",
                            dispatched,
                            sim.now - dispatched,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        trace.add_span(
                            "queue",
                            dispatched,
                            wait,
                            parent=parent,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        trace.add_span(
                            "network",
                            served_at,
                            timing.network_s,
                            parent=parent,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        trace.add_span(
                            "hash",
                            served_at + timing.network_s,
                            timing.hash_s,
                            parent=parent,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        trace.add_span(
                            "memcached",
                            served_at + timing.network_s + timing.hash_s,
                            timing.memcached_s,
                            parent=parent,
                            kind="server",
                            node=node_label,
                            stack=stack_label,
                        )
                        trace.finish(sim.now)
                        tracer.commit(trace)

            cores[core_index].submit(timing.total_s, complete)

        def batch_enqueue(request, state) -> None:
            """Buffer one arrival behind its key's core; flush on size
            or on the linger deadline, whichever lands first."""
            if len(client_ring) == 0:
                give_up(request, state)
                return
            port = client_ring.node_for(request.key)
            core_index = int(port) - _BASE_TCP_PORT
            pending = batch_pending[core_index]
            pending.append((request, state))
            if len(pending) >= batching.batch_max:
                flush_batch(core_index, FLUSH_SIZE)
            elif len(pending) == 1:
                open_id = batch_open_id[core_index]

                def linger_fire() -> None:
                    if batch_open_id[core_index] == open_id:
                        flush_batch(core_index, FLUSH_LINGER)

                sim.schedule(batching.linger_s, linger_fire)

        diurnal = options.diurnal

        def arrival_delay() -> float:
            # Without a diurnal schedule the draw is untouched, so the
            # RNG stream (and every downstream outcome) stays
            # bit-identical to pre-diurnal runs.
            if diurnal is None:
                return rng.expovariate(offered_rate_hz)
            return rng.expovariate(offered_rate_hz * diurnal.factor(sim.now))

        def arrive() -> None:
            if sim.now >= duration_s:
                return
            request = generator.next_request()
            # The trace opens at arrival so every attempt — retries,
            # hedges, replica fan-out — shares one causal context.
            state = {
                "done": False,
                "arrival": sim.now,
                "attempts": 0,
                "trace": tracer.begin(sim.now, verb=request.verb),
            }
            if batch_enabled:
                batch_enqueue(request, state)
            else:
                dispatch(request, state, 0)
            sim.schedule(arrival_delay(), arrive)

        warm_span = (
            profiler.span("warmup") if profiler is not None else nullcontext()
        )
        with warm_span:
            for _ in range(warmup_requests):
                request = generator.next_request()
                if replicated:
                    for warm_port in placement.replicas_for(request.key):
                        serve_op(
                            int(warm_port) - _BASE_TCP_PORT,
                            request.key, "PUT", request.value_bytes,
                        )
                else:
                    warm_core = self.core_for_key(request.key)
                    serve_op(warm_core, request.key, "PUT", request.value_bytes)
                    if tiered_stores is not None:
                        tiered_stores[warm_core].put(
                            request.key, item_overhead + request.value_bytes
                        )
        if tiered_stores is not None:
            # Warmup populated the tiers outside simulated time; meter
            # only the measured run (registry counters start clean).
            for tiered in tiered_stores:
                tiered.reset_stats()
                tiered.metered = True

        fidelity = options.fidelity
        structural_reason: str | None = None
        if fidelity is not None and fidelity.mode != "full":
            # Structural features whose event-level interleaving is the
            # phenomenon under study (quorum fan-out, frame coalescing,
            # tier probes, hedged twins, span trees, exact order
            # statistics) cannot be folded analytically; the run
            # degrades to full DES and records why.
            if replicated:
                structural_reason = "replication"
            elif batch_enabled:
                structural_reason = "batching"
            elif tiered_stores is not None:
                structural_reason = "flashstore"
            elif policy is not None and policy.hedge_after_s is not None:
                structural_reason = "hedging"
            elif tracer.enabled:
                structural_reason = "tracing"
            elif keep_samples:
                structural_reason = "keep_samples"

        if (
            fidelity is None
            or fidelity.mode == "full"
            or structural_reason is not None
        ):
            # Pure DES: the historical path, event for event.
            sim.schedule(arrival_delay(), arrive)
            sim.run()
            if fidelity is not None:
                registry.counter("sim_fidelity_des_seconds_total").inc(
                    duration_s
                )
                results.fidelity = {
                    "sim_fidelity_mode": fidelity.mode,
                    "sim_fidelity_fluid_windows_total": 0,
                    "sim_fidelity_fluid_seconds_total": 0.0,
                    "sim_fidelity_des_seconds_total": duration_s,
                    "sim_fidelity_fluid_requests_total": 0,
                }
                if structural_reason is not None:
                    results.fidelity["sim_fidelity_fallback_reason"] = (
                        structural_reason
                    )
        else:
            self._run_segments(
                fidelity=fidelity,
                sim=sim,
                rng=rng,
                generator=generator,
                results=results,
                registry=registry,
                duration_s=duration_s,
                offered_rate_hz=offered_rate_hz,
                diurnal=diurnal,
                window_s=window_s,
                fill_on_miss=fill_on_miss,
                faults=faults,
                arrival_delay=arrival_delay,
                dispatch=dispatch,
                tracer=tracer,
                policy=policy,
                client_ring=client_ring,
                down_cores=down_cores,
                cores=cores,
                drops_per_core=drops_per_core,
                energy_meter=energy_meter,
                slo=slo,
                timeseries=timeseries,
                completed_total=completed_total,
                hits_total=hits_total,
                misses_total=misses_total,
                puts_total=puts_total,
                response_bytes_total=response_bytes_total,
                served_per_core=served_per_core,
            )
        if slo is not None:
            slo.evaluate(sim.now)
            results.slo_alerts = list(slo.alerts)
        if timeseries is not None:
            timeseries.flush(sim.now)
            results.timeseries = timeseries
        if options.trace_digest and tracer.enabled:
            results.trace_digest = compute_trace_digest(tracer)
        if tiered_stores is not None:
            summary = aggregate_tiered_results(tiered_stores)
            results.flashstore = summary
            registry.gauge("flashstore_write_amplification").set(
                summary["write_amplification"]
            )
            registry.gauge("flashstore_read_amplification").set(
                summary["read_amplification"]
            )
            registry.gauge("flashstore_index_bytes_per_key").set(
                summary["index_bytes_per_key"]
            )
        if energy_meter is not None:
            energy_summary = energy_meter.finalize(sim.now, results.completed)
            results.energy = energy_summary
            # Re-check §6.5's passive-cooling argument at *measured*
            # power instead of the worst-case TDP.
            ThermalReport.from_measured(
                stack_label,
                energy_meter.num_stacks,
                energy_summary["stack_mean_power_w"],
                passive_limit_w=energy_meter.passive_limit_w,
            ).export_gauges(registry)
        return results

    # --- hybrid DES/fluid driver ----------------------------------------------------

    def _run_segments(
        self,
        *,
        fidelity,
        sim,
        rng,
        generator,
        results,
        registry,
        duration_s,
        offered_rate_hz,
        diurnal,
        window_s,
        fill_on_miss,
        faults,
        arrival_delay,
        dispatch,
        tracer,
        policy,
        client_ring,
        down_cores,
        cores,
        drops_per_core,
        energy_meter,
        slo,
        timeseries,
        completed_total,
        hits_total,
        misses_total,
        puts_total,
        response_bytes_total,
        served_per_core,
    ) -> None:
        """Drive the run through the fidelity plan's DES/fluid segments.

        DES segments replay the event loop unchanged, so everything
        inside them (RNG draws, store mutations, event interleavings) is
        bit-identical to a pure-DES run.  Fluid segments consume the
        same arrival/workload RNG draws one by one.  Each window first
        picks its *held* cores (:func:`~repro.sim.fidelity.held_cores`):
        their requests go to ``dispatch`` at their arrival times, so
        their queues, drops and tails stay exact DES.  Every other
        core's requests execute *functionally* against the same stores —
        keeping store contents, hit/miss outcomes, and the RNG cursor
        exact — while the energy accounting is folded in batches.  Their
        latency is folded too: calibrated from the quiescent DES islands
        when no core is held, and, when one is, computed per request by
        each folded core's own FIFO recursion, which gives exactly the
        waits its DES queue would.
        """
        from repro.workloads.generator import Request

        hybrid = fidelity.mode == "hybrid"
        n_cores = len(cores)
        fluid_windows = 0
        fluid_seconds = 0.0
        fluid_requests = 0
        des_seconds = 0.0
        fallback_reason: str | None = None
        des_cores: dict[int, float] = {}
        fluid_active_gauge = registry.gauge("sim_fidelity_fluid_active")

        # ``key_core`` caches the client's key -> core lookup in fluid
        # windows, a pure function of the key while the ring is intact —
        # which every window-entry guard ensures.
        key_core: dict[bytes, int] = {}
        node_for = client_ring.node_for

        # A held core's MAC drops are client timeouts on its port; with
        # failover armed, enough of them would re-route the held core's
        # keys mid-window onto a folded core whose ops for the step
        # already ran.  Such runs hold no core: any core past the guard
        # keeps the whole stack in DES (``saturated``).
        can_fail_over = policy is not None and policy.failover_after is not None

        def open_state(t: float, verb: str) -> dict:
            return {
                "done": False,
                "arrival": t,
                "attempts": 0,
                "trace": tracer.begin(t, verb=verb),
            }

        # The arrival chain keeps exactly one pending event; tracking
        # its absolute fire time lets a fluid window cancel it, replay
        # the arrival process analytically from that exact time, and
        # hand the (still-undrawn) next arrival back to DES afterwards.
        # DES arrivals are tallied per core: the utilisation estimate
        # that picks held cores reads arrival shares, not completions.
        next_arrival = [0.0]
        arrival_event: list = [None]
        arrivals_per_core = [0] * n_cores

        def arrive_h() -> None:
            if sim.now >= duration_s:
                arrival_event[0] = None
                return
            request = generator.next_request()
            arrivals_per_core[int(node_for(request.key)) - _BASE_TCP_PORT] += 1
            dispatch(request, open_state(sim.now, request.verb), 0)
            delay = arrival_delay()
            next_arrival[0] = sim.now + delay
            arrival_event[0] = sim.schedule(delay, arrive_h)

        # The RTT/wait histograms hold exact samples only for the whole
        # run (DES completions, and the folded cores' FIFO recursion in
        # windows that hold a core): the calibrated completions of
        # windows that hold none accumulate in ``deferred_counted`` and
        # fold into the histograms exactly once, after the final segment
        # — over the samples of *every* quiescent DES island
        # (calibration prefix, the trailing run-end guard band).  A
        # per-window fold would only see the islands before it; the
        # end-of-run fold gives the tail buckets the whole run's DES
        # evidence.
        rtt_hist = results.rtt_histogram
        wait_hist = results.wait_histogram
        deferred_counted = 0

        # Quiescent-DES samples: fluid windows model the system
        # *between* perturbations, so the calibrated mass must scale the
        # samples of quiescent islands — folding over fault-window
        # samples would amplify fault-elevated tails into the
        # fast-forwarded quiescent mass.  Each DES segment that overlaps
        # no guarded fault adds its sample deltas to ``quiet``.
        fault_spans = (
            []
            if faults is None
            else [
                (
                    max(0.0, start - fidelity.guard_band_s),
                    min(duration_s, end + fidelity.guard_band_s),
                )
                for start, end in fault_intervals(faults)
            ]
        )

        def overlaps_fault(start: float, end: float) -> bool:
            return any(s < end and start < e for s, e in fault_spans)

        quiet = (StreamingHistogram(), StreamingHistogram())

        def run_des(until: float) -> None:
            """One quiescent DES segment, its samples added to ``quiet``."""
            before = [(list(h.counts), h.total) for h in (rtt_hist, wait_hist)]
            sim.run(until=until)
            for dest, src, (counts, total) in zip(
                quiet, (rtt_hist, wait_hist), before
            ):
                dest.record_bucketed(
                    {i: c - counts[i] for i, c in enumerate(src.counts)},
                    src.total - total,
                    src.min_seen,
                    src.max_seen,
                )

        def calibration() -> tuple[StreamingHistogram, StreamingHistogram]:
            """The RTT and wait distributions of the quiescent DES
            islands, or the whole exact distribution when those saw too
            few samples to be a usable shape."""
            if quiet[0].count < _MIN_CALIBRATION_SAMPLES:
                return rtt_hist, wait_hist
            return quiet

        def runtime_tripwire(held: dict[int, float]) -> str | None:
            """Hybrid-only signals that the system is *currently* in a
            regime whose event-level dynamics matter."""
            if down_cores:
                return "cores_down"
            # A held core's MAC drops are its exact DES queue overflowing
            # — the regime it is held for.  Each costs one timeout and at
            # most one failure; any loss beyond that is elsewhere.
            held_drops = sum(drops_per_core[core] for core in held)
            if held_drops < max(
                results.mac_drops, results.fault_timeouts, results.failed
            ):
                return "losses_observed"
            if energy_meter is not None and energy_meter.derate_factor != 1.0:
                return "thermal_throttle"
            if slo is not None and slo.active_alerts:
                return "slo_alert"
            return None

        def classify() -> tuple[str | None, dict[int, float]]:
            """Why a fluid window may not open right now (None = go),
            and the cores it must hold at DES fidelity."""
            des_count = rtt_hist.count
            if des_count < _MIN_CALIBRATION_SAMPLES:
                return "calibration_too_thin", {}
            # Peak-rate utilisation (the diurnal factor only ever lowers
            # the rate, so this bounds it).
            held = held_cores(
                arrivals_per_core,
                offered_rate_hz,
                (rtt_hist.total - wait_hist.total) / des_count,
                fidelity.max_utilization,
                dropped={core for core, n in enumerate(drops_per_core) if n},
            )
            if held and (len(held) == n_cores or can_fail_over):
                return "saturated", held
            if hybrid:
                return runtime_tripwire(held), held
            return None, held

        # Hot-loop bindings.
        serve_op = self.serve_op
        model_timing = self.model.request_timing
        op_activity = self._op_activity
        _expovariate = rng.expovariate
        _next_raw = generator.next_raw
        diurnal_factor = diurnal.factor if diurnal is not None else None

        step_limit = fidelity.max_fluid_step_s
        if timeseries is not None:
            step_limit = min(step_limit, timeseries.interval_s)
        if slo is not None:
            step_limit = min(step_limit, slo.resolution_s)

        def hold(t: float, key: bytes, size: int, is_get: bool) -> float:
            """Hand one held core's request to the DES at its arrival
            time ``t``; returns the next arrival time."""
            request = Request("GET" if is_get else "PUT", key, size)
            state = open_state(t, request.verb)
            sim.schedule_at(t, lambda: dispatch(request, state, 0))
            if diurnal_factor is None:
                return t + _expovariate(offered_rate_hz)
            return t + _expovariate(offered_rate_hz * diurnal_factor(t))

        def run_fluid_window(
            seg_start: float, seg_end: float, held: dict[int, float]
        ) -> tuple[str | None, float]:
            """Fast-forward ``[seg_start, seg_end)`` with ``held`` cores
            at DES fidelity; returns the tripwire reason if the window
            broke early (None otherwise) and the simulated time actually
            covered fluidly."""
            nonlocal fluid_windows, fluid_seconds, fluid_requests
            nonlocal deferred_counted, key_core
            fluid_windows += 1
            fluid_active_gauge.set(1.0)
            pending = arrival_event[0]
            if pending is not None:
                sim.cancel(pending)
                arrival_event[0] = None
            nt = next_arrival[0]

            if held:
                # The held cores' DES already costs a heap event per
                # request, so the folded cores get exact latencies for a
                # few float ops each: ``free_at[core]`` is when that
                # core's FIFO server next idles, starting from the jobs
                # its DES queue holds now, and each folded request
                # starts at max(arrival, free_at).  Every arrival takes
                # the branch below the cutoff test, which counts a
                # completion iff it ends by ``duration_s``, as DES does.
                free_at = [core.drained_at() for core in cores]
                service_of: dict[int, float] = {}
                threshold = -math.inf
                # The key cache must not answer for held cores' keys:
                # filtered once here (the copy stays the run's cache), a
                # held core's key misses and takes the slow branch while
                # a folded request still costs one hit.
                key_core = {k: c for k, c in key_core.items() if c not in held}
            else:
                free_at = None
                cal_rtt = calibration()[0]
                fraction_below = cal_rtt.fraction_below
                # Arrivals too close to the run's end would complete
                # past ``duration_s`` in DES, where the conditional
                # stats stop counting; mirror that cutoff at the
                # calibrated mean RTT.
                threshold = duration_s - cal_rtt.mean

            cursor = seg_start
            broke: str | None = None
            while cursor < seg_end - 1e-12:
                step_end = min(seg_end, cursor + step_limit)
                n_req = 0
                hits = misses = puts = resp_bytes = 0
                # Timing and energy are pure functions of (verb, served
                # bytes), so the inner loop only *counts* occurrences per
                # op shape — key ``served << 1 | is_get`` — and the step
                # boundary reads each distinct shape's timing and energy
                # activity from the shared memo tables.
                op_counts: dict[int, int] = {}
                late_counts: dict[int, int] = {}
                core_counts: dict[int, int] = {}
                win_gets: dict[int, int] = {}
                win_hits: dict[int, int] = {}
                if free_at is not None:
                    step_rtts: list[float] = []
                    step_waits: list[float] = []
                _op_get = op_counts.get
                _core_get = core_counts.get
                _kc_get = key_core.get
                while nt < step_end:
                    t = nt
                    key, size, is_get = _next_raw()
                    core = _kc_get(key)
                    if core is None:
                        core = int(node_for(key)) - _BASE_TCP_PORT
                        if core in held:
                            nt = hold(t, key, size, is_get)
                            continue
                        key_core[key] = core
                    if is_get:
                        hit, resp_len = serve_op(core, key, "GET", size)
                        if hit:
                            hits += 1
                        else:
                            misses += 1
                            if fill_on_miss:
                                serve_op(core, key, "PUT", size)
                        served = resp_len
                        if window_s is not None:
                            widx = int(t / window_s)
                            win_gets[widx] = win_gets.get(widx, 0) + 1
                            if hit:
                                win_hits[widx] = win_hits.get(widx, 0) + 1
                    else:
                        puts += 1
                        _hit, resp_len = serve_op(core, key, "PUT", size)
                        served = size
                    resp_bytes += resp_len
                    op = served << 1 | is_get
                    op_counts[op] = _op_get(op, 0) + 1
                    if t <= threshold:
                        core_counts[core] = _core_get(core, 0) + 1
                    elif free_at is None:
                        late_counts[op] = late_counts.get(op, 0) + 1
                    else:
                        service = service_of.get(op)
                        if service is None:
                            service = service_of[op] = model_timing(
                                "GET" if is_get else "PUT", served
                            ).total_s
                        start = free_at[core]
                        if start < t:
                            start = t
                        end = free_at[core] = start + service
                        if end <= duration_s:
                            core_counts[core] = _core_get(core, 0) + 1
                            step_rtts.append(end - t)
                            step_waits.append(start - t)
                        else:
                            late_counts[op] = late_counts.get(op, 0) + 1
                    n_req += 1
                    if diurnal_factor is None:
                        nt = t + _expovariate(offered_rate_hz)
                    else:
                        nt = t + _expovariate(
                            offered_rate_hz * diurnal_factor(t)
                        )

                counted_n = n_req - sum(late_counts.values())
                busy_s = 0.0
                comp_hash = comp_mc = comp_net = 0.0
                mem_bytes = wire_bytes = 0.0
                fl_reads = fl_programs = fl_erases = 0.0
                for op, n in op_counts.items():
                    served = op >> 1
                    verb = "GET" if op & 1 else "PUT"
                    timing = model_timing(verb, served)
                    busy_s += n * timing.total_s
                    n_counted = n - late_counts.get(op, 0)
                    if n_counted:
                        comp_hash += n_counted * timing.hash_s
                        comp_mc += n_counted * timing.memcached_s
                        comp_net += n_counted * timing.network_s
                    if energy_meter is not None:
                        mb, wb, fr, fp, fe = op_activity(verb, served)
                        mem_bytes += n * mb
                        wire_bytes += n * wb
                        fl_reads += n * fr
                        fl_programs += n * fp
                        fl_erases += n * fe

                # Fold the step's aggregates, then let the DES heap run
                # housekeeping (timeseries/SLO/energy ticks) up to the
                # step boundary against the freshened counters.
                if hits:
                    results.get_hits += hits
                    hits_total.inc(hits)
                if misses:
                    results.get_misses += misses
                    misses_total.inc(misses)
                if puts:
                    results.puts += puts
                    puts_total.inc(puts)
                if resp_bytes:
                    results.response_bytes += resp_bytes
                    response_bytes_total.inc(resp_bytes)
                if window_s is not None:
                    for widx, n in win_gets.items():
                        results.window_gets.observe_index(widx, float(n))
                    for widx, n in win_hits.items():
                        results.window_hits.observe_index(widx, float(n))
                if counted_n:
                    results.completed += counted_n
                    completed_total.inc(counted_n)
                    results.component_seconds["hash"] += comp_hash
                    results.component_seconds["memcached"] += comp_mc
                    results.component_seconds["network"] += comp_net
                    for core, n in core_counts.items():
                        results.per_core_served[core] = (
                            results.per_core_served.get(core, 0) + n
                        )
                        served_per_core[core].inc(n)
                    if free_at is None:
                        deferred_counted += counted_n
                        step_fraction = fraction_below
                    else:
                        rtt_hist.record_many(step_rtts)
                        wait_hist.record_many(step_waits)

                        def step_fraction(deadline_s: float) -> float:
                            # The step's exact share within the deadline,
                            # judged per request as the DES SLO does.
                            return (
                                sum(1 for rtt in step_rtts if rtt <= deadline_s)
                                / counted_n
                            )
                    if slo is not None:
                        slo.record_bulk(
                            cursor + (step_end - cursor) / 2.0,
                            counted_n,
                            step_fraction,
                        )
                if energy_meter is not None and n_req:
                    energy_meter.charge_core_busy_bulk(cursor, step_end, busy_s)
                    energy_meter.charge_memory_bytes_bulk(
                        cursor, step_end, mem_bytes
                    )
                    energy_meter.charge_nic_bytes_bulk(
                        cursor, step_end, wire_bytes
                    )
                    if fl_reads or fl_programs or fl_erases:
                        energy_meter.charge_flash_bulk(
                            cursor, step_end, fl_reads, fl_programs, fl_erases
                        )
                fluid_requests += n_req
                fluid_seconds += step_end - cursor
                sim.run(until=step_end)
                cursor = step_end
                if hybrid and cursor < seg_end - 1e-12:
                    broke = runtime_tripwire(held)
                    if broke is not None:
                        break

            if free_at is not None:
                # Hand each folded core's backlog to its DES queue, so
                # requests after the window wait behind it as they would
                # in DES.  (A core whose pre-window DES jobs outlast the
                # window keeps only those: rare at rho below the guard.)
                for core, until in enumerate(free_at):
                    if (
                        core not in held
                        and until > sim.now
                        and not cores[core].busy
                    ):
                        cores[core].occupy_until(until)
            next_arrival[0] = nt
            arrival_event[0] = sim.schedule_at(nt, arrive_h)
            fluid_active_gauge.set(0.0)
            return broke, cursor

        # --- the segment plan, executed -----------------------------------------
        first_delay = arrival_delay()
        next_arrival[0] = first_delay
        arrival_event[0] = sim.schedule(first_delay, arrive_h)
        for seg_start, seg_end, seg_kind in plan_segments(
            fidelity, faults, duration_s
        ):
            if seg_kind == "des":
                des_seconds += seg_end - seg_start
                if overlaps_fault(seg_start, seg_end):
                    sim.run(until=seg_end)
                else:
                    run_des(seg_end)
                continue
            reason, held = classify()
            if reason in (None, "saturated"):
                des_cores.update(held)
            if reason is not None:
                if fallback_reason is None:
                    fallback_reason = reason
                des_seconds += seg_end - seg_start
                sim.run(until=seg_end)
                continue
            broke, reached = run_fluid_window(seg_start, seg_end, held)
            if broke is not None:
                if fallback_reason is None:
                    fallback_reason = broke
                des_seconds += seg_end - reached
                sim.run(until=seg_end)
        sim.run()  # drain completions past the horizon

        if deferred_counted:
            # The end-of-run fold: distribute every calibrated fluid
            # completion over the quiescent DES latency/wait
            # distributions (largest-remainder, so totals are exact and
            # the folded shape tracks the observed one as closely as
            # integers allow).
            cal_rtt, cal_wait = calibration()
            for hist, cal in ((rtt_hist, cal_rtt), (wait_hist, cal_wait)):
                hist.record_bucketed(
                    allocate_proportional(cal.counts, deferred_counted),
                    deferred_counted * cal.mean,
                    hist.min_seen,
                    hist.max_seen,
                )

        registry.counter("sim_fidelity_fluid_windows_total").inc(fluid_windows)
        registry.counter("sim_fidelity_fluid_seconds_total").inc(fluid_seconds)
        registry.counter("sim_fidelity_des_seconds_total").inc(des_seconds)
        registry.counter("sim_fidelity_fluid_requests_total").inc(
            fluid_requests
        )
        results.fidelity = {
            "sim_fidelity_mode": fidelity.mode,
            "sim_fidelity_fluid_windows_total": fluid_windows,
            "sim_fidelity_fluid_seconds_total": fluid_seconds,
            "sim_fidelity_des_seconds_total": des_seconds,
            "sim_fidelity_fluid_requests_total": fluid_requests,
        }
        if fallback_reason is not None:
            results.fidelity["sim_fidelity_fallback_reason"] = fallback_reason
        if des_cores:
            # Keyed like per_core_served in to_dict(), so the dict
            # round-trips through JSON unchanged.
            results.fidelity["sim_fidelity_des_cores"] = {
                str(core): des_cores[core] for core in sorted(des_cores)
            }

    # --- functional execution -------------------------------------------------------

    def serve_op(
        self, core: int, key: bytes, verb: str, size: int
    ) -> tuple[bool, int]:
        """Run one GET or PUT against core ``core``'s store; returns
        ``(hit, reply bytes)``.

        The store is called directly and the reply length comes from the
        protocol's framing helpers, so the result equals what the same
        request would get through a :class:`MemcachedServer` connection
        (a PUT of ``size`` bytes stores ``b"x" * size`` with zero
        flags).  A PUT always reports ``hit=True``.

        Raises:
            SimulationError: if a PUT ends in anything but ``STORED`` or
                ``OUT_OF_MEMORY``.
        """
        store = self._stores[core]
        if verb == "GET":
            item = store.get(key)
            if item is None:
                return False, GET_MISS_LENGTH
            return True, get_hit_length(len(key), item.flags, len(item.value))
        payload = self._payloads.get(size)
        if payload is None:
            payload = self._payloads[size] = b"x" * size
        result = store.set(key, payload)
        if (
            result is not StoreResult.STORED
            and result is not StoreResult.OUT_OF_MEMORY
        ):
            raise SimulationError(f"unexpected store result {result!r}")
        return True, storage_reply_length(result)

    def _op_activity(self, verb: str, served_bytes: int) -> tuple:
        """Energy-metered activity of one op of this shape on the
        non-tiered path: ``(memory bytes, wire bytes, flash page reads,
        page programs, block erases)``.

        "Energy follows time": bytes and pages are charged with the same
        item framing (calibrated key length + overhead) the latency
        model's timing uses — ``memory_bandwidth()`` moves 2x the item
        per op, and flash ops cost whole pages as the model stalls for
        them.  Memoised per ``(verb, served_bytes)``; the DES charges and
        the fluid fold both read this table.
        """
        shape = (verb, served_bytes)
        activity = self._activity.get(shape)
        if activity is None:
            key_bytes = self.model.cal.default_key_bytes
            item_bytes = ITEM_OVERHEAD_BYTES + key_bytes + served_bytes
            wire = request_wire_payloads(verb, served_bytes, key_bytes=key_bytes)
            wire_bytes = wire_bytes_for_payload(
                wire.request_payload
            ) + wire_bytes_for_payload(wire.response_payload)
            reads = programs = erases = 0.0
            flash = self.stack.flash
            if flash is not None:
                pages = float(flash.pages_for(item_bytes))
                if verb == "GET":
                    reads = pages
                else:
                    programs = pages
                    erases = pages / flash.pages_per_block
            activity = (2.0 * item_bytes, wire_bytes, reads, programs, erases)
            self._activity[shape] = activity
        return activity
