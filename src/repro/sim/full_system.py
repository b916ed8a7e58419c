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
from dataclasses import dataclass, field, replace
from functools import partial

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
from repro.sim.fidelity import held_cores, plan_segments
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

# Imported lazily inside the run: repro.workloads.generator itself
# imports repro.sim.rng, and a module-level import here would close that
# cycle while repro.sim's package init is still running.
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.generator import WorkloadSpec

_BASE_TCP_PORT = 11211

#: Completed DES requests a fluid fast-forward window needs before the
#: mean service time and per-core load split that pick its held cores
#: are trusted; thinner calibration keeps the window at full DES.
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
        run = _RunState(self, workload, options)
        run.warm_up()
        fidelity = options.fidelity
        block = None
        if fidelity is not None and fidelity.mode != "full":
            # Structural features whose event-level interleaving is the
            # phenomenon under study cannot be folded analytically; the
            # run degrades to full DES and records why.
            block = run.fluid_block()
        if fidelity is None or fidelity.mode == "full" or block is not None:
            # Pure DES: the historical path, event for event.
            run.start_arrivals()
            run.sim.run()
            if fidelity is not None:
                run.registry.counter("sim_fidelity_des_seconds_total").inc(
                    run.duration_s
                )
                run.results.fidelity = {
                    "sim_fidelity_mode": fidelity.mode,
                    "sim_fidelity_fluid_windows_total": 0,
                    "sim_fidelity_fluid_seconds_total": 0.0,
                    "sim_fidelity_des_seconds_total": run.duration_s,
                    "sim_fidelity_fluid_requests_total": 0,
                }
                if block is not None:
                    run.results.fidelity["sim_fidelity_fallback_reason"] = block
        else:
            self._run_segments(run)
        run.finish()
        return run.results

    # --- hybrid DES/fluid driver ----------------------------------------------------

    def _run_segments(self, run: "_RunState") -> None:
        """Drive the run through the fidelity plan's DES/fluid segments.

        DES segments replay the event loop unchanged, so everything
        inside them (RNG draws, store mutations, event interleavings) is
        bit-identical to a pure-DES run.  Fluid segments consume the
        same arrival/workload RNG draws one by one.  Each window first
        picks its *held* cores (:func:`~repro.sim.fidelity.held_cores`):
        their requests go to the DES at their arrival times, so their
        queues, drops and tails stay exact DES.  Every other core's
        requests execute *functionally* against the same stores —
        keeping store contents, hit/miss outcomes, and the RNG cursor
        exact — while the energy accounting is folded in batches.  Their
        latency is computed per request by each folded core's own FIFO
        recursion, seeded from the jobs its DES queue holds at window
        entry, so every fluid window's RTTs and waits are exactly the
        ones its DES queue would produce.  The windows themselves are
        :class:`_FluidWindows`.
        """
        fidelity = run.options.fidelity
        sim = run.sim
        windows = _FluidWindows(run)
        fallback_reason: str | None = None
        des_seconds = 0.0
        des_cores: dict[int, float] = {}
        # DES arrivals are tallied per core: the utilisation estimate
        # that picks held cores reads arrival shares, not completions.
        run.arrivals_per_core = [0] * len(run.cores)
        run.start_arrivals()
        for seg_start, seg_end, seg_kind in plan_segments(
            fidelity, run.options.faults, run.duration_s
        ):
            if seg_kind == "des":
                des_seconds += seg_end - seg_start
                sim.run(until=seg_end)
                continue
            reason, held = windows.classify()
            if reason in (None, "saturated"):
                des_cores.update(held)
            if reason is not None:
                if fallback_reason is None:
                    fallback_reason = reason
                des_seconds += seg_end - seg_start
                sim.run(until=seg_end)
                continue
            broke, reached = windows.window(seg_start, seg_end, held)
            if broke is not None:
                if fallback_reason is None:
                    fallback_reason = broke
                des_seconds += seg_end - reached
                sim.run(until=seg_end)
        sim.run()  # drain completions past the horizon

        registry = run.registry
        registry.counter("sim_fidelity_fluid_windows_total").inc(
            windows.fluid_windows
        )
        registry.counter("sim_fidelity_fluid_seconds_total").inc(
            windows.fluid_seconds
        )
        registry.counter("sim_fidelity_des_seconds_total").inc(des_seconds)
        registry.counter("sim_fidelity_fluid_requests_total").inc(
            windows.fluid_requests
        )
        provenance = {
            "sim_fidelity_mode": fidelity.mode,
            "sim_fidelity_fluid_windows_total": windows.fluid_windows,
            "sim_fidelity_fluid_seconds_total": windows.fluid_seconds,
            "sim_fidelity_des_seconds_total": des_seconds,
            "sim_fidelity_fluid_requests_total": windows.fluid_requests,
        }
        if fallback_reason is not None:
            provenance["sim_fidelity_fallback_reason"] = fallback_reason
        if des_cores:
            # Keyed like per_core_served in to_dict(), so the dict
            # round-trips through JSON unchanged.
            provenance["sim_fidelity_des_cores"] = {
                str(core): des_cores[core] for core in sorted(des_cores)
            }
        run.results.fidelity = provenance

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


#: The client-side interval before a request's winning attempt, per
#: ``via`` of the completion (see :meth:`_RunState.complete`).
_WAIT_SPANS = {None: "retry", "hedge": "hedge_wait", "batch": "batch_wait"}


def _idle(wait: float) -> None:
    """Completion callback of internal work nobody waits for."""


class _RunState:
    """Everything one :meth:`FullSystemStack.run` call shares.

    Built once per run: the simulator, the per-core queues, the results
    and their registry counters, the tracer, the energy meter, the
    client's live ring and failure state, and one plain object per
    optional feature — ``replication``, ``batching``, ``flash`` (the
    tiered flash store) and ``faults`` (injection with crash/restart) —
    each ``None`` when its feature is off.  The DES request path is
    ``arrive -> dispatch -> serve -> complete``; the features are called
    directly at the few sites that need them, so a disabled feature
    costs a ``None`` test.
    """

    def __init__(
        self, system: FullSystemStack, workload: "WorkloadSpec", options: RunOptions
    ):
        from repro.workloads.generator import WorkloadGenerator

        self.system = system
        self.options = options
        self.duration_s = options.duration_s
        self.offered_rate_hz = options.offered_rate_hz
        self.fill_on_miss = options.fill_on_miss
        self.diurnal = options.diurnal
        self.slo = options.slo
        self.timeseries = options.timeseries
        telemetry = options.telemetry
        if telemetry is None:
            telemetry = NULL_TELEMETRY
        if options.trace_digest and not telemetry.tracer.enabled:
            # A digest was requested but no live session attached (the
            # experiment engine's cached cells run instrument-free):
            # trace internally with the paper SLA as the tail-sampling
            # deadline, seeded off the stack seed for reproducibility.
            telemetry = TelemetrySession(
                slo_deadline_s=_DIGEST_SLA_DEADLINE_S, sampling_seed=system.seed
            )
        self.registry, self.tracer = telemetry.registry, telemetry.tracer
        self.stack_label = system.stack.name
        self.sim = Simulator()
        self._install_instruments()
        # Fixed item framing shared with the latency model: the
        # calibrated default key length, not each request's actual key
        # bytes, so tiered and baseline runs charge the same item
        # footprint.
        self.item_overhead = ITEM_OVERHEAD_BYTES + system.model.cal.default_key_bytes
        self.rng = make_rng("full-system", system.seed)
        self.generator = WorkloadGenerator(workload, seed=system.seed)
        n_cores = system.stack.cores
        # Per-core span labels and client ports, formatted once.
        self.node_labels = [f"core{i}" for i in range(n_cores)]
        self.ports = [str(_BASE_TCP_PORT + i) for i in range(n_cores)]
        self.cores = [
            FifoResource(
                self.sim,
                name=label,
                registry=self.registry,
                busy_observer=(
                    self.energy.charge_core_busy if self.energy is not None else None
                ),
            )
            for label in self.node_labels
        ]
        for server, core in zip(system.servers, self.cores):
            server.attach_queue(core)
        self.results = FullSystemResults(
            duration_s=self.duration_s,
            offered_rate_hz=self.offered_rate_hz,
            keep_samples=options.keep_samples,
            window_s=options.window_s,
        )
        self._register_counters(n_cores)

        self.policy = options.resilience
        self.hedge_after_s = (
            self.policy.hedge_after_s if self.policy is not None else None
        )
        self.retry_rng = make_rng("resilience", system.seed)
        self.memory_kind = "flash" if system.model.memory.is_flash else "dram"
        # The client's live view of the cluster: failover removes nodes
        # here and health checks re-add them; ``system.ring`` (the MAC's
        # port map) is never mutated.
        self.client_ring = ConsistentHashRing(iter(self.ports), vnodes=128)
        self.down_cores: set[int] = set()
        self.down_ports: set[str] = set()
        self.failed_over: set[str] = set()
        self.drops_per_core = [0] * n_cores
        self.consecutive_timeouts: dict[str, int] = {}
        self.max_queue = system.max_queue_per_core
        # The arrival chain keeps exactly one pending event; tracking
        # its absolute fire time lets a fluid window cancel it, replay
        # the arrival process analytically from that exact time, and
        # hand the (still-undrawn) next arrival back to DES afterwards.
        self.next_arrival = 0.0
        self.arrival_event = None
        self.arrivals_per_core: list[int] | None = None
        self.serve_op = system.serve_op
        self.request_timing = system.model.request_timing
        self._build_features()
        self.injector = self.faults.injector if self.faults is not None else None
        # Live slowdowns exist only with an injector or a meter.
        self.slowed = self.injector is not None or self.energy is not None

    # --- construction -----------------------------------------------------------

    def _install_instruments(self) -> None:
        """Attach the observatory instruments to the simulator."""
        options, sim, registry = self.options, self.sim, self.registry
        duration_s = self.duration_s
        if options.profiler is not None:
            options.profiler.attach(sim)
        if self.timeseries is not None:
            self.timeseries.install(sim, horizon_s=duration_s)
        slo = self.slo
        if slo is not None:
            slo.install(sim, horizon_s=duration_s)
            if self.tracer.enabled:
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
        self.slo_record = slo.record if slo is not None else None
        energy = options.energy
        if energy is None and options.energy_summary:
            # A summary was requested but no live meter attached (the
            # experiment engine's cached cells run instrument-free):
            # meter internally against this stack's derived power model,
            # sized to the run's window_s (default: twenty windows).
            energy = EnergyMeter(
                DynamicPowerModel.for_stack(self.system.stack),
                window_s=(
                    options.window_s
                    if options.window_s is not None
                    else duration_s / 20.0
                ),
                registry=registry,
            )
        if energy is not None:
            energy.install(sim, horizon_s=duration_s)
        self.energy = energy

    def _register_counters(self, n_cores: int) -> None:
        registry = self.registry
        self.completed_total = registry.counter("requests_completed_total")
        self.drops_total = registry.counter("mac_drops_total")
        self.hits_total = registry.counter("get_hits_total")
        self.misses_total = registry.counter("get_misses_total")
        self.puts_total = registry.counter("puts_total")
        self.response_bytes_total = registry.counter("response_bytes_total")
        self.served_per_core = [
            registry.counter("requests_served_total", {"core": str(i)})
            for i in range(n_cores)
        ]
        self.failed_total = registry.counter("requests_failed_total")
        self.retries_total = registry.counter("client_retries_total")
        self.timeouts_total = registry.counter("client_timeouts_total")
        self.failovers_total = registry.counter("client_failovers_total")
        self.hedges_total = registry.counter("client_hedged_requests_total")

    def _build_features(self) -> None:
        """Validate the feature combination and build each enabled
        feature object (``None`` when off)."""
        options = self.options
        cores = self.system.stack.cores
        replication = options.replication
        if replication is not None and replication.n > cores:
            raise ConfigurationError(
                f"replication factor {replication.n} exceeds the "
                f"{cores}-core stack"
            )
        replicated = replication is not None and replication.n > 1
        batched = options.batching is not None and options.batching.enabled
        if batched and replicated:
            raise ConfigurationError(
                "batched dispatch and replication (n > 1) cannot be "
                "combined in the full-system run; batch against a "
                "sharded stack"
            )
        self.busy: dict = {}  # background_busy_seconds per task
        self.flash = None
        if options.flashstore is not None:
            if not self.system.model.memory.is_flash:
                raise ConfigurationError(
                    "the tiered flash store needs a flash (Iridium) "
                    "stack; Mercury keeps its DRAM path"
                )
            if replicated:
                raise ConfigurationError(
                    "the tiered flash store and replication (n > 1) "
                    "cannot be combined yet; run sharded"
                )
            if batched:
                raise ConfigurationError(
                    "the tiered flash store and batched dispatch cannot "
                    "be combined yet; run the serial path"
                )
            self.flash = _TieredFlash(self, options.flashstore)
        self.batching = _Batching(self, options.batching) if batched else None
        self.replication = (
            _Replication(self, replication) if replicated else None
        )
        self.faults = (
            _Faults(self, options.faults) if options.faults is not None else None
        )
        if self.replication is not None:
            self.replication.install_antientropy()

    # --- run phases -------------------------------------------------------------

    def warm_up(self) -> None:
        """``warmup_requests`` PUTs into the stores, outside simulated time."""
        profiler = self.options.profiler
        warm_span = profiler.span("warmup") if profiler is not None else nullcontext()
        serve_op, generator = self.serve_op, self.generator
        with warm_span:
            for _ in range(self.options.warmup_requests):
                request = generator.next_request()
                if self.replication is not None:
                    self.replication.warm(request)
                    continue
                core = self.system.core_for_key(request.key)
                serve_op(core, request.key, "PUT", request.value_bytes)
                if self.flash is not None:
                    self.flash.warm(core, request)
        if self.flash is not None:
            self.flash.start_metering()

    def fluid_block(self) -> str | None:
        """Why this run cannot fold into fluid windows (None = it can).

        Quorum fan-out, frame coalescing, tier probes, hedged twins,
        span trees and exact order statistics are event-level phenomena;
        the first reason in that order wins.
        """
        for feature in (self.replication, self.batching, self.flash, self.faults):
            if feature is not None:
                reason = feature.fluid_block()
                if reason is not None:
                    return reason
        if self.hedge_after_s is not None:
            return "hedging"
        if self.tracer.enabled:
            return "tracing"
        if self.options.keep_samples:
            return "keep_samples"
        return None

    def finish(self) -> None:
        """Close the instruments and fill the results' summaries."""
        sim, results, registry = self.sim, self.results, self.registry
        if self.slo is not None:
            self.slo.evaluate(sim.now)
            results.slo_alerts = list(self.slo.alerts)
        if self.timeseries is not None:
            self.timeseries.flush(sim.now)
            results.timeseries = self.timeseries
        if self.options.trace_digest and self.tracer.enabled:
            results.trace_digest = compute_trace_digest(self.tracer)
        if self.flash is not None:
            self.flash.finalize()
        energy = self.energy
        if energy is not None:
            summary = energy.finalize(sim.now, results.completed)
            results.energy = summary
            # Re-check §6.5's passive-cooling argument at *measured*
            # power instead of the worst-case TDP.
            ThermalReport.from_measured(
                self.stack_label,
                energy.num_stacks,
                summary["stack_mean_power_w"],
                passive_limit_w=energy.passive_limit_w,
            ).export_gauges(registry)

    # --- shared charges ---------------------------------------------------------

    def charge_op(
        self,
        t: float,
        verb: str,
        served_bytes: int,
        tiered_cost=None,
        wire: bool = True,
    ) -> None:
        """Energy of one op, read from the op-shape table (see
        :meth:`FullSystemStack._op_activity`).  Core busy energy needs no
        per-site charge — the queues' ``busy_observer`` charges it over
        exactly the busy intervals."""
        energy = self.energy
        mem_bytes, wire_bytes, reads, programs, erases = self.system._op_activity(
            verb, served_bytes
        )
        energy.charge_memory_bytes(t, mem_bytes)
        if wire:
            energy.charge_nic_bytes(t, wire_bytes)
        flash = self.system.stack.flash
        if flash is None:
            return
        if tiered_cost is not None:
            # Tiered store: reads cost what the tier probe actually
            # touched; log-structured writes amortise to the item's
            # share of a page, and erases to that share of a block.
            if verb == "GET":
                energy.charge_flash_reads(t, float(tiered_cost.pages_read))
            else:
                pages = (self.item_overhead + served_bytes) / flash.page_bytes
                energy.charge_flash_programs(t, pages)
                energy.charge_flash_erases(t, pages / flash.pages_per_block)
        elif verb == "GET":
            energy.charge_flash_reads(t, reads)
        else:
            energy.charge_flash_programs(t, programs)
            energy.charge_flash_erases(t, erases)

    def background(
        self, core_index: int, task: str, service: float, ops=(), spans=()
    ) -> None:
        """Occupy ``core_index`` for ``service`` seconds of internal work
        (hint replay, anti-entropy, read repair, verify reads, tier
        moves): the ``background_busy_seconds{task}`` sample, the
        wire-free energy of ``ops`` (``(verb, bytes)`` pairs), one
        follows-from span per ``(name, start, duration, trace)`` in
        ``spans``, then one job on the core that nobody waits for."""
        self.busy[task].record(service)
        if self.energy is not None:
            now = self.sim.now
            for verb, size in ops:
                self.charge_op(now, verb, size, wire=False)
        if self.tracer.enabled:
            node = self.node_labels[core_index]
            for name, start, duration, trace in spans:
                self.tracer.follow_from(
                    name, start, duration,
                    node=node, stack=self.stack_label, trace=trace,
                )
        self.cores[core_index].submit(service, _idle)

    def adjust_timing(self, timing: RequestTiming) -> RequestTiming:
        """``timing`` under the live slowdowns: the injector's
        memory-degradation factor stretches the memcached stage, then
        thermal throttle feedback (the derated clock) stretches the
        on-core stages (hash + memcached).  Wire time is unaffected."""
        if self.injector is not None:
            factor = self.injector.service_factor(self.memory_kind)
            if factor != 1.0:
                timing = replace(timing, memcached_s=timing.memcached_s * factor)
        energy = self.energy
        if energy is not None and energy.derate_factor != 1.0:
            derate = energy.derate_factor
            timing = replace(
                timing,
                hash_s=timing.hash_s / derate,
                memcached_s=timing.memcached_s / derate,
            )
        return timing

    # --- the request path -------------------------------------------------------

    def arrival_delay(self) -> float:
        # Without a diurnal schedule the draw is untouched, so the
        # RNG stream (and every downstream outcome) stays
        # bit-identical to pre-diurnal runs.
        if self.diurnal is None:
            return self.rng.expovariate(self.offered_rate_hz)
        return self.rng.expovariate(
            self.offered_rate_hz * self.diurnal.factor(self.sim.now)
        )

    def start_arrivals(self) -> None:
        delay = self.arrival_delay()
        self.next_arrival = delay
        self.arrival_event = self.sim.schedule(delay, self.arrive)

    def arrive(self, request=None) -> None:
        """One arrival.  With no ``request`` this is the Poisson chain:
        draw the next request, hand it on, and schedule the next
        arrival.  A fluid window hands a held core's already-drawn
        ``request`` here at its arrival time, outside the chain."""
        sim = self.sim
        now = sim.now
        chained = request is None
        if chained:
            if now >= self.duration_s:
                self.arrival_event = None
                return
            request = self.generator.next_request()
            if self.arrivals_per_core is not None:
                self.arrivals_per_core[
                    int(self.client_ring.node_for(request.key)) - _BASE_TCP_PORT
                ] += 1
        # The trace opens at arrival so every attempt — retries,
        # hedges, replica fan-out — shares one causal context.
        state = {
            "done": False,
            "arrival": now,
            "attempts": 0,
            "trace": self.tracer.begin(now, verb=request.verb),
        }
        if self.batching is not None:
            self.batching.enqueue(request, state)
        else:
            self.dispatch(request, state, 0)
        if chained:
            delay = self.arrival_delay()
            self.next_arrival = now + delay
            self.arrival_event = sim.schedule(delay, self.arrive)

    def dispatch(self, request, state, attempt: int) -> None:
        """One attempt of one logical request (``attempt`` 0-based)."""
        replication = self.replication
        if replication is not None:
            if request.verb != "GET":
                replication.dispatch_put(request, state, attempt)
                return
            state["attempts"] = attempt + 1
            port = replication.read_port(request.key, attempt)
        else:
            state["attempts"] = attempt + 1
            ring = self.client_ring
            if len(ring) == 0:
                self.give_up(request, state)
                return
            port = ring.node_for(request.key)
        core_index = int(port) - _BASE_TCP_PORT
        if self.lost(core_index):
            self.timed_out(request, state, attempt, port)
        else:
            self.serve(request, state, core_index)

    def lost(self, core_index: int) -> bool:
        """Whether a frame sent to ``core_index`` now is lost: the core
        is down, the injector drops or corrupts it, or the MAC buffer
        for the core is full (counted as a MAC drop).  The client sees
        every loss as a timeout."""
        injector = self.injector
        if injector is not None and (
            core_index in self.down_cores
            or injector.should_drop()
            or injector.should_corrupt()
        ):
            return True
        if (
            self.max_queue is not None
            and self.cores[core_index].queue_depth >= self.max_queue
        ):
            self.results.mac_drops += 1
            self.drops_per_core[core_index] += 1
            self.drops_total.inc()
            return True
        return False

    def serve(self, request, state, core_index: int, via: str | None = None) -> None:
        """Execute ``request`` on ``core_index`` and queue its service
        time there; ``via="hedge"`` marks the hedged twin."""
        sim = self.sim
        verb = request.verb
        hit, response_len = self.serve_op(
            core_index, request.key, verb, request.value_bytes
        )
        tiered_cost = None
        if self.flash is not None:
            tiered_cost = self.flash.mirror(core_index, request, state["trace"])
        if verb == "GET":
            if self.replication is not None:
                hit, response_len = self.replication.read(
                    request, state, core_index, hit, response_len
                )
            elif self.fill_on_miss and not hit:
                # Cache-aside refill: the application fetches the value
                # from its backing store and re-caches it (functional
                # only; the DB round trip is outside the simulated SLA).
                self.serve_op(core_index, request.key, "PUT", request.value_bytes)
                if self.flash is not None:
                    self.flash.refill(core_index, request, state["trace"])
            served_bytes = response_len
        else:
            served_bytes = request.value_bytes
        if tiered_cost is not None:
            timing = self.system.model.request_timing_tiered(
                verb, served_bytes, tiered_cost.service_s
            )
        else:
            timing = self.request_timing(verb, served_bytes)
        if self.slowed:
            timing = self.adjust_timing(timing)
        if self.energy is not None:
            self.charge_op(sim.now, verb, served_bytes, tiered_cost)
        self.cores[core_index].submit(
            timing.total_s,
            partial(
                self.complete, request, state, core_index, via, hit,
                response_len, timing, tiered_cost, sim.now, 1,
            ),
        )
        if verb == "GET":
            port = self.ports[core_index]
            if self.replication is not None:
                self.replication.verify(request, state, port)
            if self.hedge_after_s is not None and via is None:
                # Only the request's own attempt arms the timer, so a
                # GET is hedged at most once, as ResilientClient does.
                sim.schedule(
                    self.hedge_after_s, lambda: self.hedge(request, state, port)
                )

    def complete(
        self, request, state, core_index: int, via: str | None, hit: bool,
        response_len: int, timing, tiered_cost, dispatched, served: int,
        wait: float,
    ) -> None:
        """The one completion path: a job of ``request`` left
        ``core_index``'s queue after waiting ``wait`` seconds.

        ``via`` names the job: ``None`` is the request's own attempt and
        ``"hedge"`` its hedged twin (the later of the two is a
        straggler); ``"batch"`` is one rider of a coalesced frame;
        ``"replica"`` is one physical copy of a quorum PUT, which
        answers nobody itself; ``"quorum"`` is the W-th replica ack,
        which answers the PUT.  ``served`` is how many core-served
        requests the job adds to the component-time and per-core tallies
        (a batch charges all its riders on the first).
        """
        now = self.sim.now
        results = self.results
        if via == "replica":
            self.consecutive_timeouts[self.ports[core_index]] = 0
            self.replication.put_wait.record(wait)
        elif state["done"]:
            # A hedged twin already answered: the losing branch is
            # causally linked but outside the trace, so the RTT
            # identity over the span tree survives.
            if self.tracer.enabled:
                self.tracer.follow_from(
                    "hedge_straggler" if via == "hedge" else "straggler",
                    dispatched,
                    now - dispatched,
                    node=self.node_labels[core_index],
                    stack=self.stack_label,
                    kind="client",
                    trace=state["trace"],
                )
            return
        else:
            state["done"] = True
            if via is None or via == "hedge":
                self.consecutive_timeouts[self.ports[core_index]] = 0
            if request.verb == "GET":
                if hit:
                    results.get_hits += 1
                    self.hits_total.inc()
                else:
                    results.get_misses += 1
                    self.misses_total.inc()
                results.note_window_get(state["arrival"], hit)
            else:
                results.puts += 1
                self.puts_total.inc()
            results.response_bytes += response_len
            self.response_bytes_total.inc(response_len)
        within = now <= self.duration_s
        if within:
            if via != "replica":
                latency = now - state["arrival"]
                results.record(latency, wait)
                self.completed_total.inc()
                if self.slo_record is not None:
                    self.slo_record(now, latency_s=latency, ok=True)
            if served:
                component = results.component_seconds
                component["hash"] += timing.hash_s
                component["memcached"] += timing.memcached_s
                component["network"] += timing.network_s
                results.per_core_served[core_index] = (
                    results.per_core_served.get(core_index, 0) + served
                )
                self.served_per_core[core_index].inc(served)
        if self.tracer.enabled and (within or via == "replica"):
            self.trace_completion(
                request, state, core_index, via, hit, response_len, timing,
                tiered_cost, dispatched, wait,
            )
        if via == "replica":
            self.replication.copy_resolved(
                request, state, core_index, True, wait, response_len
            )

    def trace_completion(
        self, request, state, core_index: int, via: str | None, hit: bool,
        response_len: int, timing, tiered_cost, dispatched, wait: float,
    ) -> None:
        """The span tree of one completion (see :meth:`complete`).

        It retraces the request's path: any client retry / hedge /
        batch-fill wait as a root interval, then the MAC queue and the
        latency model's network / hash-lookup / memcached stages — as
        roots on the plain path (the flat Fig. 4 layout), or nested
        under a ``hedge``/``batch``/``replica_put`` wrapper.
        """
        tracer = self.tracer
        trace = state["trace"]
        now = self.sim.now
        node = self.node_labels[core_index]
        stack = self.stack_label
        if via == "replica":
            if trace.end_s is None:
                # This copy resolves before the W-th ack, so its whole
                # chain nests inside the logical PUT.
                wrapper = trace.add_span(
                    "replica_put", dispatched, now - dispatched,
                    kind="server", node=node, stack=stack,
                )
                self.stage_spans(trace, dispatched, wait, timing, wrapper, node)
            else:
                # Acks past W land after the PUT completed.
                tracer.follow_from(
                    "replica_put_straggler", dispatched, now - dispatched,
                    node=node, stack=stack, kind="server", trace=trace,
                )
            return
        if via == "quorum":
            copies = state["copies"]
            trace.annotate(
                verb="PUT",
                value_bytes=request.value_bytes,
                acks=copies["acks"],
                replicas=copies["total"],
            )
        else:
            trace.annotate(
                core=core_index,
                verb=request.verb,
                value_bytes=(
                    response_len if request.verb == "GET" else request.value_bytes
                ),
                hit=hit,
            )
            if via == "batch":
                batch_size, reason = state["batch"]
                trace.annotate(batch_size=batch_size, batch_flush=reason)
        if state["attempts"] > 1:
            trace.annotate(attempts=state["attempts"])
        if via != "quorum":
            arrival = state["arrival"]
            if dispatched > arrival:
                trace.add_span(
                    _WAIT_SPANS[via], arrival, dispatched - arrival,
                    kind="client", node="client", stack=stack,
                )
            parent = None
            if via is not None:
                parent = trace.add_span(
                    via, dispatched, now - dispatched,
                    kind="client" if via == "hedge" else "server",
                    node=node, stack=stack,
                )
            memcached = self.stage_spans(trace, dispatched, wait, timing, parent, node)
            if tiered_cost is not None and tiered_cost.probes:
                # Per-tier flash intervals nest inside the memcached
                # stage (where the tiered timing folded them), laid back
                # to back in probe order: log, hash stores, sorted.
                probe_at = memcached.start_s
                for tier_name, seconds in tiered_cost.probes:
                    trace.add_span(
                        f"flash_{tier_name}", probe_at, seconds,
                        parent=memcached, kind="server", node=node, stack=stack,
                    )
                    probe_at += seconds
            for v_start, v_duration, v_core in state.get("verify_spans", ()):
                # Verify reads nest only while they fit the trace
                # interval; late finishers become follow-from spans to
                # keep every span inside its parent.
                if v_start + v_duration <= now + 1e-12:
                    trace.add_span(
                        "verify_read", v_start, v_duration,
                        kind="server", node=self.node_labels[v_core], stack=stack,
                    )
                else:
                    tracer.follow_from(
                        "verify_read", v_start, v_duration,
                        node=self.node_labels[v_core], stack=stack, trace=trace,
                    )
        trace.finish(now)
        tracer.commit(trace)

    def stage_spans(self, trace, dispatched, wait, timing, parent, node):
        """The queue, network, hash and memcached spans of one job
        dispatched at ``dispatched`` that queued ``wait`` seconds;
        returns the memcached span."""
        stack = self.stack_label
        trace.add_span(
            "queue", dispatched, wait,
            parent=parent, kind="server", node=node, stack=stack,
        )
        served_at = dispatched + wait
        trace.add_span(
            "network", served_at, timing.network_s,
            parent=parent, kind="server", node=node, stack=stack,
        )
        trace.add_span(
            "hash", served_at + timing.network_s, timing.hash_s,
            parent=parent, kind="server", node=node, stack=stack,
        )
        return trace.add_span(
            "memcached", served_at + timing.network_s + timing.hash_s,
            timing.memcached_s,
            parent=parent, kind="server", node=node, stack=stack,
        )

    # --- the client's resilience ------------------------------------------------

    def hedge(self, request, state, port: str) -> None:
        """Fire the hedged twin of an unanswered GET at the next node."""
        if state["done"]:
            return
        if self.replication is not None:
            # Hedge to the key's next replica — the node that actually
            # holds a copy.
            alt = self.replication.hedge_target(request.key, port)
            if alt is None:
                return
        else:
            ring = self.client_ring
            if len(ring) < 2:
                return
            nodes = sorted(ring.nodes)
            try:
                alt = nodes[(nodes.index(port) + 1) % len(nodes)]
            except ValueError:  # primary failed over meanwhile
                alt = nodes[0]
        alt_core = self.system._core_index(alt)
        if alt_core in self.down_cores:
            return
        if (
            self.max_queue is not None
            and self.cores[alt_core].queue_depth >= self.max_queue
        ):
            return
        self.results.hedges += 1
        self.hedges_total.inc()
        self.serve(request, state, alt_core, via="hedge")

    def note_timeout(self, port: str) -> None:
        """Count one attempt timeout at ``port``; enough in a row fail
        the node over."""
        self.results.fault_timeouts += 1
        self.timeouts_total.inc()
        self.consecutive_timeouts[port] = self.consecutive_timeouts.get(port, 0) + 1
        if self.policy is not None and self.policy.should_fail_over(
            self.consecutive_timeouts[port]
        ):
            self.fail_over(port)

    def timed_out(self, request, state, attempt: int, port: str) -> None:
        self.note_timeout(port)
        policy = self.policy
        if policy is not None and attempt + 1 < policy.max_attempts:
            self.results.retries += 1
            self.retries_total.inc()
            delay = policy.request_timeout_s + policy.backoff_s(
                attempt, self.retry_rng
            )
            self.sim.schedule(
                delay, lambda: self.dispatch(request, state, attempt + 1)
            )
        else:
            self.give_up(request, state)

    def give_up(self, request, state) -> None:
        self.results.failed += 1
        self.failed_total.inc()
        now = self.sim.now
        if self.slo_record is not None:
            self.slo_record(now, ok=False)
        if self.tracer.enabled:
            # Error traces are always retained by tail sampling.
            trace = state["trace"]
            trace.annotate(
                verb=request.verb, error="gave_up", attempts=state["attempts"]
            )
            trace.finish(now)
            self.tracer.commit(trace)
        if request.verb == "GET":
            self.results.note_window_get(state["arrival"], hit=False)

    def fail_over(self, port: str) -> None:
        if port in self.failed_over or len(self.client_ring) <= 1:
            return
        self.failed_over.add(port)
        self.client_ring.remove_node(port)
        self.results.failovers += 1
        self.failovers_total.inc()
        if self.sim.now < self.duration_s:
            self.sim.schedule(
                self.policy.health_check_interval_s,
                lambda: self.try_readmit(port),
            )

    def try_readmit(self, port: str) -> None:
        """Health check: re-add a failed-over node once it is up."""
        if port not in self.failed_over:
            return
        if self.system._core_index(port) not in self.down_cores:
            self.failed_over.discard(port)
            self.client_ring.add_node(port)
            self.consecutive_timeouts[port] = 0
        elif self.sim.now < self.duration_s:
            self.sim.schedule(
                self.policy.health_check_interval_s,
                lambda: self.try_readmit(port),
            )


# --- per-feature objects ---------------------------------------------------------


class _Faults:
    """Fault injection with crash/restart: the injector replays the
    schedule on the simulator, a crashed core loses its data (§2.3) and
    is down until its restart."""

    def __init__(self, run: _RunState, schedule: FaultSchedule):
        self.run = run
        self.injector = FaultInjector(
            schedule, seed=run.system.seed, registry=run.registry
        )
        self.injector.install(
            run.sim,
            horizon_s=run.duration_s,
            on_crash=self.crash,
            on_restart=self.restart,
        )

    def fluid_block(self) -> None:
        """Faults never block folding: the segment plan runs each fault
        window, guard-banded, as a DES island."""
        return None

    def crash(self, node: str) -> None:
        run = self.run
        index = run.system._core_index(node)
        run.down_cores.add(index)
        run.down_ports.add(run.ports[index])
        run.system.servers[index].store.flush_all()
        if run.flash is not None:
            # The crash also loses the tiers' in-memory indexes, so the
            # tiered store restarts empty with its peer.
            run.flash.stores[index].flush()

    def restart(self, node: str) -> None:
        run = self.run
        index = run.system._core_index(node)
        run.down_cores.discard(index)
        run.down_ports.discard(run.ports[index])
        if run.replication is not None:
            run.replication.replay_hints(index)


class _Replication:
    """The stack as a quorum replica group (``n > 1``): PUTs fan to the
    key's preferred cores and complete at the W-th ack, GETs walk the
    preferred list with read repair and ``r - 1`` verify reads, copies
    for a down core park as hints, and anti-entropy sweeps on a timer."""

    def __init__(self, run: _RunState, config):
        self.run = run
        self.config = config
        registry = run.registry
        # Housekeeping's busy time, windowed into the time-series
        # recorder like any other metric, so a run's timeline shows the
        # fault -> hint replay -> anti-entropy -> recovery sequence.
        for task in ("hint_replay", "antientropy", "read_repair", "verify_read"):
            run.busy[task] = registry.histogram(
                "background_busy_seconds", {"task": task}
            )
        self.put_wait = registry.histogram("replica_put_wait_seconds")
        # Each core is its own failure domain here — the whole run is
        # one physical stack — so placement skips by node; the
        # rack/stack-aware rule matters in the multi-stack client.
        self.placement = ReplicaPlacement(
            run.system.ring, config.n, stack_of=lambda port: port
        )
        self.hints = HintQueue(registry=registry)
        self.writes_total = registry.counter("replication_replica_writes_total")
        self.redirected_total = registry.counter(
            "replication_redirected_reads_total"
        )
        self.verify_total = registry.counter("replication_verify_reads_total")
        self.read_repairs_total = registry.counter("replication_read_repairs_total")
        self.put_seq = 0  # the DES's version epoch (hint resolution order)

    def fluid_block(self) -> str:
        return "replication"

    def install_antientropy(self) -> None:
        config, run = self.config, self.run
        if config.anti_entropy_interval_s is None:
            return
        fabric = _ReplicaFabric(
            {run.ports[i]: server.store for i, server in enumerate(run.system.servers)},
            self.placement,
            run.down_ports,
        )
        self.sweeper = AntiEntropySweeper(
            fabric,
            buckets=config.anti_entropy_buckets,
            max_repairs_per_sweep=config.max_repairs_per_sweep,
            registry=run.registry,
        )
        run.sim.recurring(config.anti_entropy_interval_s, self.sweep, run.duration_s)

    def sweep(self, t: float) -> None:
        run = self.run
        report = self.sweeper.sweep()
        run.results.antientropy_sweeps += 1
        run.results.antientropy_repairs += report.repairs
        for port, count in sorted(report.repairs_by_node.items()):
            # Charge each receiving core the service time of its repair
            # writes (functional copies already landed).  Sweeps repair
            # keys from many writers: no single originating trace.
            mean_bytes = report.bytes_by_node[port] // count
            service = run.request_timing("PUT", mean_bytes).total_s * count
            run.background(
                int(port) - _BASE_TCP_PORT,
                "antientropy",
                service,
                ops=[("PUT", mean_bytes)] * count,
                spans=(("antientropy", t, service, None),),
            )

    def warm(self, request) -> None:
        for port in self.placement.replicas_for(request.key):
            self.run.serve_op(
                int(port) - _BASE_TCP_PORT, request.key, "PUT", request.value_bytes
            )

    def replay_hints(self, index: int) -> None:
        """Replay the copies parked for core ``index`` at its restart."""
        run = self.run
        if not self.config.hinted_handoff:
            return
        hints = self.hints.drain(run.ports[index])
        if not hints:
            return
        replay_service = 0.0
        spans = []
        for hint in hints:
            run.serve_op(index, hint.key, "PUT", hint.payload)
            service = run.request_timing("PUT", hint.payload).total_s
            # Replay work follows from the PUT that parked the hint;
            # laid out back-to-back as the burst occupies the core.
            spans.append(
                ("handoff_replay", run.sim.now + replay_service, service, hint.trace_id)
            )
            replay_service += service
        run.results.hints_replayed += len(hints)
        # Replay occupies the restarted core like one back-to-back burst
        # of stack-internal PUTs.
        run.background(
            index,
            "hint_replay",
            replay_service,
            ops=[("PUT", hint.payload) for hint in hints],
            spans=spans,
        )

    # --- reads ---

    def read_port(self, key: bytes, attempt: int) -> str:
        """Walk the key's preferred list, skipping failed-over members;
        retries rotate to the next replica instead of hammering the
        same node."""
        preferred = self.placement.replicas_for(key)
        candidates = [
            p for p in preferred if p not in self.run.failed_over
        ] or list(preferred)
        return candidates[attempt % len(candidates)]

    def read(self, request, state, core_index: int, hit: bool, response_len: int):
        """The replicated extras of a GET served at ``core_index``: read
        repair, cache-aside refill of every live replica, and the
        redirected-read count; returns the read's ``(hit, reply bytes)``."""
        run = self.run
        key, size = request.key, request.value_bytes
        preferred = self.placement.replicas_for(key)
        if not hit:
            # Quorum read: the coordinator consults R replicas and any
            # copy answers — a replica that misses while a live peer
            # holds the key is read-repaired with that copy.
            for peer_port in preferred:
                peer_core = int(peer_port) - _BASE_TCP_PORT
                if peer_core == core_index or peer_core in run.down_cores:
                    continue
                if run.system.servers[peer_core].store.peek(key) is None:
                    continue
                hit, response_len = run.serve_op(peer_core, key, "GET", size)
                if hit:
                    run.serve_op(core_index, key, "PUT", size)
                    run.results.read_repairs += 1
                    self.read_repairs_total.inc()
                    # The repair write occupies the lagging core.
                    service = run.request_timing("PUT", size).total_s
                    run.background(
                        core_index,
                        "read_repair",
                        service,
                        ops=(("PUT", size),),
                        spans=(("read_repair", run.sim.now, service, state["trace"]),),
                    )
                break
        if run.fill_on_miss and not hit:
            for fill_port in preferred:
                fill_core = int(fill_port) - _BASE_TCP_PORT
                if fill_core not in run.down_cores:
                    run.serve_op(fill_core, key, "PUT", size)
        if run.ports[core_index] != preferred[0]:
            run.results.redirected_reads += 1
            self.redirected_total.inc()
        return hit, response_len

    def verify(self, request, state, port: str) -> None:
        """Read-quorum cost: the coordinator also consults ``r - 1``
        more replicas.  Their replies don't gate the RTT (the fastest
        copy answers the caller) but the reads occupy those cores."""
        run = self.run
        if self.config.r == 1 or state.get("verified", False):
            return
        state["verified"] = True
        extra = 0
        for verify_port in self.placement.replicas_for(request.key):
            if extra == self.config.r - 1:
                break
            if verify_port == port:
                continue
            verify_core = int(verify_port) - _BASE_TCP_PORT
            if verify_core in run.down_cores:
                continue
            service = run.request_timing("GET", request.value_bytes).total_s
            if run.tracer.enabled:
                # Parked until the winning attempt commits; the service
                # interval is known now, the queue wait is deliberately
                # ignored (the reply does not gate the caller).
                state.setdefault("verify_spans", []).append(
                    (run.sim.now, service, verify_core)
                )
            run.background(
                verify_core, "verify_read", service,
                ops=(("GET", request.value_bytes),),
            )
            run.results.verify_reads += 1
            self.verify_total.inc()
            extra += 1

    def hedge_target(self, key: bytes, port: str) -> str | None:
        """The first live replica after ``port`` in the key's preferred
        list (None if there is none)."""
        preferred = self.placement.replicas_for(key)
        start = preferred.index(port) if port in preferred else -1
        for offset in range(1, len(preferred)):
            candidate = preferred[(start + offset) % len(preferred)]
            if self.run.system._core_index(candidate) not in self.run.down_cores:
                return candidate
        return None

    # --- writes ---

    def dispatch_put(self, request, state, attempt: int) -> None:
        """Fan a logical PUT to its preferred list (W-quorum)."""
        state["attempts"] = attempt + 1
        preferred = self.placement.replicas_for(request.key)
        self.put_seq += 1
        state["copies"] = {
            "acks": 0,
            "resolved": 0,
            "total": len(preferred),
            "need": min(self.config.w, len(preferred)),
        }
        for port in preferred:
            self.send_copy(request, state, port, self.put_seq)

    def send_copy(self, request, state, port: str, version: int) -> None:
        """Fan one physical copy of a PUT to one replica core."""
        run = self.run
        core_index = int(port) - _BASE_TCP_PORT
        down = core_index in run.down_cores
        if run.lost(core_index):
            if down and self.config.hinted_handoff:
                trace = state["trace"]
                if self.hints.park(
                    port,
                    request.key,
                    version,
                    request.value_bytes,
                    trace_id=trace.request_id if run.tracer.enabled else None,
                ):
                    run.results.hints_queued += 1
                    if run.tracer.enabled and trace.end_s is None:
                        # An instant producer span: the copy was parked,
                        # its replay follows from this trace at the
                        # node's restart.
                        trace.add_span(
                            "hint", run.sim.now, 0.0, kind="producer",
                            node=run.node_labels[core_index], stack=run.stack_label,
                        )
            run.note_timeout(port)
            timeout = run.policy.request_timeout_s if run.policy is not None else 0.0
            run.sim.schedule(
                timeout,
                lambda: self.copy_resolved(request, state, core_index, False, 0.0, 0),
            )
            return
        _hit, response_len = run.serve_op(
            core_index, request.key, "PUT", request.value_bytes
        )
        timing = run.request_timing("PUT", request.value_bytes)
        if run.slowed:
            timing = run.adjust_timing(timing)
        if run.energy is not None:
            # Each physical copy moves over the wire and through memory
            # like its own PUT.
            run.charge_op(run.sim.now, "PUT", request.value_bytes)
        run.results.replica_puts += 1
        self.writes_total.inc()
        run.cores[core_index].submit(
            timing.total_s,
            partial(
                run.complete, request, state, core_index, "replica", True,
                response_len, timing, None, run.sim.now, 1,
            ),
        )

    def copy_resolved(
        self, request, state, core_index: int, ok: bool, wait: float,
        response_len: int,
    ) -> None:
        """One replica copy of a fanned PUT finished (or timed out)."""
        run = self.run
        copies = state["copies"]
        copies["resolved"] += 1
        if ok:
            copies["acks"] += 1
            if copies["acks"] == copies["need"] and not state["done"]:
                # The W-th ack completes the logical PUT.
                run.complete(
                    request, state, core_index, "quorum", True, response_len,
                    None, None, None, 0, wait,
                )
        if copies["resolved"] == copies["total"] and not state["done"]:
            # Every copy resolved and the quorum never formed.
            attempt = state["attempts"] - 1
            policy = run.policy
            if policy is not None and attempt + 1 < policy.max_attempts:
                run.results.retries += 1
                run.retries_total.inc()
                delay = policy.backoff_s(attempt, run.retry_rng)
                run.sim.schedule(
                    delay, lambda: run.dispatch(request, state, attempt + 1)
                )
            else:
                run.give_up(request, state)


class _Batching:
    """Per-core coalescing of arrivals into one frame (``batch_max > 1``):
    an op joins its core's open batch, which flushes at ``batch_max``
    ops ("size") or when its oldest rider has lingered ``linger_s``."""

    def __init__(self, run: _RunState, policy):
        self.run = run
        self.policy = policy
        registry = run.registry
        n_cores = len(run.cores)
        # One pending-op list per core: the client-side buffer in front
        # of each node's coalesced frame.  ``open_id`` detects stale
        # linger timers — a size flush reopens the buffer and the old
        # timer must not flush the successor batch early.
        self.pending: list[list] = [[] for _ in range(n_cores)]
        self.open_id = [0] * n_cores
        self.flush_total = {
            reason: registry.counter("batch_flushes_total", {"reason": reason})
            for reason in (FLUSH_SIZE, FLUSH_LINGER)
        }
        self.ops_total = registry.counter("batch_ops_total")
        self.size_histogram = registry.histogram(
            "batch_size", min_value=1.0, max_value=float(MAX_BATCH_OPS)
        )

    def fluid_block(self) -> str:
        return "batching"

    def enqueue(self, request, state) -> None:
        """Buffer one arrival behind its key's core; flush on size or
        on the linger deadline, whichever lands first."""
        run = self.run
        if len(run.client_ring) == 0:
            run.give_up(request, state)
            return
        core_index = int(run.client_ring.node_for(request.key)) - _BASE_TCP_PORT
        pending = self.pending[core_index]
        pending.append((request, state))
        if len(pending) >= self.policy.batch_max:
            self.flush(core_index, FLUSH_SIZE)
        elif len(pending) == 1:
            open_id = self.open_id[core_index]

            def linger_fire() -> None:
                if self.open_id[core_index] == open_id:
                    self.flush(core_index, FLUSH_LINGER)

            run.sim.schedule(self.policy.linger_s, linger_fire)

    def flush(self, core_index: int, reason: str) -> None:
        """Ship one core's pending ops as a single coalesced frame."""
        ops = self.pending[core_index]
        if not ops:
            return
        self.pending[core_index] = []
        self.open_id[core_index] += 1
        run = self.run
        # The whole batch rides one packet train: a down core, an
        # injected drop, or a full MAC queue loses every op in it
        # together.  Each op then retries down the serial path —
        # coalescing is a fast path, not a reliability change.
        if run.lost(core_index):
            for request, state in ops:
                run.timed_out(request, state, 0, run.ports[core_index])
            return
        results = run.results
        results.batches += 1
        results.batched_ops += len(ops)
        results.batch_flush_reasons[reason] = (
            results.batch_flush_reasons.get(reason, 0) + 1
        )
        self.flush_total[reason].inc()
        self.ops_total.inc(len(ops))
        self.size_histogram.record(float(len(ops)))
        dispatched = run.sim.now
        batch = (len(ops), reason)
        riders = []
        timing_ops = []
        for request, state in ops:
            state["attempts"] = 1
            state["batch"] = batch
            hit, response_len = run.serve_op(
                core_index, request.key, request.verb, request.value_bytes
            )
            if run.fill_on_miss and request.verb == "GET" and not hit:
                run.serve_op(core_index, request.key, "PUT", request.value_bytes)
            served_bytes = (
                response_len if request.verb == "GET" else request.value_bytes
            )
            if run.energy is not None:
                # Every rider moves its own item and wire payload; only
                # the per-request framing the batch coalesces away is
                # saved (matching batch_timing's model).
                run.charge_op(dispatched, request.verb, served_bytes)
            riders.append((request, state, hit, response_len))
            timing_ops.append((request.verb, served_bytes))
        timing = run.system.model.batch_timing(timing_ops)
        if run.slowed:
            timing = run.adjust_timing(timing)

        def complete(wait: float) -> None:
            # The batch occupies the core once: its component seconds
            # and all riders' served count charge on the first rider,
            # while every rider gets its own RTT back to its arrival.
            served = len(riders)
            for request, state, hit, response_len in riders:
                run.complete(
                    request, state, core_index, "batch", hit, response_len,
                    timing, None, dispatched, served, wait,
                )
                served = 0

        run.cores[core_index].submit(timing.total_s, complete)


class _TieredFlash:
    """A SILT-style tiered store mirrored per core (flash stacks only):
    functional outcomes stay the plain store's, the *cost* becomes the
    tiers' measured flash work, and conversion/compaction land as
    background busy time on the triggering core."""

    def __init__(self, run: _RunState, config):
        self.run = run
        self.flash = run.system.stack.flash
        registry = run.registry
        # One tiered store per core, each seeded off (stack seed, core
        # index) so runs are reproducible and cores differ.
        self.stores = [
            TieredFlashStore(
                self.flash, config, seed=run.system.seed, label=label,
                registry=registry,
            )
            for label in run.node_labels
        ]
        for task in ("conversion", "compaction"):
            run.busy[task] = registry.histogram(
                "background_busy_seconds", {"task": task}
            )

    def fluid_block(self) -> str:
        return "flashstore"

    def warm(self, core_index: int, request) -> None:
        self.stores[core_index].put(
            request.key, self.run.item_overhead + request.value_bytes
        )

    def start_metering(self) -> None:
        # Warmup populated the tiers outside simulated time; meter only
        # the measured run (registry counters start clean).
        for store in self.stores:
            store.reset_stats()
            store.metered = True

    def mirror(self, core_index: int, request, trace):
        """Mirror one op against ``core_index``'s tiered store; returns
        its measured cost."""
        store = self.stores[core_index]
        if request.verb == "GET":
            cost = store.get(request.key)
        else:
            cost = store.put(request.key, self.run.item_overhead + request.value_bytes)
        if cost.background:
            self.charge(core_index, cost.background, trace)
        return cost

    def refill(self, core_index: int, request, trace) -> None:
        """A cache-aside refill lands in the tiers too (free, like the
        plain functional PUT), but any conversion it tips over is real
        background flash work."""
        cost = self.stores[core_index].put(
            request.key, self.run.item_overhead + request.value_bytes
        )
        if cost.background:
            self.charge(core_index, cost.background, trace)

    def charge(self, core_index: int, works, trace) -> None:
        """Charge conversion/compaction flash time to the core that
        triggered it (the tier moves already happened functionally
        inside the store)."""
        run = self.run
        for work in works:
            if run.energy is not None:
                # Tier moves hit the NAND array: every page the move
                # read and rewrote, plus the rewritten pages' amortised
                # share of block erases.
                now = run.sim.now
                run.energy.charge_flash_reads(now, float(work.pages_read))
                run.energy.charge_flash_programs(now, float(work.pages_written))
                run.energy.charge_flash_erases(
                    now, work.pages_written / self.flash.pages_per_block
                )
            run.background(
                core_index,
                work.kind,
                work.service_s,
                spans=((work.kind, run.sim.now, work.service_s, trace),),
            )

    def finalize(self) -> None:
        summary = aggregate_tiered_results(self.stores)
        self.run.results.flashstore = summary
        registry = self.run.registry
        registry.gauge("flashstore_write_amplification").set(
            summary["write_amplification"]
        )
        registry.gauge("flashstore_read_amplification").set(
            summary["read_amplification"]
        )
        registry.gauge("flashstore_index_bytes_per_key").set(
            summary["index_bytes_per_key"]
        )


class _FluidWindows:
    """The fluid windows of one hybrid or fluid run (see
    :meth:`FullSystemStack._run_segments`): when a window may open, which
    cores it holds at DES fidelity, the window's per-request loop and
    the per-step fold of its aggregates."""

    def __init__(self, run: _RunState):
        self.run = run
        self.fidelity = fidelity = run.options.fidelity
        self.hybrid = fidelity.mode == "hybrid"
        self.active = run.registry.gauge("sim_fidelity_fluid_active")
        self.fluid_windows = 0
        self.fluid_seconds = 0.0
        self.fluid_requests = 0
        # ``key_core`` caches the client's key -> core lookup in fluid
        # windows, a pure function of the key while the ring is intact —
        # which every window-entry guard ensures.
        self.key_core: dict[bytes, int] = {}
        # A held core's MAC drops are client timeouts on its port; with
        # failover armed, enough of them would re-route the held core's
        # keys mid-window onto a folded core whose ops for the step
        # already ran.  Such runs hold no core: any core past the guard
        # keeps the whole stack in DES (``saturated``).
        self.can_fail_over = (
            run.policy is not None and run.policy.failover_after is not None
        )
        self.step_limit = fidelity.max_fluid_step_s
        if run.timeseries is not None:
            self.step_limit = min(self.step_limit, run.timeseries.interval_s)
        if run.slo is not None:
            self.step_limit = min(self.step_limit, run.slo.resolution_s)
        diurnal = run.diurnal
        self.diurnal_factor = diurnal.factor if diurnal is not None else None
        from repro.workloads.generator import Request

        self.request_type = Request

    # --- when a window may open --------------------------------------------------

    def tripwire(self, held: dict[int, float]) -> str | None:
        """Hybrid-only signals that the system is *currently* in a
        regime whose event-level dynamics matter."""
        run = self.run
        if run.down_cores:
            return "cores_down"
        # A held core's MAC drops are its exact DES queue overflowing —
        # the regime it is held for.  Each costs one timeout and at most
        # one failure; any loss beyond that is elsewhere.
        results = run.results
        held_drops = sum(run.drops_per_core[core] for core in held)
        if held_drops < max(results.mac_drops, results.fault_timeouts, results.failed):
            return "losses_observed"
        if run.energy is not None and run.energy.derate_factor != 1.0:
            return "thermal_throttle"
        if run.slo is not None and run.slo.active_alerts:
            return "slo_alert"
        return None

    def classify(self) -> tuple[str | None, dict[int, float]]:
        """Why a fluid window may not open right now (None = go), and
        the cores it must hold at DES fidelity."""
        run = self.run
        rtt_hist, wait_hist = run.results.rtt_histogram, run.results.wait_histogram
        des_count = rtt_hist.count
        if des_count < _MIN_CALIBRATION_SAMPLES:
            return "calibration_too_thin", {}
        # Peak-rate utilisation (the diurnal factor only ever lowers the
        # rate, so this bounds it).
        held = held_cores(
            run.arrivals_per_core,
            run.offered_rate_hz,
            (rtt_hist.total - wait_hist.total) / des_count,
            self.fidelity.max_utilization,
            dropped={core for core, n in enumerate(run.drops_per_core) if n},
        )
        if held and (len(held) == len(run.cores) or self.can_fail_over):
            return "saturated", held
        if self.hybrid:
            return self.tripwire(held), held
        return None, held

    # --- the window ----------------------------------------------------------------

    def hold(self, t: float, key: bytes, size: int, is_get: bool) -> float:
        """Hand one held core's request to the DES at its arrival time
        ``t``; returns the next arrival time."""
        run = self.run
        request = self.request_type("GET" if is_get else "PUT", key, size)
        run.sim.schedule_at(t, lambda: run.arrive(request))
        if self.diurnal_factor is None:
            return t + run.rng.expovariate(run.offered_rate_hz)
        return t + run.rng.expovariate(run.offered_rate_hz * self.diurnal_factor(t))

    def window(
        self, seg_start: float, seg_end: float, held: dict[int, float]
    ) -> tuple[str | None, float]:
        """Fast-forward ``[seg_start, seg_end)`` with ``held`` cores at
        DES fidelity; returns the tripwire reason if the window broke
        early (None otherwise) and the simulated time actually covered
        fluidly."""
        run = self.run
        sim = run.sim
        duration_s = run.duration_s
        self.fluid_windows += 1
        self.active.set(1.0)
        if run.arrival_event is not None:
            sim.cancel(run.arrival_event)
            run.arrival_event = None
        nt = run.next_arrival
        # Every folded request gets its exact DES latency for a few
        # float ops: ``free_at[core]`` is when that core's FIFO server
        # next idles, starting from the jobs its DES queue holds now,
        # and each request starts at max(arrival, free_at).  It counts
        # as a completion iff it ends by ``duration_s``, as in DES.
        free_at = [core.drained_at() for core in run.cores]
        service_of: dict[int, float] = {}
        if held:
            # The key cache must not answer for held cores' keys:
            # filtered once here (the copy stays the run's cache), a
            # held core's key misses and takes the slow branch while a
            # folded request still costs one hit.
            self.key_core = {k: c for k, c in self.key_core.items() if c not in held}

        # Hot-loop bindings.
        key_core = self.key_core
        serve_op = run.serve_op
        model_timing = run.request_timing
        node_for = run.client_ring.node_for
        hold = self.hold
        fill_on_miss = run.fill_on_miss
        window_s = run.options.window_s
        offered_rate_hz = run.offered_rate_hz
        _expovariate = run.rng.expovariate
        _next_raw = run.generator.next_raw
        diurnal_factor = self.diurnal_factor
        _service_get = service_of.get

        cursor = seg_start
        broke: str | None = None
        while cursor < seg_end - 1e-12:
            step_end = min(seg_end, cursor + self.step_limit)
            n_req = 0
            hits = misses = puts = resp_bytes = 0
            # Timing and energy are pure functions of (verb, served
            # bytes), so the inner loop only *counts* occurrences per op
            # shape — key ``served << 1 | is_get`` — and the step fold
            # reads each distinct shape's timing and energy activity
            # from the shared memo tables.  A request is counted by how
            # it ends: on an idle core (wait 0 and RTT its shape's
            # service time, so the count is all the histograms need),
            # behind a queue (its exact RTT and wait kept as samples),
            # or past the run's end (not a completion).
            idle_counts: dict[int, int] = {}
            queued_counts: dict[int, int] = {}
            late_counts: dict[int, int] = {}
            core_counts: dict[int, int] = {}
            win_gets: dict[int, int] = {}
            win_hits: dict[int, int] = {}
            step_rtts: list[float] = []
            step_waits: list[float] = []
            _idle_get = idle_counts.get
            _queued_get = queued_counts.get
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
                service = _service_get(op)
                if service is None:
                    service = service_of[op] = model_timing(
                        "GET" if is_get else "PUT", served
                    ).total_s
                start = free_at[core]
                if start < t:
                    start = t
                end = free_at[core] = start + service
                if end > duration_s:
                    late_counts[op] = late_counts.get(op, 0) + 1
                elif start == t:
                    idle_counts[op] = _idle_get(op, 0) + 1
                    core_counts[core] = _core_get(core, 0) + 1
                else:
                    queued_counts[op] = _queued_get(op, 0) + 1
                    core_counts[core] = _core_get(core, 0) + 1
                    step_rtts.append(end - t)
                    step_waits.append(start - t)
                n_req += 1
                if diurnal_factor is None:
                    nt = t + _expovariate(offered_rate_hz)
                else:
                    nt = t + _expovariate(offered_rate_hz * diurnal_factor(t))

            self.fold_step(
                cursor, step_end, n_req, hits, misses, puts, resp_bytes,
                idle_counts, queued_counts, late_counts, core_counts,
                win_gets, win_hits, step_rtts, step_waits, service_of,
            )
            # Let the DES heap run housekeeping (timeseries/SLO/energy
            # ticks) up to the step boundary against the freshened
            # counters.
            sim.run(until=step_end)
            cursor = step_end
            if self.hybrid and cursor < seg_end - 1e-12:
                broke = self.tripwire(held)
                if broke is not None:
                    break

        # Hand each folded core's backlog to its DES queue, so requests
        # after the window wait behind it as they would in DES.  (A core
        # whose pre-window DES jobs outlast the window keeps only those:
        # rare at rho below the guard.)
        for core, until in enumerate(free_at):
            if core not in held and until > sim.now and not run.cores[core].busy:
                run.cores[core].occupy_until(until)
        run.next_arrival = nt
        run.arrival_event = sim.schedule_at(nt, run.arrive)
        self.active.set(0.0)
        return broke, cursor

    def fold_step(
        self, cursor, step_end, n_req, hits, misses, puts, resp_bytes,
        idle_counts, queued_counts, late_counts, core_counts, win_gets,
        win_hits, step_rtts, step_waits, service_of,
    ) -> None:
        """Fold one fluid step's tallies into the results, the registry,
        the SLO monitor and the energy meter.  The step's completions
        are the per-shape ``idle_counts`` (wait 0, RTT the shape's
        ``service_of`` time) plus the queued requests' exact
        ``step_rtts``/``step_waits``."""
        run = self.run
        results = run.results
        energy = run.energy
        model_timing = run.request_timing
        op_activity = run.system._op_activity
        counted_n = n_req - sum(late_counts.values())
        busy_s = 0.0
        comp_hash = comp_mc = comp_net = 0.0
        mem_bytes = wire_bytes = 0.0
        fl_reads = fl_programs = fl_erases = 0.0
        for op in {**idle_counts, **queued_counts, **late_counts}:
            served = op >> 1
            verb = "GET" if op & 1 else "PUT"
            timing = model_timing(verb, served)
            n_counted = idle_counts.get(op, 0) + queued_counts.get(op, 0)
            n = n_counted + late_counts.get(op, 0)
            busy_s += n * timing.total_s
            if n_counted:
                comp_hash += n_counted * timing.hash_s
                comp_mc += n_counted * timing.memcached_s
                comp_net += n_counted * timing.network_s
            if energy is not None:
                mb, wb, fr, fp, fe = op_activity(verb, served)
                mem_bytes += n * mb
                wire_bytes += n * wb
                fl_reads += n * fr
                fl_programs += n * fp
                fl_erases += n * fe

        if hits:
            results.get_hits += hits
            run.hits_total.inc(hits)
        if misses:
            results.get_misses += misses
            run.misses_total.inc(misses)
        if puts:
            results.puts += puts
            run.puts_total.inc(puts)
        if resp_bytes:
            results.response_bytes += resp_bytes
            run.response_bytes_total.inc(resp_bytes)
        if results.window_s is not None:
            for widx, n in win_gets.items():
                results.window_gets.observe_index(widx, float(n))
            for widx, n in win_hits.items():
                results.window_hits.observe_index(widx, float(n))
        if counted_n:
            results.completed += counted_n
            run.completed_total.inc(counted_n)
            results.component_seconds["hash"] += comp_hash
            results.component_seconds["memcached"] += comp_mc
            results.component_seconds["network"] += comp_net
            for core, n in core_counts.items():
                results.per_core_served[core] = results.per_core_served.get(core, 0) + n
                run.served_per_core[core].inc(n)
            if idle_counts:
                rtt_hist = results.rtt_histogram
                buckets: dict[int, int] = {}
                idle_total = 0.0
                for op, n in idle_counts.items():
                    index = rtt_hist.bucket_index(service_of[op])
                    buckets[index] = buckets.get(index, 0) + n
                    idle_total += n * service_of[op]
                services = [service_of[op] for op in idle_counts]
                rtt_hist.record_bucketed(
                    buckets, idle_total, min(services), max(services)
                )
                results.wait_histogram.record_bucketed(
                    {0: sum(idle_counts.values())}, 0.0, 0.0, 0.0
                )
            results.rtt_histogram.record_many(step_rtts)
            results.wait_histogram.record_many(step_waits)

            if run.slo is not None:

                def step_fraction(deadline_s: float) -> float:
                    # The step's exact share within the deadline, judged
                    # per request as the DES SLO does.
                    within = sum(
                        n for op, n in idle_counts.items()
                        if service_of[op] <= deadline_s
                    )
                    within += sum(1 for rtt in step_rtts if rtt <= deadline_s)
                    return within / counted_n

                run.slo.record_bulk(
                    cursor + (step_end - cursor) / 2.0, counted_n, step_fraction
                )
        if energy is not None and n_req:
            energy.charge_core_busy_bulk(cursor, step_end, busy_s)
            energy.charge_memory_bytes_bulk(cursor, step_end, mem_bytes)
            energy.charge_nic_bytes_bulk(cursor, step_end, wire_bytes)
            if fl_reads or fl_programs or fl_erases:
                energy.charge_flash_bulk(
                    cursor, step_end, fl_reads, fl_programs, fl_erases
                )
        self.fluid_requests += n_req
        self.fluid_seconds += step_end - cursor
