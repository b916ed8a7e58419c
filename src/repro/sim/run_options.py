"""The full-system run configuration, as one frozen value object.

``FullSystemStack.run`` historically grew thirteen loose keyword
arguments — unpicklable as a job description and unhashable as a cache
key.  :class:`RunOptions` consolidates them: the *configuration* half
(rates, durations, fault schedules, quorum settings) is plain data that
round-trips exactly through :meth:`to_dict`/:meth:`from_dict`, which is
what lets the experiment engine (:mod:`repro.exp`) ship runs to worker
processes and content-address their results on disk.

The *instrument* half (telemetry session, time-series recorder, SLO
monitor, profiler) is live-object state that observes a run without
changing its outcome.  Instruments ride along on the same options object
for call-site convenience but are excluded from equality and from
serialisation — two options values that differ only in instruments
describe the same simulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ConfigurationError
from repro.faults.resilience import ResiliencePolicy
from repro.faults.schedule import FaultSchedule
from repro.flashstore.compaction import TieredStoreConfig
from repro.kvstore.batching import BatchPolicy
from repro.replication.config import ReplicationConfig
from repro.sim.fidelity import FidelityPolicy
from repro.workloads.diurnal import DiurnalSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.energy import EnergyMeter
    from repro.telemetry.profiler import SimProfiler
    from repro.telemetry.slo import SloMonitor
    from repro.telemetry.timeseries import TimeSeriesRecorder
    from repro.telemetry.tracing import TelemetrySession

#: Serialisable configuration fields, in canonical dict order.
_CONFIG_FIELDS = (
    "offered_rate_hz",
    "duration_s",
    "warmup_requests",
    "keep_samples",
    "window_s",
    "fill_on_miss",
    "faults",
    "resilience",
    "replication",
    "trace_digest",
    "batching",
    "flashstore",
    "energy_summary",
    "diurnal",
    "fidelity",
)

#: Live observers excluded from equality, hashing, and serialisation.
_INSTRUMENT_FIELDS = ("telemetry", "timeseries", "slo", "profiler", "energy")


@dataclass(frozen=True)
class RunOptions:
    """Everything one :meth:`FullSystemStack.run` needs beyond the workload.

    ``offered_rate_hz`` and ``duration_s`` define the Poisson arrival
    process; ``warmup_requests`` PUTs pre-populate the stores outside
    simulated time.  ``faults``/``resilience``/``replication`` carry the
    fault-injection schedule, the client resilience policy, and the
    quorum configuration (all ``None`` = the plain sharded run).
    ``window_s`` buckets GET outcomes into a hit-rate timeline;
    ``fill_on_miss`` models cache-aside refill; ``keep_samples`` retains
    raw latency samples next to the streaming histograms.
    ``trace_digest`` asks the run for a compact causal-trace summary
    (sampling counters + tail critical-path shares) in
    ``FullSystemResults.trace_digest`` — it is configuration, not an
    instrument, because cached experiment cells carry the digest.
    ``flashstore`` (a :class:`~repro.flashstore.TieredStoreConfig`)
    replaces a flash stack's calibrated per-op flash stalls with the
    SILT-style tiered store's measured costs; ``None`` keeps the
    baseline FTL-calibrated path bit-identical to pre-flashstore runs.
    ``energy_summary`` asks the run to meter activity-based energy and
    carry the summary in ``FullSystemResults.energy`` — configuration
    (like ``trace_digest``), because cached experiment cells carry the
    measured watts.  ``diurnal`` (a
    :class:`~repro.workloads.diurnal.DiurnalSchedule`) modulates the
    Poisson arrival rate through a compressed day so power
    proportionality is visible within one run.
    ``fidelity`` (a :class:`~repro.sim.fidelity.FidelityPolicy`) lets the
    run fast-forward steady-state stretches through the fluid model;
    ``None`` keeps the historical pure-DES path (and the historical
    cache keys) bit-identical.

    ``telemetry``/``timeseries``/``slo``/``profiler``/``energy`` are
    instruments:
    they observe without perturbing, never travel through
    :meth:`to_dict`, and are ignored by ``==``.  Attach them with
    :meth:`with_instruments` when reusing a serialised options value.
    """

    offered_rate_hz: float
    duration_s: float
    warmup_requests: int = 0
    keep_samples: bool = False
    window_s: float | None = None
    fill_on_miss: bool = False
    faults: FaultSchedule | None = None
    resilience: ResiliencePolicy | None = None
    replication: ReplicationConfig | None = None
    trace_digest: bool = False
    batching: BatchPolicy | None = None
    flashstore: TieredStoreConfig | None = None
    energy_summary: bool = False
    diurnal: DiurnalSchedule | None = None
    fidelity: FidelityPolicy | None = None
    telemetry: "TelemetrySession | None" = field(
        default=None, compare=False, repr=False
    )
    timeseries: "TimeSeriesRecorder | None" = field(
        default=None, compare=False, repr=False
    )
    slo: "SloMonitor | None" = field(default=None, compare=False, repr=False)
    profiler: "SimProfiler | None" = field(
        default=None, compare=False, repr=False
    )
    energy: "EnergyMeter | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.offered_rate_hz <= 0 or self.duration_s <= 0:
            raise ConfigurationError("rate and duration must be positive")
        if self.warmup_requests < 0:
            raise ConfigurationError("warmup_requests cannot be negative")
        if self.window_s is not None and self.window_s <= 0:
            raise ConfigurationError("window_s must be positive")

    # --- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """The configuration half as a JSON-safe dict (instruments are
        runtime-only and never serialised)."""
        payload: dict[str, Any] = {
            "offered_rate_hz": self.offered_rate_hz,
            "duration_s": self.duration_s,
            "warmup_requests": self.warmup_requests,
            "keep_samples": self.keep_samples,
            "window_s": self.window_s,
            "fill_on_miss": self.fill_on_miss,
            "faults": self.faults.to_dict() if self.faults else None,
            "resilience": (
                dataclasses.asdict(self.resilience) if self.resilience else None
            ),
            "replication": (
                dataclasses.asdict(self.replication) if self.replication else None
            ),
        }
        if self.trace_digest:
            # Only serialised when set: dicts (and therefore experiment
            # cache keys) for digest-free runs stay byte-identical to
            # those written before the field existed.
            payload["trace_digest"] = True
        if self.batching is not None:
            # Same conditional-serialisation rule as trace_digest, same
            # reason: batch-free cache keys must not change.
            payload["batching"] = self.batching.to_dict()
        if self.flashstore is not None:
            # Same conditional-serialisation rule again: runs without
            # the tiered store keep their pre-flashstore cache keys.
            payload["flashstore"] = self.flashstore.to_dict()
        if self.energy_summary:
            # Conditional for the same cache-key stability reason.
            payload["energy_summary"] = True
        if self.diurnal is not None:
            payload["diurnal"] = self.diurnal.to_dict()
        if self.fidelity is not None:
            # Conditional like the rest: fidelity-free runs keep their
            # historical cache keys, and fidelity IS part of the key —
            # a hybrid cell's provenance and bulk energy/SLO folds are
            # not a full-DES cell's, so the two must never alias.
            payload["fidelity"] = self.fidelity.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunOptions":
        """Rebuild options from :meth:`to_dict` output (exact round trip)."""
        unknown = set(payload) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown RunOptions fields {sorted(unknown)}"
            )
        data = dict(payload)
        for key in ("offered_rate_hz", "duration_s"):
            if key not in data:
                raise ConfigurationError(f"RunOptions dict needs {key!r}")
        faults = data.get("faults")
        if faults is not None and not isinstance(faults, FaultSchedule):
            faults = FaultSchedule.from_dict(faults)
        resilience = data.get("resilience")
        if resilience is not None and not isinstance(resilience, ResiliencePolicy):
            resilience = ResiliencePolicy(**resilience)
        replication = data.get("replication")
        if replication is not None and not isinstance(
            replication, ReplicationConfig
        ):
            replication = ReplicationConfig(**replication)
        batching = data.get("batching")
        if batching is not None and not isinstance(batching, BatchPolicy):
            batching = BatchPolicy.from_dict(batching)
        flashstore = data.get("flashstore")
        if flashstore is not None and not isinstance(
            flashstore, TieredStoreConfig
        ):
            flashstore = TieredStoreConfig.from_dict(flashstore)
        diurnal = data.get("diurnal")
        if diurnal is not None and not isinstance(diurnal, DiurnalSchedule):
            diurnal = DiurnalSchedule.from_dict(diurnal)
        fidelity = data.get("fidelity")
        if fidelity is not None and not isinstance(fidelity, FidelityPolicy):
            fidelity = FidelityPolicy.from_dict(fidelity)
        return cls(
            offered_rate_hz=data["offered_rate_hz"],
            duration_s=data["duration_s"],
            warmup_requests=data.get("warmup_requests", 0),
            keep_samples=data.get("keep_samples", False),
            window_s=data.get("window_s"),
            fill_on_miss=data.get("fill_on_miss", False),
            faults=faults,
            resilience=resilience,
            replication=replication,
            trace_digest=data.get("trace_digest", False),
            batching=batching,
            flashstore=flashstore,
            energy_summary=data.get("energy_summary", False),
            diurnal=diurnal,
            fidelity=fidelity,
        )

    # --- ergonomics ---------------------------------------------------------

    @property
    def has_instruments(self) -> bool:
        return any(
            getattr(self, name) is not None for name in _INSTRUMENT_FIELDS
        )

    def with_instruments(
        self,
        telemetry: "TelemetrySession | None" = None,
        timeseries: "TimeSeriesRecorder | None" = None,
        slo: "SloMonitor | None" = None,
        profiler: "SimProfiler | None" = None,
        energy: "EnergyMeter | None" = None,
    ) -> "RunOptions":
        """A copy with the given live observers attached (None = keep)."""
        return dataclasses.replace(
            self,
            telemetry=telemetry if telemetry is not None else self.telemetry,
            timeseries=timeseries if timeseries is not None else self.timeseries,
            slo=slo if slo is not None else self.slo,
            profiler=profiler if profiler is not None else self.profiler,
            energy=energy if energy is not None else self.energy,
        )

    def without_instruments(self) -> "RunOptions":
        """A copy with every instrument detached (the serialisable core)."""
        return dataclasses.replace(
            self,
            telemetry=None,
            timeseries=None,
            slo=None,
            profiler=None,
            energy=None,
        )
