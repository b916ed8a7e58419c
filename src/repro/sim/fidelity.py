"""Hybrid DES/fluid fidelity policy and segment planning.

The discrete-event simulator executes every request; that is the right
tool around *interesting* intervals — fault injections, SLO burns,
replication churn, thermal throttles — and three orders of magnitude too
expensive for the steady-state stretches between them.  "When to use 3D
Die-Stacked Memory for Bandwidth-Constrained Big Data Workloads" makes
the matching observation for analytic models: steady-state questions do
not need event-level replay.

:class:`FidelityPolicy` configures when the full-system model may
*fast-forward*: requests in a fluid window are still drawn one by one
from the same RNG stream and executed functionally against the same
stores (so hit/miss outcomes, store contents, and the RNG state at the
next DES window are bit-identical to a pure-DES run), but the per-request
event machinery — heap events, FIFO core queues, tracing — is replaced by
each core's FIFO recursion (a few float ops per request, giving exactly
the RTT and wait its DES queue would) and by per-step aggregates folded
into the same accounting (:class:`~repro.sim.full_system.FullSystemResults`,
``WindowedSeries`` timelines, the ``EnergyMeter`` ledger).

Modes
-----
``full``
    Pure DES; the policy is inert.  Bit-identical to runs that never
    mention fidelity.
``hybrid``
    DES inside guard-banded fault windows and an initial calibration
    segment; fluid fast-forward through the quiescent complement, with
    runtime tripwires (SLO alert, thermal derate, losses other than a
    held core's own MAC drops) dropping a window back to DES.
``fluid``
    Like ``hybrid`` but without the runtime tripwires — maximum speed
    for workloads the caller already knows are quiescent.  Fault windows
    and calibration still run as DES.

Guard bands and validity
------------------------
Fluid folding assumes the per-core queues are in steady state.  That
fails (a) around fault transitions, so each DES island is widened by
``guard_band_s`` on both sides; and (b) on saturated queues, which is
decided per core.  Each fluid window first picks its *held* cores
(:func:`held_cores`): any core whose calibrated utilisation exceeds
``max_utilization``, and any core that already overflowed its MAC
buffer.  A held core's requests are dispatched into the DES at their
arrival times, so its queue, drops and tail stay exact, while every
other core is folded — with its FIFO delays computed per request, so
the whole window's latency stays exact too.  Only when every core is
held, or when the client may fail a held core's port over mid-window
(its keys would move onto a folded core), does the window stay DES
(fallback reason ``saturated``).  Under memcached's default 0.99 key
skew the hottest key pins one core past the guard at realistic rates;
that one core no longer takes the whole stack back to DES.
Structural features whose event-level interleaving *is* the phenomenon
under study (replication quorums, batching, the tiered flashstore,
request hedging, causal tracing) disable fast-forward for the whole run
— the run silently degrades to ``full`` and records why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.faults.schedule import FaultSchedule
from repro.telemetry.metrics import describe_metric

#: Accepted fidelity modes.
MODES = ("full", "fluid", "hybrid")

describe_metric(
    "sim_fidelity_fluid_windows_total",
    "Fluid fast-forward windows entered by the hybrid simulation core",
)
describe_metric(
    "sim_fidelity_fluid_seconds_total",
    "Simulated seconds covered by fluid fast-forward instead of DES",
)
describe_metric(
    "sim_fidelity_des_seconds_total",
    "Simulated seconds executed at full DES fidelity",
)
describe_metric(
    "sim_fidelity_fluid_requests_total",
    "Requests executed functionally inside fluid fast-forward windows",
)
describe_metric(
    "sim_fidelity_fluid_active",
    "1 while the run is inside a fluid fast-forward window, else 0",
)

#: Serialisable fields, in canonical dict order.
_FIELDS = (
    "mode",
    "guard_band_s",
    "calibration_s",
    "min_fluid_window_s",
    "max_fluid_step_s",
    "max_utilization",
)


@dataclass(frozen=True)
class FidelityPolicy:
    """When and how aggressively a run may fast-forward.

    ``guard_band_s`` widens every fault-derived DES island on both
    sides; ``calibration_s`` is the DES prefix that measures the mean
    service time and per-core load split; fluid candidates shorter
    than ``min_fluid_window_s`` stay DES (not worth the mode switch);
    fluid windows advance in steps of at most ``max_fluid_step_s`` so
    housekeeping ticks (timeseries, SLO, energy, faults) observe fresh
    aggregates at their own cadence; ``max_utilization`` is the
    calibrated per-core load above which a core is held at DES
    fidelity (see :func:`held_cores`).
    """

    mode: str = "hybrid"
    guard_band_s: float = 0.05
    calibration_s: float = 0.05
    min_fluid_window_s: float = 0.05
    max_fluid_step_s: float = 0.1
    max_utilization: float = 0.9

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"fidelity mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.guard_band_s < 0:
            raise ConfigurationError("guard_band_s cannot be negative")
        if self.calibration_s <= 0:
            raise ConfigurationError("calibration_s must be positive")
        if self.min_fluid_window_s <= 0:
            raise ConfigurationError("min_fluid_window_s must be positive")
        if self.max_fluid_step_s <= 0:
            raise ConfigurationError("max_fluid_step_s must be positive")
        if not 0.0 < self.max_utilization < 1.0:
            raise ConfigurationError("max_utilization must be in (0, 1)")

    # --- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FidelityPolicy":
        unknown = set(payload) - set(_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown FidelityPolicy fields {sorted(unknown)}"
            )
        return cls(**dict(payload))


def plan_segments(
    policy: FidelityPolicy,
    faults: FaultSchedule | None,
    duration_s: float,
) -> list[tuple[float, float, str]]:
    """Split ``[0, duration_s]`` into ordered ``(start, end, kind)`` segments.

    ``kind`` is ``"des"`` or ``"fluid"``.  DES islands are the initial
    calibration prefix plus every fault-schedule interval widened by the
    guard band; the complement becomes fluid wherever it is at least
    ``min_fluid_window_s`` long.  In ``full`` mode the whole run is one
    DES segment.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if policy.mode == "full":
        return [(0.0, duration_s, "des")]

    islands: list[tuple[float, float]] = [(0.0, min(policy.calibration_s, duration_s))]
    if policy.guard_band_s > 0:
        # The run end is a boundary too: requests arriving within the
        # last guard band may or may not complete before the clock runs
        # out; a trailing island keeps that boundary in DES.
        islands.append((max(0.0, duration_s - policy.guard_band_s), duration_s))
    if faults is not None:
        for start, end in fault_intervals(faults):
            islands.append(
                (
                    max(0.0, start - policy.guard_band_s),
                    min(duration_s, end + policy.guard_band_s),
                )
            )
    islands.sort()
    merged: list[list[float]] = []
    for start, end in islands:
        if start >= duration_s or end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, min(end, duration_s)])

    segments: list[tuple[float, float, str]] = []
    cursor = 0.0
    for start, end in merged:
        if start > cursor:
            segments.append((cursor, start, "fluid"))
        segments.append((start, end, "des"))
        cursor = end
    if cursor < duration_s:
        segments.append((cursor, duration_s, "fluid"))

    # Short fluid slivers are not worth the mode switch: merge them into
    # their neighbouring DES segments.
    cleaned: list[tuple[float, float, str]] = []
    for start, end, kind in segments:
        if kind == "fluid" and end - start < policy.min_fluid_window_s:
            kind = "des"
        if cleaned and cleaned[-1][2] == kind:
            cleaned[-1] = (cleaned[-1][0], end, kind)
        else:
            cleaned.append((start, end, kind))
    return cleaned


def held_cores(
    arrivals_per_core: Sequence[int],
    offered_rate_hz: float,
    mean_service_s: float,
    max_utilization: float,
    dropped: Collection[int] = (),
) -> dict[int, float]:
    """The cores a fluid window must keep at DES fidelity, with their
    calibrated utilisation ``{core: rho}``.

    A core's utilisation is the offered rate times its share of the
    observed *arrivals* times the mean service time.  Arrivals, not
    completions: a saturated core's dropped and still-queued requests
    are missing from its completions, so a completion share would read
    the hottest core low exactly when it matters.  With no arrivals
    observed the load is taken as evenly split.  A core is held when its
    utilisation exceeds ``max_utilization`` (strictly) or it is in
    ``dropped`` (it already overflowed its MAC buffer).
    """
    total = sum(arrivals_per_core)
    even_share = 1.0 / len(arrivals_per_core) if arrivals_per_core else 0.0
    held: dict[int, float] = {}
    for core, arrivals in enumerate(arrivals_per_core):
        share = arrivals / total if total else even_share
        rho = offered_rate_hz * share * mean_service_s
        if rho > max_utilization or core in dropped:
            held[core] = rho
    return held


def fault_intervals(faults: FaultSchedule) -> list[tuple[float, float]]:
    """The time spans during which a fault schedule perturbs the system.

    Crash/restart pairs span crash→restart (an unmatched crash extends
    to infinity); window faults (loss, corruption, degradation,
    wear-out) span ``at_s``→``until_s``.
    """
    spans: list[tuple[float, float]] = []
    open_crashes: dict[str, float] = {}
    for event in faults.events:  # already sorted by at_s
        if event.kind == "node_crash":
            open_crashes[event.node] = event.at_s
        elif event.kind == "node_restart":
            start = open_crashes.pop(event.node, event.at_s)
            spans.append((start, event.at_s))
        else:
            spans.append((event.at_s, event.until_s))
    # Unmatched crashes keep their node down for the rest of the run.
    for start in open_crashes.values():
        spans.append((start, float("inf")))
    return spans
