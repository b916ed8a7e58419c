"""Outside-in span recorder for the traced benchmark run.

Nothing under ``src/`` knows about it.  :meth:`SpanRecorder.install`
replaces each layer's public functions, at the name their caller looks
them up by, with a timing wrapper:

* methods are patched on their class, so a bound method taken inside
  ``FullSystemStack.run`` (the fluid path binds ``store.get`` and
  ``model.request_timing`` when its windows open) resolves to the
  wrapper as long as the patch is in place before ``run()`` starts;
* ``full_system`` imports ``request_wire_payloads`` and
  ``wire_bytes_for_payload`` by name, so those are patched on the
  ``repro.sim.full_system`` module, which counts only the calls made
  from there.

Each wrapper adds to its layer's call count and self time in place.  Self time is a call's duration minus the time covered by the
wrapped calls nested inside it, so the engine's self time is the event
loop plus the ``full_system`` callback glue between wrapped calls.

Whole spans (name, start, end, parent, request id) are kept only for a
bounded sample of requests.  The request id is the sequence number of
the generator draw that created the request; a queue completion runs
under the id of the request that submitted the job.  Work started by a
timer (anti-entropy, linger, retries) is attributed to the most recent
draw, so ids of such spans are approximate.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

#: layer -> [(module, class or None, function names or None = public)]
LAYERS = {
    "engine": [("repro.sim.events", "Simulator", ["run"])],
    "fold": [("repro.sim.full_system", "FullSystemStack", ["run"])],
    "protocol": [("repro.kvstore.server_loop", "Connection", ["feed"])],
    "store": [("repro.kvstore.store", "KVStore", ["get", "set", "delete"])],
    "latency": [
        (
            "repro.core.latency_model",
            "LatencyModel",
            ["request_timing", "request_timing_tiered", "batch_timing"],
        )
    ],
    "packets": [
        (
            "repro.sim.full_system",
            None,
            ["request_wire_payloads", "wire_bytes_for_payload"],
        )
    ],
    "generator": [
        (
            "repro.workloads.generator",
            "WorkloadGenerator",
            ["next_request", "next_raw"],
        )
    ],
    "ring": [("repro.kvstore.consistent_hash", "ConsistentHashRing", ["node_for"])],
    "resources": [("repro.sim.resources", "FifoResource", ["submit"])],
    "energy": [("repro.telemetry.energy", "EnergyMeter", "charge_")],
    "slo": [("repro.telemetry.slo", "SloMonitor", ["record", "record_bulk"])],
    "histogram": [("repro.telemetry.metrics", "StreamingHistogram", ["record"])],
    "placement": [("repro.replication.placement", "ReplicaPlacement", None)],
    "handoff": [("repro.replication.handoff", "HintQueue", None)],
    "antientropy": [("repro.replication.antientropy", "AntiEntropySweeper", None)],
    "flashstore": [
        ("repro.flashstore.compaction", "TieredFlashStore", ["put", "get"])
    ],
}

ROOT_LAYERS = ("engine", "fold")
#: Whole spans are kept for one request in this many ...
SAMPLE_EVERY = 251
#: ... up to this many spans in all.
MAX_SPANS = 20_000


def _targets(owner, names):
    """Plain functions of ``owner`` to wrap: those of the listed names
    it has, every name with a given prefix, or (``None``) every public
    one.  A layer whose functions are gone reports zero calls."""
    found = []
    for name, value in vars(owner).items():
        if not inspect.isfunction(value):
            continue  # properties, static and class methods stay as they are
        if names is None:
            keep = not name.startswith("_")
        elif isinstance(names, str):
            keep = name.startswith(names)
        else:
            keep = name in names
        if keep:
            found.append(name)
    return found


class SpanRecorder:
    """Per-layer call counts and self time, plus sampled spans."""

    def __init__(self):
        self.layers = {name: [0, 0.0] for name in LAYERS}  # calls, self s
        self.spans: list[list] = []
        self.sims: list = []
        self.latency_args: set = set()
        self.waits = [0, 0.0]  # jobs completed, simulated wait seconds
        self._stack: list[list] = []  # [child seconds, span index or None]
        self._rid = 0
        self._sampling = False
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # --- request ids -------------------------------------------------------------

    def _set_rid(self, rid: int) -> None:
        self._rid = rid
        self._sampling = (
            rid % SAMPLE_EVERY == 0 and len(self.spans) < MAX_SPANS
        )

    # --- wrapping ---------------------------------------------------------------

    def _timed(self, layer: str, name: str, fn):
        acc = self.layers[layer]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        recorder = self
        # The engine and fold spans enclose whole runs, so they are
        # always kept: sampled request spans find their parent in them.
        always = layer in ROOT_LAYERS

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if recorder._sampling or (
                always and len(spans) < MAX_SPANS
            ):
                frame[1] = recorder._open(name)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                acc[0] += 1
                acc[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if frame[1] is not None:
                    spans[frame[1]][2] = t1 - recorder._t0

        return wrapper

    def _open(self, name: str) -> int:
        parent = None
        for frame in reversed(self._stack):
            if frame[1] is not None:
                parent = frame[1]
                break
        self.spans.append(
            [name, time.perf_counter() - self._t0, None, parent, self._rid]
        )
        return len(self.spans) - 1

    def _hooked(self, layer: str, name: str, fn):
        """``fn`` with the layer's side observations, before timing."""
        recorder = self
        if layer == "generator":

            def draw(*args, **kwargs):
                result = fn(*args, **kwargs)
                recorder._set_rid(recorder._rid + 1)
                return result

            return draw
        if layer == "engine":

            def run(sim, *args, **kwargs):
                if not any(s is sim for s in recorder.sims):
                    recorder.sims.append(sim)
                return fn(sim, *args, **kwargs)

            return run
        if layer == "latency":
            seen = self.latency_args

            def timing(model, *args, **kwargs):
                try:
                    seen.add((name, args, tuple(sorted(kwargs.items()))))
                except TypeError:  # unhashable batch op lists
                    seen.add((name, repr(args), repr(sorted(kwargs.items()))))
                return fn(model, *args, **kwargs)

            return timing
        if layer == "resources":
            waits = self.waits

            def submit(resource, service_time, on_complete):
                rid = recorder._rid

                def complete(wait):
                    waits[0] += 1
                    waits[1] += wait
                    outer = recorder._rid
                    recorder._set_rid(rid)
                    try:
                        on_complete(wait)
                    finally:
                        recorder._set_rid(outer)

                return fn(resource, service_time, complete)

            return submit
        return fn

    def install(self) -> "SpanRecorder":
        """Patch every layer's functions; undo with :meth:`uninstall`."""
        for layer, sites in LAYERS.items():
            for module_name, class_name, names in sites:
                module = importlib.import_module(module_name)
                if class_name is None:
                    owner = module
                    targets = [n for n in names if hasattr(module, n)]
                else:
                    owner = getattr(module, class_name)
                    targets = _targets(owner, names)
                for name in targets:
                    original = vars(owner)[name]
                    label = name if class_name is None else f"{class_name}.{name}"
                    wrapped = self._timed(
                        layer, label, self._hooked(layer, label, original)
                    )
                    self._patches.append((owner, name, original))
                    setattr(owner, name, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # --- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """``<layer>.calls`` / ``<layer>.self_s`` plus layer extras."""
        out: dict[str, float] = {}
        for layer, (calls, self_s) in self.layers.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        out["engine.events"] = sum(sim.events_processed for sim in self.sims)
        calls = self.layers["latency"][0]
        out["latency.distinct_ratio"] = (
            len(self.latency_args) / calls if calls else 0.0
        )
        jobs, wait_s = self.waits
        out["resources.wait_sim_s_mean"] = wait_s / jobs if jobs else 0.0
        return out

    def write_spans(self, path) -> int:
        """Write the sampled spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "request": rid,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)
