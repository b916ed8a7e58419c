"""Run one benchmark workload once, in this process, and report it.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload NAME --seed N --t0 MONOTONIC
        [--trace SPANS.jsonl]

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports and
stack and workload construction up to the ``run()`` call.  Prints one
JSON object: host timings, peak RSS, the model's exact-repeat counts,
the failed correctness checks and, when traced, the layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def calibration_loop() -> float:
    """Host seconds for a fixed pure-Python loop (machine drift probe)."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


#: Unit of each ``model.*`` count that :func:`model_counts` reports.
MODEL_UNITS = {
    "model.completed": "count",
    "model.failed": "count",
    "model.mac_drops": "count",
    "model.get_hits": "count",
    "model.get_misses": "count",
    "model.puts": "count",
    "model.response_bytes": "B",
    "model.rtt_p50_us": "us",
    "model.rtt_p99_us": "us",
    "model.replica_puts": "count",
    "model.hints_replayed": "count",
    "model.antientropy_repairs": "count",
    "model.fault_timeouts": "count",
    "model.retries": "count",
    "model.joules_per_op": "J",
}


def model_counts(results) -> dict:
    """Simulated outcomes that repeat exactly for a given seed."""
    return {
        "model.completed": results.completed,
        "model.failed": results.failed,
        "model.mac_drops": results.mac_drops,
        "model.get_hits": results.get_hits,
        "model.get_misses": results.get_misses,
        "model.puts": results.puts,
        "model.response_bytes": results.response_bytes,
        "model.rtt_p50_us": results.rtt_percentile(0.50) * 1e6,
        "model.rtt_p99_us": results.rtt_percentile(0.99) * 1e6,
        "model.replica_puts": results.replica_puts,
        "model.hints_replayed": results.hints_replayed,
        "model.antientropy_repairs": results.antientropy_repairs,
        "model.fault_timeouts": results.fault_timeouts,
        "model.retries": results.retries,
        "model.joules_per_op": results.joules_per_op,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", default=None, help="write sampled spans here")
    args = parser.parse_args()

    import workloads

    system, workload, options = workloads.build(args.workload, args.seed)
    recorder = None
    if args.trace is not None:
        from spans import SpanRecorder

        recorder = SpanRecorder().install()
    setup_s = time.monotonic() - args.t0
    calib_s = calibration_loop()
    start = time.perf_counter()
    results = system.run(workload, options)
    run_s = time.perf_counter() - start
    if recorder is not None:
        recorder.uninstall()

    fidelity = results.fidelity or {}
    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calib_s": calib_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "model": model_counts(results),
        "failed_checks": workloads.checks(args.workload, system, results),
        "fidelity": {
            "fidelity.fluid_share": workloads.fluid_share(results),
            "fidelity.fluid_requests": fidelity.get(
                "sim_fidelity_fluid_requests_total", 0
            ),
        },
        "flashstore": {
            "flashstore.write_amp": (results.flashstore or {}).get(
                "write_amplification", 0.0
            ),
            "flashstore.read_amp": (results.flashstore or {}).get(
                "read_amplification", 0.0
            ),
        },
    }
    if recorder is not None:
        report["layers"] = recorder.metrics()
        report["spans_written"] = recorder.write_spans(args.trace)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
