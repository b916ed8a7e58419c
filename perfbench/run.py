"""The simulator benchmark: host cost of four canonical simulated cells.

Usage, from the repository root::

    python3 perfbench/run.py --workload enclosure-hot --seed 1 \\
        --seconds 20 --trace 0

Each sample is one fresh process (``perfbench/child.py``) that builds
one workload from ``--seed`` and calls ``FullSystemStack.run`` once, on
one thread.  Samples run one after another until ``--seconds`` have
passed (at least three untraced ones), and each metric is the median
over the samples.  All samples share the seed, so they must report
identical simulated outcomes; that, and each workload's own checks in
``perfbench/workloads.py``, decide ``correct``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics: the
traced sample times every call into each layer's public functions from
outside (``perfbench/spans.py``) and writes its sampled spans to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the simulated requests of the timed samples; when a check fails,
all of them count as ``failed``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import MODEL_UNITS
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Untraced samples a run takes even when ``--seconds`` runs out first.
MIN_SAMPLES = 3
#: A run must end within this many host seconds.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "sim_req_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_ok_ratio": "ratio",
}

def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "engine.events": "count",
            "fidelity.fluid_share": "ratio",
            "fidelity.fluid_requests": "count",
            "latency.distinct_ratio": "ratio",
            "resources.wait_sim_s_mean": "s",
            "flashstore.write_amp": "ratio",
            "flashstore.read_amp": "ratio",
        }
    )
    units.update(MODEL_UNITS)
    units["trace.overhead_ratio"] = "ratio"
    units["host.calib_s"] = "s"
    return units


class SampleFailed(Exception):
    """A sample process crashed, timed out or printed no report."""


def run_sample(workload: str, seed: int, deadline: float, trace: bool) -> dict:
    """One fresh process running ``workload`` once; returns its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if trace:
        OUT.mkdir(exist_ok=True)
        command += ["--trace", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise SampleFailed("sample timed out") from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SampleFailed(f"sample exited with code {done.returncode}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SampleFailed("sample printed no report") from None


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """(untraced samples, traced samples) for ``seconds`` of host time."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(run_sample(workload, seed, deadline, trace=False))
        if trace:
            traced.append(run_sample(workload, seed, deadline, trace=True))
        elapsed = time.monotonic() - start
        sys.stderr.write(
            f"{workload} sample {len(plain)}: run {plain[-1]['run_s']:.3f} s"
            + (f", traced {traced[-1]['run_s']:.3f} s" if trace else "")
            + f" (elapsed {elapsed:.1f} s)\n"
        )
        enough = trace or len(plain) >= MIN_SAMPLES
        if enough and elapsed >= seconds:
            return plain, traced


def verdict(samples: list[dict]) -> list[str]:
    """Failed correctness checks over all samples of one seed."""
    problems = sorted({c for s in samples for c in s["failed_checks"]})
    reference = samples[0]["model"]
    if any(s["model"] != reference for s in samples[1:]):
        problems.append("same-seed samples disagree on model counts")
    return problems


def end_to_end(plain: list[dict], ok: bool) -> dict[str, float]:
    model = plain[0]["model"]
    attempted = model["model.completed"] + model["model.failed"]
    return {
        "sim_req_per_s": statistics.median(
            s["model"]["model.completed"] / s["run_s"] for s in plain
        ),
        "setup_s": statistics.median(s["setup_s"] for s in plain),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        "sim_ok_ratio": (
            model["model.completed"] / attempted if ok and attempted else 0.0
        ),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(s["layers"][name] for s in traced)
    metrics.update(traced[0]["fidelity"])
    metrics.update(traced[0]["flashstore"])
    metrics.update(traced[0]["model"])
    metrics["trace.overhead_ratio"] = statistics.median(
        s["run_s"] for s in traced
    ) / statistics.median(s["run_s"] for s in plain)
    metrics["host.calib_s"] = statistics.median(
        s["calib_s"] for s in plain + traced
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no simulator sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        sys.stderr.write(
            f"unknown workload {args.workload!r}; want one of {workloads.NAMES}\n"
        )
        return 2
    # Byte-compile once so every sample's set-up time is an import from
    # cached bytecode, as a user's second run would be.
    if not compileall.compile_dir(str(SRC), quiet=1):
        sys.stderr.write("byte-compiling the simulator sources failed\n")
        return 2

    try:
        plain, traced = collect(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except SampleFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    problems = verdict(plain + traced)
    ok = not problems
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")

    if args.trace:
        values = per_layer(plain, traced)
        units = per_layer_units()
    else:
        values = end_to_end(plain, ok)
        units = END_TO_END_UNITS
    counted = traced if args.trace else plain
    attempted = sum(
        s["model"]["model.completed"] + s["model"]["model.failed"]
        for s in counted
    )
    for name, value in values.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": max(1, attempted),
                "failed": 0 if ok else max(1, attempted),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
