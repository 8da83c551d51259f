"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload wall-census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``ruledmoduli`` is imported from
its ``src/`` and nothing is installed.  Every measurement happens in fresh
single-threaded child processes (``worker.py``), one at a time:

- ``--trace 0``: set-up probes, then one measuring process.  Prints the
  end-to-end metrics of ``BENCHMARK.json``; times are scaled to the
  reference speed of ``speed.py``.  The line before the result,
  ``unscaled: {...}``, holds the unscaled times and the machine speed;
  the line ``known_defects: [...]`` the check results of the reproducers
  of known library bugs that the workload runs outside its queries.
- ``--trace 1``: one traced process.  Prints the per-layer metrics.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it repeat each metric with its unit and sample count.
Exit code 2, with no result line, when the checkout has no ``src/ruledmoduli``
or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("grid-sweep", "wall-census", "destab-box", "cli-oneshot")
SETUP_SAMPLES = 13  # fresh interpreters per run; the median is reported
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def worker(mode: str, workload: str, seed: int, seconds: float) -> tuple[dict, int]:
    """Run one worker process; returns its result and its start instant."""
    argv = [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    launched_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(argv, cwd=CHECKOUT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launched_ns


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # half of the set-up probes run before the measuring process and half
    # after it, so that their median spans the whole run.  The median is
    # scaled by the machine speed of the whole run: one calibration per
    # probe was too noisy to track the machine
    setups = []

    def probe(mode):
        result, launched = worker(mode, workload, seed, seconds)
        setups.append((result["ready_ns"] - launched) / 1e9)
        return result

    for _ in range(SETUP_SAMPLES // 2):
        probe("setup")
    result = probe("measure")
    for _ in range(SETUP_SAMPLES // 2):
        probe("setup")
    attempted, failed = result["attempted"], result["failed"]
    metrics = {
        "setup_s": (statistics.median(setups) * result["speed"], "s", len(setups)),
        "throughput_qps": (attempted / result["busy_s"], "1/s", attempted),
        "latency_p50_ms": (result["latency_p50_ms"], "ms", attempted),
        "latency_p90_ms": (result["latency_p90_ms"], "ms", attempted),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        "passed_frac": ((attempted - failed) / attempted, "frac", attempted),
    }
    result["unscaled"] = {
        "setup_s": statistics.median(setups),
        "throughput_qps": attempted / result["raw_busy_s"],
        "latency_p50_ms": result["raw_latency_p50_ms"],
        "latency_p90_ms": result["raw_latency_p90_ms"],
        "speed": result["speed"],
    }
    return metrics, result


PER_LAYER_UNITS = {
    "lattice.divisor_new": "count", "lattice.checked_int": "count", "lattice.busy_ms": "ms",
    "lattice.effectivity.calls": "count", "lattice.effectivity.unknown_frac": "frac",
    "invariants.calls": "count", "invariants.busy_ms": "ms",
    "families.calls": "count", "families.busy_ms": "ms",
    "walls.enum.busy_ms": "ms", "walls.results": "count", "walls.enum.us_per_result": "us",
    "walls.decision.busy_ms": "ms", "walls.decision_over_enum": "ratio",
    "walls.excluded_negative_length": "count",
    "stability.busy_ms": "ms", "stability.box_points": "count", "stability.candidates": "count",
    "stability.candidates_per_box_point": "ratio", "stability.ns_per_box_point": "ns",
    "stability.lattice_share": "frac",
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.command_ms": "ms", "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    result, _ = worker("trace", workload, seed, seconds)
    values = result["metrics"]
    if set(values) != set(PER_LAYER_UNITS):
        raise BenchError(f"traced worker reported {sorted(set(values) ^ set(PER_LAYER_UNITS))} unexpectedly")
    return {name: (values[name], unit, 1) for name, unit in PER_LAYER_UNITS.items()}, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "ruledmoduli" / "__init__.py").is_file():
        print(f"no src/ruledmoduli under {CHECKOUT}: run from a source checkout", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, result = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    if "known_defects" in result:
        # reproducers of known library bugs, run beside the workload but
        # outside its queries; suite.py keeps them
        for defect in result["known_defects"]:
            state = "; ".join(defect["problems"]) or "passes now"
            print(f"known defect, not in the result: {defect['label']}: {state}", file=sys.stderr)
        print("known_defects: " + json.dumps(result["known_defects"]))
    if "unscaled" in result:
        # the program's own times, and the machine speed (median of the
        # calibrations) that scaled them; suite.py keeps them
        print("unscaled: " + json.dumps(result["unscaled"]))
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
