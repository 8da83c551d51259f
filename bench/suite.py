"""Run workloads over several seeds and summarize each metric.

    python3 bench/suite.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1] [--out FILE]

Each (workload, seed) is one ``run.py`` invocation, run one after another.
Prints, per workload and metric, the median, the quartiles, the spread
(interquartile distance over the median, as ``statistics.quantiles(n=4)``
gives the quartiles), the bound from ``BENCHMARK.json`` and the sample
count.  ``--out`` writes every value with the run's provenance (Python
version, ``nproc``, commit, seeds, seconds) for ``compare.py``, and, for
untraced runs, the unscaled times and machine speed each run printed and
the check results of its known-defect reproducers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = parse_seeds(args.seeds)
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=CHECKOUT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            doc = json.loads(lines[-1])
            doc["seed"], doc["wall_s"] = seed, time.monotonic() - start
            doc["unscaled"] = next((json.loads(line[len("unscaled: "):]) for line in lines
                                    if line.startswith("unscaled: ")), None)
            doc["known_defects"] = next((json.loads(line[len("known_defects: "):]) for line in lines
                                         if line.startswith("known_defects: ")), [])
            runs.append(doc)
            failing = sum(1 for d in doc["known_defects"] if d["problems"])
            print(f"{workload} seed {seed}: {doc['wall_s']:.1f} s, failed {doc['failed']}/{doc['attempted']}"
                  f", known defects failing {failing}/{len(doc['known_defects'])}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], "values": values, **summarize(values)}
        results[workload] = {"runs": [{k: r[k] for k in ("seed", "attempted", "failed", "correct", "wall_s",
                                                          "known_defects")}
                                      for r in runs], "metrics": metrics}
        if runs[0]["unscaled"]:
            unscaled = {}
            for name in runs[0]["unscaled"]:
                values = [r["unscaled"][name] for r in runs]
                unscaled[name] = {"values": values, **summarize(values)}
            results[workload]["unscaled"] = unscaled
        print(f"\n{workload}  (runs={len(runs)}, attempted per run: "
              f"{', '.join(str(r['attempted']) for r in runs)})")
        for name, m in metrics.items():
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound}" + ("  SPREAD > BOUND/3" if m["spread"] > bound / 3 else "")
            print(f"  {name:36s} {m['median']:12.6g} {m['unit']:6s} q1 {m['q1']:.6g} q3 {m['q3']:.6g} "
                  f"spread {m['spread']:.3f} n={m['n']}{mark}")
        for defect in runs[0]["known_defects"]:
            print(f"  known defect (seed {runs[0]['seed']}): {defect['label']}: "
                  f"{'; '.join(defect['problems']) or 'passes now'}")
        for name, m in results[workload].get("unscaled", {}).items():
            print(f"  unscaled {name:27s} {m['median']:12.6g}        q1 {m['q1']:.6g} q3 {m['q3']:.6g} "
                  f"spread {m['spread']:.3f} n={m['n']}")

    if args.out:
        doc = {
            "meta": {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit(),
                     "seeds": seeds, "seconds": args.seconds, "trace": args.trace,
                     "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
            "results": results,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
