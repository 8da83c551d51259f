"""Compare two ``suite.py`` result files metric by metric.

    python3 bench/compare.py BASE.json CHANGE.json

For every (workload, end-to-end metric) pair the change is reported as

- ``improved``: the change wins at least nine tenths of the run pairs (runs
  paired by seed, ties counting for neither) and the medians differ by more
  than the base's interquartile distance;
- ``worse``: the change's median is worse than the base's by more than the
  metric's bound in ``BENCHMARK.json``;
- ``unresolved``: the base's own spread (interquartile distance over the
  median) is wider than the bound, and not every run of the change reads
  better than every run of the base;
- ``no worse``: otherwise.

Per-layer metrics and the unscaled times have no bound; they are listed
with their relative change.
Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def paired(base: dict, change: dict, metric: str) -> tuple[list, list]:
    """Values of both sides, paired by seed where the seeds match."""
    b_runs = {r["seed"]: v for r, v in zip(base["runs"], base["metrics"][metric]["values"])}
    c_runs = {r["seed"]: v for r, v in zip(change["runs"], change["metrics"][metric]["values"])}
    common = sorted(set(b_runs) & set(c_runs))
    if common:
        return [b_runs[s] for s in common], [c_runs[s] for s in common]
    n = min(len(b_runs), len(c_runs))
    return list(b_runs.values())[:n], list(c_runs.values())[:n]


def verdict(base_values, change_values, pairs, bound: float, lower_is_better: bool) -> str:
    sign = -1 if lower_is_better else 1  # sign * (change - base) > 0 means better
    base_med = statistics.median(base_values)
    change_med = statistics.median(change_values)
    q1, q3 = quartiles(base_values)
    spread = (q3 - q1) / base_med if base_med else 0.0
    wins = sum(1 for b, c in zip(*pairs) if sign * (c - b) > 0)
    if wins >= 0.9 * len(pairs[0]) and sign * (change_med - base_med) > q3 - q1:
        return "improved"
    all_better = all(sign * (c - b) > 0 for c in change_values for b in base_values)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (change_med - base_med) < -bound * abs(base_med):
        return "worse"
    return "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    base = json.loads(Path(args.base).read_text())["results"]
    change = json.loads(Path(args.change).read_text())["results"]

    any_worse = False
    for workload in base:
        if workload not in change:
            print(f"{workload}: missing from {args.change}")
            continue
        print(workload)
        for name, b in base[workload]["metrics"].items():
            if name not in change[workload]["metrics"]:
                print(f"  {name:36s} missing from the change")
                continue
            c = change[workload]["metrics"][name]
            delta = (c["median"] - b["median"]) / b["median"] if b["median"] else 0.0
            line = (f"  {name:36s} {b['median']:12.6g} -> {c['median']:12.6g} {b['unit']:6s} "
                    f"({delta:+.1%}, n={b['n']}/{c['n']})")
            if name in end_to_end:
                m = end_to_end[name]
                pairs = paired(base[workload], change[workload], name)
                result = verdict(b["values"], c["values"], pairs, m["bound"], m["better"] == "lower")
                any_worse |= result == "worse"
                line += f"  {result} (bound {m['bound']})"
            print(line)
        for name, b in base[workload].get("unscaled", {}).items():
            c = change[workload].get("unscaled", {}).get(name)
            if c is not None:
                delta = (c["median"] - b["median"]) / b["median"] if b["median"] else 0.0
                print(f"  unscaled {name:27s} {b['median']:12.6g} -> {c['median']:12.6g}        "
                      f"({delta:+.1%}, n={b['n']}/{c['n']})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
