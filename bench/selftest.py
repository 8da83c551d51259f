"""Harness self-test at minimal size.

    python3 bench/selftest.py

1. Every workload, untraced and traced, emits exactly the metrics named in
   ``BENCHMARK.json``, with their units, and a well-formed result line;
   ``destab-box`` also reports its open-item-1 reproducer, run beside it.
2. A deliberately wrong expected value makes the failure count positive:
   the worked-family triple on ``grid-sweep`` and the anchor wall count on
   ``wall-census``; so does a stability search that leaves out the top
   fibre row of its box on ``destab-box``.  Each is checked in process
   against the unpatched run.
3. Without a source tree next to it the benchmark exits non-zero and prints
   no result line.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import ruledmoduli  # noqa: E402
import workloads  # noqa: E402
from worker import Checker  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def run(workload: str, trace: int, cwd: Path = CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, check=False)


def metrics_emitted(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            expect(proc.returncode == 0, f"{workload} --trace {trace} exits 0")
            if proc.returncode != 0:
                print(proc.stderr)
                continue
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(doc) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} --trace {trace} result keys")
            expect(doc["attempted"] >= 1, f"{workload} --trace {trace} attempted >= 1")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            expect(got == wanted, f"{workload} --trace {trace} emits every {key} metric with its unit")
            if workload == "destab-box" and trace == 0:
                defects = [json.loads(line[len("known_defects: "):]) for line in proc.stdout.splitlines()
                           if line.startswith("known_defects: ")]
                expect(len(defects) == 1 and [d["label"] for d in defects[0]] == [
                    q.label for q in workloads.known_defects(workload)],
                    "destab-box reports the check result of the open-item-1 reproducer")


def failures_with(build, select, patch) -> tuple[int, int]:
    """Failed counts of one pass over the selected queries, without and with
    ``patch``, a (module, name, value) triple, in place."""
    def failed() -> int:
        queries = [q for q in build(1) if select(q)]
        checker = Checker(queries)
        for i, query in enumerate(queries):
            checker(0, i, query.run())
        return checker.verdict()[1]

    clean = failed()
    module, name, value = patch
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        return clean, failed()
    finally:
        setattr(module, name, saved)


def _short_search(*args):
    """A stability search that reports its box but drops the candidates of
    the box's top fibre row."""
    verdict = ruledmoduli.stability.destabilizer_search(*args)
    kept = tuple(c for c in verdict.candidates if c.divisor.b != verdict.box.fiber_bound)
    return dataclasses.replace(verdict, candidates=kept)


def wrong_expectations() -> None:
    clean, broken = failures_with(
        workloads.grid_sweep, lambda q: True,
        (oracles, "worked_family", lambda n: (8 * n - 2, 4 * n, 3)))
    expect(clean == 0 and broken > 0,
           f"grid-sweep: wrong worked-family value raises failed from {clean} to {broken}")
    clean, broken = failures_with(
        workloads.wall_census, lambda q: q.kind == "wall_search" and "c2=80" in q.label,
        (oracles, "ANCHOR_WALLS", oracles.ANCHOR_WALLS + 1))
    expect(clean == 0 and broken > 0,
           f"wall-census: wrong anchor count raises failed from {clean} to {broken}")
    clean, broken = failures_with(
        workloads.destab_box, lambda q: True,
        (ruledmoduli, "destabilizer_search", _short_search))
    expect(clean == 0 and broken > 0,
           f"destab-box: a search that skips part of its box raises failed from {clean} to {broken}")


def bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=CHECKOUT / ".bench_out") as tmp:
        root = Path(tmp)
        shutil.copy(CHECKOUT / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("grid-sweep", 0, cwd=root)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    (CHECKOUT / ".bench_out").mkdir(exist_ok=True)
    wrong_expectations()
    bare_directory()
    metrics_emitted(spec)
    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
