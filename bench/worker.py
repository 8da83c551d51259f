"""One benchmark process: build a workload's inputs, run it, check it.

    python3 bench/worker.py {setup|measure|trace} --workload W --seed N --seconds S

``run.py`` starts this in a fresh interpreter for every mode, so set-up
time covers interpreter start, importing ``ruledmoduli`` from ``src/`` and
building the seeded inputs.  The last stdout line is a JSON object.

- ``setup`` stops once the inputs are built and reports that instant.
- ``measure`` runs whole passes over the queries in a closed loop with one
  client until the queries have been busy for S seconds, timing each call
  and scaling it to the reference speed of ``speed.py``.  Outside the timed
  region, each first-pass output is checked against the oracles right after
  its call and reduced to a fingerprint; repeats must have the same one.
- ``trace`` runs untraced passes, then traced ones, for about S/3 seconds
  each, and reports the per-layer counters of the first traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

import ruledmoduli  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_QUERIES = 100  # at least ten samples beyond the 90th percentile
PROBES = 5
CALIBRATE_EVERY_NS = 50_000_000  # of busy time


def _run_timed(queries, budget_ns: int, on_output):
    """Whole passes until the raw busy time reaches the budget and at least
    ``MIN_QUERIES`` queries have run.

    The speed calibration runs between queries after every 50 ms of busy
    time; each query's latency is scaled by the mean of the calibrations
    just before and just after it.  Returns the raw and the scaled
    latencies, in query order, and the calibration samples.
    """
    raw, scaled, segment = [], [], []
    loops = [speed.calibrate()]
    busy = since = passes = 0
    clock = time.perf_counter_ns

    def recalibrate():
        loops.append(speed.calibrate())
        factor = speed.scale(loops[-2], loops[-1])
        scaled.extend(x * factor for x in segment)
        segment.clear()

    while busy < budget_ns or len(raw) < MIN_QUERIES:
        for index, query in enumerate(queries):
            start = clock()
            try:
                out = query.run()
            except Exception as exc:  # counted as a failed query
                out = exc
            elapsed = clock() - start
            raw.append(elapsed)
            segment.append(elapsed)
            busy += elapsed
            since += elapsed
            on_output(passes, index, out)
            del out
            if since >= CALIBRATE_EVERY_NS:
                recalibrate()
                since = 0
        passes += 1
    recalibrate()
    return raw, scaled, loops


def fingerprint(items) -> bytes:
    """A hash of a stream of plain items, so that a repeat can be compared
    with the first pass without keeping the first pass's output."""
    h = hashlib.blake2b(digest_size=16)
    for item in items:
        h.update(item if isinstance(item, bytes) else repr(item).encode())
        h.update(b"\x00")
    return h.digest()


class Checker:
    """Checks each first-pass output against the oracles as it arrives,
    outside the timed interval, and keeps only its fingerprint and the
    small summary that later checks of the pass read; a repeat must have
    the first pass's fingerprint."""

    def __init__(self, queries):
        self.queries = queries
        self.first = [None] * len(queries)
        self.summaries = [None] * len(queries)
        self.problems = [[] for _ in queries]
        self.attempts = [0] * len(queries)
        self.repeat_mismatch = [0] * len(queries)

    def __call__(self, pass_index, index, out):
        query = self.queries[index]
        raised = isinstance(out, Exception)
        if raised:
            seen = fingerprint([type(out).__name__, str(out)])
        else:
            seen = fingerprint(query.digest(out))
        self.attempts[index] += 1
        if pass_index:
            self.repeat_mismatch[index] += seen != self.first[index]
            return
        self.first[index] = seen
        if raised:
            self.problems[index] = [f"raised {type(out).__name__}: {out}"]
            return
        try:
            self.problems[index] = query.check(out, self.summaries)
            self.summaries[index] = query.summary(out)
        except Exception as exc:  # an output of unexpected shape
            self.problems[index] = [f"check raised {type(exc).__name__}: {exc}"]

    def verdict(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problem descriptions); a query whose first
        output fails its check counts as failed on every attempt."""
        failed, problems = 0, []
        for query, found, attempts, mismatches in zip(
                self.queries, self.problems, self.attempts, self.repeat_mismatch):
            if found:
                failed += attempts
                problems += [f"{query.label}: {p}" for p in found[:3]]
            elif mismatches:
                failed += mismatches
                problems.append(f"{query.label}: output differs across repeats")
        return sum(self.attempts), failed, problems


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(name: str, queries, seconds: float) -> dict:
    checker = Checker(queries)
    raw, scaled, loops = _run_timed(queries, int(seconds * 1e9), checker)
    if name == "cli-oneshot":
        peak_kib = queries[0].meta["launcher"].peak_kib()
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, problems = checker.verdict()
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "known_defects": known_defects(name),
        "speed": speed.REFERENCE_NS / statistics.median(loops),
        "busy_s": sum(scaled) / 1e9, "raw_busy_s": sum(raw) / 1e9,
        "latency_p50_ms": quantile(scaled, 0.5) / 1e6,
        "latency_p90_ms": quantile(scaled, 0.9) / 1e6,
        "raw_latency_p50_ms": quantile(raw, 0.5) / 1e6,
        "raw_latency_p90_ms": quantile(raw, 0.9) / 1e6,
        "peak_rss_mb": peak_kib / 1024,
    }


def known_defects(name: str) -> list[dict]:
    """Runs the workload's known-defect reproducers once each, after the
    measurement; returns each label with the problems its check found."""
    report = []
    for query in workloads.known_defects(name):
        checker = Checker([query])
        try:
            out = query.run()
        except Exception as exc:  # reported as the reproducer's problem
            out = exc
        checker(0, 0, out)
        report.append({"label": query.label, "problems": checker.problems[0]})
    return report


# --- traced mode --------------------------------------------------------------


def _cli_probe(code: str, env) -> float:
    """Median reference-speed time of ``python -c code``, in ms."""
    times = [
        speed.timed(lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))[1]
        for _ in range(PROBES)
    ]
    return statistics.median(times) / 1e6


def _inproc(query):
    """The in-process form of a query: CLI invocations go through
    ``cli.run`` with captured streams; library calls are unchanged."""
    argv = query.meta.get("argv")
    if argv is None:
        return query.run
    from ruledmoduli import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue().encode()

    return call


def trace(name: str, queries, seconds: float) -> dict:
    runs = [_inproc(q) for q in queries]
    budget = int(seconds * 1e9 / 3)

    def passes_until(budget_ns, body):
        """Reference-speed times of whole passes, until the budget is spent."""
        times = []
        while sum(times) < budget_ns or not times:
            times.append(speed.timed(body)[1])
        return times

    # untraced: per-query latencies for the ratios, whole-pass times for overhead
    per_query = [[] for _ in queries]

    def untraced_pass():
        for i, run in enumerate(runs):
            start = time.perf_counter_ns()
            try:
                run()
            except Exception:  # the traced pass records it as a failure
                pass
            per_query[i].append(time.perf_counter_ns() - start)

    plain = passes_until(budget, untraced_pass)

    tracer = Tracer()
    checker = Checker(queries)
    outputs = {"results": 0, "excluded": 0, "box_points": 0, "candidates": 0}

    def observe(i, out):
        kind = queries[i].kind
        if kind == "wall_search":
            outputs["results"] += len(out.walls) + len(out.boundary)
            outputs["excluded"] += out.excluded_negative_length
        elif kind == "destabilizer_search":
            # the requested box, so a search that covers less still counts
            # the work it was asked for
            outputs["box_points"] += queries[i].meta["box_points"]
            outputs["candidates"] += len(out.candidates)

    loops = []  # calibrations around the first traced pass, outside its spans

    def traced_pass(record: bool = False):
        last = time.perf_counter_ns()
        for i, run in enumerate(runs):
            try:
                out = tracer.query(i, queries[i].kind, run)
            except Exception as exc:  # counted as a failed query
                out = exc
            if record:
                if not isinstance(out, Exception):
                    observe(i, out)
                checker(0, i, out)
                if time.perf_counter_ns() - last >= CALIBRATE_EVERY_NS:
                    loops.append(speed.calibrate())
                    last = time.perf_counter_ns()

    tracer.install(ruledmoduli)
    try:
        loops.append(speed.calibrate())
        traced_pass(record=True)
        loops.append(speed.calibrate())
        snapshot = (dict(tracer.calls), dict(tracer.self_ns), dict(tracer.inclusive_ns),
                    tracer.unknown_effectivity)
        traced = passes_until(budget, traced_pass)
    finally:
        tracer.uninstall()
    calls, self_ns, inclusive_ns, unknown = snapshot

    out_dir = CHECKOUT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"trace-{name}.jsonl")

    to_ms = speed.scale(*loops) / 1e6  # reference-speed milliseconds

    def busy(layer, kinds=None):
        return sum(ns for (lay, kind), ns in self_ns.items()
                   if lay == layer and (kinds is None or kind in kinds)) * to_ms

    def incl(layer, kinds):
        return sum(ns for (lay, kind), ns in inclusive_ns.items()
                   if lay == layer and kind in kinds) * to_ms

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_calls(layer):
        return sum(n for qual, n in calls.items() if qual.startswith(layer + "."))

    median_ms = [statistics.median(t) / 1e6 for t in per_query]
    decisions = [i for i, q in enumerate(queries) if "base" in q.meta]
    decision_ms = sum(median_ms[i] for i in decisions)
    matching_enum_ms = sum(median_ms[queries[i].meta["base"]] for i in decisions)

    enum = {"wall_search"}
    stab = {"destabilizer_search"}
    eff_calls = calls.get("lattice.effectivity", 0)
    metrics = {
        "lattice.divisor_new": calls.get("lattice.divisor_new", 0),
        "lattice.checked_int": calls.get("lattice.checked_int", 0),
        "lattice.busy_ms": busy("lattice"),
        "lattice.effectivity.calls": eff_calls,
        "lattice.effectivity.unknown_frac": ratio(unknown, eff_calls),
        "invariants.calls": layer_calls("invariants"),
        "invariants.busy_ms": busy("invariants"),
        "families.calls": layer_calls("families"),
        "families.busy_ms": busy("families"),
        "walls.enum.busy_ms": busy("walls", enum),
        "walls.results": outputs["results"],
        "walls.enum.us_per_result": ratio(incl("walls", enum) * 1e3, outputs["results"]),
        "walls.decision.busy_ms": busy("walls", {"is_suitable", "certify_dv_zero"}),
        "walls.decision_over_enum": ratio(decision_ms, matching_enum_ms),
        "walls.excluded_negative_length": outputs["excluded"],
        "stability.busy_ms": busy("stability"),
        "stability.box_points": outputs["box_points"],
        "stability.candidates": outputs["candidates"],
        "stability.candidates_per_box_point": ratio(outputs["candidates"], outputs["box_points"]),
        "stability.ns_per_box_point": ratio(incl("stability", stab) * 1e6, outputs["box_points"]),
        "stability.lattice_share": ratio(busy("lattice", stab), incl("stability", stab)),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1,
    }
    metrics.update(_cli_metrics(name, queries))

    attempted, failed, problems = checker.verdict()
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems}


def _cli_metrics(name, queries) -> dict:
    env = workloads.cli_env()
    interp = _cli_probe("pass", env)
    imported = _cli_probe("import ruledmoduli.cli", env)
    metrics = {"cli.interp_ms": interp, "cli.import_ms": imported - interp,
               "cli.command_ms": 0.0, "cli.stdout_bytes": 0}
    if name == "cli-oneshot":
        spawned = []
        for query in queries:
            (_, stdout), elapsed = speed.timed(query.run)
            spawned.append(elapsed)
            metrics["cli.stdout_bytes"] += len(stdout)
        metrics["cli.command_ms"] = statistics.median(spawned) / 1e6 - imported
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    queries = workloads.BY_NAME[args.workload](args.seed)
    ready_ns = time.monotonic_ns()
    try:
        result = {"ready_ns": ready_ns}
        if args.mode == "measure":
            result.update(measure(args.workload, queries, args.seconds))
        elif args.mode == "trace":
            result.update(trace(args.workload, queries, args.seconds))
    finally:
        launcher = queries[0].meta.get("launcher")
        if launcher is not None:
            launcher.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
