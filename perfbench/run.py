"""Layer-traced replay benchmark of the PES reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_mixed --seed 0 --seconds 54 --trace 0

Each run starts cold batches of one workload (``workloads.py``), one fresh
interpreter after another.  How many is fixed by ``--seconds`` and the
workload's nominal batch time, so a run measures about ``--seconds`` on
the machine the benchmark was tuned on, and a faster or slower program
replays the same batches.  Every batch is a closed loop with one caller
and no worker processes (``jobs=1``).

``--trace 0`` reports the end-to-end metrics, every time in nominal
seconds: seconds at a fixed reference speed of the core, against which a
probe in each batch measures the core's speed as the batch runs
(``speed.py``), so that other tenants slowing a shared core do not read as
a slower program:

* ``replays_per_s`` — session replays per second of the timed region
  (``ScenarioRunner.run`` / ``FleetRunner.run`` plus the artefact write);
* ``session_ms_mean`` / ``session_ms_p90`` — per-session replay time, the
  gaps between consecutive shard-journal appends.  p50 and p95 are printed
  too, but neither is steady enough to gate: reactive_thermal's session
  times fall into two clusters split half and half (about 3.6-4.7 ms and
  6.9-8.6 ms), so its median jumps between the slowest session of one and
  the fastest of the other, and on the PES workloads p95 falls among a
  dozen branch-and-bound-heavy sessions whose time varies several-fold
  from seed to seed;
* ``setup_s`` — process start until the first session can run;
* ``peak_rss_mb`` — peak resident set of the batch process.

``--trace 1`` runs as many batches (at least two), all of one input set,
traced and untraced in turn, and reports the per-layer metrics of the
traced ones (``tracer.py``): exact call counts, self time per layer, their
ratios, and ``trace.overhead``, traced over untraced work in nominal seconds.

Every batch passes the correctness gate: every expected (cell, scheme,
trace) session folded, the artefact hashes to the digest recorded in
``digests.json`` for its input set (so a traced artefact is byte-identical
to an untraced one), and the paper-level outputs are in it.  A batch that
fails the gate counts its sessions as failed, and so does a batch that
cannot finish within ``RUN_LIMIT_S`` of the run's start.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: No batch may still run this long after the run started; the batches
#: still to come then count as failed.
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(ROOT / "src"))

from speed import nominal_seconds  # noqa: E402
from tracer import EXACT_METRICS, per_layer_metric_units  # noqa: E402
from workloads import WORKLOADS, session_count  # noqa: E402

END_TO_END_UNITS = {
    "replays_per_s": "1/s",
    "session_ms_mean": "ms",
    "session_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_one_batch(workload: str, input_set: int, traced: bool, index: int,
                  deadline: float) -> dict:
    """Start one batch process; its report, or ``{"error": ...}``."""
    out = OUT / workload / f"batch{index}"
    result = OUT / workload / f"batch{index}.json"
    command = [
        sys.executable, str(HERE / "batch.py"), "--workload", workload,
        "--input", str(input_set), "--trace", str(int(traced)),
        "--out", str(out), "--result", str(result),
    ]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return {"error": "batch timed out"}
    if proc.returncode != 0 or not result.exists():
        return {"error": proc.stderr.strip().splitlines()[-1:] or f"exit {proc.returncode}"}
    report = json.loads(result.read_text())
    # Spawn to ready, less the probes' time, at nominal speed.
    setup = report["ready"] - report["paused_before_ready"] - spawned
    report["setup_s"] = nominal_seconds([-setup, 0.0], report["probes"])[0]
    report["input_set"] = input_set
    return report


def gate(report: dict, expected: int, digest: str | None) -> list[str]:
    """Why a batch fails the correctness gate (empty when it passes)."""
    if "error" in report:
        return [f"batch failed: {report['error']}"]
    problems = []
    if report["expected"] != expected or report["folded"] != expected:
        problems.append(f"folded {report['folded']} of {expected} expected sessions")
    if digest is None:
        problems.append("no artefact digest recorded for this input set")
    elif report["digest"] != digest:
        problems.append(f"artefact digest {report['digest'][:12]} != recorded {digest[:12]}")
    if not report["paper_outputs"]:
        problems.append("artefact lacks the paper-level outputs")
    return problems


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def segments(report: dict) -> list[float]:
    """The timed region cut at every session boundary, in nominal seconds.

    The first segment runs up to the first session's journal append (trace
    generation included), the last from the final append to the end of the
    artefact write; the ones between are the per-session replay times.
    """
    bounds = [0.0, *report["stamps_s"], report["timed_s"]]
    return nominal_seconds(bounds, report["probes"])


def end_to_end(reports: list[dict]) -> tuple[dict[str, float], list[float]]:
    """End-to-end metrics over a run's untraced batches.

    Batches that replayed the same input set cut their timed regions into
    the same segments; each segment is taken at the median of the nominal
    seconds those batches spent on it.  Throughput and the session-time
    percentiles then pool these per-segment times over the input sets.
    """
    by_input: dict[int, list[dict]] = {}
    for report in reports:
        by_input.setdefault(report["input_set"], []).append(report)
    sessions = 0
    timed_s = 0.0
    sessions_ms: list[float] = []
    for group in by_input.values():
        typical = [
            statistics.median(column) for column in zip(*(segments(report) for report in group))
        ]
        sessions += group[0]["folded"]
        timed_s += sum(typical)
        sessions_ms.extend(seconds * 1000.0 for seconds in typical[1:-1])
    metrics = {
        "replays_per_s": sessions / timed_s,
        "session_ms_mean": statistics.fmean(sessions_ms),
        "session_ms_p90": percentile(sessions_ms, 90),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    return metrics, sessions_ms


def nominal_work_s(report: dict) -> float:
    """A batch's work after the imports, in nominal seconds."""
    return nominal_seconds([report["work_start_s"], report["timed_s"]], report["probes"])[0]


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over a run's traced batches, and the exact ones that drifted."""
    layers = [report["layers"] for report in traced]
    metrics = {}
    for name in per_layer_metric_units():
        if name == "trace.overhead":
            continue
        if name in EXACT_METRICS:
            metrics[name] = layers[0][name]
        else:
            metrics[name] = statistics.median(layer[name] for layer in layers)
    metrics["trace.overhead"] = (
        statistics.median(nominal_work_s(r) for r in traced)
        / statistics.median(nominal_work_s(r) for r in untraced)
        - 1.0
    )
    drift = [
        name for name in EXACT_METRICS if any(layer[name] != layers[0][name] for layer in layers)
    ]
    return metrics, drift


def attribution(workload: str, metrics: dict[str, float], n_traced: int) -> None:
    """Print every per-layer metric with its base."""
    wall = metrics["trace.wall_s"]
    units = per_layer_metric_units()
    print(f"attribution for {workload}: median of {n_traced} traced batch(es), "
          f"traced wall {wall:.3f} s (the base of every share)")
    for name, value in metrics.items():
        unit = units[name]
        if unit == "s" and name != "trace.wall_s":
            print(f"  {name:<44} {value:>12.4f} s  {100.0 * value / wall:6.2f}% of traced wall")
        elif name == "trace.overhead":
            print(f"  {name:<44} {value:>12.4f}    traced / untraced nominal work - 1")
        else:
            print(f"  {name:<44} {value:>12.4f} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    digests = json.loads((HERE / "digests.json").read_text()).get(workload.name, {})

    shutil.rmtree(OUT / workload.name, ignore_errors=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    n_batches = workload.batches(args.seconds)
    if args.trace:
        n_batches = max(2, n_batches)
    # A traced run keeps one input set, so its batches' counts compare.
    plan = [
        (workload.input_set(args.seed, 0 if args.trace else index),
         bool(args.trace) and index % 2 == 0)
        for index in range(n_batches)
    ]
    counts = {input_set: session_count(workload, input_set) for input_set, _ in plan}
    attempted = sum(counts[input_set] for input_set, _ in plan)
    untraced: list[dict] = []
    traced: list[dict] = []
    failed = 0
    problems: list[str] = []
    for index, (input_set, is_traced) in enumerate(plan):
        expected = counts[input_set]
        report = run_one_batch(workload.name, input_set, is_traced, index, deadline)
        found = gate(report, expected, digests.get(str(input_set)))
        if found:
            failed += expected
            problems.extend(found)
            if "error" in report:
                failed += sum(counts[later] for later, _ in plan[index + 1:])
                break
            continue
        (traced if is_traced else untraced).append(report)
        print(f"batch {index} ({'traced' if is_traced else 'untraced'}, "
              f"input set {input_set}): {report['folded']} sessions in "
              f"{report['timed_s']:.3f} s, setup {report['setup_s']:.3f} s")

    correct = not problems and bool(untraced) and (bool(traced) or not args.trace)
    for problem in problems:
        print(f"perfbench: {workload.name} seed {args.seed}: {problem}", file=sys.stderr)

    metrics: dict[str, dict] = {}
    if untraced and not args.trace:
        values, sessions_ms = end_to_end(untraced)
        print(f"{workload.name} seed {args.seed}: {len(untraced)} cold batch(es), "
              f"{len(sessions_ms)} session samples, "
              f"session p50 {statistics.median(sessions_ms):.3f} ms, "
              f"p95 {percentile(sessions_ms, 95):.3f} ms")
        for name, value in values.items():
            print(f"  {name:<16} {value:12.4f} {END_TO_END_UNITS[name]}")
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    elif traced and untraced:
        values, drift = per_layer(traced, untraced)
        if drift:
            correct = False
            print(f"perfbench: exact counters differ between traced batches: {drift}",
                  file=sys.stderr)
        attribution(workload.name, values, len(traced))
        units = per_layer_metric_units()
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
