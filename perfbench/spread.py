"""Run-to-run spread of the end-to-end metrics, and the baseline record.

Run from the root of a checkout::

    python3 perfbench/spread.py

For each workload ``BENCHMARK.json`` lists it makes two sets of ten
``run.py --trace 0`` runs, seeds 100-109 and then 110-119, and prints per
end-to-end metric and set the median, the spread (q3 - q1) / median with
the quartiles as ``statistics.quantiles(values, n=4)`` gives them, and how
far the second set's median lies from the first's, each next to the
metric's bound in ``BENCHMARK.json``.  A spread is ``ok`` below a third of
the bound; a median shift must stay within the bound.  The figures go into
``BASELINE.json`` as the noise floor, with the machine facts, seeds,
workload reasons and the layer -> end-to-end map.  Exits 1 when a run fails
its correctness gate.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "BASELINE.json"
#: Two sets of ten seeds each, disjoint so that the second set also varies
#: the inputs.
SEED_SETS = (tuple(range(100, 110)), tuple(range(110, 120)))


def machine_facts() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_rev": rev,
    }


def summary(series: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(series, n=4)
    median = statistics.median(series)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": series}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    better = {metric["name"]: metric["better"] for metric in bench["end_to_end"]}
    noise: dict[str, dict] = {}
    for name in (workload["name"] for workload in bench["workloads"]):
        sets = []
        for seeds in SEED_SETS:
            values: dict[str, list[float]] = {metric: [] for metric in bounds}
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                     "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True,
                )
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    print(f"{name} seed {seed}: correctness gate failed\n{proc.stderr}")
                    return 1
                for metric in bounds:
                    values[metric].append(result["metrics"][metric]["value"])
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{metric}={values[metric][-1]:.4g}" for metric in bounds), flush=True)
            sets.append({"seeds": list(seeds),
                         "metrics": {metric: summary(series) for metric, series in values.items()}})
        shifts = {}
        for metric, bound in bounds.items():
            first, second = (s["metrics"][metric] for s in sets)
            # Positive when the second set reads worse than the first.
            shift = (second["median"] - first["median"]) / first["median"]
            shifts[metric] = shift if better[metric] == "lower" else -shift
            print(f"  {name:<17} {metric:<15} medians {first['median']:10.4f} "
                  f"{second['median']:10.4f}  spreads {first['spread']:6.3f} "
                  f"{second['spread']:6.3f}  shift {shifts[metric]:+6.3f}  bound {bound:.3f}  "
                  f"{'ok' if max(first['spread'], second['spread']) < bound / 3 else 'WIDE'} "
                  f"{'ok' if shifts[metric] <= bound else 'SHIFTED'}")
        noise[name] = {"sets": sets, "median_shift": shifts}
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    baseline.update({
        "machine": machine_facts(),
        "run_seconds": bench["run_seconds"],
        "seeds": {
            name: {"default": w.default_seed, "held_out": w.held_out_seed}
            for name, w in WORKLOADS.items()
        },
        "workloads": {name: w.why for name, w in WORKLOADS.items()},
        "layer_map": [dataclasses.asdict(layer) for layer in LAYERS],
        "noise_floor": noise,
    })
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
