"""The benchmark's own test: exact counters repeat, predicted zeros are zero.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload it runs two traced batches of the first input set of one
seed, each in a fresh interpreter, and checks that

* every exact per-layer counter (``<span>.calls``, the distinct ratios,
  predictions, window sizes, bytes) is equal in both;
* every layer predicted to do no work on the workload (``Layer.zero_on``
  in ``tracer.py``) has zero calls, and every other layer has some;
* both artefacts hash to the digest recorded in ``digests.json``.

Exits 1 and names every failed check otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import EXACT_METRICS, LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Ignored by git; ``run.py`` writes its batches here too.
OUT = HERE.parent / ".perfbench_out"


def traced_batch(workload: str, input_set: int, out: Path) -> dict:
    command = [
        sys.executable, str(HERE / "batch.py"), "--workload", workload,
        "--input", str(input_set),
        "--trace", "1", "--out", str(out), "--result", f"{out}.json",
    ]
    subprocess.run(command, check=True)
    return json.loads(Path(f"{out}.json").read_text())


def check(workload: str, seed: int, scratch: Path, digests: dict) -> list[str]:
    input_set = WORKLOADS[workload].input_set(seed, 0)
    first, second = (
        traced_batch(workload, input_set, scratch / f"{workload}-{run}") for run in (1, 2)
    )
    failures = [
        f"{name} differs between runs: {first['layers'][name]} vs {second['layers'][name]}"
        for name in EXACT_METRICS
        if first["layers"][name] != second["layers"][name]
    ]
    for layer in LAYERS:
        calls = first["layers"][f"{layer.span}.calls"]
        if workload in layer.zero_on and calls != 0:
            failures.append(f"{layer.span}.calls is {calls}, predicted 0")
        if workload not in layer.zero_on and calls == 0:
            failures.append(f"{layer.span}.calls is 0, predicted some work")
    recorded = digests.get(workload, {}).get(str(input_set))
    for report in (first, second):
        if report["digest"] != recorded:
            failures.append(f"artefact digest {report['digest'][:12]} != recorded")
    return [f"{workload}: {failure}" for failure in failures]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=None, help="default: each workload's")
    args = parser.parse_args()
    digests = json.loads((HERE / "digests.json").read_text())
    failures: list[str] = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        for name in args.workload or sorted(WORKLOADS):
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            found = check(name, seed, Path(scratch), digests)
            print(f"{name} seed {seed}: {'ok' if not found else f'{len(found)} failure(s)'}")
            failures.extend(found)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
