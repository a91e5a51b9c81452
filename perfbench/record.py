"""Record the artefact digest of every workload input set in ``digests.json``.

Run from the root of a checkout after a change that is meant to alter the
artefact bytes (a change that is not must leave the file untouched)::

    python3 perfbench/record.py [--workload NAME ...]

Each input set of the selected workloads (default: all) is replayed once,
untraced, by ``batch.py``, one batch per CPU at a time; the digests are
deterministic, so running batches side by side only saves time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Ignored by git; ``run.py`` writes its batches here too.
OUT = HERE.parent / ".perfbench_out"
DIGESTS = HERE / "digests.json"
#: Batches replayed at once.
JOBS = os.cpu_count() or 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=None)
    args = parser.parse_args()
    names = args.workload or sorted(WORKLOADS)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    todo = [(name, index) for name in names for index in range(WORKLOADS[name].input_sets)]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        running: list[tuple[str, int, Path, subprocess.Popen]] = []
        fresh: dict[str, dict[str, str]] = {name: {} for name in names}
        while todo or running:
            while todo and len(running) < JOBS:
                name, index = todo.pop(0)
                out = Path(scratch) / f"{name}-{index}"
                command = [
                    sys.executable, str(HERE / "batch.py"), "--workload", name,
                    "--input", str(index), "--out", str(out), "--result", f"{out}.json",
                ]
                running.append((name, index, out, subprocess.Popen(command)))
            name, index, out, proc = running.pop(0)
            if proc.wait() != 0:
                for *_, other in running:
                    other.kill()
                    other.wait()
                print(f"record: {name} input set {index} failed", file=sys.stderr)
                return 1
            report = json.loads(Path(f"{out}.json").read_text())
            fresh[name][str(index)] = report["digest"]
            print(f"{name} {index} {report['digest']}", flush=True)
    digests.update(fresh)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
