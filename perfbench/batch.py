"""One cold batch of one workload, in a fresh interpreter.

``run.py`` starts this script once per batch and reads the JSON result it
writes to ``--result``.  A batch is what one CLI caller pays for
``scenarios run --jobs 1`` or ``fleet run --jobs 1``:

* set-up — imports, the app catalog, learner training (PES workloads
  only) and spec expansion — ends at ``ready``;
* the timed region — ``ScenarioRunner.run`` / ``FleetRunner.run`` with the
  cell and shard journals the CLI wires, the atomic artefact write and the
  journal clean-up — runs from ``ready`` to ``end``.

Every shard-journal append is time-stamped; the gaps between consecutive
appends are the per-session replay times.  A :class:`speed.SpeedProbe`
runs from before the program is imported and reports the core's speed, so
``run.py`` can count an untraced batch's seconds at nominal machine speed;
every time is taken on the probe's clock, which leaves out the probes' own
time, spans included.  With ``--trace 1`` the public layer calls are
wrapped by :class:`tracer.Tracer` once the program is imported, before the
rest of set-up starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from speed import SpeedProbe  # noqa: E402

#: Imports are set-up too, so the probe starts before the program's.
PROBE = SpeedProbe()
PROBE.start()

from repro.fleet import DevicePopulation, FleetRunner, write_fleet_results  # noqa: E402
from repro.scenarios import (  # noqa: E402
    MatrixJournal,
    ScenarioRunner,
    ShardJournal,
    write_results,
)
from repro.webapp.apps import AppCatalog  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, fleet_spec, matrix_specs  # noqa: E402

#: ``--train-traces-per-app`` default of ``scenarios run`` and ``fleet run``.
TRAIN_TRACES_PER_APP = 4


@dataclass
class StampedShardJournal(ShardJournal):
    """A :class:`ShardJournal` that time-stamps every session it records."""

    stamps: list[float] = field(default_factory=list)
    keys: list[tuple[str, str]] = field(default_factory=list)

    def append_shard(self, cell: str, shard: str, payload: dict) -> None:
        self.stamps.append(PROBE.now())
        self.keys.append((cell, shard))
        super().append_shard(cell, shard, payload)


def paper_outputs_present(payload: dict, kind: str) -> bool:
    """Whether the artefact carries the paper-level outputs per scheme."""
    if kind == "fleet":
        blocks = [{s: b["overall"] for s, b in payload["population"].items()}]
    else:
        blocks = [
            {s: cell["overall"] for s, cell in scenario["schemes"].items()}
            for scenario in payload["scenarios"]
        ]
    for block in blocks:
        for scheme, overall in block.items():
            wanted = ["total_energy_mj", "qos_violation_rate"]
            if scheme == "PES":
                wanted += ["commits", "mispredictions"]
            if not all(isinstance(overall.get(key), (int, float)) for key in wanted):
                return False
    return bool(blocks) and all(blocks)


def run_batch(workload_name: str, input_set: int, trace: bool, out: Path) -> dict:
    workload = WORKLOADS[workload_name]
    tracer = Tracer(PROBE.now) if trace else None
    if tracer is not None:
        tracer.install()
    work_start = PROBE.now()
    out.mkdir(parents=True, exist_ok=True)
    artefact = out / "artefact.json"
    catalog = AppCatalog()
    if workload.kind == "matrix":
        matrix, specs = matrix_specs(workload, input_set)
        runner = ScenarioRunner(
            catalog=catalog, jobs=1, train_traces_per_app=TRAIN_TRACES_PER_APP
        )
        if any("PES" in spec.schemes for spec in specs):
            runner.train_learner()
    else:
        fleet = fleet_spec(workload, input_set)
        specs = DevicePopulation(fleet).scenario_specs()
        learner = None
        if "PES" in fleet.schemes:
            learner = ScenarioRunner(
                catalog=catalog, train_traces_per_app=TRAIN_TRACES_PER_APP
            ).train_learner()
    expected = {
        f"{spec.name}/{scheme}/{index}"
        for spec in specs
        for scheme in spec.schemes
        for index in range(spec.n_sessions)
    }

    ready = PROBE.now()
    paused_before_ready = PROBE.paused
    if workload.kind == "matrix":
        journal = MatrixJournal(Path(f"{artefact}.journal"))
        shards = StampedShardJournal(Path(f"{artefact}.shards.journal"))
        results = runner.run(specs, journal=journal, shards=shards)
        write_results(results, artefact, matrix=matrix.name)
        journal.clear()
        shards.clear()
    else:
        shards = StampedShardJournal(Path(f"{artefact}.journal"))
        result = FleetRunner(
            catalog=catalog, jobs=1, train_traces_per_app=TRAIN_TRACES_PER_APP
        ).run(fleet, learner=learner, shards=shards)
        write_fleet_results(result, artefact)
        shards.clear()
    end = PROBE.now()
    PROBE.stop()

    data = artefact.read_bytes()
    cell_names = {json.dumps(spec.to_dict(), sort_keys=True): spec.name for spec in specs}
    sessions = [f"{cell_names.get(cell, '?')}/{shard}" for cell, shard in shards.keys]
    folded = set(sessions) & expected
    report = {
        # On the perf_counter clock the parent's spawn time is taken on.
        "ready": ready + paused_before_ready,
        "paused_before_ready": paused_before_ready,
        "timed_s": end - ready,
        "work_start_s": work_start - ready,
        "expected": len(expected),
        "folded": len(folded) if len(sessions) == len(folded) else 0,
        "stamps_s": [stamp - ready for stamp in shards.stamps],
        "probes": [(at - ready, took) for at, took in PROBE.samples],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": hashlib.sha256(data).hexdigest(),
        "paper_outputs": paper_outputs_present(json.loads(data), workload.kind),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(end - work_start)
        dump = tracer.dump(sessions, work_start)
        (out / "spans.json").write_text(json.dumps(dump))
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input", type=int, required=True, help="input set index")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for artefact and journals")
    parser.add_argument("--result", required=True, help="JSON file the report is written to")
    args = parser.parse_args()
    report = run_batch(args.workload, args.input, bool(args.trace), Path(args.out))
    Path(args.result).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
