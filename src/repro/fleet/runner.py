"""Evaluate a device population and fold it into population aggregates.

:class:`FleetRunner` turns each sampled :class:`~repro.fleet.population.Device`
into one scenario cell, fans every (device × scheme × trace) job through the
:class:`~repro.scenarios.runner.ScenarioRunner` /
:meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix` machinery
(which shares setups, so a 200-device fleet builds one simulator per distinct
hardware configuration), and folds every session into per-(device, scheme)
:class:`~repro.runtime.metrics.StreamingAggregator` shards.  Population
aggregates are then the first-class ``merge`` of those shards in device
order — bit-identical to a single sequential fold for any sharding, which
is what keeps ``FLEET_*.json`` byte-identical across ``--jobs`` values.

Crash tolerance rides the same :class:`~repro.scenarios.checkpoint.ShardJournal`
machinery as the fault search: every session is journaled the moment it
folds, and ``resume=True`` restores journaled sessions instead of
re-simulating them — artefact and journal stay byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core.predictor.sequence_learner import EventSequenceLearner
from repro.fleet.metrics import mean_or_none, percentile_block, win_loss
from repro.fleet.population import Device, DevicePopulation, FleetSpec
from repro.runtime.metrics import SessionResult, StreamingAggregator
from repro.scenarios.checkpoint import ArtefactError, ShardJournal
from repro.scenarios.runner import ScenarioRunner
from repro.utils import write_json_atomic
from repro.webapp.apps import AppCatalog


@dataclass
class FleetResult:
    """Everything one fleet evaluation produced.

    ``device_aggregates`` holds one streaming aggregator per (device
    index, scheme) — the per-shard folds; ``population`` holds their
    in-order merge per scheme.
    """

    fleet: FleetSpec
    devices: list[Device]
    device_aggregates: dict[tuple[int, str], StreamingAggregator]
    population: dict[str, StreamingAggregator]

    def device_energy(self, index: int, scheme: str) -> float:
        return self.device_aggregates[(index, scheme)].total_energy_mj

    def device_metrics(self, index: int, scheme: str) -> dict:
        """One device's per-scheme metric row (``None`` = untracked/n-a)."""
        agg = self.device_aggregates[(index, scheme)]
        metrics = agg.finalize()
        residency: float | None = None
        peak: float | None = None
        if agg.thermal_sessions:
            residency = (
                agg.thermal_throttled_ms / agg.thermal_duration_ms
                if agg.thermal_duration_ms > 0
                else 0.0
            )
            peak = agg.thermal_peak_c
        base = self.device_aggregates[(index, self.fleet.baseline)].total_energy_mj
        return {
            "energy_mj": metrics.total_energy_mj,
            "qos_violation_rate": metrics.qos_violation_rate,
            "mean_latency_ms": metrics.mean_latency_ms,
            "throttle_residency": residency,
            "peak_temperature_c": peak,
            "normalised_energy": (
                metrics.total_energy_mj / base if base > 0 else None
            ),
        }


@dataclass
class FleetRunner:
    """Samples a fleet and evaluates it with sharded, mergeable aggregation."""

    catalog: AppCatalog = field(default_factory=AppCatalog)
    jobs: int = 1
    chunk_size: int | None = None
    job_timeout_s: float | None = None
    train_traces_per_app: int = 4
    train_seed: int = 0

    def run(
        self,
        fleet: FleetSpec,
        *,
        learner: EventSequenceLearner | None = None,
        shards: ShardJournal | None = None,
        resume: bool = False,
    ) -> FleetResult:
        """Evaluate every device of the fleet under every scheme.

        Any ``jobs`` value produces bit-identical aggregates: sessions fold
        in deterministic global order, per-device shard aggregators are
        keyed by content, and the population merge runs in device order
        over exact-sum accumulators.  With a ``shards`` journal the run is
        resumable mid-device (see :class:`~repro.scenarios.checkpoint.ShardJournal`).
        """
        population = DevicePopulation(fleet)
        devices = population.devices()
        specs = [device.to_scenario_spec(fleet) for device in devices]
        runner = ScenarioRunner(
            catalog=self.catalog,
            jobs=self.jobs,
            chunk_size=self.chunk_size,
            job_timeout_s=self.job_timeout_s,
            train_traces_per_app=self.train_traces_per_app,
            train_seed=self.train_seed,
        )
        index_by_name = {spec.name: index for index, spec in enumerate(specs)}
        device_aggregates: dict[tuple[int, str], StreamingAggregator] = {}

        def on_session(key: str, scheme: str, trace_index: int, result: SessionResult) -> None:
            device_aggregates.setdefault(
                (index_by_name[key], scheme), StreamingAggregator()
            ).add(result)

        runner.run(
            specs, learner=learner, shards=shards, resume=resume, on_session=on_session
        )

        population_aggregates = {scheme: StreamingAggregator() for scheme in fleet.schemes}
        for index in range(len(devices)):
            for scheme in fleet.schemes:
                shard = device_aggregates.get((index, scheme))
                if shard is not None:
                    population_aggregates[scheme].merge(shard)
        return FleetResult(
            fleet=fleet,
            devices=devices,
            device_aggregates=device_aggregates,
            population=population_aggregates,
        )


# -- result artefacts ------------------------------------------------------------------


def fleet_to_payload(result: FleetResult) -> dict:
    """The JSON payload of a fleet run (schema of ``FLEET_*.json``).

    A pure function of the results — like the scenario artefacts, the
    worker count is deliberately not recorded (``"jobs": null``), so
    ``--jobs 1`` and ``--jobs 4`` write byte-identical files.
    """
    fleet = result.fleet
    device_rows: list[dict] = []
    metric_names = (
        "energy_mj",
        "qos_violation_rate",
        "mean_latency_ms",
        "throttle_residency",
    )
    # scheme -> metric -> per-device values (None-metrics excluded).
    population_values: dict[str, dict[str, list[float]]] = {
        scheme: {name: [] for name in metric_names} for scheme in fleet.schemes
    }
    # slice -> device indices, first-seen (device-order) slices.
    slice_members: dict[str, list[int]] = {}
    for device in result.devices:
        slice_label = device.slice_key(fleet.slice_by)
        slice_members.setdefault(slice_label, []).append(device.index)
        row = device.to_dict()
        row["slice"] = slice_label
        row["schemes"] = {}
        for scheme in fleet.schemes:
            metrics = result.device_metrics(device.index, scheme)
            row["schemes"][scheme] = metrics
            for name in metric_names:
                if metrics[name] is not None:
                    population_values[scheme][name].append(metrics[name])
        device_rows.append(row)

    def scheme_blocks(indices: Sequence[int]) -> dict[str, dict]:
        blocks: dict[str, dict] = {}
        for scheme in fleet.schemes:
            rows = [result.device_metrics(index, scheme) for index in indices]
            residencies = [
                row["throttle_residency"]
                for row in rows
                if row["throttle_residency"] is not None
            ]
            ratios = [
                row["normalised_energy"] for row in rows if row["normalised_energy"] is not None
            ]
            blocks[scheme] = {
                "energy_mj": percentile_block([row["energy_mj"] for row in rows]),
                "qos_violation_rate": percentile_block(
                    [row["qos_violation_rate"] for row in rows]
                ),
                "throttle_residency": percentile_block(residencies),
                "mean_normalised_energy": mean_or_none(ratios),
                **win_loss(ratios),
            }
        return blocks

    population_block: dict[str, dict] = {}
    for scheme, aggregator in result.population.items():
        thermal = aggregator.finalize_thermal()
        faults = aggregator.finalize_faults()
        population_block[scheme] = {
            "overall": asdict(aggregator.finalize()),
            "thermal": thermal.to_dict() if thermal is not None else None,
            "faults": faults.to_dict() if faults is not None else None,
            "percentiles": {
                name: percentile_block(values)
                for name, values in population_values[scheme].items()
            },
        }

    return {
        "fleet": fleet.to_dict(),
        "jobs": None,
        "n_devices": len(result.devices),
        "n_sessions": sum(agg.n_sessions for agg in result.population.values()),
        "population": population_block,
        "slices": {
            label: {
                "n_devices": len(indices),
                "schemes": scheme_blocks(indices),
            }
            for label, indices in slice_members.items()
        },
        "devices": device_rows,
    }


def write_fleet_results(result: FleetResult, path: str | Path) -> Path:
    """Atomically write a ``FLEET_*.json`` artefact (fsync + ``os.replace``)."""
    return write_json_atomic(fleet_to_payload(result), path)


def load_fleet_results(path: str | Path) -> dict:
    """Read a ``FLEET_*.json`` artefact back as its payload dict.

    Raises :class:`~repro.scenarios.checkpoint.ArtefactError` with the
    parse position on corrupt or truncated files.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtefactError(
            f"fleet artefact {path} is corrupt or truncated: {exc.msg} at "
            f"line {exc.lineno} column {exc.colno} (char {exc.pos})"
        ) from exc
