"""Run scenario specs end-to-end and serialise their results.

:class:`ScenarioRunner` turns each :class:`~repro.scenarios.spec.ScenarioSpec`
into a :class:`~repro.runtime.parallel.MatrixSweep` — regime-shaped traces,
a platform setup with the regime's frequency cap applied — and fans every
(scenario x scheme x trace) job through one
:meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix` pool with
streaming per-scenario aggregation.  Every replay is deterministic, so any
``jobs`` value produces bit-identical per-scenario aggregates.

Results serialise to a plain-JSON schema (``results/SCENARIOS_*.json``)
that the ``scenarios compare`` subcommand and external tooling can consume
without importing this package's classes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.predictor.sequence_learner import EventSequenceLearner
from repro.core.predictor.training import PredictorTrainer
from repro.runtime.metrics import (
    AggregateMetrics,
    FaultAggregate,
    SessionResult,
    ThermalAggregate,
)
from repro.runtime.parallel import MatrixSweep, ParallelEvaluator, SchemeAggregates
from repro.runtime.simulator import SimulationSetup
from repro.scenarios.checkpoint import ArtefactError, MatrixJournal, ShardJournal, _spec_key
from repro.scenarios.spec import ScenarioSpec
from repro.traces.generator import TraceGenerator
from repro.utils import write_json_atomic
from repro.webapp.apps import AppCatalog, SEEN_APPS


@dataclass
class ScenarioResult:
    """Aggregated outcome of one scenario across its schemes."""

    spec: ScenarioSpec
    aggregates: dict[str, SchemeAggregates]

    def overall(self, scheme: str) -> AggregateMetrics:
        return self.aggregates[scheme].overall

    def normalised_energy(self) -> dict[str, float | None]:
        """Total energy of each scheme relative to the scenario's baseline.

        ``None`` marks schemes that cannot be normalised because the
        baseline aggregated to non-positive energy (e.g. a degenerate
        zero-event regime) — the table renderers print those as ``n/a``
        instead of dividing by zero.
        """
        base = self.aggregates[self.spec.baseline].overall.total_energy_mj
        if base <= 0:
            return {scheme: None for scheme in self.aggregates}
        return {
            scheme: aggregates.overall.total_energy_mj / base
            for scheme, aggregates in self.aggregates.items()
        }

    def qos_violation(self) -> dict[str, float]:
        return {
            scheme: aggregates.overall.qos_violation_rate
            for scheme, aggregates in self.aggregates.items()
        }

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        schemes: dict[str, dict] = {}
        for scheme, aggregates in self.aggregates.items():
            cell = {
                "overall": asdict(aggregates.overall),
                "per_app": {
                    app: asdict(metrics) for app, metrics in aggregates.per_app.items()
                },
            }
            if aggregates.thermal is not None:
                # Only dynamic-thermal cells carry the block, so static and
                # thermal-free artefacts (including the committed golden
                # fixture) keep their exact byte shape.
                cell["thermal"] = aggregates.thermal.to_dict()
            if aggregates.faults is not None:
                # Same convention: only fault-injected cells carry the block.
                cell["faults"] = aggregates.faults.to_dict()
            schemes[scheme] = cell
        return {
            "spec": self.spec.to_dict(),
            "schemes": schemes,
            "normalised_energy": self.normalised_energy(),
            "qos_violation": self.qos_violation(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioResult":
        aggregates = {
            scheme: SchemeAggregates(
                overall=AggregateMetrics(**cell["overall"]),
                per_app={
                    app: AggregateMetrics(**metrics)
                    for app, metrics in cell["per_app"].items()
                },
                thermal=(
                    ThermalAggregate.from_dict(cell["thermal"])
                    if cell.get("thermal") is not None
                    else None
                ),
                faults=(
                    FaultAggregate.from_dict(cell["faults"])
                    if cell.get("faults") is not None
                    else None
                ),
            )
            for scheme, cell in payload["schemes"].items()
        }
        return cls(spec=ScenarioSpec.from_dict(payload["spec"]), aggregates=aggregates)


@dataclass
class ScenarioRunner:
    """Expands scenario specs into matrix sweeps and runs them.

    Specs that resolve to the same hardware configuration (platform
    variant, regime cap, thermal curve + ambient + mode, fault spec, PES
    tuning) share one :class:`SimulationSetup` object and a ``setup_key``
    tag, so :meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix`
    builds one simulator per distinct configuration instead of one per
    spec: the ``full`` matrix's 28 cells need 14, and a 200-device fleet
    typically draws from a dozen.
    """

    catalog: AppCatalog = field(default_factory=AppCatalog)
    jobs: int = 1
    chunk_size: int | None = None
    #: Pool-wide stall watchdog forwarded to
    #: :class:`~repro.runtime.parallel.ParallelEvaluator` — seconds without
    #: any worker finishing a job before the pool is torn down and the
    #: unfinished jobs re-run serially in the parent.
    job_timeout_s: float | None = None
    #: Traces per seen app used when a PES scenario needs a learner and the
    #: caller did not supply one.
    train_traces_per_app: int = 4
    train_seed: int = 0
    #: Minimum sessions before a scenario's trace generation gets its own
    #: worker pool; below this, pool start-up (a full interpreter spawn on
    #: non-Linux platforms) costs more than generating the traces serially.
    parallel_generation_threshold: int = 16
    #: Trained learners keyed by the fields that define them — see
    #: :meth:`train_learner`.
    _trained: dict[tuple[int, int], EventSequenceLearner] = field(
        default_factory=dict, init=False, repr=False
    )
    _setup_cache: dict[str, tuple[SimulationSetup, object]] = field(
        default_factory=dict, init=False, repr=False
    )

    # -- building blocks --------------------------------------------------------

    def build_sweep(self, spec: ScenarioSpec) -> MatrixSweep:
        """Generate a scenario's traces and wire up its platform setup."""
        regime = spec.resolved_regime()
        generator = TraceGenerator(
            catalog=self.catalog,
            session=regime.session,
            workload_params=regime.workload_params,
        )
        # generate_many_parallel always derives per-trace seeds through
        # substream_seeds, so the traces are identical for any jobs value
        # (and to generate_many(..., independent_streams=True)); jobs=1
        # falls through to the plain serial loop.
        gen_jobs = 1 if spec.n_sessions < self.parallel_generation_threshold else self.jobs
        traces = generator.generate_many_parallel(
            list(spec.resolved_apps()),
            spec.traces_per_app,
            base_seed=spec.seed,
            jobs=gen_jobs,
        )
        # Everything that feeds the SimulationSetup (plus the PES tuning,
        # which rides along in the sweep), canonically serialised: specs
        # with equal keys get the *same* setup and pes objects
        # (evaluate_matrix validates that identity) and so share one
        # simulator per worker.
        setup_key = json.dumps(
            {
                "variant": spec.platform_variant().label,
                "regime": spec.regime,
                "thermal_mode": spec.thermal_mode,
                "ambient_c": spec.ambient_c,
                "faults": spec.faults.to_dict() if spec.faults is not None else None,
                "pes": asdict(spec.pes) if spec.pes is not None else None,
            },
            sort_keys=True,
        )
        cached = self._setup_cache.get(setup_key)
        if cached is None:
            cached = (
                SimulationSetup(
                    system=spec.system(),
                    thermal=spec.dynamic_thermal_model(),
                    faults=spec.faults,
                ),
                spec.pes,
            )
            self._setup_cache[setup_key] = cached
        setup, pes_config = cached
        return MatrixSweep(
            key=spec.name,
            setup=setup,
            traces=tuple(traces),
            schemes=spec.schemes,
            pes_config=pes_config,
            setup_key=setup_key,
        )

    def train_learner(self) -> EventSequenceLearner:
        """Train (once per training configuration) the default PES predictor.

        The training inputs are ``train_traces_per_app`` and ``train_seed``,
        so the cache is keyed on exactly that pair: mutating either field
        after a first :meth:`run` trains a fresh learner instead of silently
        returning the stale one, while repeated runs with unchanged fields
        keep hitting the cached learner (and, downstream, the per-app warm
        PES schedulers that compare learners by value).
        """
        key = (self.train_traces_per_app, self.train_seed)
        learner = self._trained.get(key)
        if learner is None:
            generator = TraceGenerator(catalog=self.catalog)
            training = generator.generate_many(
                list(SEEN_APPS), self.train_traces_per_app, base_seed=self.train_seed
            )
            learner = PredictorTrainer(catalog=self.catalog).train(training).learner
            self._trained[key] = learner
        return learner

    # -- execution --------------------------------------------------------------

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        *,
        learner: EventSequenceLearner | None = None,
        journal: MatrixJournal | None = None,
        shards: ShardJournal | None = None,
        resume: bool = False,
        on_session: "Callable[[str, str, int, SessionResult], None] | None" = None,
    ) -> list[ScenarioResult]:
        """Run every scenario, returning one result per spec in spec order.

        With a ``journal``, every finished scenario is checkpointed the
        moment its last session folds (crash-tolerance for long matrix
        runs).  ``resume=True`` additionally skips scenarios already
        journaled under an exactly-matching spec; because every replay is
        deterministic and result serialisation round-trips losslessly, a
        resumed run's results — and any artefact written from them — are
        byte-identical to an uninterrupted run's.  Without ``resume`` an
        existing journal is cleared first, so a fresh run never mixes in
        stale cells.

        With a ``shards`` journal, checkpointing goes one level finer:
        every (scheme, trace) session is journaled the moment it folds, so
        ``resume=True`` skips re-simulating the sessions of a cell the
        crash interrupted *mid-cell* — their results are restored from the
        journal and folded at their original position, keeping aggregates,
        hook order, the final artefact, *and the journal file itself*
        byte-identical to an uninterrupted run.  Cells are matched by
        serialised spec content, so editing the matrix invalidates exactly
        the cells that changed.

        ``on_session`` is called as ``(spec name, scheme, trace index,
        result)`` for every session of every non-skipped spec, in
        deterministic fold order — restored and freshly-simulated sessions
        alike, which is what lets the fleet layer rebuild per-device
        aggregates across a resume.
        """
        spec_list = list(specs)
        if not spec_list:
            return []
        completed: dict[str, ScenarioResult] = {}
        shard_map: dict[str, dict[str, dict]] = {}
        if shards is not None:
            if resume:
                _, shard_map = shards.open_for_resume()
            else:
                shards.clear()
        if journal is not None:
            if not resume:
                journal.clear()
            elif journal.path.exists():
                # Truncate any torn tail *before* reading completed cells,
                # so the appends this resumed run makes can never
                # concatenate onto a half-written last line.
                journal.open_for_resume()
                completed = journal.completed_results(spec_list)
            # A resume that resumes nothing is usually a mistake — a
            # mistyped --out, a journal cleared by a completed run, or a
            # matrix edited since the crash.  The run itself is still
            # correct (every cell replays), so warn rather than fail; but
            # sessions restored from the shard journal of a mid-cell crash
            # are a real resume, not a run from scratch.
            if resume and not completed and not any(
                shard_map.get(_spec_key(spec.to_dict())) for spec in spec_list
            ):
                if not journal.path.exists():
                    reason = f"no journal exists at {journal.path}"
                else:
                    reason = (
                        f"the journal at {journal.path} matches none of the "
                        f"{len(spec_list)} scenario spec(s) — the matrix "
                        f"changed since it was written"
                    )
                warnings.warn(
                    f"--resume requested but {reason}; running every scenario from scratch",
                    RuntimeWarning,
                    stacklevel=2,
                )
        todo = [spec for spec in spec_list if spec.name not in completed]
        fresh: dict[str, ScenarioResult] = {}
        if todo:
            if learner is None and any("PES" in spec.schemes for spec in todo):
                learner = self.train_learner()
            sweeps = [self.build_sweep(spec) for spec in todo]
            evaluator = ParallelEvaluator(
                catalog=self.catalog,
                jobs=self.jobs,
                chunk_size=self.chunk_size,
                job_timeout_s=self.job_timeout_s,
            )
            by_key = {spec.name: spec for spec in todo}
            cell_keys = {spec.name: _spec_key(spec.to_dict()) for spec in todo}
            precomputed: dict[tuple[str, str, int], SessionResult] = {}
            for spec in todo:
                for shard_key, payload in shard_map.get(cell_keys[spec.name], {}).items():
                    scheme, _, trace_index = shard_key.rpartition("/")
                    if not scheme or not trace_index.isdigit():
                        continue
                    precomputed[(spec.name, scheme, int(trace_index))] = (
                        SessionResult.from_dict(payload)
                    )

            def checkpoint(
                sweep: MatrixSweep, aggregates: dict[str, SchemeAggregates]
            ) -> None:
                result = ScenarioResult(spec=by_key[sweep.key], aggregates=aggregates)
                fresh[sweep.key] = result
                if journal is not None:
                    journal.append(result)

            session_counters: dict[tuple[str, str], int] = {}

            def record_session(
                key: str, scheme: str, trace: object, result: SessionResult
            ) -> None:
                # Fold order is deterministic per (key, scheme), so a plain
                # counter recovers the trace index without widening the
                # evaluate_matrix hook signature.
                trace_index = session_counters.get((key, scheme), 0)
                session_counters[(key, scheme)] = trace_index + 1
                if shards is not None and (key, scheme, trace_index) not in precomputed:
                    shards.append_shard(
                        cell_keys[key], f"{scheme}/{trace_index}", result.to_dict()
                    )
                if on_session is not None:
                    on_session(key, scheme, trace_index, result)

            on_job = (
                record_session if (shards is not None or on_session is not None) else None
            )
            evaluator.evaluate_matrix(
                sweeps,
                learner=learner,
                on_sweep_complete=checkpoint,
                on_job_complete=on_job,
                precomputed=precomputed or None,
            )
        return [
            completed[spec.name] if spec.name in completed else fresh[spec.name]
            for spec in spec_list
        ]


def results_to_rows(
    results: Sequence[ScenarioResult],
) -> dict[str, dict[str, AggregateMetrics]]:
    """Scenario -> scheme -> overall metrics, the shape the
    :mod:`repro.analysis.reporting` scenario tables consume."""
    return {
        result.spec.name: {
            scheme: aggregates.overall for scheme, aggregates in result.aggregates.items()
        }
        for result in results
    }


# -- result artefacts ------------------------------------------------------------------


def results_to_payload(
    results: Sequence[ScenarioResult], *, matrix: str | None = None
) -> dict:
    """The JSON payload of a scenario run (schema of ``SCENARIOS_*.json``).

    The payload is a pure function of the results: the worker count used to
    produce them is deliberately *not* recordable.  An always-``null``
    ``jobs`` key is kept for schema compatibility with older artefacts —
    embedding the real value made ``scenarios run`` write different files
    for ``--jobs 1`` and ``--jobs 4`` even though the results were
    bit-identical, breaking byte-level artefact diffing.
    """
    return {
        "matrix": matrix,
        "jobs": None,
        "n_scenarios": len(results),
        "scenarios": [result.to_dict() for result in results],
    }


def write_results(
    results: Sequence[ScenarioResult],
    path: str | Path,
    *,
    matrix: str | None = None,
) -> Path:
    """Atomically write a ``SCENARIOS_*.json`` artefact.

    Routed through :func:`repro.utils.write_json_atomic` (temp sibling,
    fsync, :func:`os.replace`), so a crash mid-write can never leave a
    truncated artefact at ``path`` — readers see either the old complete
    file or the new complete file.
    """
    payload = results_to_payload(results, matrix=matrix)
    return write_json_atomic(payload, path)


def load_results(path: str | Path) -> tuple[dict, list[ScenarioResult]]:
    """Read a ``SCENARIOS_*.json`` artefact back into result objects.

    Raises :class:`~repro.scenarios.checkpoint.ArtefactError` when the file
    holds corrupt or truncated JSON, naming the file and the parse position
    instead of surfacing a bare decode error.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtefactError(
            f"results artefact {path} is corrupt or truncated: {exc.msg} at "
            f"line {exc.lineno} column {exc.colno} (char {exc.pos})"
        ) from exc
    results = [ScenarioResult.from_dict(entry) for entry in payload["scenarios"]]
    return payload, results
