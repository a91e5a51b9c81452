"""Experiment driver: replay traces under every scheduling scheme.

:class:`Simulator` owns the hardware model (platform, power table,
rendering pipeline) and knows how to run a trace under each scheme —
reactive baselines, PES, and the oracle — and how to aggregate results per
application, which is what the evaluation figures consume.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.pes import PesConfig, PesScheduler
from repro.core.predictor.sequence_learner import EventSequenceLearner
from repro.faults import FaultInjector, FaultSpec
from repro.hardware.acmp import AcmpSystem
from repro.hardware.energy import SwitchingCosts
from repro.hardware.platforms import exynos_5410
from repro.hardware.power import PowerModel, PowerTable
from repro.hardware.thermal import ThermalModel
from repro.runtime.engine import EngineConfig, OracleEngine, ProactiveEngine, ReactiveEngine
from repro.runtime.metrics import AggregateMetrics, SessionResult, aggregate_results, group_by_app
from repro.schedulers.base import ReactiveScheduler
from repro.schedulers.ebs import EbsScheduler
from repro.schedulers.interactive import InteractiveGovernor
from repro.schedulers.ondemand import OndemandGovernor
from repro.schedulers.oracle import OracleScheduler
from repro.traces.trace import Trace, TraceSet
from repro.webapp.apps import AppCatalog
from repro.webapp.rendering import RenderingPipeline

#: The reactive baselines, in evaluation-figure order — the single source
#: for scheme dispatch, ``default_baselines``, and scheme-name validation.
BASELINE_FACTORIES: dict[str, type[ReactiveScheduler]] = {
    "Interactive": InteractiveGovernor,
    "Ondemand": OndemandGovernor,
    "EBS": EbsScheduler,
}

#: Every scheme name ``run_scheme``/``compare`` accept.
KNOWN_SCHEMES: tuple[str, ...] = tuple(BASELINE_FACTORIES) + ("PES", "Oracle")


@dataclass
class SimulationSetup:
    """Hardware platform plus derived models used by every simulation.

    ``thermal`` enables *dynamic* thermal throttling: the engines thread a
    live :class:`~repro.hardware.thermal.ThermalState` for the named curve
    through every session replay, advancing temperature per event and
    capping the configuration space the schedulers plan over.  Leave it
    ``None`` for the pre-thermal behaviour (including platforms that were
    already *statically* throttled via
    :meth:`~repro.hardware.thermal.ThermalModel.constrain`).

    ``faults`` enables seeded fault injection (see :mod:`repro.faults`): the
    engines draw deterministic predictor/sensor/DVFS/event-stream faults per
    session.  A ``None`` or zero-rate (``is_null``) spec maps to no injector
    at all, so it is bit-identical to the fault-free path.
    """

    system: AcmpSystem = field(default_factory=exynos_5410)
    power_model: PowerModel = field(default_factory=PowerModel)
    pipeline: RenderingPipeline = field(default_factory=RenderingPipeline)
    switching: SwitchingCosts = field(default_factory=SwitchingCosts)
    thermal: ThermalModel | None = None
    faults: FaultSpec | None = None
    power_table: PowerTable = field(init=False)

    def __post_init__(self) -> None:
        self.power_table = self.power_model.build_table(self.system)

    def engine_config(self) -> EngineConfig:
        inject = self.faults is not None and not self.faults.is_null
        return EngineConfig(
            system=self.system,
            power_table=self.power_table,
            pipeline=self.pipeline,
            switching=self.switching,
            thermal=self.thermal,
            faults=FaultInjector(self.faults) if inject else None,
        )


@dataclass
class Simulator:
    """Runs traces under the scheduling schemes of the evaluation."""

    setup: SimulationSetup = field(default_factory=SimulationSetup)
    catalog: AppCatalog = field(default_factory=AppCatalog)

    def __post_init__(self) -> None:
        config = self.setup.engine_config()
        self._reactive = ReactiveEngine(config)
        self._proactive = ProactiveEngine(config)
        self._oracle = OracleEngine(config)
        #: scheme name -> factory for the reactive baselines.  ``run_scheme``
        #: builds one scheduler per scheme and relies on ``reset()`` between
        #: traces instead of re-dispatching and reconstructing per trace.
        self._baseline_factories = dict(BASELINE_FACTORIES)
        #: scheme name -> scheduler reused across sweeps (``ReactiveEngine.run``
        #: resets it before every replay, so reuse is result-identical).
        self._baseline_cache: dict[str, ReactiveScheduler] = {}
        #: app name -> (learner, config, scheduler): a PES sweep reuses one
        #: scheduler per application the way the reactive baselines reuse
        #: theirs; ``PesScheduler.reset`` (called by the engine before every
        #: replay) restores a reused instance to freshly-constructed state.
        #: The config key is always concrete (``None`` is normalised to the
        #: default ``PesConfig()``), and the learner is compared by value,
        #: so an equal retrained learner keeps hitting the cache.
        self._pes_cache: dict[str, tuple[EventSequenceLearner, PesConfig, PesScheduler]] = {}

    # -- single-trace runs ---------------------------------------------------------

    def run_reactive(self, trace: Trace, scheduler: ReactiveScheduler) -> SessionResult:
        return self._reactive.run(trace, scheduler)

    def run_pes(
        self,
        trace: Trace,
        learner: EventSequenceLearner,
        pes_config: PesConfig | None = None,
    ) -> SessionResult:
        pes = self._pes_scheduler(trace.app_name, learner, pes_config)
        return self._proactive.run(trace, pes)

    def _pes_scheduler(
        self,
        app_name: str,
        learner: EventSequenceLearner,
        pes_config: PesConfig | None,
    ) -> PesScheduler:
        config = pes_config if pes_config is not None else PesConfig()
        cached = self._pes_cache.get(app_name)
        if cached is not None:
            cached_learner, cached_config, scheduler = cached
            if cached_config == config and cached_learner == learner:
                return scheduler
        scheduler = PesScheduler.create(
            learner=learner,
            profile=self.catalog.get(app_name),
            system=self.setup.system,
            power_table=self.setup.power_table,
            config=config,
        )
        self._pes_cache[app_name] = (learner, config, scheduler)
        return scheduler

    def run_oracle(self, trace: Trace, oracle: OracleScheduler | None = None) -> SessionResult:
        return self._oracle.run(trace, oracle)

    # -- scheme sweeps --------------------------------------------------------------

    def default_baselines(self) -> list[ReactiveScheduler]:
        return [factory() for factory in self._baseline_factories.values()]

    def run_scheme(
        self,
        traces: TraceSet | Sequence[Trace],
        scheme: str,
        *,
        learner: EventSequenceLearner | None = None,
        pes_config: PesConfig | None = None,
    ) -> list[SessionResult]:
        """Run every trace under one named scheme.

        ``scheme`` is one of ``"Interactive"``, ``"Ondemand"``, ``"EBS"``,
        ``"PES"`` (requires ``learner``), or ``"Oracle"``.  Dispatch happens
        once per sweep: baselines reuse a single scheduler instance across
        traces (``ReactiveEngine.run`` resets it before each replay).
        """
        factory = self._baseline_factories.get(scheme)
        if factory is not None:
            scheduler = self._baseline_cache.get(scheme)
            if scheduler is None:
                scheduler = factory()
                self._baseline_cache[scheme] = scheduler
            return [self.run_reactive(trace, scheduler) for trace in traces]
        if scheme == "PES":
            if learner is None:
                raise ValueError("running PES requires a trained learner")
            return [self.run_pes(trace, learner, pes_config) for trace in traces]
        if scheme == "Oracle":
            return [self.run_oracle(trace) for trace in traces]
        raise ValueError(f"unknown scheme {scheme!r}")

    def compare(
        self,
        traces: TraceSet | Sequence[Trace],
        schemes: Sequence[str],
        *,
        learner: EventSequenceLearner | None = None,
        pes_config: PesConfig | None = None,
        jobs: int = 1,
        chunk_size: int | None = None,
    ) -> dict[str, list[SessionResult]]:
        """Replay the same traces under several schemes.

        ``jobs`` fans the (scheme x trace) pairs out over a process pool
        (see :mod:`repro.runtime.parallel`); every replay is deterministic,
        so any ``jobs`` value produces identical results — ``jobs=1`` simply
        runs the sweep in-process.  A scheme listed twice is rejected for
        every ``jobs`` value: it would replay twice under one result key.
        """
        if len(set(schemes)) != len(schemes):
            raise ValueError("compare lists a scheme twice")
        if jobs != 1:
            from repro.runtime.parallel import ParallelEvaluator

            evaluator = ParallelEvaluator(
                setup=self.setup, catalog=self.catalog, jobs=jobs, chunk_size=chunk_size
            )
            return evaluator.compare(traces, schemes, learner=learner, pes_config=pes_config)
        return {
            scheme: self.run_scheme(traces, scheme, learner=learner, pes_config=pes_config)
            for scheme in schemes
        }

    # -- aggregation ------------------------------------------------------------------

    @staticmethod
    def aggregate_per_app(
        results: Sequence[SessionResult],
    ) -> dict[str, AggregateMetrics]:
        """Aggregate a scheme's results per application."""
        return {
            app: aggregate_results(app_results)
            for app, app_results in group_by_app(results).items()
        }

    @staticmethod
    def aggregate_overall(results: Sequence[SessionResult]) -> AggregateMetrics:
        return aggregate_results(results)

    @staticmethod
    def normalised_energy_by_app(
        scheme_results: Mapping[str, Sequence[SessionResult]],
        baseline: str = "Interactive",
    ) -> dict[str, dict[str, float]]:
        """Per-app energy of every scheme normalised to ``baseline`` (Fig. 11).

        Applications whose baseline energy is not positive cannot be
        normalised; they are dropped from the result with a ``UserWarning``
        (a silent drop made Fig. 11 rows disappear without explanation).
        """
        if baseline not in scheme_results:
            raise KeyError(f"baseline scheme {baseline!r} missing from results")
        per_scheme_per_app = {
            scheme: Simulator.aggregate_per_app(list(results))
            for scheme, results in scheme_results.items()
        }
        baseline_per_app = per_scheme_per_app[baseline]
        normalised: dict[str, dict[str, float]] = {}
        dropped: set[str] = set()
        for scheme, per_app in per_scheme_per_app.items():
            normalised[scheme] = {}
            for app, metrics in per_app.items():
                base = baseline_per_app.get(app)
                if base is None or base.total_energy_mj <= 0:
                    dropped.add(app)
                    continue
                normalised[scheme][app] = metrics.total_energy_mj / base.total_energy_mj
        if dropped:
            warnings.warn(
                f"dropping {sorted(dropped)} from normalised energy: "
                f"no positive {baseline!r} baseline energy to normalise against",
                stacklevel=2,
            )
        return normalised
