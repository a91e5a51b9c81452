"""In-memory span tracer that wraps the program's public layer calls.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each
public function listed in :data:`LAYERS` with a wrapper, in the class that
defines it or in every ``repro`` module that imported it by name.  A
wrapper records one span — name, start, end, parent span, session — and
returns the wrapped call's result untouched, so a traced run writes the
same artefact bytes as an untraced one (the gate in ``run.py`` checks it).

A span's session is the index of the engine replay it ran under; the spans
of session ``k`` are those between the start of the ``k``-th engine run and
the end of the ``k``-th shard-journal append.  ``batch.py`` maps the index
to the ``cell/scheme/trace`` key the journal append names.

Self time is derived from the recorded spans after the run: a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

#: SessionState spans whose self time is also split by the enclosing span
#: that caused them.
SPLIT_PARENTS = {
    "traces.generate": "in_generate",
    "core.predictor.predict_sequence": "in_predict",
}


@dataclass(frozen=True)
class Layer:
    """One wrapped public call and the end-to-end metric it should move."""

    span: str
    module: str
    target: str
    moves: str
    where: str
    #: Workloads on which the layer is predicted to do no work at all, so a
    #: change to it should move no end-to-end metric there.
    zero_on: tuple[str, ...] = ()
    #: End-to-end metrics a change to the layer should leave unchanged on
    #: the workloads where it does work.
    unchanged: str = ""


LAYERS: tuple[Layer, ...] = (
    Layer("scenarios.train_learner", "repro.scenarios.runner", "ScenarioRunner.train_learner",
          "setup_s", "pes_matrix, fleet_mixed", ("reactive_thermal",),
          "replays_per_s, session_ms_* (training is set-up)"),
    Layer("scenarios.build_sweep", "repro.scenarios.runner", "ScenarioRunner.build_sweep",
          "replays_per_s", "fleet_mixed (many small cells)"),
    Layer("traces.generate", "repro.traces.generator", "TraceGenerator.generate",
          "replays_per_s, not session_ms_*",
          "reactive_thermal >> pes_matrix; fleet_mixed distinct_ratio ~1 (memo bypass)",
          unchanged="session_ms_* (traces are generated before the first session)"),
    Layer("traces.features", "repro.traces.session_state", "SessionState.features",
          "replays_per_s; session_ms_mean on PES workloads", "all"),
    Layer("traces.available_events", "repro.traces.session_state",
          "SessionState.available_events",
          "replays_per_s; session_ms_mean on PES workloads", "all"),
    Layer("traces.apply_event", "repro.traces.session_state", "SessionState.apply_event",
          "replays_per_s; session_ms_mean on PES workloads", "all"),
    Layer("traces.clone", "repro.traces.session_state", "SessionState.clone",
          "replays_per_s; session_ms_mean on PES workloads",
          "pes_matrix, fleet_mixed (predictor roll-forward only)", ("reactive_thermal",)),
    Layer("webapp.build_dom", "repro.webapp.apps", "AppProfile.build_dom",
          "replays_per_s", "all"),
    Layer("core.predictor.predict_sequence", "repro.core.predictor.hybrid",
          "HybridEventPredictor.predict_sequence", "session_ms_mean, replays_per_s",
          "pes_matrix, fleet_mixed", ("reactive_thermal",)),
    Layer("core.optimizer.build_specs", "repro.core.optimizer.optimizer",
          "GlobalOptimizer.build_specs", "session_ms_p90 first, then replays_per_s",
          "pes_matrix (tegra_parker/flash_crowd)", ("reactive_thermal",)),
    Layer("core.optimizer.solve", "repro.core.optimizer.optimizer", "GlobalOptimizer.solve",
          "session_ms_p90 first, then replays_per_s",
          "pes_matrix (tegra_parker/flash_crowd)", ("reactive_thermal",)),
    Layer("schedulers.plan", "repro.schedulers", "ReactiveScheduler.plan (every subclass)",
          "replays_per_s", "reactive_thermal"),
    Layer("schedulers.enumerate_options", "repro.schedulers.base", "enumerate_options",
          "replays_per_s", "reactive_thermal"),
    Layer("hardware.thermal_advance", "repro.hardware.thermal", "ThermalState.advance",
          "session_ms_mean", "reactive_thermal, fleet_mixed", ("pes_matrix",)),
    Layer("runtime.engine.reactive", "repro.runtime.engine", "ReactiveEngine.run",
          "session_ms_mean", "all"),
    Layer("runtime.engine.proactive", "repro.runtime.engine", "ProactiveEngine.run",
          "session_ms_mean", "pes_matrix, fleet_mixed", ("reactive_thermal",)),
    Layer("faults.session", "repro.faults.injector", "FaultInjector.session",
          "replays_per_s", "fleet_mixed only", ("pes_matrix", "reactive_thermal")),
    Layer("faults.transform", "repro.faults.injector", "SessionFaultState.transform",
          "replays_per_s", "fleet_mixed only", ("pes_matrix", "reactive_thermal")),
    Layer("runtime.metrics.add", "repro.runtime.metrics", "StreamingMatrixAggregator.add",
          "replays_per_s", "fleet_mixed"),
    Layer("runtime.metrics.merge", "repro.runtime.metrics", "StreamingAggregator.merge",
          "replays_per_s", "fleet_mixed", ("pes_matrix", "reactive_thermal")),
    Layer("checkpoint.append_shard", "repro.scenarios.checkpoint", "ShardJournal.append_shard",
          "replays_per_s", "all"),
    Layer("checkpoint.append_cell", "repro.scenarios.checkpoint", "MatrixJournal.append",
          "replays_per_s", "pes_matrix, reactive_thermal", ("fleet_mixed",)),
    Layer("artefact.payload", "repro.scenarios.runner / repro.fleet.runner",
          "results_to_payload / fleet_to_payload", "replays_per_s", "fleet_mixed",
          unchanged="session_ms_* (runs after the last session)"),
    Layer("artefact.write", "repro.utils", "write_json_atomic", "replays_per_s", "fleet_mixed",
          unchanged="session_ms_* (runs after the last session)"),
)

SPANS = tuple(layer.span for layer in LAYERS)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for span in ("traces.features", "traces.available_events", "traces.apply_event",
                 "traces.clone"):
        for suffix in SPLIT_PARENTS.values():
            units[f"{span}.self_s_{suffix}"] = "s"
    units.update({
        "traces.distinct_ratio": "ratio",
        "webapp.build_dom.distinct_ratio": "ratio",
        "core.predictor.predictions": "count",
        "core.optimizer.mean_window": "events",
        "checkpoint.append_shard.bytes": "B",
        "checkpoint.append_cell.bytes": "B",
        "artefact.write.bytes": "B",
        "other.self_s": "s",
        "trace.wall_s": "s",
        "trace.overhead": "ratio",
    })
    return units


#: Per-layer metrics that must repeat exactly across runs of one seed.
EXACT_METRICS = tuple(
    name
    for name, unit in per_layer_metric_units().items()
    if unit in ("count", "ratio", "events", "B") and name != "trace.overhead"
)


class Tracer:
    """Records spans around the wrapped calls; see the module docstring."""

    def __init__(self, clock) -> None:
        #: Span times are read from it: the probe's clock, which leaves out
        #: the probes' own time (``speed.py``).
        self.clock = clock
        self._ids: dict[str, int] = {}
        #: ``[name id, start, end, parent span index, session index]``.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.session = -1
        self._next_session = 0
        self.sweep_inputs: list[tuple] = []
        self.dom_inputs: list[tuple] = []
        self.predictions = 0
        self.window_events = 0
        self.file_bytes: dict[str, int] = {}

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, original, name: str, before=None, after=None):
        name_id = self._ids.setdefault(name, len(self._ids))
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.session]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_method(self, owner: type, attr: str, name: str, before=None, after=None) -> None:
        setattr(owner, attr, self._wrapper(owner.__dict__[attr], name, before, after))

    def _wrap_function(self, original, name: str, after=None) -> None:
        """Wrap a module-level function in every ``repro`` module bound to it."""
        wrapper = self._wrapper(original, name, after=after)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every call in :data:`LAYERS` (imports the modules first)."""
        import repro.schedulers
        from repro.core.optimizer.optimizer import GlobalOptimizer
        from repro.core.predictor.hybrid import HybridEventPredictor
        from repro.faults.injector import FaultInjector, SessionFaultState
        from repro.fleet import runner as fleet_runner
        from repro.hardware.thermal import ThermalState
        from repro.runtime.engine import ProactiveEngine, ReactiveEngine
        from repro.runtime.metrics import StreamingAggregator, StreamingMatrixAggregator
        from repro.scenarios import runner as scenario_runner
        from repro.scenarios.checkpoint import MatrixJournal, ShardJournal
        from repro.scenarios.runner import ScenarioRunner
        from repro.schedulers.base import ReactiveScheduler
        from repro.traces.generator import TraceGenerator
        from repro.traces.session_state import SessionState
        from repro.utils import write_json_atomic
        from repro.webapp.apps import AppProfile

        def sweep_input(args) -> None:
            spec = args[1]
            self.sweep_inputs.append(
                (spec.regime, tuple(spec.resolved_apps()), spec.traces_per_app, spec.seed)
            )

        def dom_input(args) -> None:
            profile = args[0]
            rng = args[1] if len(args) > 1 else None
            state = None if rng is None else repr(rng.bit_generator.state)
            self.dom_inputs.append((profile.name, state))

        def start_session(args) -> None:
            self.session = self._next_session
            self._next_session += 1

        def end_session(args, result) -> None:
            self.file_bytes["checkpoint.append_shard"] = args[0].path.stat().st_size
            self.session = -1

        def cell_appended(args, result) -> None:
            self.file_bytes["checkpoint.append_cell"] = args[0].path.stat().st_size

        def predicted(args, result) -> None:
            self.predictions += len(result)

        def window(args) -> None:
            self.window_events += len(args[1])

        def written(args, result) -> None:
            self.file_bytes["artefact.write"] = result.stat().st_size

        wrap = self._wrap_method
        wrap(ScenarioRunner, "train_learner", "scenarios.train_learner")
        wrap(ScenarioRunner, "build_sweep", "scenarios.build_sweep", before=sweep_input)
        wrap(TraceGenerator, "generate", "traces.generate")
        for attr in ("features", "available_events", "apply_event", "clone"):
            wrap(SessionState, attr, f"traces.{attr}")
        wrap(AppProfile, "build_dom", "webapp.build_dom", before=dom_input)
        wrap(HybridEventPredictor, "predict_sequence", "core.predictor.predict_sequence",
             after=predicted)
        wrap(GlobalOptimizer, "build_specs", "core.optimizer.build_specs")
        wrap(GlobalOptimizer, "solve", "core.optimizer.solve", before=window)
        pending = list(ReactiveScheduler.__subclasses__())
        while pending:
            scheduler = pending.pop()
            pending.extend(scheduler.__subclasses__())
            if "plan" in scheduler.__dict__:
                wrap(scheduler, "plan", "schedulers.plan")
        self._wrap_function(repro.schedulers.base.enumerate_options,
                            "schedulers.enumerate_options")
        wrap(ThermalState, "advance", "hardware.thermal_advance")
        wrap(ReactiveEngine, "run", "runtime.engine.reactive", before=start_session)
        wrap(ProactiveEngine, "run", "runtime.engine.proactive", before=start_session)
        wrap(FaultInjector, "session", "faults.session")
        wrap(SessionFaultState, "transform", "faults.transform")
        wrap(StreamingMatrixAggregator, "add", "runtime.metrics.add")
        wrap(StreamingAggregator, "merge", "runtime.metrics.merge")
        wrap(ShardJournal, "append_shard", "checkpoint.append_shard", after=end_session)
        wrap(MatrixJournal, "append", "checkpoint.append_cell", after=cell_appended)
        self._wrap_function(scenario_runner.results_to_payload, "artefact.payload")
        self._wrap_function(fleet_runner.fleet_to_payload, "artefact.payload")
        self._wrap_function(write_json_atomic, "artefact.write", after=written)
        missing = set(SPANS) - set(self._ids)
        if missing:
            raise RuntimeError(f"tracer could not wrap: {sorted(missing)}")

    # -- analysis ---------------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return list(self._ids)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over the spans recorded so far.

        ``wall_s`` is the traced wall time the spans ran in; the part of it
        no root span covers is reported as ``other.self_s``.
        """
        names = self.names
        n = len(self.spans)
        durations = [end - start for _, start, end, _, _ in self.spans]
        child_time = [0.0] * n
        # Parents precede children, so one forward pass finds each span's
        # nearest enclosing split parent.
        split = [""] * n
        covered = 0.0
        for index, (name_id, _, _, parent, _) in enumerate(self.spans):
            if parent < 0:
                covered += durations[index]
            else:
                child_time[parent] += durations[index]
                split[index] = split[parent]
            split[index] = SPLIT_PARENTS.get(names[name_id], split[index])
        calls = {span: 0 for span in SPANS}
        self_s = {span: 0.0 for span in SPANS}
        split_s: dict[str, float] = {}
        for index, (name_id, _, _, parent, _) in enumerate(self.spans):
            name = names[name_id]
            own = durations[index] - child_time[index]
            calls[name] += 1
            self_s[name] += own
            if name.startswith("traces.") and name != "traces.generate" and parent >= 0:
                suffix = split[parent]
                if suffix:
                    key = f"{name}.self_s_{suffix}"
                    split_s[key] = split_s.get(key, 0.0) + own
        metrics: dict[str, float] = {}
        for span in SPANS:
            metrics[f"{span}.calls"] = calls[span]
            metrics[f"{span}.self_s"] = self_s[span]
        for name, unit in per_layer_metric_units().items():
            if "self_s_in_" in name:
                metrics[name] = split_s.get(name, 0.0)
        sweeps = len(self.sweep_inputs)
        doms = len(self.dom_inputs)
        solves = calls["core.optimizer.solve"]
        metrics.update({
            "traces.distinct_ratio": len(set(self.sweep_inputs)) / sweeps if sweeps else 0.0,
            "webapp.build_dom.distinct_ratio": len(set(self.dom_inputs)) / doms if doms else 0.0,
            "core.predictor.predictions": self.predictions,
            "core.optimizer.mean_window": self.window_events / solves if solves else 0.0,
            "checkpoint.append_shard.bytes": self.file_bytes.get("checkpoint.append_shard", 0),
            "checkpoint.append_cell.bytes": self.file_bytes.get("checkpoint.append_cell", 0),
            "artefact.write.bytes": self.file_bytes.get("artefact.write", 0),
            "other.self_s": wall_s - covered,
            "trace.wall_s": wall_s,
        })
        return metrics

    def dump(self, session_keys: list[str], t0: float) -> dict:
        """The recorded spans as plain JSON, times in seconds from ``t0``."""
        return {
            "columns": ["name", "start_s", "end_s", "parent", "session"],
            "names": self.names,
            "sessions": session_keys,
            "spans": [
                [name_id, round(start - t0, 7), round(end - t0, 7), parent, session]
                for name_id, start, end, parent, session in self.spans
            ],
        }
