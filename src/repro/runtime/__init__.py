"""Runtime simulation: event-driven replay of traces under each scheduler."""

from repro.runtime.metrics import (
    AggregateMetrics,
    EventOutcome,
    SessionResult,
    StreamingAggregator,
    StreamingMatrixAggregator,
    StreamingSweepAggregator,
    aggregate_results,
)
from repro.runtime.engine import ReactiveEngine, ProactiveEngine, OracleEngine, EngineConfig
from repro.runtime.simulator import Simulator, SimulationSetup

#: Parallel-evaluation names resolved lazily (PEP 562) so importing the
#: package does not pull in ``multiprocessing``; ``Simulator.compare`` and
#: the CLI likewise defer the import until a pool is actually requested.
_PARALLEL_EXPORTS = {
    "ParallelEvaluator",
    "SchemeAggregates",
    "MatrixSweep",
    "MatrixOutcome",
}

__all__ = [
    "EventOutcome",
    "SessionResult",
    "AggregateMetrics",
    "StreamingAggregator",
    "StreamingMatrixAggregator",
    "StreamingSweepAggregator",
    "aggregate_results",
    "ReactiveEngine",
    "ProactiveEngine",
    "OracleEngine",
    "EngineConfig",
    "ParallelEvaluator",
    "SchemeAggregates",
    "MatrixSweep",
    "MatrixOutcome",
    "Simulator",
    "SimulationSetup",
]


def __getattr__(name: str):
    if name in _PARALLEL_EXPORTS:
        from repro.runtime import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
