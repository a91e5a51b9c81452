"""Parallel batched evaluation engine: multi-process scheme sweeps.

A full paper evaluation replays every (scheme x trace) pair, and each replay
is independent — exactly the embarrassingly parallel shape a process pool
exploits.  :meth:`ParallelEvaluator.evaluate_matrix` is the one replay path:
it fans the jobs of one or more :class:`MatrixSweep` cells out over a
``multiprocessing`` pool, and :meth:`ParallelEvaluator.compare` (hence
:meth:`Simulator.compare` with ``jobs>1``) is a one-sweep matrix.

* **Shared simulators** — every replay goes through one
  :class:`_MatrixWorker`, which builds a
  :class:`~repro.runtime.simulator.Simulator` lazily per distinct setup
  (``setup_key``, else the sweep key) and keeps it, so the hardware model,
  the per-scheme baseline schedulers, and the per-app PES schedulers are
  constructed once per setup, not once per job.  Pool workers get theirs
  (with the trained learner) once, via the pool initializer; the serial
  path and the parent-side re-runs use one of their own.
* **Chunked work stealing** — jobs are pulled from a shared queue in small
  chunks (``imap_unordered``), so a worker that drew short sessions steals
  the next chunk instead of idling behind a worker stuck on a long one.
* **Deterministic ordering** — every job carries its index; results are
  re-sequenced as they arrive, so the output (and every floating-point
  aggregate fold) is independent of worker count and completion order.
* **Streaming aggregation** — per-cell overall and per-app
  :class:`~repro.runtime.metrics.AggregateMetrics` are folded incrementally
  (in job order) as workers deliver results; with ``keep_results=False`` a
  sweep over thousands of sessions never materialises the full
  ``SessionResult`` lists.
* **Serial path** — when one worker would do (``jobs=1``), the pool is
  bypassed and the jobs replay in-process in global job order.  Because
  every replay is deterministic, any ``jobs`` value produces bit-identical
  ``SessionResult`` objects and aggregates; only wall-clock changes.
* **Graceful degradation** — a job that raises in a worker comes back as a
  failure payload instead of poisoning the pool; after the pool is torn
  down cleanly, failed (and, with ``job_timeout_s``, stalled) jobs are
  re-run serially in the parent, so a transient worker crash degrades to
  serial throughput rather than a lost sweep, while a deterministic bug
  surfaces as the original exception from the serial re-run.  Set
  ``retry_failed_jobs=False`` to get a :class:`WorkerJobError` (carrying
  the worker traceback) instead of the retry.

Running evaluations in parallel
-------------------------------

Route a one-setup sweep through the ``jobs`` knob::

    simulator.compare(traces, schemes, learner=learner, jobs=4)

fan several setups through one pool::

    ParallelEvaluator(jobs=4).evaluate_matrix(
        [MatrixSweep(key="exynos", setup=setup, traces=tuple(traces),
                     schemes=("Interactive", "EBS"))]
    )

or use the command line::

    python -m repro evaluate --apps cnn google --schemes Interactive EBS --jobs 4
    python -m repro scenarios run --matrix default --jobs 4
    python -m repro bench --jobs 4     # writes results/BENCH_parallel.json

``python -m repro bench`` records the serial-vs-parallel speedup (plus the
machine's CPU count) in ``results/BENCH_parallel.json``; expect ~linear
scaling up to the physical core count and ~1x on single-core containers.
"""

from __future__ import annotations

import multiprocessing
import traceback as traceback_module
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.pes import PesConfig
from repro.core.predictor.sequence_learner import EventSequenceLearner
from repro.runtime.metrics import (
    AggregateMetrics,
    FaultAggregate,
    SessionResult,
    StreamingMatrixAggregator,
    ThermalAggregate,
)
from repro.runtime.simulator import KNOWN_SCHEMES, SimulationSetup, Simulator
from repro.traces.trace import Trace, TraceSet
from repro.utils import mp_context, pool_chunk_size, resolve_jobs
from repro.webapp.apps import AppCatalog

__all__ = [
    "MatrixOutcome",
    "MatrixSweep",
    "ParallelEvaluator",
    "SchemeAggregates",
    "WorkerJobError",
    "resolve_jobs",
]


class WorkerJobError(RuntimeError):
    """A parallel replay job failed in a worker and retries were disabled.

    The message embeds the worker-side traceback, so the failure is
    diagnosable even though the original exception object died with the
    worker process.
    """


@dataclass(frozen=True)
class _JobFailure:
    """Picklable record of an exception raised inside a pool worker."""

    error_type: str
    message: str
    traceback: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "_JobFailure":
        return cls(
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback_module.format_exc(),
        )


@dataclass(frozen=True)
class SchemeAggregates:
    """Streamed aggregates of one scheme's sweep.

    ``thermal`` carries the folded dynamic-thermal telemetry (peak
    temperature, throttle residency, throttle slowdown) and is ``None``
    whenever the sweep's sessions did not track live thermal state —
    static-thermal and thermal-free runs keep their aggregate shape (and
    serialised artefacts) unchanged.  ``faults`` likewise carries the folded
    resilience metrics and is ``None`` for fault-free sweeps.
    """

    overall: AggregateMetrics
    per_app: dict[str, AggregateMetrics]
    thermal: ThermalAggregate | None = None
    faults: FaultAggregate | None = None


@dataclass(frozen=True)
class MatrixSweep:
    """One scenario's share of a matrix evaluation.

    Every sweep carries its own :class:`SimulationSetup` — matrix cells may
    differ in platform, frequency cap, or PES tuning — while the pool and
    the trained learner are shared across the whole matrix.

    ``setup_key`` tags sweeps that share one hardware configuration: all
    sweeps carrying the same tag must carry the *same* ``setup`` (and
    ``pes_config``) object, and workers then build one simulator per tag
    instead of one per sweep.  A fleet of thousands of devices drawn from a
    handful of platform variants pays for a handful of power tables and
    scheduler caches, not thousands.
    :class:`~repro.scenarios.runner.ScenarioRunner` tags every sweep it
    builds.  An untagged sweep (``None``, for sweeps built by hand) caches
    its simulator under its own ``key``, which therefore must not also be
    another sweep's tag unless the two share the setup.
    """

    key: str
    setup: SimulationSetup
    traces: tuple[Trace, ...]
    schemes: tuple[str, ...]
    pes_config: PesConfig | None = None
    setup_key: str | None = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("a matrix sweep needs a non-empty key")
        if not self.schemes:
            raise ValueError(f"matrix sweep {self.key!r} has no schemes")
        unknown = [scheme for scheme in self.schemes if scheme not in KNOWN_SCHEMES]
        if unknown:
            raise ValueError(f"unknown scheme {unknown[0]!r} in matrix sweep {self.key!r}")
        if len(set(self.schemes)) != len(self.schemes):
            # A duplicated scheme replays twice and double-counts its
            # streamed aggregates.
            raise ValueError(f"matrix sweep {self.key!r} lists a scheme twice")
        if not self.traces:
            # A zero-trace sweep would silently vanish from the aggregates
            # and surface as a KeyError in whoever indexes by sweep key.
            raise ValueError(f"matrix sweep {self.key!r} has no traces")

    @property
    def n_jobs(self) -> int:
        return len(self.traces) * len(self.schemes)


@dataclass
class MatrixOutcome:
    """Streamed aggregates (and optionally raw results) of a matrix run.

    Both mappings are keyed ``sweep key -> scheme``; ``results`` is ``None``
    unless the matrix ran with ``keep_results=True``.
    """

    aggregates: dict[str, dict[str, SchemeAggregates]]
    results: dict[str, dict[str, list[SessionResult]]] | None = None


# -- worker state -------------------------------------------------------------------
#
# One _MatrixWorker replays every job of a matrix run: pool workers get theirs
# once through the initializer, and the parent uses its own for the serial path
# and for re-running failed jobs.


@dataclass
class _MatrixWorker:
    """Replays matrix jobs on lazily built simulators, one per setup.

    ``sweeps`` maps sweep key -> ``(setup, pes_config, cache_key)``; the
    cache key is the sweep's ``setup_key`` (else its own key), so sweeps
    tagged as sharing a hardware configuration share one simulator.
    Simulators are built on first use, so a worker that only ever steals
    jobs from two setups never pays for the others' power tables and
    scheduler caches.
    """

    catalog: AppCatalog
    learner: EventSequenceLearner | None
    sweeps: dict[str, tuple[SimulationSetup, PesConfig | None, str]]
    simulators: dict[str, Simulator] = field(default_factory=dict)

    @classmethod
    def for_sweeps(
        cls,
        sweeps: Sequence[MatrixSweep],
        catalog: AppCatalog,
        learner: EventSequenceLearner | None,
    ) -> "_MatrixWorker":
        entries: dict[str, tuple[SimulationSetup, PesConfig | None, str]] = {}
        owners: dict[str, MatrixSweep] = {}
        for sweep in sweeps:
            cache_key = sweep.setup_key or sweep.key
            owner = owners.setdefault(cache_key, sweep)
            if owner.setup is not sweep.setup or owner.pes_config is not sweep.pes_config:
                # Sharing a simulator but not the objects would silently
                # replay one sweep on another's hardware model.
                raise ValueError(
                    f"matrix sweeps {owner.key!r} and {sweep.key!r} share "
                    f"simulator key {cache_key!r} but not the same setup"
                )
            entries[sweep.key] = (sweep.setup, sweep.pes_config, cache_key)
        return cls(catalog=catalog, learner=learner, sweeps=entries)

    def run(self, key: str, scheme: str, trace: Trace) -> SessionResult:
        setup, pes_config, cache_key = self.sweeps[key]
        simulator = self.simulators.get(cache_key)
        if simulator is None:
            simulator = Simulator(setup=setup, catalog=self.catalog)
            self.simulators[cache_key] = simulator
        return simulator.run_scheme(
            [trace], scheme, learner=self.learner, pes_config=pes_config
        )[0]


_MATRIX_WORKER: _MatrixWorker | None = None


def _init_matrix_worker(worker: _MatrixWorker) -> None:
    global _MATRIX_WORKER
    _MATRIX_WORKER = worker


def _run_matrix_job(
    job: tuple[int, str, str, Trace]
) -> tuple[int, SessionResult | _JobFailure]:
    """Replay one (sweep, scheme, trace) job on the worker-local state.

    Exceptions come back as :class:`_JobFailure` payloads rather than
    propagating through the pool: a raising job must not poison the shared
    ``imap`` stream the rest of the matrix is still flowing through.
    """
    index, key, scheme, trace = job
    try:
        assert _MATRIX_WORKER is not None, "matrix worker pool was not initialised"
        result = _MATRIX_WORKER.run(key, scheme, trace)
    except Exception as exc:
        return index, _JobFailure.from_exception(exc)
    return index, result


def _run_matrix_job_chunk(
    jobs: list[tuple[int, str, str, Trace]]
) -> list[tuple[int, SessionResult | _JobFailure]]:
    """Replay a chunk of matrix jobs as one pool task (see :func:`_chunked`)."""
    return [_run_matrix_job(job) for job in jobs]


def _chunked(jobs: list, size: int) -> list[list]:
    """Split the job list into parent-side chunks of at most ``size`` jobs.

    Chunking happens here, not via ``imap_unordered``'s ``chunksize``: with
    ``chunksize > 1`` CPython wraps the result stream in a plain generator,
    which has no ``next(timeout)`` and so cannot carry the stall watchdog.
    Submitting pre-chunked task lists with ``chunksize=1`` keeps the real
    ``IMapUnorderedIterator`` (timeout-capable) while preserving the IPC
    amortisation chunking is for.
    """
    return [jobs[start : start + size] for start in range(0, len(jobs), size)]


# -- driver side --------------------------------------------------------------------


def _finalize_sweep(
    aggregator: StreamingMatrixAggregator, sweep: MatrixSweep
) -> dict[str, SchemeAggregates]:
    """Finalise one sweep's cells from the folded sums (pure, repeatable)."""
    per_scheme: dict[str, SchemeAggregates] = {}
    for scheme in sweep.schemes:
        if (sweep.key, scheme) not in aggregator.cells:
            continue
        overall, per_app = aggregator.finalize_cell(sweep.key, scheme)
        per_scheme[scheme] = SchemeAggregates(
            overall=overall,
            per_app=per_app,
            thermal=aggregator.finalize_cell_thermal(sweep.key, scheme),
            faults=aggregator.finalize_cell_faults(sweep.key, scheme),
        )
    return per_scheme


@dataclass
class ParallelEvaluator:
    """Fans (scheme x trace) replay jobs out over a process pool."""

    setup: SimulationSetup = field(default_factory=SimulationSetup)
    catalog: AppCatalog = field(default_factory=AppCatalog)
    jobs: int | None = None
    #: Jobs per pool task; ``None`` lets :func:`repro.utils.pool_chunk_size`
    #: pick one that gives each worker several chunks to steal.
    chunk_size: int | None = None
    #: Stall watchdog: if no result arrives for this many seconds, the pool
    #: is torn down and the undelivered jobs are re-run serially in the
    #: parent.  ``None`` (the default) waits indefinitely.  This is a
    #: *progress* timeout on the whole pool, not a per-job deadline — it
    #: only fires when every worker has gone quiet (hung or dead).
    job_timeout_s: float | None = None
    #: When ``True`` (the default), jobs that failed in a worker — or never
    #: arrived before a stall — are re-run serially in the parent after the
    #: pool is torn down, so one crashing worker degrades throughput instead
    #: of losing the sweep.  ``False`` raises :class:`WorkerJobError`
    #: carrying the worker traceback.
    retry_failed_jobs: bool = True

    def __post_init__(self) -> None:
        self._jobs = resolve_jobs(self.jobs)

    # -- public API ------------------------------------------------------------

    def compare(
        self,
        traces: TraceSet | Sequence[Trace],
        schemes: Sequence[str],
        *,
        learner: EventSequenceLearner | None = None,
        pes_config: PesConfig | None = None,
    ) -> dict[str, list[SessionResult]]:
        """Drop-in parallel :meth:`Simulator.compare`: a one-sweep matrix."""
        trace_tuple = tuple(traces)
        if not trace_tuple or not schemes:
            return {scheme: [] for scheme in schemes}
        sweep = MatrixSweep(
            key="compare",
            setup=self.setup,
            traces=trace_tuple,
            schemes=tuple(schemes),
            pes_config=pes_config,
        )
        outcome = self.evaluate_matrix([sweep], learner=learner, keep_results=True)
        assert outcome.results is not None
        return outcome.results[sweep.key]

    def evaluate_matrix(
        self,
        sweeps: Sequence[MatrixSweep],
        *,
        learner: EventSequenceLearner | None = None,
        keep_results: bool = False,
        on_sweep_complete: Callable[[MatrixSweep, dict[str, SchemeAggregates]], None]
        | None = None,
        on_job_complete: Callable[[str, str, Trace, SessionResult], None] | None = None,
        precomputed: dict[tuple[str, str, int], SessionResult] | None = None,
    ) -> MatrixOutcome:
        """Fan several scenarios' (scheme x trace) jobs through one pool.

        Jobs from every sweep share the pool, so a short scenario's workers
        steal from a long one instead of idling at scenario boundaries.
        Aggregation folds results in global job order (sweep, then scheme,
        then trace), making every per-scenario aggregate bit-identical for
        any worker count.

        ``on_sweep_complete`` is called once per sweep, in matrix order, the
        moment that sweep's last job has been folded — while later sweeps
        may still be running.  The checkpoint journal hangs off this hook:
        finalisation is a pure function of the folded sums, so the
        aggregates it receives are identical to the ones returned at the
        end.

        ``on_job_complete`` is called once per (sweep key, scheme, trace)
        job as ``(key, scheme, trace, result)``, in fold order — i.e. global
        job order regardless of worker count, so a shard-level checkpoint
        built on it (:class:`~repro.scenarios.checkpoint.ShardJournal`) is
        deterministic for any ``--jobs`` value.

        ``precomputed`` maps ``(sweep key, scheme, trace index)`` to an
        already-known :class:`SessionResult` (e.g. restored from a shard
        journal on ``--resume``).  Those jobs are never re-simulated; their
        results are folded in their original global job position, so the
        aggregates — and every hook invocation — stay bit-identical to an
        uninterrupted run.
        """
        sweep_list = list(sweeps)
        keys = [sweep.key for sweep in sweep_list]
        if len(set(keys)) != len(keys):
            raise ValueError("matrix sweep keys must be unique")
        if learner is None and any("PES" in sweep.schemes for sweep in sweep_list):
            raise ValueError("running PES requires a trained learner")
        worker = _MatrixWorker.for_sweeps(sweep_list, self.catalog, learner)

        jobs: list[tuple[int, str, str, Trace]] = []
        sweep_end: dict[int, MatrixSweep] = {}
        done: dict[int, SessionResult] = {}
        for sweep in sweep_list:
            for scheme in sweep.schemes:
                for trace_index, trace in enumerate(sweep.traces):
                    if precomputed is not None:
                        known = precomputed.get((sweep.key, scheme, trace_index))
                        if known is not None:
                            done[len(jobs)] = known
                    jobs.append((len(jobs), sweep.key, scheme, trace))
            sweep_end[len(jobs) - 1] = sweep
        aggregator = StreamingMatrixAggregator()
        ordered: list[SessionResult | None] = [None] * len(jobs) if keep_results else []
        if not jobs:
            return MatrixOutcome(aggregates={}, results={} if keep_results else None)

        def fold(index: int, result: SessionResult) -> None:
            _, key, scheme, trace = jobs[index]
            aggregator.add(key, scheme, result)
            if ordered:
                ordered[index] = result
            if on_job_complete is not None:
                on_job_complete(key, scheme, trace, result)
            finished = sweep_end.get(index)
            if finished is not None and on_sweep_complete is not None:
                on_sweep_complete(finished, _finalize_sweep(aggregator, finished))

        workers = min(self._jobs, len(jobs) - len(done))
        if workers <= 1:
            # In-process, in global job order; jobs present in ``done`` fold
            # their known result without touching a simulator.
            for index, key, scheme, trace in jobs:
                result = done.get(index)
                fold(index, worker.run(key, scheme, trace) if result is None else result)
        else:
            todo = [job for job in jobs if job[0] not in done]
            self._drain_pool(
                n_jobs=len(jobs),
                submit=lambda pool, chunk: pool.imap_unordered(
                    _run_matrix_job_chunk, _chunked(todo, chunk)
                ),
                initializer=_init_matrix_worker,
                initargs=(worker,),
                workers=workers,
                fold=fold,
                rerun=lambda index: worker.run(*jobs[index][1:]),
                prefill=done,
            )

        aggregates: dict[str, dict[str, SchemeAggregates]] = {}
        for sweep in sweep_list:
            per_scheme = _finalize_sweep(aggregator, sweep)
            if per_scheme:
                aggregates[sweep.key] = per_scheme

        results: dict[str, dict[str, list[SessionResult]]] | None = None
        if keep_results:
            results = {}
            cursor = 0
            for sweep in sweep_list:
                per_scheme_results: dict[str, list[SessionResult]] = {}
                for scheme in sweep.schemes:
                    per_scheme_results[scheme] = ordered[cursor : cursor + len(sweep.traces)]  # type: ignore[assignment]
                    cursor += len(sweep.traces)
                results[sweep.key] = per_scheme_results
        return MatrixOutcome(aggregates=aggregates, results=results)

    # -- pool lifecycle -----------------------------------------------------------

    def _drain_pool(
        self,
        *,
        n_jobs: int,
        submit: Callable,
        initializer: Callable,
        initargs: tuple,
        workers: int,
        fold: Callable[[int, SessionResult], None],
        rerun: Callable[[int], SessionResult],
        prefill: dict[int, SessionResult] | None = None,
    ) -> None:
        """Run one pool to completion with ordered folding and fault recovery.

        ``prefill`` seeds already-known results (resume path): they join the
        pending map up front, fold at their original position as the prefix
        fills in, and are never submitted to the pool.

        Results arrive in completion order (work stealing); the contiguous
        prefix is folded as it fills in, so aggregation order — hence every
        floating-point total — matches the serial sweep exactly.  A job that
        failed in its worker parks as a :class:`_JobFailure` and blocks the
        prefix; once the pool is torn down (cleanly on completion,
        ``terminate`` on a stall), failed and undelivered jobs are re-run
        serially in the parent (or surfaced as :class:`WorkerJobError` when
        ``retry_failed_jobs`` is off) and the fold completes in order.
        KeyboardInterrupt and other parent-side exceptions still terminate
        and join the pool before propagating — no leaked worker processes,
        no un-joined pool.
        """
        n_todo = n_jobs - (len(prefill) if prefill else 0)
        chunk = self.chunk_size or pool_chunk_size(n_todo, workers)
        # Deliveries arrive one chunk at a time, and a chunk runs its jobs
        # serially on one worker — so the per-delivery watchdog bound is the
        # per-job timeout scaled by the chunk size.
        timeout = None if self.job_timeout_s is None else self.job_timeout_s * chunk
        pending: dict[int, SessionResult | _JobFailure] = dict(prefill) if prefill else {}
        next_index = 0
        delivered = 0
        stalled = False
        pool = mp_context().Pool(processes=workers, initializer=initializer, initargs=initargs)
        try:
            iterator = submit(pool, chunk)
            while delivered < n_todo:
                try:
                    batch = iterator.next(timeout)
                except StopIteration:  # pragma: no cover - defensive
                    break
                except multiprocessing.TimeoutError:
                    stalled = True
                    break
                for index, result in batch:
                    delivered += 1
                    pending[index] = result
                while next_index in pending and not isinstance(
                    pending[next_index], _JobFailure
                ):
                    fold(next_index, pending.pop(next_index))  # type: ignore[arg-type]
                    next_index += 1
        except BaseException:
            # Don't drain the queued remainder of the sweep just to report a
            # failure that already happened.
            pool.terminate()
            raise
        else:
            if stalled:
                # Workers have gone quiet past the watchdog: close() would
                # wait on them forever.
                pool.terminate()
            else:
                pool.close()
        finally:
            pool.join()

        failures = {
            index: result
            for index, result in pending.items()
            if isinstance(result, _JobFailure)
        }
        undelivered = [
            index
            for index in range(next_index, n_jobs)
            if index not in pending
        ]
        to_recover = sorted(failures.keys() | set(undelivered))
        if to_recover:
            if not self.retry_failed_jobs:
                detail = "\n\n".join(
                    f"job {index}: {failure.error_type}: {failure.message}\n"
                    f"{failure.traceback}"
                    for index, failure in sorted(failures.items())
                ) or f"jobs {undelivered} stalled past job_timeout_s={self.job_timeout_s}"
                raise WorkerJobError(
                    f"{len(to_recover)} parallel job(s) failed and "
                    f"retry_failed_jobs is off:\n{detail}"
                )
            reasons = [
                f"job {index}: {failures[index].error_type}: {failures[index].message}"
                if index in failures
                else f"job {index}: no result before job_timeout_s={self.job_timeout_s}"
                for index in to_recover
            ]
            warnings.warn(
                f"{len(to_recover)} parallel job(s) failed or stalled; "
                "re-running serially in the parent:\n  " + "\n  ".join(reasons),
                RuntimeWarning,
                stacklevel=3,
            )
            for index in to_recover:
                pending[index] = rerun(index)

        while next_index < n_jobs:
            result = pending.pop(next_index)
            assert not isinstance(result, _JobFailure)
            fold(next_index, result)
            next_index += 1
