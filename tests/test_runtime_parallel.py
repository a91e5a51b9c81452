"""Parallel-vs-serial equivalence tests for the batched evaluation engine.

Every trace replay is deterministic, so fanning the (scheme x trace) jobs
out over worker processes must produce *bit-identical* ``SessionResult``
objects and aggregates — these tests pin that contract for all five
schemes.
"""

from __future__ import annotations

import pytest

from repro.runtime.metrics import aggregate_results
from repro.runtime.parallel import MatrixSweep, ParallelEvaluator, resolve_jobs
from repro.runtime.simulator import Simulator

ALL_SCHEMES = ["Interactive", "Ondemand", "EBS", "PES", "Oracle"]


@pytest.fixture(scope="module")
def eval_traces(generator):
    """A small multi-app sweep: two apps, two sessions each, 10 events."""
    traces = [
        generator.generate("cnn", seed=301),
        generator.generate("cnn", seed=302),
        generator.generate("google", seed=303),
        generator.generate("ebay", seed=304),
    ]
    return [t.slice(0, 10) for t in traces]


@pytest.fixture(scope="module")
def serial_results(simulator, eval_traces, learner):
    return simulator.compare(eval_traces, ALL_SCHEMES, learner=learner, jobs=1)


class TestParallelEquivalence:
    def test_parallel_matches_serial_for_all_schemes(
        self, simulator, eval_traces, learner, serial_results
    ):
        parallel = simulator.compare(eval_traces, ALL_SCHEMES, learner=learner, jobs=4)
        assert set(parallel) == set(serial_results)
        for scheme in ALL_SCHEMES:
            assert parallel[scheme] == serial_results[scheme], (
                f"{scheme}: parallel replay diverged from serial"
            )

    def test_aggregates_match_serial_fold(self, setup, catalog, eval_traces, learner, serial_results):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=3)
        sweep = MatrixSweep(
            key="all", setup=setup, traces=tuple(eval_traces), schemes=tuple(ALL_SCHEMES)
        )
        outcome = evaluator.evaluate_matrix([sweep], learner=learner, keep_results=False)
        assert outcome.results is None
        for scheme in ALL_SCHEMES:
            expected = aggregate_results(serial_results[scheme])
            assert outcome.aggregates["all"][scheme].overall == expected

    def test_streaming_per_app_matches_grouped_aggregation(
        self, setup, catalog, eval_traces, serial_results
    ):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=2)
        sweep = MatrixSweep(key="ebs", setup=setup, traces=tuple(eval_traces), schemes=("EBS",))
        outcome = evaluator.evaluate_matrix([sweep], keep_results=False)
        expected = Simulator.aggregate_per_app(serial_results["EBS"])
        assert outcome.aggregates["ebs"]["EBS"].per_app == expected

    def test_result_ordering_is_trace_order(self, setup, catalog, eval_traces):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=4, chunk_size=1)
        results = evaluator.compare(eval_traces, ["Interactive"])
        apps = [r.app_name for r in results["Interactive"]]
        assert apps == [t.app_name for t in eval_traces]


class TestParallelEvaluatorApi:
    def test_pes_requires_learner(self, setup, catalog, eval_traces):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=2)
        with pytest.raises(ValueError):
            evaluator.compare(eval_traces, ["PES"])

    def test_empty_sweep(self, setup, catalog):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=2)
        assert evaluator.compare([], ["EBS"]) == {"EBS": []}
        # A trace-less sweep is an empty matrix: no cell, so no aggregates.
        assert evaluator.evaluate_matrix([], keep_results=True).aggregates == {}

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_unknown_scheme_propagates(self, setup, catalog, eval_traces):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=2)
        with pytest.raises(ValueError):
            evaluator.compare(eval_traces, ["Magic"])


class TestMatrixEvaluation:
    """evaluate_matrix: several setups through one pool, scenario-keyed."""

    @pytest.fixture(scope="class")
    def sweeps(self, setup, generator):
        from repro.hardware.platforms import tegra_parker
        from repro.runtime.parallel import MatrixSweep
        from repro.runtime.simulator import SimulationSetup

        cnn = [generator.generate("cnn", seed=601).slice(0, 8)]
        google = [generator.generate("google", seed=602).slice(0, 8)]
        return [
            MatrixSweep(
                key="exynos", setup=setup, traces=tuple(cnn), schemes=("Interactive", "EBS")
            ),
            MatrixSweep(
                key="tegra",
                setup=SimulationSetup(system=tegra_parker()),
                traces=tuple(google),
                schemes=("Interactive", "Ondemand"),
            ),
        ]

    def test_serial_and_parallel_matrices_are_identical(self, catalog, sweeps):
        from repro.runtime.parallel import ParallelEvaluator

        serial = ParallelEvaluator(catalog=catalog, jobs=1).evaluate_matrix(
            sweeps, keep_results=True
        )
        parallel = ParallelEvaluator(catalog=catalog, jobs=3).evaluate_matrix(
            sweeps, keep_results=True
        )
        assert parallel.results == serial.results
        assert parallel.aggregates == serial.aggregates

    def test_per_key_setups_actually_differ(self, catalog, sweeps):
        from repro.runtime.parallel import ParallelEvaluator

        outcome = ParallelEvaluator(catalog=catalog, jobs=1).evaluate_matrix(
            sweeps, keep_results=True
        )
        exynos_label = outcome.results["exynos"]["Interactive"][0].outcomes[0].config_label
        tegra_label = outcome.results["tegra"]["Interactive"][0].outcomes[0].config_label
        assert "A15" in exynos_label or "A7" in exynos_label
        assert "A57" in tegra_label

    def test_aggregates_match_per_cell_fold(self, catalog, sweeps):
        from repro.runtime.parallel import ParallelEvaluator

        outcome = ParallelEvaluator(catalog=catalog, jobs=1).evaluate_matrix(
            sweeps, keep_results=True
        )
        for sweep in sweeps:
            for scheme in sweep.schemes:
                expected = aggregate_results(outcome.results[sweep.key][scheme])
                assert outcome.aggregates[sweep.key][scheme].overall == expected

    def test_duplicate_keys_rejected(self, catalog, sweeps):
        from repro.runtime.parallel import ParallelEvaluator

        with pytest.raises(ValueError, match="unique"):
            ParallelEvaluator(catalog=catalog).evaluate_matrix([sweeps[0], sweeps[0]])

    def test_shared_key_without_shared_setup_rejected(self, catalog, sweeps):
        from dataclasses import replace

        from repro.runtime.parallel import ParallelEvaluator

        tagged = [replace(sweep, setup_key="same") for sweep in sweeps]
        with pytest.raises(ValueError, match="not the same setup"):
            ParallelEvaluator(catalog=catalog).evaluate_matrix(tagged)
        # An untagged sweep's own key is its simulator key too.
        clash = [sweeps[0], replace(sweeps[1], setup_key=sweeps[0].key)]
        with pytest.raises(ValueError, match="not the same setup"):
            ParallelEvaluator(catalog=catalog).evaluate_matrix(clash)

    def test_pes_without_learner_rejected(self, catalog, setup, generator):
        from repro.runtime.parallel import MatrixSweep, ParallelEvaluator

        sweep = MatrixSweep(
            key="k",
            setup=setup,
            traces=(generator.generate("cnn", seed=603).slice(0, 4),),
            schemes=("PES",),
        )
        with pytest.raises(ValueError, match="learner"):
            ParallelEvaluator(catalog=catalog).evaluate_matrix([sweep])

    def test_unknown_scheme_rejected_at_sweep_construction(self, catalog, setup):
        from repro.runtime.parallel import MatrixSweep

        with pytest.raises(ValueError, match="scheme"):
            MatrixSweep(key="k", setup=setup, traces=(), schemes=("Magic",))

    def test_empty_traces_rejected_at_sweep_construction(self, setup):
        from repro.runtime.parallel import MatrixSweep

        with pytest.raises(ValueError, match="traces"):
            MatrixSweep(key="k", setup=setup, traces=(), schemes=("Interactive",))

    def test_empty_matrix(self, catalog):
        from repro.runtime.parallel import ParallelEvaluator

        outcome = ParallelEvaluator(catalog=catalog).evaluate_matrix([], keep_results=True)
        assert outcome.aggregates == {}
        assert outcome.results == {}


class TestSweptPlatformMatrixEquivalence:
    """jobs=N == jobs=1 for matrices whose cells are *derived* platforms.

    The matrix worker caches one simulator per sweep key; swept cells differ
    only in platform overrides (core counts, perf_scale, thermal throttle),
    so the keys — which embed every override — must keep those simulators
    apart or two variants silently share hardware models.
    """

    @pytest.fixture(scope="class")
    def swept_sweeps(self, generator):
        from repro.hardware.platforms import derive_platform
        from repro.hardware.thermal import get_thermal_model
        from repro.runtime.parallel import MatrixSweep
        from repro.runtime.simulator import SimulationSetup

        trace = generator.generate("cnn", seed=605).slice(0, 8)
        base = derive_platform("exynos5410")
        variants = {
            "exynos5410": base,
            "exynos5410+b2": derive_platform("exynos5410", big_cores=2),
            "exynos5410+ps0.9": derive_platform("exynos5410", little_perf_scale=0.9),
            "exynos5410+th.cramped": get_thermal_model("cramped_chassis").constrain(base),
        }
        return [
            MatrixSweep(
                key=key,
                setup=SimulationSetup(system=system),
                traces=(trace,),
                schemes=("Interactive", "EBS"),
            )
            for key, system in variants.items()
        ]

    def test_parallel_matches_serial_bit_for_bit(self, catalog, swept_sweeps):
        from repro.runtime.parallel import ParallelEvaluator

        serial = ParallelEvaluator(catalog=catalog, jobs=1).evaluate_matrix(
            swept_sweeps, keep_results=True
        )
        parallel = ParallelEvaluator(catalog=catalog, jobs=4, chunk_size=1).evaluate_matrix(
            swept_sweeps, keep_results=True
        )
        assert parallel.results == serial.results
        assert parallel.aggregates == serial.aggregates

    def test_variant_cells_are_not_shared(self, catalog, swept_sweeps):
        """Distinct overrides must produce distinct outcomes somewhere —
        otherwise the per-key simulators were (wrongly) shared."""
        from repro.runtime.parallel import ParallelEvaluator

        outcome = ParallelEvaluator(catalog=catalog, jobs=2).evaluate_matrix(
            swept_sweeps, keep_results=False
        )
        base = outcome.aggregates["exynos5410"]
        assert outcome.aggregates["exynos5410+b2"] != base
        assert outcome.aggregates["exynos5410+th.cramped"] != base


class TestSpawnSafety:
    """The pool paths must work under the spawn start method (macOS/Windows
    default): nothing may rely on fork-inherited module state."""

    def test_parallel_sweep_under_spawn_context(
        self, monkeypatch, setup, catalog, generator
    ):
        import multiprocessing

        from repro.runtime import parallel as parallel_module
        from repro.runtime.parallel import ParallelEvaluator

        monkeypatch.setattr(
            parallel_module, "mp_context", lambda: multiprocessing.get_context("spawn")
        )
        traces = [generator.generate("cnn", seed=604).slice(0, 6)]
        schemes = ["Interactive", "EBS"]
        spawned = ParallelEvaluator(setup=setup, catalog=catalog, jobs=2).compare(
            traces, schemes
        )
        serial = ParallelEvaluator(setup=setup, catalog=catalog, jobs=1).compare(
            traces, schemes
        )
        assert spawned == serial
