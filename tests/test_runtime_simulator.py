"""Tests for the Simulator experiment driver."""

import pytest

from repro.core.pes import PesConfig
from repro.runtime.metrics import aggregate_results
from repro.runtime.simulator import SimulationSetup, Simulator
from repro.schedulers.ebs import EbsScheduler


class TestSimulationSetup:
    def test_power_table_covers_platform(self):
        setup = SimulationSetup()
        assert len(setup.power_table.active_w) == len(setup.system)

    def test_engine_config_bundles_models(self, setup):
        config = setup.engine_config()
        assert config.system is setup.system
        assert config.power_table is setup.power_table


class TestSimulator:
    def test_run_reactive(self, simulator, small_trace):
        result = simulator.run_reactive(small_trace, EbsScheduler())
        assert result.scheduler_name == "EBS"
        assert len(result.outcomes) == len(small_trace)

    def test_run_scheme_names(self, simulator, small_trace, learner):
        for scheme in ("Interactive", "Ondemand", "EBS", "Oracle"):
            results = simulator.run_scheme([small_trace], scheme)
            assert len(results) == 1
            assert results[0].scheduler_name == scheme
        pes_results = simulator.run_scheme([small_trace], "PES", learner=learner)
        assert pes_results[0].scheduler_name == "PES"

    def test_pes_requires_learner(self, simulator, small_trace):
        with pytest.raises(ValueError):
            simulator.run_scheme([small_trace], "PES")

    def test_unknown_scheme_rejected(self, simulator, small_trace):
        with pytest.raises(ValueError):
            simulator.run_scheme([small_trace], "Magic")

    def test_compare_runs_all_schemes(self, simulator, small_trace, learner):
        results = simulator.compare([small_trace], ["EBS", "PES"], learner=learner)
        assert set(results) == {"EBS", "PES"}
        assert all(len(v) == 1 for v in results.values())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_compare_rejects_a_repeated_scheme(self, simulator, small_trace, jobs):
        # A repeated scheme would replay twice under one result key.
        with pytest.raises(ValueError, match="twice"):
            simulator.compare([small_trace], ["Interactive", "EBS", "EBS"], jobs=jobs)

    def test_pes_config_propagates(self, simulator, small_trace, learner):
        result = simulator.run_pes(small_trace, learner, PesConfig(confidence_threshold=1.0))
        assert result.commits == 0

    def test_aggregate_per_app(self, simulator, generator, learner):
        traces = [generator.generate("cnn", seed=7), generator.generate("bbc", seed=8)]
        results = simulator.run_scheme([t.slice(0, 10) for t in traces], "EBS")
        per_app = Simulator.aggregate_per_app(results)
        assert set(per_app) == {"cnn", "bbc"}

    def test_normalised_energy_by_app(self, simulator, small_trace, learner):
        scheme_results = simulator.compare([small_trace], ["Interactive", "EBS"], learner=learner)
        normalised = Simulator.normalised_energy_by_app(scheme_results, baseline="Interactive")
        app = small_trace.app_name
        assert normalised["Interactive"][app] == pytest.approx(1.0)
        assert 0.0 < normalised["EBS"][app] <= 1.05

    def test_normalised_energy_requires_baseline(self, simulator, small_trace):
        results = {"EBS": simulator.run_scheme([small_trace], "EBS")}
        with pytest.raises(KeyError):
            Simulator.normalised_energy_by_app(results, baseline="Interactive")

    def test_aggregate_overall(self, simulator, small_trace):
        results = simulator.run_scheme([small_trace], "EBS")
        metrics = Simulator.aggregate_overall(results)
        assert metrics.n_sessions == 1
        assert metrics.n_events == len(small_trace)

    def test_default_baselines_cover_every_reactive_scheme(self, simulator):
        names = [scheduler.name for scheduler in simulator.default_baselines()]
        assert names == ["Interactive", "Ondemand", "EBS"]


class TestSchedulerReuse:
    def test_baseline_scheduler_reused_across_sweeps(self, setup, catalog, small_trace):
        simulator = Simulator(setup=setup, catalog=catalog)
        first = simulator.run_scheme([small_trace], "EBS")
        scheduler = simulator._baseline_cache["EBS"]
        second = simulator.run_scheme([small_trace], "EBS")
        assert simulator._baseline_cache["EBS"] is scheduler
        assert first == second

    def test_pes_scheduler_cached_per_app(self, setup, catalog, generator, learner):
        simulator = Simulator(setup=setup, catalog=catalog)
        traces = [generator.generate("cnn", seed=41).slice(0, 8),
                  generator.generate("cnn", seed=42).slice(0, 8)]
        simulator.run_scheme(traces, "PES", learner=learner)
        assert set(simulator._pes_cache) == {"cnn"}

    def test_cached_pes_matches_fresh_scheduler_per_trace(
        self, setup, catalog, generator, learner
    ):
        traces = [generator.generate("google", seed=51).slice(0, 8),
                  generator.generate("google", seed=52).slice(0, 8)]
        cached = Simulator(setup=setup, catalog=catalog).run_scheme(
            traces, "PES", learner=learner
        )
        fresh = [
            Simulator(setup=setup, catalog=catalog).run_pes(trace, learner)
            for trace in traces
        ]
        assert cached == fresh

    def test_pes_cache_invalidated_on_new_learner_or_config(
        self, setup, catalog, small_trace, learner
    ):
        from repro.core.pes import PesConfig

        simulator = Simulator(setup=setup, catalog=catalog)
        simulator.run_pes(small_trace, learner)
        first = simulator._pes_cache[small_trace.app_name][2]
        simulator.run_pes(small_trace, learner, PesConfig(confidence_threshold=0.9))
        second = simulator._pes_cache[small_trace.app_name][2]
        assert second is not first


class TestPesCacheKeying:
    """Regressions for the PES scheduler cache key (issue 3 satellite)."""

    def test_none_config_and_explicit_default_share_entry(
        self, setup, catalog, small_trace, learner
    ):
        simulator = Simulator(setup=setup, catalog=catalog)
        first = simulator._pes_scheduler(small_trace.app_name, learner, None)
        second = simulator._pes_scheduler(small_trace.app_name, learner, PesConfig())
        assert second is first, "None must be normalised to the default PesConfig"

    def test_equal_retrained_learner_reuses_scheduler(
        self, setup, catalog, small_trace, learner
    ):
        import copy

        simulator = Simulator(setup=setup, catalog=catalog)
        first = simulator._pes_scheduler(small_trace.app_name, learner, None)
        retrained = copy.deepcopy(learner)
        assert retrained is not learner and retrained == learner
        second = simulator._pes_scheduler(small_trace.app_name, retrained, None)
        assert second is first, "an equal learner must hit the cache"

    def test_unequal_config_still_rebuilds(self, setup, catalog, small_trace, learner):
        simulator = Simulator(setup=setup, catalog=catalog)
        first = simulator._pes_scheduler(small_trace.app_name, learner, None)
        second = simulator._pes_scheduler(
            small_trace.app_name, learner, PesConfig(confidence_threshold=0.9)
        )
        assert second is not first


class TestNormalisedEnergyWarning:
    def test_zero_energy_baseline_app_warns_instead_of_silent_drop(self):
        from repro.runtime.metrics import SessionResult

        empty = SessionResult(app_name="ghost", scheduler_name="Interactive")
        empty_ebs = SessionResult(app_name="ghost", scheduler_name="EBS")
        with pytest.warns(UserWarning, match="ghost"):
            normalised = Simulator.normalised_energy_by_app(
                {"Interactive": [empty], "EBS": [empty_ebs]}, baseline="Interactive"
            )
        assert normalised == {"Interactive": {}, "EBS": {}}
