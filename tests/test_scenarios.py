"""Tests for the declarative scenario-matrix subsystem."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import scenario_energy_table, scenario_qos_table
from repro.core.pes import PesConfig
from repro.scenarios import (
    APP_MIXES,
    BUILTIN_SCENARIOS,
    MATRICES,
    ScenarioMatrix,
    ScenarioRunner,
    ScenarioSpec,
    get_matrix,
    get_scenario,
    load_results,
    resolve_app_mix,
    write_results,
)
from repro.scenarios.runner import ScenarioResult
from repro.traces.presets import get_regime


class TestScenarioSpec:
    def test_defaults_validate(self):
        spec = ScenarioSpec(name="x")
        assert spec.resolved_apps() == APP_MIXES["core"]
        assert spec.baseline == "Interactive"
        assert spec.n_sessions == len(APP_MIXES["core"])

    def test_explicit_app_tuple(self):
        spec = ScenarioSpec(name="x", apps=("cnn", "bbc"), traces_per_app=2)
        assert spec.resolved_apps() == ("cnn", "bbc")
        assert spec.n_sessions == 4

    def test_rejects_unknown_platform(self):
        with pytest.raises(ValueError, match="platform"):
            ScenarioSpec(name="x", platform="snapdragon")

    def test_rejects_unknown_regime(self):
        with pytest.raises(KeyError, match="regime"):
            ScenarioSpec(name="x", regime="hyperdrive")

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            ScenarioSpec(name="x", schemes=("Magic",))

    def test_rejects_unknown_mix(self):
        with pytest.raises(KeyError, match="app mix"):
            ScenarioSpec(name="x", apps="everything")

    def test_rejects_zero_traces(self):
        with pytest.raises(ValueError, match="traces_per_app"):
            ScenarioSpec(name="x", traces_per_app=0)

    def test_rejects_duplicate_schemes(self):
        # A duplicated scheme would replay twice and silently double its
        # streamed aggregates.
        with pytest.raises(ValueError, match="twice"):
            ScenarioSpec(name="x", schemes=("Interactive", "Interactive"))

    def test_rejects_unknown_explicit_app_at_construction(self):
        # A typo must fail before any training/generation happens.
        with pytest.raises(ValueError, match="application"):
            ScenarioSpec(name="x", apps=("cnn", "goggle"))

    def test_low_battery_regime_caps_system(self):
        spec = ScenarioSpec(name="x", regime="low_battery")
        system = spec.system()
        cap = get_regime("low_battery").frequency_cap_mhz
        assert all(c.max_frequency_mhz <= cap for c in system.clusters)

    def test_round_trips_through_dict(self):
        spec = ScenarioSpec(
            name="x",
            platform="tegra_parker",
            regime="flash_crowd",
            apps=("cnn", "bbc"),
            schemes=("Interactive", "PES"),
            traces_per_app=2,
            seed=7,
            pes=PesConfig(confidence_threshold=0.8),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_mix_name_round_trips_as_name(self):
        spec = ScenarioSpec(name="x", apps="news")
        assert ScenarioSpec.from_dict(spec.to_dict()).apps == "news"


class TestScenarioMatrix:
    def test_expansion_is_full_cross_product(self):
        matrix = ScenarioMatrix(
            name="m",
            platforms=("exynos5410", "tegra_parker"),
            regimes=("default", "flash_crowd"),
            app_mixes=("core", "news"),
        )
        specs = matrix.expand()
        assert len(specs) == matrix.n_cells == 8
        assert len({spec.name for spec in specs}) == 8
        assert specs[0].name == "exynos5410/default/core"

    def test_pes_axis_suffixes_names(self):
        matrix = ScenarioMatrix(
            name="m",
            pes_configs=(None, PesConfig(confidence_threshold=0.9)),
        )
        names = [spec.name for spec in matrix.expand()]
        assert names == ["exynos5410/default/core/pes0", "exynos5410/default/core/pes1"]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            ScenarioMatrix(name="m", regimes=())

    def test_duplicate_axis_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioMatrix(name="m", regimes=("default", "default"))
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioMatrix(name="m", schemes=("EBS", "EBS"))
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioMatrix(name="m", platforms=("exynos5410", "exynos5410"))


class TestLibrary:
    def test_builtin_scenarios_cover_every_regime(self):
        regimes = {spec.regime for spec in BUILTIN_SCENARIOS.values()}
        assert {"default", "flash_crowd", "background_idle", "low_battery", "marathon"} <= regimes

    def test_at_least_six_scenarios_and_both_platforms(self):
        assert len(BUILTIN_SCENARIOS) >= 6
        assert {spec.platform for spec in BUILTIN_SCENARIOS.values()} == {
            "exynos5410",
            "tegra_parker",
        }

    def test_default_matrix_meets_acceptance_floor(self):
        matrix = get_matrix("default")
        assert matrix.n_cells >= 6
        assert len(matrix.schemes) >= 3

    def test_every_matrix_expands_validly(self):
        for matrix in MATRICES.values():
            specs = matrix.expand()
            assert len(specs) == matrix.n_cells
            assert len({spec.name for spec in specs}) == len(specs)

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            get_scenario("nope")
        with pytest.raises(KeyError):
            get_matrix("nope")
        with pytest.raises(KeyError):
            resolve_app_mix("nope")


@pytest.fixture(scope="module")
def tiny_specs():
    """Four PES-free cells spanning regimes, both platforms, and a derived
    platform variant (core-count override + thermal curve), kept small."""
    return [
        ScenarioSpec(
            name="a/default",
            apps=("cnn",),
            schemes=("Interactive", "EBS"),
        ),
        ScenarioSpec(
            name="b/low_battery",
            regime="low_battery",
            apps=("google",),
            schemes=("Interactive", "EBS"),
        ),
        ScenarioSpec(
            name="c/tegra_flash",
            platform="tegra_parker",
            regime="flash_crowd",
            apps=("ebay",),
            schemes=("Interactive", "Ondemand"),
        ),
        ScenarioSpec(
            name="d/swept_hot",
            apps=("cnn",),
            schemes=("Interactive", "EBS"),
            big_cores=2,
            thermal="cramped_chassis",
        ),
    ]


@pytest.fixture(scope="module")
def tiny_results(catalog, tiny_specs):
    return ScenarioRunner(catalog=catalog, jobs=1).run(tiny_specs)


class TestScenarioRunner:
    def test_one_result_per_spec_in_order(self, tiny_specs, tiny_results):
        assert [r.spec.name for r in tiny_results] == [s.name for s in tiny_specs]
        for result, spec in zip(tiny_results, tiny_specs):
            assert set(result.aggregates) == set(spec.schemes)
            assert result.overall("Interactive").n_sessions == spec.n_sessions

    def test_parallel_matches_serial_bit_for_bit(self, catalog, tiny_specs, tiny_results):
        parallel = ScenarioRunner(catalog=catalog, jobs=2).run(tiny_specs)
        for serial_result, parallel_result in zip(tiny_results, parallel):
            assert parallel_result.aggregates == serial_result.aggregates

    def test_normalised_energy_uses_first_scheme_as_baseline(self, tiny_results):
        for result in tiny_results:
            normalised = result.normalised_energy()
            assert normalised[result.spec.baseline] == pytest.approx(1.0)
            assert all(value is not None for value in normalised.values())

    def test_regime_shapes_differ(self, catalog):
        """The matrix must actually vary the workload: flash-crowd sessions
        are denser in time than default ones."""
        runner = ScenarioRunner(catalog=catalog)
        default_sweep = runner.build_sweep(
            ScenarioSpec(name="d", apps=("cnn",), schemes=("Interactive",))
        )
        crowd_sweep = runner.build_sweep(
            ScenarioSpec(
                name="f", regime="flash_crowd", apps=("cnn",), schemes=("Interactive",)
            )
        )
        default_trace = default_sweep.traces[0]
        crowd_trace = crowd_sweep.traces[0]
        default_span = default_trace.events[-1].arrival_ms
        crowd_span = crowd_trace.events[-1].arrival_ms
        assert crowd_span < default_span
        assert len(crowd_trace) / max(crowd_span, 1) > len(default_trace) / max(default_span, 1)

    def test_pes_scenario_without_learner_trains_one(self, catalog):
        runner = ScenarioRunner(catalog=catalog, train_traces_per_app=1)
        spec = ScenarioSpec(
            name="p",
            apps=("google",),
            schemes=("Interactive", "PES"),
        )
        results = runner.run([spec])
        assert "PES" in results[0].aggregates

    def test_empty_run_returns_empty(self, catalog):
        assert ScenarioRunner(catalog=catalog).run([]) == []


class TestSetupSharing:
    """Specs on one hardware configuration share a setup object, hence one
    simulator per worker.  Sharing must change no result: running such
    specs together equals running each alone in a fresh runner, where
    nothing is shared."""

    @pytest.fixture(scope="class")
    def mix_specs(self):
        # Like the ``full`` matrix's seen/unseen cells: only the app mix
        # differs (cnn overlaps, so its per-app PES scheduler is reused).
        schemes = ("Interactive", "EBS", "PES")
        return [
            ScenarioSpec(name="mix/cnn", apps=("cnn",), schemes=schemes),
            ScenarioSpec(name="mix/cnn_google", apps=("google", "cnn"), schemes=schemes),
        ]

    def test_specs_differing_only_in_app_mix_share_one_setup(self, catalog, mix_specs):
        runner = ScenarioRunner(catalog=catalog)
        first, second = (runner.build_sweep(spec) for spec in mix_specs)
        assert first.setup_key is not None
        assert first.setup_key == second.setup_key
        assert first.setup is second.setup
        assert first.pes_config is second.pes_config

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_run_matches_each_spec_alone(self, catalog, learner, mix_specs, jobs):
        def run(specs):
            sessions: dict = {}

            def on_session(key, scheme, trace_index, result):
                sessions[(key, scheme, trace_index)] = result

            runner = ScenarioRunner(catalog=catalog, jobs=jobs)
            results = runner.run(specs, learner=learner, on_session=on_session)
            return [result.to_dict() for result in results], sessions

        together, shared_sessions = run(mix_specs)
        alone: list[dict] = []
        alone_sessions: dict = {}
        for spec in mix_specs:
            payload, sessions = run([spec])
            alone += payload
            alone_sessions.update(sessions)
        assert together == alone
        # Per event, not just per aggregate.
        assert shared_sessions == alone_sessions
        assert len(shared_sessions) == sum(
            spec.n_sessions * len(spec.schemes) for spec in mix_specs
        )


class TestResultArtefacts:
    def test_json_round_trip(self, tmp_path, tiny_results):
        path = write_results(tiny_results, tmp_path / "SCENARIOS_test.json", matrix="t")
        payload, restored = load_results(path)
        assert payload["matrix"] == "t"
        # The worker count is never recorded; the key stays for schema compat.
        assert payload["jobs"] is None
        assert payload["n_scenarios"] == len(tiny_results)
        for original, loaded in zip(tiny_results, restored):
            assert loaded.spec == original.spec
            assert loaded.aggregates == original.aggregates

    def test_zero_energy_baseline_normalises_to_none(self):
        from repro.runtime.metrics import AggregateMetrics
        from repro.runtime.parallel import SchemeAggregates

        def metrics(energy):
            return AggregateMetrics(
                scheduler_name="Interactive",
                n_sessions=1,
                n_events=0,
                total_energy_mj=energy,
                qos_violation_rate=0.0,
                mean_latency_ms=0.0,
                wasted_energy_mj=0.0,
                wasted_time_ms=0.0,
                mispredictions=0,
                commits=0,
            )

        result = ScenarioResult(
            spec=ScenarioSpec(name="z", schemes=("Interactive", "EBS")),
            aggregates={
                "Interactive": SchemeAggregates(overall=metrics(0.0), per_app={}),
                "EBS": SchemeAggregates(overall=metrics(5.0), per_app={}),
            },
        )
        assert result.normalised_energy() == {"Interactive": None, "EBS": None}


class TestScenarioReporting:
    def test_tables_render_every_scenario_row(self, tiny_results):
        rows = {
            result.spec.name: {
                scheme: aggregates.overall for scheme, aggregates in result.aggregates.items()
            }
            for result in tiny_results
        }
        energy = scenario_energy_table(rows)
        qos = scenario_qos_table(rows)
        for result in tiny_results:
            assert result.spec.name in energy
            assert result.spec.name in qos
        assert "100.0%" in energy

    def test_zero_baseline_renders_na(self):
        from repro.runtime.metrics import AggregateMetrics

        zero = AggregateMetrics(
            scheduler_name="Interactive",
            n_sessions=1,
            n_events=0,
            total_energy_mj=0.0,
            qos_violation_rate=0.0,
            mean_latency_ms=0.0,
            wasted_energy_mj=0.0,
            wasted_time_ms=0.0,
            mispredictions=0,
            commits=0,
        )
        table = scenario_energy_table({"dead": {"Interactive": zero}})
        assert "n/a" in table
