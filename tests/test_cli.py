"""Tests for the command-line interface: one smoke test per subcommand,
plus regressions for the parse-time/normalisation guards."""

import json

import pytest

from repro.cli import main
from repro.traces.io import load_traces


class TestPlatformsCommand:
    def test_lists_both_platforms(self, capsys):
        assert main(["platforms"]) == 0
        output = capsys.readouterr().out
        assert "exynos5410" in output
        assert "tegra_parker" in output
        assert "A15" in output


class TestGenerateCommand:
    def test_writes_trace_file(self, tmp_path, capsys):
        out = tmp_path / "traces.json"
        code = main(["generate", "--apps", "cnn", "bbc", "--traces", "1", "--out", str(out)])
        assert code == 0
        traces = load_traces(out)
        assert len(traces) == 2
        assert set(traces.app_names()) == {"cnn", "bbc"}
        assert "wrote 2 traces" in capsys.readouterr().out

    def test_unknown_app_fails(self, tmp_path):
        with pytest.raises(KeyError):
            main(["generate", "--apps", "myspace", "--out", str(tmp_path / "x.json")])

    def test_zero_traces_rejected_at_parse_time(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--traces", "0", "--out", str(tmp_path / "x.json")])


class TestTrainCommand:
    def test_reports_seen_and_unseen_accuracy(self, capsys):
        code = main(["train", "--traces-per-app", "1", "--eval-traces", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "trained on" in output
        assert "seen average" in output and "unseen average" in output


class TestEvaluateCommand:
    def test_reactive_only_evaluation(self, capsys):
        code = main(
            [
                "evaluate",
                "--apps",
                "google",
                "--traces",
                "1",
                "--schemes",
                "Interactive",
                "EBS",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Interactive" in output and "EBS" in output
        assert "QoS violation" in output

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--schemes", "Magic"])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_rejects_a_repeated_scheme_as_usage_error(self, jobs):
        argv = ["evaluate", "--apps", "cnn", "--traces", "1", "--jobs", jobs]
        with pytest.raises(SystemExit, match="duplicate"):
            main(argv + ["--schemes", "Interactive", "EBS", "EBS"])

    def test_rejects_unknown_platform(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--platform", "snapdragon"])

    def test_zero_traces_rejected_at_parse_time(self):
        # Regression: `--traces 0` used to crash mid-run (empty aggregation /
        # zero-energy baseline division) instead of failing argument parsing.
        with pytest.raises(SystemExit):
            main(["evaluate", "--apps", "google", "--traces", "0", "--schemes", "Interactive"])

    def test_zero_energy_baseline_renders_na_instead_of_crashing(self):
        from repro.cli import _evaluation_rows
        from repro.runtime.metrics import AggregateMetrics

        def metrics(energy):
            return AggregateMetrics(
                scheduler_name="x",
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

        rows = _evaluation_rows(
            ["Interactive", "EBS"],
            {"Interactive": metrics(0.0), "EBS": metrics(4.0)},
            "Interactive",
        )
        assert all("n/a" in row for row in rows)


class TestScenariosCommand:
    def test_list_shows_library_and_axes(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        assert "built-in scenarios" in output
        assert "flash_crowd" in output
        assert "matrices:" in output
        assert "session regimes:" in output
        assert "thermal models:" in output
        assert "cramped_chassis" in output

    def test_list_matrix_expansion(self, capsys):
        assert main(["scenarios", "list", "--matrix", "default"]) == 0
        output = capsys.readouterr().out
        assert "exynos5410/default/core" in output
        assert "tegra_parker/flash_crowd/core" in output

    def test_run_named_scenarios_and_compare(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        code = main(
            [
                "scenarios",
                "run",
                "--scenario",
                "baseline_seen",
                "--jobs",
                "1",
                "--train-traces-per-app",
                "1",
                "--out",
                str(out_a),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "baseline_seen" in output
        assert "QoS viol." in output

        payload = json.loads(out_a.read_text())
        assert payload["n_scenarios"] == 1
        assert payload["scenarios"][0]["spec"]["name"] == "baseline_seen"
        schemes = payload["scenarios"][0]["schemes"]
        assert {"Interactive", "EBS", "PES"} == set(schemes)

        # compare (render one artefact)
        assert main(["scenarios", "compare", str(out_a)]) == 0
        assert "baseline_seen" in capsys.readouterr().out

        # compare (diff two artefacts — identical run, so 0.0% deltas)
        assert main(["scenarios", "compare", str(out_a), str(out_a)]) == 0
        diff = capsys.readouterr().out
        assert "B vs A" in diff
        assert "+0.0%" in diff

    def test_run_writes_jobs_independent_artefact(self, tmp_path, capsys):
        # Regression: `scenarios run` used to embed the worker count in its
        # artefact (`"jobs": 2`), so --jobs 1 and --jobs 2 produced different
        # bytes for bit-identical results while `sweep` was already
        # jobs-independent.  Both subcommands now write jobs-free artefacts.
        args = [
            "scenarios",
            "run",
            "--scenario",
            "hot_chassis_live",
            "--train-traces-per-app",
            "1",
        ]
        out_serial = tmp_path / "serial.json"
        assert main(args + ["--jobs", "1", "--out", str(out_serial)]) == 0
        output = capsys.readouterr().out
        # The dynamic-thermal scenario renders the thermal telemetry table.
        assert "throttle res." in output

        out_parallel = tmp_path / "parallel.json"
        assert main(args + ["--jobs", "2", "--out", str(out_parallel)]) == 0
        assert out_serial.read_bytes() == out_parallel.read_bytes()

        payload = json.loads(out_serial.read_text())
        assert payload["jobs"] is None
        spec = payload["scenarios"][0]["spec"]
        assert spec["thermal_mode"] == "dynamic"

    def test_sweep_writes_jobs_independent_artefact(self, tmp_path, capsys):
        args = [
            "scenarios",
            "sweep",
            "--big-cores",
            "none",
            "2",
            "--thermal",
            "none",
            "constant_1100",
            "--schemes",
            "Interactive",
            "EBS",
            "--name",
            "clitest",
        ]
        out_serial = tmp_path / "serial.json"
        assert main(args + ["--jobs", "1", "--out", str(out_serial)]) == 0
        output = capsys.readouterr().out
        assert "platform variant(s)" in output
        assert "exynos5410+b2+th.constant_1100/default/core" in output
        assert "variant" in output  # the sweep pivot table

        out_parallel = tmp_path / "parallel.json"
        assert main(args + ["--jobs", "2", "--out", str(out_parallel)]) == 0
        # Acceptance: the artefact is byte-identical for any --jobs value.
        assert out_serial.read_bytes() == out_parallel.read_bytes()

        payload = json.loads(out_serial.read_text())
        assert payload["matrix"] == "sweep_clitest"
        assert payload["jobs"] is None
        assert payload["n_scenarios"] == 4
        specs = [entry["spec"] for entry in payload["scenarios"]]
        assert {spec["thermal"] for spec in specs} == {None, "constant_1100"}

    def test_sweep_default_out_path_uses_name(self, tmp_path, monkeypatch, capsys):
        import repro.bench as bench

        monkeypatch.setattr(bench, "_default_results_dir", lambda: tmp_path)
        assert main(["scenarios", "sweep", "--name", "defaultpath"]) == 0
        assert (tmp_path / "SCENARIOS_sweep_defaultpath.json").exists()

    def test_sweep_rejects_bad_axis_values_at_parse_time(self):
        # Unknown curves and malformed numbers are argparse usage errors,
        # not raw tracebacks from deep inside the sweep expansion.
        with pytest.raises(SystemExit):
            main(["scenarios", "sweep", "--thermal", "liquid_nitrogen"])
        with pytest.raises(SystemExit):
            main(["scenarios", "sweep", "--big-cores", "two"])
        with pytest.raises(SystemExit):
            main(["scenarios", "sweep", "--perf-scales", "1.5"])

    def test_sweep_rejects_duplicates_and_unknown_axes_cleanly(self):
        # Values that only fail at matrix construction (duplicate axis
        # entries, unknown regimes/mixes) exit cleanly too.
        with pytest.raises(SystemExit, match="duplicate"):
            main(["scenarios", "sweep", "--thermal", "none", "none"])
        with pytest.raises(SystemExit, match="duplicate"):
            main(["scenarios", "sweep", "--regimes", "default", "default"])
        with pytest.raises(SystemExit, match="duplicate"):
            main(["scenarios", "sweep", "--schemes", "EBS", "EBS"])
        with pytest.raises(SystemExit, match="regime"):
            main(["scenarios", "sweep", "--regimes", "hyperdrive"])
        with pytest.raises(SystemExit, match="app mix"):
            main(["scenarios", "sweep", "--apps", "everything"])


    def test_compare_rejects_three_files(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scenarios", "compare", "a", "b", "c"])

    def test_run_unknown_matrix_fails(self):
        with pytest.raises(KeyError):
            main(["scenarios", "run", "--matrix", "nope"])

    def test_run_rejects_matrix_and_scenario_together(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "run", "--matrix", "full", "--scenario", "low_battery"])


class TestBenchCommand:
    def test_quick_bench_writes_all_artefacts(self, tmp_path, capsys):
        code = main(["bench", "--quick", "--jobs", "2", "--results-dir", str(tmp_path)])
        assert code == 0
        for name in ("solver", "compare", "parallel", "scenarios", "sweep", "thermal"):
            path = tmp_path / f"BENCH_{name}.json"
            assert path.exists(), f"missing {path.name}"
            payload = json.loads(path.read_text())
            assert payload["name"] == name
            assert payload["ops_per_sec"] > 0
        scenario_payload = json.loads((tmp_path / "BENCH_scenarios.json").read_text())
        assert scenario_payload["matrix"] == "quick"
        assert scenario_payload["n_scenarios"] == 2
        sweep_payload = json.loads((tmp_path / "BENCH_sweep.json").read_text())
        assert sweep_payload["n_variants"] == 2
        assert sweep_payload["n_scenarios"] == 2
        thermal_payload = json.loads((tmp_path / "BENCH_thermal.json").read_text())
        assert thermal_payload["matrix"] == "thermal_quick"
        assert thermal_payload["throttle_residency"]

    def test_only_filter(self, tmp_path):
        code = main(
            ["bench", "--quick", "--only", "scenarios", "--results-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "BENCH_scenarios.json").exists()
        assert not (tmp_path / "BENCH_solver.json").exists()

    def test_unknown_bench_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--only", "warp", "--results-dir", str(tmp_path)])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            main(["generate"])

    def test_scenarios_requires_action(self):
        with pytest.raises(SystemExit):
            main(["scenarios"])
