"""Checkpoint/resume tests: the matrix journal and atomic artefact I/O.

The crash-tolerance contract under test:

* every finished scenario lands in the journal durably, torn tails from a
  mid-write crash are dropped rather than fatal, and entries whose spec no
  longer matches the current matrix are ignored,
* a run killed mid-matrix and resumed with ``--resume`` produces a final
  artefact **byte-identical** to an uninterrupted run's,
* ``write_results`` is atomic (temp file + ``os.replace``; no ``.tmp``
  debris on success) and ``load_results`` reports corrupt artefacts as
  :class:`ArtefactError` naming the file and parse position.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.cli import main
from repro.faults import get_fault_preset
from repro.scenarios import (
    ArtefactError,
    MatrixJournal,
    ScenarioMatrix,
    ScenarioRunner,
    load_results,
    write_results,
)


@pytest.fixture(scope="module")
def mini_specs():
    return ScenarioMatrix(
        name="mini",
        platforms=("exynos5410",),
        regimes=("default", "flash_crowd"),
        app_mixes=("core",),
        schemes=("Interactive", "EBS"),
        fault_specs=(None, get_fault_preset("dvfs_flaky")),
    ).expand()


@pytest.fixture(scope="module")
def uninterrupted_artefact(mini_specs, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "mini.json"
    results = ScenarioRunner(jobs=1).run(mini_specs)
    write_results(results, path, matrix="mini")
    return path.read_text()


class TestMatrixJournal:
    def test_append_entries_clear(self, mini_specs, tmp_path):
        journal = MatrixJournal(tmp_path / "run.journal")
        assert journal.entries() == []
        results = ScenarioRunner(jobs=1).run(mini_specs[:2], journal=journal)
        assert len(journal.entries()) == 2
        completed = journal.completed_results(mini_specs)
        assert sorted(completed) == sorted(spec.name for spec in mini_specs[:2])
        for spec in mini_specs[:2]:
            assert completed[spec.name].to_dict() == results[
                [s.name for s in mini_specs[:2]].index(spec.name)
            ].to_dict()
        journal.clear()
        assert journal.entries() == []
        journal.clear()  # idempotent on a missing file

    def test_torn_tail_is_dropped(self, mini_specs, tmp_path):
        journal = MatrixJournal(tmp_path / "run.journal")
        ScenarioRunner(jobs=1).run(mini_specs[:2], journal=journal)
        lines = journal.path.read_text().splitlines()
        journal.path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        assert len(journal.entries()) == 1
        completed = journal.completed_results(mini_specs)
        assert list(completed) == [mini_specs[0].name]

    def test_complete_json_without_newline_is_still_torn(self, mini_specs, tmp_path):
        journal = MatrixJournal(tmp_path / "run.journal")
        ScenarioRunner(jobs=1).run(mini_specs[:2], journal=journal)
        # The crash cut exactly the trailing newline: the last line parses
        # as complete JSON, but a later append would concatenate onto it
        # and corrupt two records.  It must count as torn.
        torn = journal.path.read_text()[:-1]
        journal.path.write_text(torn)
        assert len(journal.entries()) == 1
        assert list(journal.completed_results(mini_specs)) == [mini_specs[0].name]

    def test_open_for_resume_truncates_the_torn_tail(self, mini_specs, tmp_path):
        journal = MatrixJournal(tmp_path / "run.journal")
        ScenarioRunner(jobs=1).run(mini_specs[:2], journal=journal)
        intact = journal.path.read_text()
        first_line_end = intact.index("\n") + 1
        journal.path.write_text(intact[:-1])  # tear off the final newline
        entries = journal.open_for_resume()
        assert len(entries) == 1
        # The torn bytes are gone: the next append starts on a clean line.
        assert journal.path.read_text() == intact[:first_line_end]

    def test_stale_spec_entries_are_ignored(self, mini_specs, tmp_path):
        journal = MatrixJournal(tmp_path / "run.journal")
        ScenarioRunner(jobs=1).run(mini_specs[:1], journal=journal)
        # The matrix changed since the journal was written: the journaled
        # cell's spec no longer matches, so it must re-run.
        changed = [dataclasses.replace(mini_specs[0], traces_per_app=2)]
        assert journal.completed_results(changed) == {}

    def test_fresh_run_clears_a_stale_journal(self, mini_specs, tmp_path):
        journal = MatrixJournal(tmp_path / "run.journal")
        ScenarioRunner(jobs=1).run(mini_specs[:1], journal=journal)
        # Without resume, an existing journal is cleared before the run, so
        # it only ever holds this run's cells.
        ScenarioRunner(jobs=1).run(mini_specs[1:2], journal=journal)
        assert len(journal.entries()) == 1
        assert list(journal.completed_results(mini_specs)) == [mini_specs[1].name]


class TestResumeByteIdentity:
    def test_resume_after_partial_run_is_byte_identical(
        self, mini_specs, tmp_path, uninterrupted_artefact
    ):
        journal = MatrixJournal(tmp_path / "run.journal")
        # "Crash" after the first two cells: only they reach the journal.
        ScenarioRunner(jobs=1).run(mini_specs[:2], journal=journal)

        out = tmp_path / "mini.json"
        results = ScenarioRunner(jobs=1).run(mini_specs, journal=journal, resume=True)
        write_results(results, out, matrix="mini")
        assert out.read_text() == uninterrupted_artefact

    def test_resume_after_newline_tear_is_byte_identical(
        self, mini_specs, tmp_path, uninterrupted_artefact
    ):
        journal = MatrixJournal(tmp_path / "run.journal")
        ScenarioRunner(jobs=1).run(mini_specs[:2], journal=journal)
        intact = journal.path.read_text()
        # Tear off the final newline only: the last cell's record parses
        # but is untrusted, so it re-runs — and the resume's re-append must
        # not concatenate onto the torn bytes.
        journal.path.write_text(intact[:-1])

        out = tmp_path / "mini.json"
        results = ScenarioRunner(jobs=1).run(mini_specs, journal=journal, resume=True)
        write_results(results, out, matrix="mini")
        assert out.read_text() == uninterrupted_artefact
        assert journal.path.read_text().startswith(intact)

    def test_resume_with_complete_journal_runs_nothing(self, mini_specs, tmp_path):
        journal = MatrixJournal(tmp_path / "run.journal")
        runner = ScenarioRunner(jobs=1)
        first = runner.run(mini_specs, journal=journal)
        resumed = ScenarioRunner(jobs=1).run(mini_specs, journal=journal, resume=True)
        assert [r.to_dict() for r in resumed] == [r.to_dict() for r in first]

    def test_resume_without_a_journal_file_warns(self, mini_specs, tmp_path):
        journal = MatrixJournal(tmp_path / "absent.journal")
        with pytest.warns(RuntimeWarning, match="no journal exists"):
            ScenarioRunner(jobs=1).run(mini_specs[:1], journal=journal, resume=True)

    def test_resume_matching_zero_cells_warns(self, mini_specs, tmp_path):
        journal = MatrixJournal(tmp_path / "run.journal")
        ScenarioRunner(jobs=1).run(mini_specs[:1], journal=journal)
        # The matrix changed since the journal was written, so no journaled
        # cell matches: the resume silently resuming *nothing* was a
        # debugging trap — now it says so.
        changed = [dataclasses.replace(mini_specs[0], traces_per_app=2)]
        with pytest.warns(RuntimeWarning, match="matches none"):
            ScenarioRunner(jobs=1).run(changed, journal=journal, resume=True)


class TestMidCellResume:
    """The shard journal makes the matrix resumable *mid-cell*: a run
    killed part-way through a scenario's sessions restores the finished
    sessions on --resume instead of re-simulating the whole cell."""

    def test_mid_cell_crash_resume_is_byte_identical(
        self, mini_specs, tmp_path, monkeypatch, uninterrupted_artefact
    ):
        import repro.runtime.simulator as simulator_module

        from repro.scenarios import ShardJournal

        journal = MatrixJournal(tmp_path / "run.journal")
        shards = ShardJournal(tmp_path / "run.shards.journal")
        original = simulator_module.Simulator.run_scheme
        calls = {"n": 0}

        def crash_mid_cell(self, traces, scheme, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:
                raise KeyboardInterrupt("simulated mid-cell crash")
            return original(self, traces, scheme, *args, **kwargs)

        # Three sessions is less than one cell of the mini matrix, so the
        # crash lands mid-cell: nothing reaches the matrix journal, only
        # the shard journal has anything to offer a resume.
        per_cell = mini_specs[0].n_sessions * len(mini_specs[0].schemes)
        assert per_cell > 3
        monkeypatch.setattr(simulator_module.Simulator, "run_scheme", crash_mid_cell)
        with pytest.raises(KeyboardInterrupt):
            ScenarioRunner(jobs=1).run(mini_specs, journal=journal, shards=shards)
        assert journal.entries() == []
        assert shards.path.exists()

        replays = {"n": 0}

        def count_replays(self, traces, scheme, *args, **kwargs):
            replays["n"] += 1
            return original(self, traces, scheme, *args, **kwargs)

        monkeypatch.setattr(simulator_module.Simulator, "run_scheme", count_replays)
        # The shard journal restores sessions, so this is a resume, not a
        # run from scratch: no RuntimeWarning may claim otherwise.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = ScenarioRunner(jobs=1).run(
                mini_specs, journal=journal, shards=shards, resume=True
            )
        out = tmp_path / "mini.json"
        write_results(results, out, matrix="mini")
        assert out.read_text() == uninterrupted_artefact
        total = sum(spec.n_sessions * len(spec.schemes) for spec in mini_specs)
        assert replays["n"] == total - 3, "journaled sessions must not re-simulate"

    def test_torn_shard_tail_is_dropped_on_resume(
        self, mini_specs, tmp_path, uninterrupted_artefact
    ):
        from repro.scenarios import ShardJournal

        shards = ShardJournal(tmp_path / "run.shards.journal")
        ScenarioRunner(jobs=1).run(mini_specs[:1], shards=shards)
        lines = shards.path.read_text().splitlines()
        shards.path.write_text(
            "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2]
        )
        results = ScenarioRunner(jobs=1).run(mini_specs, shards=shards, resume=True)
        out = tmp_path / "mini.json"
        write_results(results, out, matrix="mini")
        assert out.read_text() == uninterrupted_artefact

    def test_fresh_run_clears_a_stale_shard_journal(self, mini_specs, tmp_path):
        from repro.scenarios import ShardJournal

        shards = ShardJournal(tmp_path / "run.shards.journal")
        ScenarioRunner(jobs=1).run(mini_specs[:1], shards=shards)
        n_first = len(shards.path.read_text().splitlines())
        # Without resume the journal must restart from scratch, or stale
        # shards from an earlier matrix would satisfy a later resume.
        ScenarioRunner(jobs=1).run(mini_specs[1:2], shards=shards)
        n_second = len(shards.path.read_text().splitlines())
        assert n_second == mini_specs[1].n_sessions * len(mini_specs[1].schemes)
        assert n_first == mini_specs[0].n_sessions * len(mini_specs[0].schemes)

    def test_parallel_resume_matches_serial_resume(self, mini_specs, tmp_path):
        from repro.scenarios import ShardJournal

        shards = ShardJournal(tmp_path / "run.shards.journal")
        ScenarioRunner(jobs=1).run(mini_specs[:2], shards=shards)
        # Drop the matrix journal on the floor: every cell re-runs, but the
        # journaled sessions are restored — through the parallel path too.
        serial = ScenarioRunner(jobs=1).run(mini_specs, shards=shards, resume=True)
        parallel = ScenarioRunner(jobs=2).run(mini_specs, shards=shards, resume=True)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]


class TestArtefactIO:
    def test_write_results_is_atomic(self, mini_specs, tmp_path):
        out = tmp_path / "a.json"
        results = ScenarioRunner(jobs=1).run(mini_specs[:1])
        write_results(results, out, matrix="mini")
        payload, loaded = load_results(out)
        assert payload["n_scenarios"] == 1
        assert loaded[0].spec == mini_specs[0]
        # No temp debris once the replace landed.
        assert list(tmp_path.iterdir()) == [out]

    def test_truncated_artefact_raises_artefact_error(
        self, tmp_path, uninterrupted_artefact
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(uninterrupted_artefact[: len(uninterrupted_artefact) // 2])
        with pytest.raises(ArtefactError, match=r"bad\.json.*line \d+ column \d+"):
            load_results(bad)

    def test_corrupt_artefact_names_parse_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scenarios": [}')
        with pytest.raises(ArtefactError, match="char 15"):
            load_results(bad)


class TestCliIntegration:
    def test_run_with_faults_resume_and_journal_cleanup(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = [
            "scenarios",
            "run",
            "--scenario",
            "baseline_seen",
            "--faults",
            "none",
            "dvfs_flaky",
            "--jobs",
            "1",
            "--train-traces-per-app",
            "1",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        first = out.read_text()
        output = capsys.readouterr().out
        # Two cells (control + preset), the faults table, and a clean journal.
        assert "baseline_seen/nofault" in output
        assert "baseline_seen/dvfs_flaky" in output
        assert "recovery" in output
        assert not (tmp_path / "r.json.journal").exists()

        # Re-running with --resume and no journal just re-runs everything —
        # and stays byte-identical.
        assert main(argv + ["--resume"]) == 0
        assert out.read_text() == first

    def test_help_documents_faults_and_resume(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenarios", "run", "--help"])
        output = capsys.readouterr().out
        assert "--faults" in output and "--resume" in output
        with pytest.raises(SystemExit):
            main(["scenarios", "sweep", "--help"])
        output = capsys.readouterr().out
        assert "--faults" in output and "--resume" in output

    def test_faults_accepts_a_spec_file(self, tmp_path, capsys):
        import json

        from repro.faults import get_fault_preset

        spec_file = tmp_path / "myspec.json"
        spec_file.write_text(json.dumps(get_fault_preset("dvfs_flaky").to_dict()))
        out = tmp_path / "r.json"
        assert main(
            [
                "scenarios",
                "run",
                "--scenario",
                "baseline_seen",
                "--faults",
                str(spec_file),
                "--jobs",
                "1",
                "--train-traces-per-app",
                "1",
                "--out",
                str(out),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "recovery" in output  # the faults table rendered

    def test_faults_file_errors_name_the_file(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match="missing.json"):
            main(["scenarios", "run", "--scenario", "baseline_seen", "--faults", str(missing)])

        not_json = tmp_path / "notjson.json"
        not_json.write_text("not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["scenarios", "run", "--scenario", "baseline_seen", "--faults", str(not_json)])

        wrong_shape = tmp_path / "shape.json"
        wrong_shape.write_text('{"bad": true}')
        with pytest.raises(SystemExit, match="not a valid FaultSpec"):
            main(
                ["scenarios", "run", "--scenario", "baseline_seen", "--faults", str(wrong_shape)]
            )

        bad_rate = tmp_path / "rate.json"
        bad_rate.write_text('{"predictor": {"flip_rate": 7}}')
        with pytest.raises(SystemExit, match="flip_rate"):
            main(["scenarios", "run", "--scenario", "baseline_seen", "--faults", str(bad_rate)])


class TestFaultsCli:
    def test_faults_list(self, capsys):
        assert main(["faults", "list"]) == 0
        output = capsys.readouterr().out
        assert "rail_brownout" in output
        assert "pes_regression" in output

    def test_faults_search_writes_artefact_and_clears_journal(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        assert main(
            [
                "faults",
                "search",
                "--target",
                "recovery_collapse",
                "--budget-evals",
                "2",
                "--out",
                str(out),
            ]
        ) == 0
        import json

        report = json.loads(out.read_text())
        assert report["target"] == "recovery_collapse"
        assert len(report["candidates"]) == 2
        assert not (tmp_path / "search.json.journal").exists()
        assert "best candidate" in capsys.readouterr().out

    def test_faults_search_help_documents_the_knobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["faults", "search", "--help"])
        output = capsys.readouterr().out
        for flag in ("--target", "--budget", "--budget-evals", "--resume", "--out"):
            assert flag in output
