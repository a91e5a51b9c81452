"""Shared fixtures for the benchmark harness.

Each ``test_figXX_*.py`` module regenerates one table/figure of the paper.
The expensive artefacts — the trained predictor, the evaluation trace set,
and the replay of every trace under every scheduling scheme — are computed
once per session here and shared; the ``benchmark`` fixture in each module
then measures the per-figure analysis step and the module writes the
regenerated rows/series through the ``write_result`` fixture.

A plain test run never rewrites tracked files: ``write_result`` writes into
a pytest temp dir.  To refresh the committed ``results/*.txt`` run::

    PYTHONPATH=src python -m pytest benchmarks --regenerate-results
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import pytest

from repro.core.predictor.training import PredictorTrainer
from repro.runtime.simulator import SimulationSetup, Simulator
from repro.traces.generator import TraceGenerator
from repro.webapp.apps import AppCatalog, SEEN_APPS, UNSEEN_APPS

#: Traces per application used for the headline evaluation figures.
EVAL_TRACES_PER_APP = 2
#: Traces per application used to train the predictor (seen apps only).
TRAIN_TRACES_PER_APP = 8

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def write_result(request, tmp_path_factory) -> Callable[[str, str], Path]:
    """Persist a regenerated figure/table.

    Writes under ``results/`` only with ``--regenerate-results``; otherwise
    into a session temp dir, so the content is still produced (and any
    error in producing it still fails the test) without touching the tree.
    """
    if request.config.getoption("--regenerate-results"):
        directory = RESULTS_DIR
        directory.mkdir(exist_ok=True)
    else:
        directory = tmp_path_factory.mktemp("results")

    def write(name: str, content: str) -> Path:
        path = directory / name
        path.write_text(content + "\n")
        return path

    return write


@pytest.fixture(scope="session")
def catalog() -> AppCatalog:
    return AppCatalog()


@pytest.fixture(scope="session")
def generator(catalog: AppCatalog) -> TraceGenerator:
    return TraceGenerator(catalog=catalog)


@pytest.fixture(scope="session")
def setup() -> SimulationSetup:
    return SimulationSetup()


@pytest.fixture(scope="session")
def simulator(catalog: AppCatalog, setup: SimulationSetup) -> Simulator:
    return Simulator(setup=setup, catalog=catalog)


@pytest.fixture(scope="session")
def training_traces(generator: TraceGenerator):
    return generator.generate_many(list(SEEN_APPS), TRAIN_TRACES_PER_APP, base_seed=0)


@pytest.fixture(scope="session")
def learner(training_traces, catalog: AppCatalog):
    return PredictorTrainer(catalog=catalog).train(training_traces).learner


@pytest.fixture(scope="session")
def evaluation_traces(generator: TraceGenerator):
    """Fresh (held-out) traces for every application, seen and unseen."""
    return generator.generate_many(
        list(SEEN_APPS) + list(UNSEEN_APPS), EVAL_TRACES_PER_APP, base_seed=500_000
    )


@pytest.fixture(scope="session")
def scheme_results(simulator: Simulator, evaluation_traces, learner):
    """Every evaluation trace replayed under every scheme (Figs. 11-13)."""
    return simulator.compare(
        evaluation_traces,
        ["Interactive", "Ondemand", "EBS", "PES", "Oracle"],
        learner=learner,
    )
