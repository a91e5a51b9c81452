"""Sec. 6.5 — predictor design ablation: DOM analysis on vs off.

The paper finds that removing the DOM analysis (keeping only the event
sequence learner) costs about 5 accuracy points; the reverse ablation is
not possible because the DOM analysis alone makes no prediction.  This
benchmark measures both the accuracy drop and its downstream effect on the
scheduler (energy / QoS on a sample of applications).

A second design ablation covers the optimizer: the exact branch-and-bound
solver against the discretised dynamic-programming fast path.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.pes import PesConfig
from repro.core.predictor.training import evaluate_accuracy
from repro.runtime.metrics import aggregate_results

ABLATION_APPS = ("cnn", "amazon", "google", "ebay", "slashdot", "sina")


def run_ablation(simulator, learner, catalog, evaluation_traces):
    accuracy_with = evaluate_accuracy(learner, evaluation_traces, catalog, use_dom_analysis=True)
    accuracy_without = evaluate_accuracy(learner, evaluation_traces, catalog, use_dom_analysis=False)

    traces = [t for t in evaluation_traces if t.app_name in ABLATION_APPS]
    with_dom = [simulator.run_pes(t, learner, PesConfig(use_dom_analysis=True)) for t in traces]
    without_dom = [simulator.run_pes(t, learner, PesConfig(use_dom_analysis=False)) for t in traces]
    return accuracy_with, accuracy_without, aggregate_results(with_dom), aggregate_results(without_dom)


def test_sec65_dom_analysis_ablation(benchmark, simulator, learner, catalog, evaluation_traces, write_result):
    accuracy_with, accuracy_without, metrics_with, metrics_without = benchmark.pedantic(
        run_ablation, args=(simulator, learner, catalog, evaluation_traces), rounds=1, iterations=1
    )

    mean_with = float(np.mean(list(accuracy_with.values())))
    mean_without = float(np.mean(list(accuracy_without.values())))
    rows = [
        ["prediction accuracy (all 18 apps)", f"{mean_with * 100:.1f}%", f"{mean_without * 100:.1f}%"],
        [
            "online prediction accuracy (PES runs)",
            f"{metrics_with.prediction_accuracy * 100:.1f}%",
            f"{metrics_without.prediction_accuracy * 100:.1f}%",
        ],
        [
            "total energy (sample apps, mJ)",
            round(metrics_with.total_energy_mj, 0),
            round(metrics_without.total_energy_mj, 0),
        ],
        [
            "QoS violation (sample apps)",
            f"{metrics_with.qos_violation_rate * 100:.1f}%",
            f"{metrics_without.qos_violation_rate * 100:.1f}%",
        ],
    ]
    table = format_table(["metric", "with DOM analysis", "without DOM analysis"], rows)
    write_result(
        "sec65_dom_ablation.txt",
        table + f"\n\nAccuracy drop without DOM analysis: {100 * (mean_with - mean_without):.1f} points (paper: ~5)",
    )

    assert mean_with > mean_without, "DOM analysis should improve accuracy"
    assert 0.01 < mean_with - mean_without < 0.20
    # Worse prediction should not make PES better on both axes.
    assert (
        metrics_without.qos_violation_rate >= metrics_with.qos_violation_rate - 0.02
        or metrics_without.total_energy_mj >= metrics_with.total_energy_mj * 0.98
    )
