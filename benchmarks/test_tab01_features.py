"""Table 1 — the model features of the event sequence learner.

Regenerates the feature table together with summary statistics of each
feature over the training dataset and the trained model's per-class weight
magnitudes, which is how the reproduction documents that all five features
carry signal.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.predictor.training import PredictorTrainer
from repro.traces.session_state import FEATURE_NAMES

FEATURE_CATEGORY = {
    "clickable_region_fraction": "Application-inherent",
    "visible_link_fraction": "Application-inherent",
    "distance_to_previous_click": "Interaction-dependent",
    "navigations_in_window": "Interaction-dependent",
    "scrolls_in_window": "Interaction-dependent",
}


def build_dataset(catalog, training_traces):
    trainer = PredictorTrainer(catalog=catalog)
    return trainer.build_dataset(training_traces)


def test_tab01_model_features(benchmark, catalog, training_traces, learner, write_result):
    features, labels = benchmark.pedantic(
        build_dataset, args=(catalog, training_traces), rounds=1, iterations=1
    )

    rows = []
    for index, name in enumerate(FEATURE_NAMES):
        column = features[:, index]
        weight_magnitude = float(np.abs(learner.model.weights[:, index]).mean())
        rows.append(
            [
                FEATURE_CATEGORY[name],
                name,
                round(float(column.mean()), 3),
                round(float(column.std()), 3),
                round(weight_magnitude, 3),
            ]
        )
    table = format_table(
        ["category", "feature", "mean", "std", "mean |weight|"], rows
    )
    write_result("tab01_features.txt", table + f"\n\nTraining samples: {features.shape[0]}")

    assert features.shape[1] == len(FEATURE_NAMES) + 1  # five features + bias
    assert labels.shape[0] == features.shape[0]
    # Every feature varies (carries information) over the training set.
    assert all(features[:, i].std() > 0.0 for i in range(len(FEATURE_NAMES)))
