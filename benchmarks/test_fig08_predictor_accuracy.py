"""Fig. 8 — event predictor accuracy on seen and unseen applications.

All evaluation traces are freshly generated (new "users"), regardless of
whether the application was part of the training set.  The paper reports
91.3% average accuracy on the 12 seen applications and 89.2% on the 6
unseen ones, with a per-application range of roughly 82%–97%.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.predictor.training import evaluate_accuracy
from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS


def evaluate(learner, evaluation_traces, catalog):
    return evaluate_accuracy(learner, evaluation_traces, catalog, use_dom_analysis=True)


def test_fig08_predictor_accuracy(benchmark, learner, evaluation_traces, catalog, write_result):
    accuracy = benchmark.pedantic(
        evaluate, args=(learner, evaluation_traces, catalog), rounds=1, iterations=1
    )

    rows = [
        [app, "seen" if app in SEEN_APPS else "unseen", f"{accuracy[app] * 100:.1f}%"]
        for app in list(SEEN_APPS) + list(UNSEEN_APPS)
    ]
    seen_mean = float(np.mean([accuracy[a] for a in SEEN_APPS]))
    unseen_mean = float(np.mean([accuracy[a] for a in UNSEEN_APPS]))
    table = format_table(["app", "set", "accuracy"], rows)
    summary = (
        f"\nSeen average:   {seen_mean * 100:.1f}%   (paper: 91.3%)"
        f"\nUnseen average: {unseen_mean * 100:.1f}%   (paper: 89.2%)"
    )
    write_result("fig08_predictor_accuracy.txt", table + summary)

    assert seen_mean > 0.80
    assert unseen_mean > 0.78
    # The unseen set generalises: within a few points of the seen set.
    assert abs(seen_mean - unseen_mean) < 0.10
    # Per-app spread stays in a plausible band around the paper's 82-97%.
    assert min(accuracy.values()) > 0.70
    assert max(accuracy.values()) <= 1.0
