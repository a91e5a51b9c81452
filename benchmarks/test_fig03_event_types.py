"""Fig. 3 — distribution of event Types I–IV under EBS, per seen application.

Regenerates the stacked-bar data: for every seen application, the fraction
of events that are Type I (inherently infeasible), Type II (miss the
deadline due to interference), Type III (meet the deadline but over-
provisioned due to interference), and Type IV (benign).
"""

from __future__ import annotations

from repro.analysis.event_types import EventCategory, category_distribution, classify_events
from repro.analysis.reporting import format_table
from repro.schedulers.ebs import EbsScheduler
from repro.webapp.apps import SEEN_APPS


def classify_all(simulator, setup, traces):
    per_app: dict[str, dict[EventCategory, float]] = {}
    counts: dict[str, int] = {}
    for app in SEEN_APPS:
        classified = []
        for trace in traces.for_app(app):
            result = simulator.run_reactive(trace, EbsScheduler())
            classified.extend(classify_events(trace, result, setup.system, setup.power_table))
        per_app[app] = category_distribution(classified)
        counts[app] = len(classified)
    return per_app, counts


def test_fig03_event_type_distribution(benchmark, simulator, setup, evaluation_traces, write_result):
    per_app, counts = benchmark.pedantic(
        classify_all, args=(simulator, setup, evaluation_traces), rounds=1, iterations=1
    )

    rows = []
    for app, distribution in per_app.items():
        rows.append(
            [
                app,
                counts[app],
                f"{distribution[EventCategory.TYPE_I] * 100:.1f}%",
                f"{distribution[EventCategory.TYPE_II] * 100:.1f}%",
                f"{distribution[EventCategory.TYPE_III] * 100:.1f}%",
                f"{distribution[EventCategory.TYPE_IV] * 100:.1f}%",
            ]
        )
    table = format_table(["app", "events", "Type I", "Type II", "Type III", "Type IV"], rows)

    total_events = sum(counts.values())
    weighted = {
        category: sum(per_app[app][category] * counts[app] for app in per_app) / total_events
        for category in EventCategory
    }
    summary = (
        f"\nAverage: QoS-violating (I+II) = {(weighted[EventCategory.TYPE_I] + weighted[EventCategory.TYPE_II]) * 100:.1f}%  "
        f"over-provisioned (III) = {weighted[EventCategory.TYPE_III] * 100:.1f}%  "
        f"benign (IV) = {weighted[EventCategory.TYPE_IV] * 100:.1f}%"
        "\nPaper: ~21% of events violate QoS under EBS and ~14% waste energy (Type III);"
        "\n       Type IV remains the majority."
    )
    write_result("fig03_event_types.txt", table + summary)

    # Shape assertions: every category observed somewhere, the benign class
    # dominates, and a substantial minority is handled sub-optimally.
    non_benign = 1.0 - weighted[EventCategory.TYPE_IV]
    assert weighted[EventCategory.TYPE_IV] > 0.4
    assert 0.05 < non_benign < 0.6
    assert weighted[EventCategory.TYPE_I] > 0.0
    assert weighted[EventCategory.TYPE_II] > 0.0
