"""Fig. 10 — average mis-prediction waste per application.

Mis-prediction waste is the CPU time spent generating speculative frames
that are eventually squashed, averaged over mis-predictions.  The paper
reports roughly 20 ms per mis-prediction (an amortised ~2 ms per event) and
an energy overhead of a few mJ / a couple of percent.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS


def collect(scheme_results):
    per_app: dict[str, dict[str, float]] = {}
    for result in scheme_results["PES"]:
        entry = per_app.setdefault(
            result.app_name,
            {"wasted_ms": 0.0, "wasted_mj": 0.0, "mispredictions": 0, "events": 0, "energy": 0.0},
        )
        entry["wasted_ms"] += result.wasted_time_ms
        entry["wasted_mj"] += result.wasted_energy_mj
        entry["mispredictions"] += result.mispredictions
        entry["events"] += result.n_events
        entry["energy"] += result.total_energy_mj
    return per_app


def test_fig10_misprediction_waste(benchmark, scheme_results, write_result):
    per_app = benchmark.pedantic(collect, args=(scheme_results,), rounds=1, iterations=1)

    rows = []
    waste_values = []
    for app in list(SEEN_APPS) + list(UNSEEN_APPS):
        entry = per_app[app]
        waste_per_mispredict = (
            entry["wasted_ms"] / entry["mispredictions"] if entry["mispredictions"] else 0.0
        )
        waste_values.append(waste_per_mispredict)
        energy_overhead_pct = 100.0 * entry["wasted_mj"] / entry["energy"] if entry["energy"] else 0.0
        rows.append(
            [
                app,
                "seen" if app in SEEN_APPS else "unseen",
                entry["mispredictions"],
                round(waste_per_mispredict, 1),
                round(entry["wasted_ms"] / max(entry["events"], 1), 2),
                f"{energy_overhead_pct:.1f}%",
            ]
        )
    table = format_table(
        ["app", "set", "mispredictions", "waste/mispredict (ms)", "waste/event (ms)", "energy overhead"],
        rows,
    )
    mean_waste = float(np.mean([w for w in waste_values if w > 0] or [0.0]))
    write_result(
        "fig10_misprediction_waste.txt",
        table + f"\n\nMean waste per mis-prediction: {mean_waste:.1f} ms (paper: ~20 ms)",
    )

    total_mispredictions = sum(e["mispredictions"] for e in per_app.values())
    total_energy = sum(e["energy"] for e in per_app.values())
    total_waste_energy = sum(e["wasted_mj"] for e in per_app.values())
    assert total_mispredictions > 0, "the evaluation should contain some mis-predictions"
    # Waste is bounded: a small fraction of total energy, and well under the
    # cost of re-executing every event.
    assert total_waste_energy / total_energy < 0.10
