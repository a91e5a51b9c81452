"""Fig. 11 — energy consumption normalised to the Interactive governor.

Per application (12 seen + 6 unseen) and per scheme (Interactive, EBS, PES,
Oracle), total processor energy normalised to Interactive.  The paper
reports, averaged over the seen applications, roughly 27.9% savings for PES
over Interactive and 19.8% over EBS, with PES within ~13% of the oracle;
on the unseen applications the savings are slightly smaller.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.runtime.simulator import Simulator
from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS

SCHEMES = ("Interactive", "EBS", "PES", "Oracle")


def normalise(scheme_results):
    return Simulator.normalised_energy_by_app(
        {scheme: scheme_results[scheme] for scheme in SCHEMES}, baseline="Interactive"
    )


def test_fig11_normalised_energy(benchmark, scheme_results, write_result):
    normalised = benchmark.pedantic(normalise, args=(scheme_results,), rounds=1, iterations=1)

    rows = []
    for app in list(SEEN_APPS) + list(UNSEEN_APPS):
        rows.append(
            [app, "seen" if app in SEEN_APPS else "unseen"]
            + [round(normalised[scheme][app] * 100.0, 1) for scheme in SCHEMES]
        )
    table = format_table(["app", "set", *[f"{s} (%)" for s in SCHEMES]], rows)

    def mean_over(apps, scheme):
        return float(np.mean([normalised[scheme][app] for app in apps]))

    summary_lines = ["", "Averages (normalised to Interactive = 100%):"]
    for label, apps in (("seen", SEEN_APPS), ("unseen", UNSEEN_APPS)):
        summary_lines.append(
            f"  {label:6s}: "
            + "  ".join(f"{scheme}={mean_over(apps, scheme) * 100:.1f}%" for scheme in SCHEMES)
        )
    ebs_seen = mean_over(SEEN_APPS, "EBS")
    pes_seen = mean_over(SEEN_APPS, "PES")
    summary_lines.append(
        f"  PES saves {100 * (1 - pes_seen):.1f}% vs Interactive (paper: 27.9%) and "
        f"{100 * (1 - pes_seen / ebs_seen):.1f}% vs EBS (paper: 19.8%) on seen apps"
    )
    write_result("fig11_energy.txt", table + "\n".join(summary_lines))

    # Shape assertions (who wins, roughly by how much).
    assert all(normalised["Interactive"][app] == 1.0 for app in normalised["Interactive"])
    for apps in (SEEN_APPS, UNSEEN_APPS):
        ebs = mean_over(apps, "EBS")
        pes = mean_over(apps, "PES")
        oracle = mean_over(apps, "Oracle")
        assert ebs < 1.0, "EBS should save energy over Interactive"
        assert pes < ebs, "PES should save energy over EBS"
        assert oracle <= pes + 1e-9, "the oracle is the lower bound"
        assert 1.0 - pes > 0.10, "PES energy savings over Interactive should be substantial"
