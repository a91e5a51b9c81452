"""Fig. 12 — QoS violation per application and scheme.

The paper reports, across the seen applications, roughly 24.8% violations
for Interactive, 24.4% for EBS, and 7.5% for PES (the oracle removes all
violations and is omitted from the figure); on unseen applications PES
removes 43.7% / 49.2% of the Interactive / EBS violations.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.runtime.metrics import aggregate_results
from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS

SCHEMES = ("Interactive", "EBS", "PES")


def violation_by_app(scheme_results):
    table: dict[str, dict[str, float]] = {}
    for scheme in SCHEMES + ("Oracle",):
        per_app: dict[str, list] = {}
        for result in scheme_results[scheme]:
            per_app.setdefault(result.app_name, []).append(result)
        table[scheme] = {
            app: aggregate_results(results).qos_violation_rate for app, results in per_app.items()
        }
    return table


def test_fig12_qos_violation(benchmark, scheme_results, write_result):
    violations = benchmark.pedantic(violation_by_app, args=(scheme_results,), rounds=1, iterations=1)

    rows = []
    for app in list(SEEN_APPS) + list(UNSEEN_APPS):
        rows.append(
            [app, "seen" if app in SEEN_APPS else "unseen"]
            + [f"{violations[scheme][app] * 100:.1f}%" for scheme in SCHEMES]
        )
    table = format_table(["app", "set", *SCHEMES], rows)

    def mean_over(apps, scheme):
        return float(np.mean([violations[scheme][app] for app in apps]))

    summary = ["", "Averages:"]
    for label, apps in (("seen", SEEN_APPS), ("unseen", UNSEEN_APPS)):
        summary.append(
            f"  {label:6s}: "
            + "  ".join(f"{scheme}={mean_over(apps, scheme) * 100:.1f}%" for scheme in SCHEMES)
            + f"  Oracle={mean_over(apps, 'Oracle') * 100:.1f}%"
        )
    interactive_seen = mean_over(SEEN_APPS, "Interactive")
    ebs_seen = mean_over(SEEN_APPS, "EBS")
    pes_seen = mean_over(SEEN_APPS, "PES")
    summary.append(
        f"  PES removes {100 * (1 - pes_seen / interactive_seen):.1f}% of Interactive's violations "
        f"(paper: 61.2%) and {100 * (1 - pes_seen / ebs_seen):.1f}% of EBS's (paper: 63.1%) on seen apps"
    )
    write_result("fig12_qos.txt", table + "\n".join(summary))

    for apps in (SEEN_APPS, UNSEEN_APPS):
        interactive = mean_over(apps, "Interactive")
        ebs = mean_over(apps, "EBS")
        pes = mean_over(apps, "PES")
        oracle = mean_over(apps, "Oracle")
        assert pes < ebs, "PES should reduce QoS violations relative to EBS"
        assert pes < interactive, "PES should reduce QoS violations relative to Interactive"
        assert pes < 0.6 * ebs, "the reduction should be substantial (paper: ~50-63%)"
        assert oracle <= 0.05, "the oracle should (nearly) remove violations"
