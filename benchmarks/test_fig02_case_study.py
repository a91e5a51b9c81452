"""Fig. 2 — representative cnn.com interaction: reactive vs proactive schedules.

The paper's motivating example replays a four-input snapshot (a heavy
interaction burst) under the OS governor, EBS, and the oracle, showing that
only the proactive schedule meets every deadline and does so with less
energy.  This benchmark rebuilds an equivalent four-event sequence — a tap
with slack, a heavy Type-I tap, and two interfered follow-up events — and
regenerates the comparison rows.
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_table
from repro.hardware.dvfs import DvfsModel
from repro.schedulers.ebs import EbsScheduler
from repro.schedulers.interactive import InteractiveGovernor
from repro.schedulers.oracle import OracleScheduler
from repro.traces.trace import Trace, TraceEvent
from repro.webapp.events import EventType


def representative_trace() -> Trace:
    """A four-event cnn burst mirroring the E1–E4 structure of Fig. 2."""
    events = [
        # E1: a tap with latency slack (Type IV in the paper's taxonomy).
        TraceEvent(0, EventType.CLICK, "cnn-menu-btn-0", 0.0, DvfsModel(15.0, 160.0)),
        # E2: an inherently heavy tap (Type I) arriving shortly after E1.
        TraceEvent(1, EventType.CLICK, "cnn-sec-0-el-0", 400.0, DvfsModel(40.0, 520.0)),
        # E3: a tap that is feasible in isolation but suffers E2's interference (Type II).
        TraceEvent(2, EventType.TOUCHSTART, "cnn-sec-0-el-1", 780.0, DvfsModel(15.0, 200.0)),
        # E4: a move event delayed by E3 (Type III).
        TraceEvent(3, EventType.SCROLL, "cnn-body", 1150.0, DvfsModel(4.0, 24.0)),
    ]
    return Trace(app_name="cnn", user_id="fig2", events=events)


@pytest.fixture(scope="module")
def trace():
    return representative_trace()


def run_all(simulator, trace, learner):
    results = {
        "Interactive": simulator.run_reactive(trace, InteractiveGovernor()),
        "EBS": simulator.run_reactive(trace, EbsScheduler()),
        "PES": simulator.run_pes(trace, learner),
        "Oracle": simulator.run_oracle(trace, OracleScheduler()),
    }
    return results


def test_fig02_case_study(benchmark, simulator, learner, trace, write_result):
    results = benchmark.pedantic(run_all, args=(simulator, trace, learner), rounds=1, iterations=1)

    rows = []
    for scheme, result in results.items():
        rows.append(
            [
                scheme,
                result.violations,
                round(result.total_energy_mj, 1),
                " ".join(f"{o.latency_ms:.0f}" for o in result.outcomes),
            ]
        )
    table = format_table(["scheme", "violations", "energy_mJ", "per-event latency (ms)"], rows)
    write_result("fig02_case_study.txt", table)

    # Reactive schedulers miss deadlines on this burst; the oracle does not,
    # and the proactive schedulers do not spend more energy than the OS governor.
    assert results["Interactive"].violations >= 1
    assert results["EBS"].violations >= 1
    assert results["Oracle"].violations == 0
    assert results["Oracle"].total_energy_mj < results["Interactive"].total_energy_mj
    assert results["Oracle"].total_energy_mj <= results["EBS"].total_energy_mj * 1.001
