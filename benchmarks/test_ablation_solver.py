"""Design ablation — exact branch-and-bound vs the DP fast path.

The paper implements a custom solver for the ILP formulation rather than
using a third-party package; this benchmark quantifies the design space of
that choice in the reproduction: the exact branch-and-bound solver against
the time-discretised dynamic program, comparing solve time and solution
quality over a batch of realistic speculative windows.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.optimizer.ilp import BranchAndBoundSolver, DynamicProgrammingSolver
from repro.core.optimizer.optimizer import ArrivalEstimator, GlobalOptimizer, WorkloadEstimator
from repro.core.predictor.sequence_learner import PredictedEvent
from repro.webapp.events import EventType

WINDOW_PATTERNS = [
    (EventType.SCROLL, EventType.CLICK, EventType.SCROLL),
    (EventType.CLICK, EventType.SCROLL, EventType.SCROLL, EventType.CLICK, EventType.SCROLL),
    (EventType.SCROLL,) * 6 + (EventType.CLICK,),
    (EventType.CLICK, EventType.CLICK, EventType.SUBMIT),
    (EventType.LOAD, EventType.SCROLL, EventType.CLICK),
]


def build_windows(setup, catalog):
    optimizer = GlobalOptimizer(
        system=setup.system,
        power_table=setup.power_table,
        workload_estimator=WorkloadEstimator(profile=catalog.get("cnn")),
        arrival_estimator=ArrivalEstimator(),
    )
    windows = []
    for pattern in WINDOW_PATTERNS:
        predictions = [
            PredictedEvent(event_type=t, confidence=0.9, cumulative_confidence=0.9, node_id="n")
            for t in pattern
        ]
        windows.append(optimizer.build_specs(0.0, [], predictions))
    return windows


def test_ablation_exact_vs_dp_solver(benchmark, setup, catalog, write_result):
    windows = build_windows(setup, catalog)
    exact = BranchAndBoundSolver()
    dp = DynamicProgrammingSolver(bucket_ms=2.0)

    def solve_all(solver):
        return [solver.solve(specs, 0.0) for specs in windows]

    exact_schedules = solve_all(exact)
    dp_schedules = benchmark(lambda: solve_all(dp))

    gaps = []
    rows = []
    for index, (a, b) in enumerate(zip(exact_schedules, dp_schedules)):
        gap = (b.total_energy_mj - a.total_energy_mj) / a.total_energy_mj if a.total_energy_mj else 0.0
        gaps.append(gap)
        rows.append(
            [
                f"window-{index} ({len(windows[index])} events)",
                round(a.total_energy_mj, 1),
                round(b.total_energy_mj, 1),
                f"{gap * 100:.2f}%",
            ]
        )
    table = format_table(["window", "B&B energy (mJ)", "DP energy (mJ)", "DP optimality gap"], rows)
    write_result(
        "ablation_solver.txt",
        table + f"\n\nMean DP optimality gap: {float(np.mean(gaps)) * 100:.2f}% (bucket = 2 ms)",
    )

    # The DP fast path never beats the exact optimum and stays within a few
    # percent of it on realistic windows.
    assert all(gap >= -1e-9 for gap in gaps)
    assert float(np.mean(gaps)) < 0.05
    assert all(schedule.feasible for schedule in exact_schedules)
