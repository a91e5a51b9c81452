"""Fig. 9 — Pending Frame Buffer size over time (ebay case study).

Replays an ebay session under PES and records the PFB occupancy at every
mutation: commits decrement it one frame at a time, a mis-prediction drops
it to zero, and a new prediction round refills it.
"""

from __future__ import annotations


def run_ebay(simulator, generator, learner):
    trace = generator.generate("ebay", seed=910_000)
    return simulator.run_pes(trace, learner), trace


def test_fig09_pfb_dynamics(benchmark, simulator, generator, learner, write_result):
    result, trace = benchmark.pedantic(
        run_ebay, args=(simulator, generator, learner), rounds=1, iterations=1
    )
    history = result.pfb_size_history

    lines = ["time_s  pfb_size"]
    lines.extend(f"{time / 1000.0:7.2f}  {size}" for time, size in history)
    summary = (
        f"\nevents={len(trace)}  prediction_rounds={result.prediction_rounds}  "
        f"commits={result.commits}  mispredictions={result.mispredictions}  "
        f"max_pfb_size={max((s for _, s in history), default=0)}"
    )
    write_result("fig09_pfb_dynamics.txt", "\n".join(lines) + summary)

    sizes = [size for _, size in history]
    assert history, "PES never buffered a speculative frame"
    assert max(sizes) >= 2, "the PFB should build up several speculative frames"
    assert min(sizes) == 0, "commits/squashes should drain the PFB"
    # Timestamps are non-decreasing.
    times = [time for time, _ in history]
    assert all(a <= b + 1e-6 for a, b in zip(times, times[1:]))
    # Consecutive samples change by at most the size of a prediction round
    # (single-frame commits, full squashes, round refills).
    assert result.commits > 0
