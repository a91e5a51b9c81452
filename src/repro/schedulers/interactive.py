"""Android ``interactive`` CPU governor model.

The Interactive governor is QoS-agnostic: it periodically samples CPU
utilisation and jumps to a high frequency as soon as utilisation crosses a
threshold (85%).  Because mobile Web work is bursty, an event that arrives
after an idle think period starts at a low frequency (the sampled
utilisation is low) and is bumped to the maximum frequency one sampling
period later once the event's own work saturates the CPU — which is why
the paper finds Interactive spends over 80% of busy time at the big
cluster's top frequency (highest energy) yet still misses deadlines of
events whose first sampling window ran too slowly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.acmp import AcmpConfig
from repro.schedulers.base import EventContext, ExecutionPlan, ReactiveScheduler


@dataclass
class InteractiveGovernor(ReactiveScheduler):
    """Utilisation-driven governor with a fast ramp to maximum frequency.

    Parameters
    ----------
    sample_period_ms:
        How often the governor re-evaluates utilisation; an event runs at
        its initial frequency for one period before the governor reacts.
    high_util_threshold:
        Utilisation above which the governor jumps straight to max frequency.
    util_window_ms:
        Window over which utilisation is measured when the event arrives.
    """

    sample_period_ms: float = 20.0
    high_util_threshold: float = 0.85
    util_window_ms: float = 100.0
    name: str = field(default="Interactive", init=False)

    def __post_init__(self) -> None:
        if self.sample_period_ms <= 0 or self.util_window_ms <= 0:
            raise ValueError("periods must be positive")
        if not 0 < self.high_util_threshold <= 1:
            raise ValueError("high_util_threshold must be in (0, 1]")

    def _utilisation(self, ctx: EventContext) -> float:
        """CPU utilisation observed over the sampling window before the event."""
        idle = min(ctx.idle_before_ms, self.util_window_ms)
        return max(0.0, 1.0 - idle / self.util_window_ms)

    def plan(self, ctx: EventContext) -> ExecutionPlan:
        big = ctx.system.big_cluster
        utilisation = self._utilisation(ctx)
        if utilisation >= self.high_util_threshold:
            initial_freq = big.max_frequency_mhz
        else:
            target = big.max_frequency_mhz * utilisation / self.high_util_threshold
            initial_freq = big.ceil_frequency(max(target, big.min_frequency_mhz))

        initial = AcmpConfig(big.name, initial_freq)
        final = AcmpConfig(big.name, big.max_frequency_mhz)
        if initial == final:
            return ExecutionPlan.single(final)
        return ExecutionPlan.ramp(initial, self.sample_period_ms, final)
