"""Scheduler interfaces shared by the baselines and the runtime engine.

A reactive scheduler is consulted once per event, when the event is about
to start executing, and answers with an :class:`ExecutionPlan`: an ordered
list of :class:`ConfigPhase` entries.  QoS-aware schedulers (EBS, PES)
return a single phase; utilisation-driven governors (Interactive, Ondemand)
return a ramp — an initial phase at the frequency their sampling logic has
settled on, followed by the frequency they converge to once the event's
work drives utilisation up.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from operator import itemgetter

from repro.hardware.acmp import AcmpConfig, AcmpSystem
from repro.hardware.dvfs import DvfsModel
from repro.hardware.power import PowerTable
from repro.traces.trace import TraceEvent


@dataclass(frozen=True)
class ConfigPhase:
    """Run at ``config`` for at most ``duration_ms`` (None = until done)."""

    config: AcmpConfig
    duration_ms: float | None = None

    def __post_init__(self) -> None:
        if self.duration_ms is not None and self.duration_ms <= 0:
            raise ValueError("phase duration must be positive (or None for unbounded)")


@dataclass(frozen=True)
class ExecutionPlan:
    """Ordered configuration phases for executing one event."""

    phases: tuple[ConfigPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("an execution plan needs at least one phase")
        if self.phases[-1].duration_ms is not None:
            raise ValueError("the final phase must be unbounded (duration None)")

    @classmethod
    def single(cls, config: AcmpConfig) -> "ExecutionPlan":
        return cls(phases=(ConfigPhase(config),))

    @classmethod
    def ramp(cls, initial: AcmpConfig, initial_duration_ms: float, final: AcmpConfig) -> "ExecutionPlan":
        if initial == final:
            return cls.single(final)
        return cls(phases=(ConfigPhase(initial, initial_duration_ms), ConfigPhase(final)))

    @property
    def final_config(self) -> AcmpConfig:
        return self.phases[-1].config


@dataclass(frozen=True)
class EventContext:
    """Everything a reactive scheduler may consult when planning one event."""

    event: TraceEvent
    start_ms: float
    system: AcmpSystem
    power_table: PowerTable
    idle_before_ms: float = 0.0
    queue_length: int = 0

    @property
    def queue_delay_ms(self) -> float:
        return max(0.0, self.start_ms - self.event.arrival_ms)

    @property
    def remaining_budget_ms(self) -> float:
        """Time left until the event's deadline when execution starts."""
        return self.event.deadline_ms - self.start_ms


class ReactiveScheduler(abc.ABC):
    """Base class for schedulers that plan one outstanding event at a time."""

    #: Human-readable scheme name used in reports and figures.
    name: str = "reactive"

    @abc.abstractmethod
    def plan(self, ctx: EventContext) -> ExecutionPlan:
        """Return the execution plan for the event described by ``ctx``."""

    def notify_completion(self, ctx: EventContext, latency_ms: float) -> None:
        """Hook invoked after the event finished (governors track utilisation)."""

    def reset(self) -> None:
        """Clear any per-session state before replaying a new trace."""


@dataclass(frozen=True)
class ConfigOption:
    """One point of an event's latency/energy trade-off space.

    ``energy_mj`` is materialised at construction time: the solvers read it
    millions of times per evaluation run, so it is a plain attribute rather
    than a recomputed property.
    """

    config: AcmpConfig
    latency_ms: float
    power_w: float
    energy_mj: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "energy_mj", self.power_w * self.latency_ms)


#: Memoised throttled platforms, keyed ``(id(system), cap_mhz)``.  Each value
#: pins the base system so its id cannot be recycled while the entry lives.
#: Dynamic thermal throttling re-derives the same few capped systems once per
#: event (one per curve step), so the memo keeps both the derivation and —
#: because the returned object's id is stable — the :data:`_OPTION_ROWS` row
#: table of every capped platform a scheduler enumerates options on.
_CAPPED_SYSTEMS: dict[tuple[int, int], tuple[AcmpSystem, AcmpSystem]] = {}

#: Per-platform option rows, keyed ``(id(system), id(power_table))``: one
#: ``(config, effective_ghz, power_w)`` row per configuration, in
#: ``system.configurations()`` order.  Each value pins both objects so their
#: ids cannot be recycled while the entry lives.
_OPTION_ROWS: dict[tuple[int, int], tuple[AcmpSystem, PowerTable, tuple[tuple, ...]]] = {}

#: Safety valve for both memos: evict oldest entries beyond this many.
#: Long-lived services keep building fresh setups, and an evicted entry only
#: costs a re-derivation, never correctness.
_MEMO_MAX = 1024


def capped_system(system: AcmpSystem, cap_mhz: int) -> AcmpSystem:
    """``system.with_frequency_cap(cap_mhz)``, memoised with a stable identity."""
    key = (id(system), cap_mhz)
    hit = _CAPPED_SYSTEMS.get(key)
    if hit is not None:
        return hit[1]
    capped = system.with_frequency_cap(cap_mhz)
    if len(_CAPPED_SYSTEMS) >= _MEMO_MAX:
        _CAPPED_SYSTEMS.pop(next(iter(_CAPPED_SYSTEMS)))
    _CAPPED_SYSTEMS[key] = (system, capped)
    return capped


def _option_rows(system: AcmpSystem, power_table: PowerTable) -> tuple[tuple, ...]:
    """The workload-independent half of the sweep, built once per platform."""
    key = (id(system), id(power_table))
    hit = _OPTION_ROWS.get(key)
    if hit is not None:
        return hit[2]
    rows = []
    for config in system.configurations():
        effective_ghz = system.effective_frequency_ghz(config)
        if effective_ghz <= 0:
            raise ValueError(f"configuration {config} has non-positive frequency")
        rows.append((config, effective_ghz, power_table.power_w(config)))
    if len(_OPTION_ROWS) >= _MEMO_MAX:
        _OPTION_ROWS.pop(next(iter(_OPTION_ROWS)))
    _OPTION_ROWS[key] = (system, power_table, tuple(rows))
    return _OPTION_ROWS[key][2]


def enumerate_options(
    system: AcmpSystem,
    power_table: PowerTable,
    workload: DvfsModel,
    *,
    pareto_only: bool = False,
    cap_mhz: int | None = None,
) -> list[ConfigOption]:
    """Enumerate the latency/energy of every configuration for a workload.

    With ``pareto_only`` the list is pruned to configurations that are not
    dominated (no other option is both faster and cheaper), which is the
    candidate set the optimizer branches over.  Options are returned sorted
    by ascending ``(latency, energy)``, ties in configuration order, as a
    fresh list the caller may mutate freely.

    ``cap_mhz`` restricts the sweep to the throttled platform
    (:func:`capped_system`): the candidate set a scheduler may pick from
    while a thermal governor caps the ladder.  Because the capped platform
    keeps each cluster's ``perf_scale`` and design-maximum frequency, the
    filtered options carry exactly the latency/power an identically capped
    *static* platform would produce — the bit-identity the dynamic thermal
    engines rely on.

    Each call evaluates Eqn. 1 (the same expression as
    :meth:`DvfsModel.latency_ms`) over the platform's memoised
    ``(config, effective_ghz, power_w)`` rows.
    """
    if cap_mhz is not None:
        system = capped_system(system, cap_mhz)
    tmem, ndep = workload.tmem_ms, workload.ndep_mcycles
    swept = []
    for config, effective_ghz, power_w in _option_rows(system, power_table):
        latency_ms = tmem + ndep / effective_ghz
        swept.append((latency_ms, power_w * latency_ms, config, power_w))
    swept.sort(key=itemgetter(0, 1))  # stable: ties keep configuration order
    if pareto_only:
        pruned = []
        best_energy = float("inf")
        for row in swept:
            if row[1] < best_energy - 1e-12:
                pruned.append(row)
                best_energy = row[1]
        swept = pruned
    return [ConfigOption(config, latency_ms, power_w) for latency_ms, _, config, power_w in swept]
