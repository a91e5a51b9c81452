"""``enumerate_options`` over the per-platform row table.

The sweep splits into a workload-independent half — each configuration's
effective frequency and power, memoised once per ``(system, power_table)``
— and the per-call Eqn. 1 evaluation.  These tests pin the split against a
brute-force reference that re-derives everything per call, bit for bit,
and pin that the memo grows with platforms, not with workloads.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hardware.acmp import AcmpSystem, Cluster, ClusterKind
from repro.hardware.dvfs import DvfsModel
from repro.hardware.platforms import exynos_5410, tegra_parker
from repro.hardware.power import PowerModel
from repro.hardware.thermal import get_thermal_model, list_thermal_models
from repro.schedulers import base
from repro.schedulers.base import capped_system, enumerate_options

PLATFORMS = {
    system.name: (system, PowerModel().build_table(system))
    for system in (exynos_5410(), tegra_parker())
}

#: Every cap a built-in thermal curve can impose (``NO_THROTTLE_MHZ`` included).
CURVE_CAPS = sorted(
    {cap for name in list_thermal_models() for _, cap in get_thermal_model(name).curve}
)

magnitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-6, allow_nan=False),
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
)
workloads = st.builds(DvfsModel, tmem_ms=magnitudes, ndep_mcycles=magnitudes)


def reference(system, power_table, workload, pareto_only):
    """Brute-force sweep: Eqn. 1 and a power lookup per configuration, per call."""
    rows = []
    for config in system.configurations():
        latency_ms = workload.latency_ms(system, config)
        power_w = power_table.power_w(config)
        rows.append((config, latency_ms, power_w, power_w * latency_ms))
    rows.sort(key=lambda row: (row[1], row[3]))
    if not pareto_only:
        return rows
    pruned = []
    best_energy = float("inf")
    for row in rows:
        if row[3] < best_energy - 1e-12:
            pruned.append(row)
            best_energy = row[3]
    return pruned


def as_rows(options):
    return [(o.config, o.latency_ms, o.power_w, o.energy_mj) for o in options]


class TestDifferential:
    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("pareto_only", [False, True])
    @given(workload=workloads)
    @settings(max_examples=60, deadline=None)
    @example(workload=DvfsModel(0.0, 0.0))  # every option ties on (latency, energy)
    @example(workload=DvfsModel(12.5, 0.0))  # latencies tie; energy breaks them
    @example(workload=DvfsModel(0.0, 350.0))  # pure CPU work
    @example(workload=DvfsModel(0.0, 1e-12))  # energies within the prune tolerance
    @example(workload=DvfsModel(0.0, 1e-10))
    def test_matches_brute_force_at_every_cap(self, platform, pareto_only, workload):
        system, power_table = PLATFORMS[platform]
        expected = reference(system, power_table, workload, pareto_only)
        uncapped = enumerate_options(system, power_table, workload, pareto_only=pareto_only)
        assert as_rows(uncapped) == expected
        for cap in CURVE_CAPS:
            expected = reference(system.with_frequency_cap(cap), power_table, workload, pareto_only)
            via_cap = enumerate_options(
                system, power_table, workload, pareto_only=pareto_only, cap_mhz=cap
            )
            direct = enumerate_options(
                capped_system(system, cap), power_table, workload, pareto_only=pareto_only
            )
            assert as_rows(via_cap) == expected
            assert as_rows(direct) == expected


class TestRowMemo:
    def test_memo_holds_one_entry_per_platform_not_per_workload(self, monkeypatch):
        monkeypatch.setattr(base, "_OPTION_ROWS", {})
        system = exynos_5410()
        power_table = PowerModel().build_table(system)
        for i in range(10_000):
            workload = DvfsModel(tmem_ms=i * 0.01, ndep_mcycles=1.0 + i * 0.37)
            enumerate_options(system, power_table, workload, pareto_only=i % 2 == 0)
        assert list(base._OPTION_ROWS) == [(id(system), id(power_table))]
        pinned_system, pinned_table, rows = base._OPTION_ROWS[(id(system), id(power_table))]
        assert pinned_system is system and pinned_table is power_table
        assert [row[0] for row in rows] == system.configurations()

    def test_each_call_returns_a_fresh_independent_list(self):
        system, power_table = PLATFORMS["exynos5410"]
        workload = DvfsModel(4.0, 120.0)
        first = enumerate_options(system, power_table, workload)
        second = enumerate_options(system, power_table, workload)
        assert first == second and first is not second
        first.reverse()
        first.pop()
        second.clear()
        assert as_rows(enumerate_options(system, power_table, workload)) == reference(
            system, power_table, workload, pareto_only=False
        )

    def test_non_positive_frequency_raises_and_is_not_memoised(self, monkeypatch):
        monkeypatch.setattr(base, "_OPTION_ROWS", {})
        broken = AcmpSystem(
            name="broken",
            clusters=(Cluster("big", ClusterKind.BIG, core_count=1, frequencies_mhz=(0, 800)),),
        )
        for _ in range(2):
            with pytest.raises(ValueError, match="non-positive frequency"):
                enumerate_options(broken, PLATFORMS["exynos5410"][1], DvfsModel(1.0, 1.0))
        assert base._OPTION_ROWS == {}
