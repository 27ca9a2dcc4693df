"""Experiment A3 — ablation: allocation x variant-merging interaction.

Variants are merged on the *bound* datapath, so the resource budget
changes where the §4.2 mux overhead lands.  Measured direction (see
DESIGN.md §5): a LOOSE budget pays *more* relative variant overhead —
with more FU instances the variants' rewired operand edges scatter
across more input ports, each gaining mux inputs, while a tight budget
concentrates sources on ports whose baseline muxes were already large
(mux area is linear in inputs, so the increment costs the same but the
baseline is relatively mux-heavier).  The bench sweeps the adder/logic
budget and pins that monotone trend.
"""

import pytest

from repro.benchsuite import get_benchmark
from repro.hls import FUKind, ResourceConstraints
from repro.rtl import estimate_area
from repro.registry import REGISTRY
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.executor import ExecutionOptions
from repro.tao import ObfuscationParameters, TaoFlow

ADDER_BUDGETS = [1, 2, 4]


def variant_overhead_for_budget(name: str, adders: int) -> float:
    bench = get_benchmark(name)
    constraints = ResourceConstraints()
    constraints.limits[FUKind.ADDSUB] = adders
    constraints.limits[FUKind.LOGIC] = adders
    params = ObfuscationParameters(
        obfuscate_constants=False,
        obfuscate_branches=False,
        variant_diversity="selector",
    )
    flow_base = TaoFlow(constraints=constraints)
    flow_obf = TaoFlow(params=params, constraints=constraints)
    baseline_area = estimate_area(
        flow_base.synthesize_baseline(bench.source, bench.top)
    ).total
    obfuscated_area = estimate_area(
        flow_obf.obfuscate(bench.source, bench.top).design
    ).total
    return obfuscated_area / baseline_area - 1.0


def test_sharing_amplifies_variant_overhead(benchmark, capsys):
    def sweep():
        return {
            adders: variant_overhead_for_budget("sobel", adders)
            for adders in ADDER_BUDGETS
        }

    overheads = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nsobel DFG-variant area overhead vs adder budget:")
        for adders, overhead in overheads.items():
            print(f"  {adders} adder(s): +{100 * overhead:.1f}%")
    # All budgets pay a real variant overhead.
    assert all(v > 0.05 for v in overheads.values())
    # Measured interaction: relative overhead grows with the FU budget
    # (variant edges scatter over more input ports).
    values = [overheads[a] for a in ADDER_BUDGETS]
    assert all(b >= a - 0.02 for a, b in zip(values, values[1:]))
    assert overheads[4] > overheads[1]


def test_budget_axis_campaign_correct_at_every_budget(benchmark, capsys):
    """A3 functional leg on the engine's resource-budget axis: every
    named budget (tight/default/loose) must unlock under the correct
    key and corrupt under every wrong key; the tight budget pays its
    resource pressure in schedule length, never in correctness — and
    the golden model is shared across all budgets (same IR)."""

    def sweep():
        spec = CampaignSpec(
            benchmarks=("sobel",),
            resource_budgets=REGISTRY.names("budget"),
            n_keys=3,
        )
        return run_campaign(spec, ExecutionOptions(jobs=0))

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_budget = {u.budget: u.report for u in result.units}
    with capsys.disabled():
        print("\nsobel correct-key cycles vs resource budget:")
        for name, report in by_budget.items():
            print(f"  {name}: {report.baseline_cycles} cycles")
    assert set(by_budget) == set(REGISTRY.names("budget"))
    for report in by_budget.values():
        assert report.correct_key_ok
        assert report.wrong_keys_all_corrupt
    # Fewer FU instances can only lengthen (never shorten) the schedule.
    assert by_budget["tight"].baseline_cycles >= by_budget["default"].baseline_cycles
    assert by_budget["default"].baseline_cycles >= by_budget["loose"].baseline_cycles
