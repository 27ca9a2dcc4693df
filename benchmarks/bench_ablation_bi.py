"""Experiment A1 — ablation: overhead versus key bits per block (B_i).

Paper reference (§4.2): both the area overhead and the frequency drop
of the DFG-variant obfuscation are "proportional to the number of key
bits assigned to each basic block because creating more variants
requires more multiplexers".  This bench sweeps B_i and checks that
monotonic trend, plus the diversity-mode ablation from DESIGN.md.
"""

import pytest

from repro.benchsuite import all_benchmarks
from repro.evaluation.overhead import frequency_vs_block_bits
from repro.rtl import estimate_area
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.executor import ExecutionOptions
from repro.tao import ObfuscationParameters, TaoFlow

BI_VALUES = [1, 2, 3, 4, 5]


def area_vs_block_bits(name, bits_values, diversity="selector"):
    bench = all_benchmarks()[name]
    baseline = TaoFlow().synthesize_baseline(bench.source, bench.top)
    baseline_area = estimate_area(baseline).total
    overheads = {}
    for bits in bits_values:
        params = ObfuscationParameters(
            obfuscate_constants=False,
            obfuscate_branches=False,
            block_bits=bits,
            variant_diversity=diversity,
        )
        component = TaoFlow(params=params).obfuscate(bench.source, bench.top)
        overheads[bits] = (
            estimate_area(component.design).total / baseline_area - 1.0
        )
    return overheads


def test_area_grows_with_block_bits(benchmark, capsys):
    overheads = benchmark.pedantic(
        area_vs_block_bits, args=("sobel", BI_VALUES), rounds=1, iterations=1
    )
    with capsys.disabled():
        print("\nsobel DFG-variant area overhead vs B_i (selector diversity):")
        for bits, overhead in overheads.items():
            print(f"  B_i={bits}: +{100 * overhead:.1f}%")
    values = [overheads[b] for b in BI_VALUES]
    # Monotone (non-decreasing) trend, as §4.2 states.
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] > values[0]


def test_frequency_drops_with_block_bits(benchmark, capsys):
    ratios = benchmark.pedantic(
        frequency_vs_block_bits, args=("sobel", BI_VALUES), rounds=1, iterations=1
    )
    with capsys.disabled():
        print("\nsobel DFG-variant frequency ratio vs B_i:")
        for bits, ratio in ratios.items():
            print(f"  B_i={bits}: {100 * (ratio - 1):+.1f}%")
    values = [ratios[b] for b in BI_VALUES]
    assert all(v <= 1.0 for v in values)
    assert values[-1] <= values[0]  # more variants, never faster


def test_block_bits_sweep_functional(benchmark, capsys):
    """Every B_i cell must stay functionally locked: the campaign
    engine sweeps the ad-hoc B_i configs (``extra_configs``) with the
    §4.3 validation loop, sharing one golden run across the sweep
    (DFG variants leave the IR untouched)."""

    def sweep():
        spec = CampaignSpec(
            benchmarks=("sobel",),
            configs=("bi1", "bi4"),
            extra_configs=tuple(
                (
                    f"bi{bits}",
                    (
                        ("obfuscate_constants", False),
                        ("obfuscate_branches", False),
                        ("block_bits", bits),
                    ),
                )
                for bits in (1, 4)
            ),
            n_keys=3,
        )
        # serial: both cells share this process's cache
        return run_campaign(
            spec, ExecutionOptions(jobs=1, collect_cache_stats=True)
        )

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        for unit in result.units:
            print(
                f"\nsobel[{unit.config}]: correct_ok="
                f"{unit.report.correct_key_ok} avg_HD="
                f"{100 * unit.report.average_hamming:.1f}%"
            )
    for unit in result.units:
        assert unit.report.correct_key_ok
        assert unit.report.wrong_keys_all_corrupt
        assert unit.params["block_bits"] in (1, 4)
    # One golden interpreter run served both B_i cells.
    assert result.cache["golden"]["misses"] == 1


def test_diversity_mode_ablation(benchmark, capsys):
    """DESIGN.md ablation: selector diversity >= distance diversity in area."""

    def measure():
        distance = area_vs_block_bits("sobel", [4], diversity="distance")[4]
        selector = area_vs_block_bits("sobel", [4], diversity="selector")[4]
        return distance, selector

    distance, selector = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\nsobel B_i=4: distance diversity +{100 * distance:.1f}%, "
            f"selector diversity +{100 * selector:.1f}%"
        )
    assert selector >= distance
