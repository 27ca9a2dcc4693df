"""Performance-overhead experiments (paper §4.2, experiments P1/P2).

P1 — latency: with the correct key an obfuscated design executes in
exactly the baseline cycle count (variants reuse the baseline
schedule, branch masks are compensated by target swaps, constants
decode losslessly).

P2 — frequency: DFG variants cost ~8 % average achievable frequency
(extra multiplexer levels), branch masking <1 % (one XOR in next-state
logic), constant obfuscation ~4 % (wider muxes + unmask XOR), with the
variant penalty growing with B_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchsuite import all_benchmarks
from repro.rtl.timing_model import estimate_timing
from repro.sim.testbench import Testbench, run_testbench
from repro.tao.flow import TaoFlow
from repro.tao.key import ObfuscationParameters


@dataclass
class LatencyRow:
    """P1: correct-key latency versus baseline latency (cycles)."""

    benchmark: str
    baseline_cycles: int
    obfuscated_cycles: int

    @property
    def overhead(self) -> float:
        if self.baseline_cycles == 0:
            return 0.0
        return self.obfuscated_cycles / self.baseline_cycles - 1.0


@dataclass
class FrequencyRow:
    """P2: achievable frequency per obfuscation, relative to baseline."""

    benchmark: str
    baseline_mhz: float
    branches_mhz: float
    constants_mhz: float
    dfg_mhz: float

    def ratios(self) -> dict[str, float]:
        return {
            "branches": self.branches_mhz / self.baseline_mhz,
            "constants": self.constants_mhz / self.baseline_mhz,
            "dfg": self.dfg_mhz / self.baseline_mhz,
        }


def measure_latency(name: str, seed: int = 0) -> LatencyRow:
    """Simulate baseline and fully-obfuscated designs with the correct key."""
    bench = all_benchmarks()[name]
    flow = TaoFlow()
    baseline, component = flow.synthesize_pair(bench.source, bench.top)
    testbench = bench.make_testbenches(seed=seed, count=1)[0]
    base_outcome = run_testbench(baseline, testbench)
    obf_outcome = run_testbench(
        component.design, testbench, working_key=component.correct_working_key
    )
    if not base_outcome.matches or not obf_outcome.matches:
        raise AssertionError(f"{name}: simulation does not match golden model")
    return LatencyRow(
        benchmark=name,
        baseline_cycles=base_outcome.cycles,
        obfuscated_cycles=obf_outcome.cycles,
    )


def measure_frequency(name: str) -> FrequencyRow:
    """Estimate per-technique achievable frequency for one benchmark."""
    bench = all_benchmarks()[name]
    baseline = TaoFlow().synthesize_baseline(bench.source, bench.top)
    baseline_mhz = estimate_timing(baseline).frequency_mhz

    def freq(**kwargs) -> float:
        params = ObfuscationParameters(**kwargs)
        component = TaoFlow(params=params).obfuscate(bench.source, bench.top)
        return estimate_timing(component.design).frequency_mhz

    return FrequencyRow(
        benchmark=name,
        baseline_mhz=baseline_mhz,
        branches_mhz=freq(obfuscate_constants=False, obfuscate_dfg=False),
        constants_mhz=freq(obfuscate_branches=False, obfuscate_dfg=False),
        dfg_mhz=freq(obfuscate_constants=False, obfuscate_branches=False),
    )


def frequency_vs_block_bits(name: str, bits_values: list[int]) -> dict[int, float]:
    """A1 support: DFG-variant frequency ratio as B_i sweeps."""
    bench = all_benchmarks()[name]
    baseline = TaoFlow().synthesize_baseline(bench.source, bench.top)
    baseline_mhz = estimate_timing(baseline).frequency_mhz
    ratios: dict[int, float] = {}
    for bits in bits_values:
        params = ObfuscationParameters(
            obfuscate_constants=False,
            obfuscate_branches=False,
            block_bits=bits,
            variant_diversity="selector",
        )
        component = TaoFlow(params=params).obfuscate(bench.source, bench.top)
        ratios[bits] = estimate_timing(component.design).frequency_mhz / baseline_mhz
    return ratios


def format_frequency_rows(rows: list[FrequencyRow]) -> str:
    lines = [
        "Frequency impact per obfuscation (ours; paper: branches <1%, "
        "constants ~4%, DFG ~8% average)",
        f"{'Benchmark':<10} {'branches':>10} {'constants':>10} {'DFG':>10}",
    ]
    for row in rows:
        ratios = row.ratios()
        lines.append(
            f"{row.benchmark:<10} "
            f"{100 * (ratios['branches'] - 1):>+9.1f}% "
            f"{100 * (ratios['constants'] - 1):>+9.1f}% "
            f"{100 * (ratios['dfg'] - 1):>+9.1f}%"
        )
    return "\n".join(lines)
