"""Figure 6 regeneration: normalized area overhead per obfuscation.

For every benchmark, synthesize the baseline and three obfuscated
versions (branches only, constants only, DFG variants only) and report
each area normalized against the baseline — the same bars Figure 6
plots.  The paper's annotations (branches +0-2 %, constants +4-31 %
avg ~10 %, variants +11-31 % avg ~21 %, backprop worst) are included
for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchsuite import all_benchmarks
from repro.rtl.area_model import estimate_area
from repro.tao.flow import TaoFlow
from repro.tao.key import ObfuscationParameters

#: Per-benchmark overhead percentages annotated on the paper's Figure 6.
PAPER_FIGURE6 = {
    "gsm": {"branches": 1, "constants": 4, "dfg": 18},
    "adpcm": {"branches": 0, "constants": 6, "dfg": 23},
    "sobel": {"branches": 2, "constants": 5, "dfg": 11},
    "backprop": {"branches": 0, "constants": 11, "dfg": 31},
    "viterbi": {"branches": 1, "constants": 20, "dfg": 25},
}


@dataclass
class Figure6Row:
    """Normalized area overheads of one benchmark (fractions, not %)."""

    benchmark: str
    baseline_area: float
    branches_overhead: float
    constants_overhead: float
    dfg_overhead: float
    combined_overhead: float
    breakdown: dict[str, float] = field(default_factory=dict)


def _overhead(source: str, top: str, baseline_area: float, **param_kwargs) -> float:
    params = ObfuscationParameters(**param_kwargs)
    component = TaoFlow(params=params).obfuscate(source, top)
    area = estimate_area(component.design).total
    return area / baseline_area - 1.0


def measure_benchmark(name: str) -> Figure6Row:
    """Compute the four bars for one benchmark."""
    bench = all_benchmarks()[name]
    baseline = TaoFlow().synthesize_baseline(bench.source, bench.top)
    baseline_area = estimate_area(baseline).total
    branches = _overhead(
        bench.source,
        bench.top,
        baseline_area,
        obfuscate_constants=False,
        obfuscate_dfg=False,
    )
    constants = _overhead(
        bench.source,
        bench.top,
        baseline_area,
        obfuscate_branches=False,
        obfuscate_dfg=False,
    )
    dfg = _overhead(
        bench.source,
        bench.top,
        baseline_area,
        obfuscate_constants=False,
        obfuscate_branches=False,
    )
    combined = _overhead(bench.source, bench.top, baseline_area)
    return Figure6Row(
        benchmark=name,
        baseline_area=baseline_area,
        branches_overhead=branches,
        constants_overhead=constants,
        dfg_overhead=dfg,
        combined_overhead=combined,
    )


def generate_figure6() -> list[Figure6Row]:
    return [measure_benchmark(name) for name in all_benchmarks()]


def format_figure6(rows: list[Figure6Row]) -> str:
    lines = [
        "Figure 6: Area overhead of TAO obfuscations, normalized to the "
        "baseline (ours % | paper %)",
        f"{'Benchmark':<10} {'branches':>16} {'constants':>16} "
        f"{'DFG variants':>16} {'combined':>10}",
    ]
    sums = {"branches": 0.0, "constants": 0.0, "dfg": 0.0}
    for row in rows:
        paper = PAPER_FIGURE6.get(row.benchmark, {})
        branches = f"+{100 * row.branches_overhead:.1f} | +{paper.get('branches', '?')}"
        constants = f"+{100 * row.constants_overhead:.1f} | +{paper.get('constants', '?')}"
        dfg = f"+{100 * row.dfg_overhead:.1f} | +{paper.get('dfg', '?')}"
        lines.append(
            f"{row.benchmark:<10} {branches:>16} {constants:>16} "
            f"{dfg:>16} {'+%.1f' % (100 * row.combined_overhead):>10}"
        )
        sums["branches"] += row.branches_overhead
        sums["constants"] += row.constants_overhead
        sums["dfg"] += row.dfg_overhead
    n = max(1, len(rows))
    lines.append(
        f"{'average':<10} {'+%.1f | ~+1' % (100 * sums['branches'] / n):>16} "
        f"{'+%.1f | ~+10' % (100 * sums['constants'] / n):>16} "
        f"{'+%.1f | ~+21' % (100 * sums['dfg'] / n):>16}"
    )
    return "\n".join(lines)
