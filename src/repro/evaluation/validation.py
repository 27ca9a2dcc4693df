"""Key-validation experiments (paper §4.3, experiments V1/V2/V3).

Runs the 100-random-locking-keys campaign per benchmark and aggregates:

* V1 — the correct key reproduces the golden outputs; every wrong key
  corrupts at least one output;
* V2 — output corruptibility: average Hamming fraction of wrong-key
  outputs versus the golden outputs (paper: 62.2 % average over the
  five benchmarks with all three obfuscations enabled);
* V3 — wrong keys change latency only when they corrupt loop-bound
  constants (other constants and datapath variants preserve the cycle
  count because the schedule is unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchsuite import all_benchmarks
from repro.tao.flow import TaoFlow
from repro.tao.key import ObfuscationParameters
from repro.tao.metrics import ValidationReport, validate_component

#: The paper's average output corruptibility over the five benchmarks.
PAPER_AVERAGE_HAMMING = 0.622


@dataclass
class ValidationSummary:
    """Aggregate of the per-benchmark campaigns."""

    reports: dict[str, ValidationReport]

    @property
    def average_hamming(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.average_hamming for r in self.reports.values()) / len(
            self.reports
        )

    @property
    def all_correct_keys_ok(self) -> bool:
        return all(r.correct_key_ok for r in self.reports.values())

    @property
    def all_wrong_keys_corrupt(self) -> bool:
        return all(r.wrong_keys_all_corrupt for r in self.reports.values())


def validate_benchmark(
    name: str,
    n_keys: int = 100,
    n_workloads: int = 1,
    seed: int = 7,
    params: ObfuscationParameters | None = None,
    jobs: int = 1,
) -> ValidationReport:
    """Run the §4.3 campaign on one benchmark.

    ``jobs > 1`` fans the key trials over worker processes via the
    campaign engine; the report is identical to a serial run.

    Seed semantics: ``seed`` is used directly for workload and key
    generation.  The campaign engine (``repro campaign`` /
    :func:`validate_suite`) instead derives a per-unit seed from
    ``(seed, benchmark, config)``, so its numbers differ from a direct
    ``validate_benchmark`` call at the same nominal seed.
    """
    bench = all_benchmarks()[name]
    component = TaoFlow(params=params).obfuscate(bench.source, bench.top)
    benches = bench.make_testbenches(seed=seed, count=n_workloads)
    return validate_component(
        component, benches, n_keys=n_keys, seed=seed, jobs=jobs
    )


def validate_suite(
    n_keys: int = 100, n_workloads: int = 1, seed: int = 7, jobs: int = 1
) -> ValidationSummary:
    """Run the campaign on all five benchmarks.

    Delegates to the campaign service (:func:`repro.api.plan_campaign`
    + :func:`repro.api.execute_plan`), which fans benchmarks across
    processes when ``jobs > 1`` and derives per-benchmark seeds so
    serial and parallel runs agree bit-for-bit (note: those derived
    seeds mean per-benchmark numbers differ from a direct
    :func:`validate_benchmark` call at the same ``seed``).
    """
    from repro.api import CampaignSpec, ExecutionOptions, execute_plan, plan_campaign

    spec = CampaignSpec(
        benchmarks=tuple(all_benchmarks()),
        n_keys=n_keys,
        n_workloads=n_workloads,
        seed=seed,
    )
    result = execute_plan(plan_campaign(spec), ExecutionOptions(jobs=jobs))
    return ValidationSummary(
        reports={unit.benchmark: unit.report for unit in result.units}
    )


def format_validation(summary: ValidationSummary) -> str:
    lines = [
        "Key validation (paper §4.3): 1 correct + N-1 wrong locking keys",
        f"{'Benchmark':<10} {'correct ok':>11} {'wrong corrupt':>14} "
        f"{'avg HD':>8} {'min HD':>8} {'max HD':>8} {'latency-chg keys':>17}",
    ]
    for name, report in summary.reports.items():
        lines.append(
            f"{name:<10} {str(report.correct_key_ok):>11} "
            f"{str(report.wrong_keys_all_corrupt):>14} "
            f"{100 * report.average_hamming:>7.1f}% "
            f"{100 * report.min_hamming:>7.1f}% "
            f"{100 * report.max_hamming:>7.1f}% "
            f"{report.latency_changed_keys:>17}"
        )
    lines.append(
        f"suite average HD {100 * summary.average_hamming:.1f}% "
        f"(paper: {100 * PAPER_AVERAGE_HAMMING:.1f}%)"
    )
    return "\n".join(lines)
