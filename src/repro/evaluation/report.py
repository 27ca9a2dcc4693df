"""Combined-report generator: runs the whole evaluation and renders a
single markdown document (the machine-generated companion to
EXPERIMENTS.md).

Also the consumer of the unified campaign JSON (``repro.campaign/5``,
see :mod:`repro.runtime.results`): :func:`format_campaign` renders a
:class:`~repro.runtime.results.CampaignResult` — produced by
``repro campaign -o results.json`` or :func:`run_campaign` — as a
markdown section with one column per sweep axis (config, key scheme,
resource budget, pipeline) plus an aggregate per-stage telemetry
table (ops touched / key bits per pipeline stage), and
:func:`render_campaign_file` does the same straight from a JSON file
on disk.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.evaluation.figure6 import format_figure6, generate_figure6
from repro.evaluation.keymgmt_eval import format_keymgmt, generate_keymgmt
from repro.evaluation.overhead import (
    format_frequency_rows,
    measure_frequency,
    measure_latency,
)
from repro.evaluation.table1 import format_table1, generate_table1
from repro.evaluation.validation import format_validation, validate_suite

if TYPE_CHECKING:
    from repro.runtime.results import CampaignResult

def _benchmark_names() -> list[str]:
    """Benchmark names resolved through the capability registry, in
    registration order — the report never hard-codes the suite."""
    from repro.benchsuite import benchmark_names

    return benchmark_names()


def format_campaign(result: "CampaignResult") -> str:
    """Render a campaign result (the unified JSON schema) as markdown.

    Axis columns (key scheme, resource budget, pipeline) appear only
    when the campaign actually swept them, so single-axis tables stay
    compact.  When units carry per-stage telemetry, an aggregate
    stage table (units run / ops touched / key bits per stage)
    follows the campaign table.
    """
    show_scheme = len({u.key_scheme for u in result.units}) > 1
    show_budget = len({u.budget for u in result.units}) > 1
    show_pipeline = len({u.pipeline for u in result.units}) > 1
    header = ["benchmark", "config"]
    if show_scheme:
        header.append("scheme")
    if show_budget:
        header.append("budget")
    if show_pipeline:
        header.append("pipeline")
    header += [
        "keys", "correct ok", "wrong corrupt",
        "avg HD", "min HD", "max HD", "latency-chg",
    ]
    align = (
        ["---", "---"]
        + ["---"] * (show_scheme + show_budget + show_pipeline)
        + ["---:", "---", "---", "---:", "---:", "---:", "---:"]
    )
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(align) + "|",
    ]
    failed: list[str] = []
    for unit in result.units:
        report = unit.report
        cells = [unit.benchmark, unit.config]
        if show_scheme:
            cells.append(unit.key_scheme)
        if show_budget:
            cells.append(unit.budget)
        if show_pipeline:
            cells.append(unit.pipeline)
        if report is None:
            # Failed units (schema v4) carry no report: render an
            # explicit FAILED row instead of dropping the cell.
            cells += ["-", "FAILED", "-", "-", "-", "-", "-"]
            failed.append(
                f"- {unit.benchmark}/{unit.config} failed after "
                f"{unit.attempts} attempt(s): {unit.error or 'unknown error'}"
            )
        else:
            cells += [
                str(report.n_keys),
                str(report.correct_key_ok),
                str(report.wrong_keys_all_corrupt),
                f"{100 * report.average_hamming:.1f}%",
                f"{100 * report.min_hamming:.1f}%",
                f"{100 * report.max_hamming:.1f}%",
                str(report.latency_changed_keys),
            ]
        lines.append("| " + " | ".join(cells) + " |")
    reports = [u.report for u in result.units if u.report is not None]
    if reports:
        average = sum(r.average_hamming for r in reports) / len(reports)
        lines.append(
            f"\ncampaign average HD {100 * average:.1f}% over "
            f"{len(reports)} unit(s)"
        )
    if failed:
        lines += [
            f"\n**{len(failed)} unit(s) failed** "
            "(excluded from the average):",
            *failed,
        ]
    stage_lines = _format_stage_telemetry(result)
    if stage_lines:
        lines += ["", *stage_lines]
    attack_lines = _format_attacks(result)
    if attack_lines:
        lines += ["", *attack_lines]
    if result.cache:
        for name, label in (("golden", "golden-model"), ("frontend", "front-end")):
            counters = result.cache.get(name)
            if not counters:
                continue
            lines.append(
                f"{label} cache: {counters.get('hits', 0)} hits / "
                f"{counters.get('misses', 0)} misses"
            )
    return "\n".join(lines)


def _format_stage_telemetry(result: "CampaignResult") -> list[str]:
    """Aggregate per-stage StageReport blocks into a markdown table.

    Sums ops touched and key bits consumed per stage name over every
    unit that ran it; empty when no unit carries stage telemetry
    (e.g. every unit failed).
    """
    totals: dict[str, dict[str, int]] = {}
    phases: dict[str, str] = {}
    for unit in result.units:
        for stage in unit.stages:
            name = stage["stage"]
            bucket = totals.setdefault(name, {"units": 0, "ops": 0, "bits": 0})
            bucket["units"] += 1
            bucket["ops"] += stage.get("ops_touched", 0)
            bucket["bits"] += stage.get("key_bits_consumed", 0)
            phases.setdefault(name, stage.get("phase", ""))
    if not totals:
        return []
    lines = [
        "| stage | phase | units | ops touched | key bits |",
        "|---|---|---:|---:|---:|",
    ]
    for name, bucket in totals.items():
        lines.append(
            f"| {name} | {phases[name]} | {bucket['units']} | "
            f"{bucket['ops']} | {bucket['bits']} |"
        )
    return lines


def _format_attack_outcome(value: object) -> str:
    """One outcome value as a table-cell fragment: scalars verbatim
    (floats compacted), containers by size — curves and trajectories
    belong in the JSON, not a markdown cell."""
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return f"<{len(value)} items>"
    if isinstance(value, dict):
        return f"<{len(value)} entries>"
    return str(value)


def _format_attacks(result: "CampaignResult") -> list[str]:
    """Render per-unit attack blocks (``CampaignSpec.attacks``) as the
    attack-cost table; empty when no unit carries attack results.

    One row per (unit, attack) with the contract's cost counters
    (oracle queries / simulated trials / iterations) as dedicated
    columns and the attack-specific ``outcome`` block compacted into
    ``key=value`` pairs — an attack renders without this module
    knowing its outcome schema.
    """
    rows: list[tuple[str, ...]] = []
    for unit in result.units:
        for name, block in unit.attacks.items():
            cost = block.get("cost", {})
            if block.get("applicable", True):
                details = ", ".join(
                    f"{key}={_format_attack_outcome(value)}"
                    for key, value in block.get("outcome", {}).items()
                )
            else:
                details = f"n/a ({block.get('reason', '?')})"
            rows.append(
                (
                    unit.benchmark,
                    unit.config,
                    name,
                    str(cost.get("oracle_queries", 0)),
                    str(cost.get("simulated_trials", 0)),
                    str(cost.get("iterations", 0)),
                    details,
                )
            )
    if not rows:
        return []
    lines = [
        "| benchmark | config | attack | oracle queries | sim trials "
        "| iterations | outcome |",
        "|---|---|---|---:|---:|---:|---|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_campaign_file(json_path: Path | str) -> str:
    """Load a ``repro campaign`` JSON file and render it as markdown."""
    from repro.runtime.results import CampaignResult

    return format_campaign(CampaignResult.load(json_path))


def generate_report(n_validation_keys: int = 10, jobs: int = 1) -> str:
    """Run every experiment and return the markdown report text.

    ``jobs`` parallelizes the validation campaign (the dominant cost)
    across worker processes without changing its results.
    """
    started = time.time()
    sections = [
        "# TAO reproduction — machine-generated evaluation report",
        "",
        "## T1 — Table 1",
        "```",
        format_table1(generate_table1()),
        "```",
        "",
        "## F6 — Figure 6",
        "```",
        format_figure6(generate_figure6()),
        "```",
        "",
        "## P1 — latency with the correct key",
        "```",
    ]
    for name in _benchmark_names():
        row = measure_latency(name)
        sections.append(
            f"{name:<10} baseline {row.baseline_cycles:>6} cycles, "
            f"obfuscated {row.obfuscated_cycles:>6} cycles "
            f"({100 * row.overhead:+.2f}%)"
        )
    sections += [
        "```",
        "",
        "## P2 — frequency impact",
        "```",
        format_frequency_rows([measure_frequency(n) for n in _benchmark_names()]),
        "```",
        "",
        "## K1 — key management",
        "```",
        format_keymgmt(generate_keymgmt()),
        "```",
        "",
        f"## V1/V2 — key validation ({n_validation_keys} keys per benchmark)",
        "```",
        format_validation(validate_suite(n_keys=n_validation_keys, jobs=jobs)),
        "```",
        "",
        f"_Generated in {time.time() - started:.0f}s._",
        "",
    ]
    return "\n".join(sections)


def write_report(
    path: Path | str, n_validation_keys: int = 10, jobs: int = 1
) -> Path:
    """Generate the report and write it to ``path``."""
    path = Path(path)
    path.write_text(generate_report(n_validation_keys, jobs=jobs))
    return path
