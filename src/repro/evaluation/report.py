"""Markdown renderers over one campaign document (``repro.campaign/5``,
see :mod:`repro.runtime.results`).

:func:`format_campaign` renders a
:class:`~repro.runtime.results.CampaignResult` — produced by
``repro campaign -o results.json`` or :func:`run_campaign` — as a
markdown section with one column per sweep axis (config, key scheme,
resource budget, pipeline) plus an aggregate per-stage telemetry
table (ops touched / key bits per pipeline stage), and
:func:`render_campaign_file` does the same straight from a JSON file
on disk.

When a benchmark's four :data:`EVALUATION_CONFIGS` cells carry
``design`` blocks (``--design-metrics``), the rendering ends with
:func:`format_evaluation`: the paper's experimental section, ours next
to the paper's numbers, from the same document, for every such
benchmark.  The evaluation campaign is::

    repro campaign --benchmarks all --config default \
        --config branches-only --config constants-only --config dfg-only \
        --design-metrics --keys N

* T1 — Table 1: # C lines, # Const, # BB, # CJMP and W (Eq. 1) under
  C = 32, 1 bit per branch and B_i = 4.  The counts are the ``default``
  cell's stage telemetry: the constants, branches and dfg stages touch
  # Const, # CJMP and # BB ops, and their key bits sum to W.
* F6 — Figure 6: the area of the ``branches-only``, ``constants-only``
  and ``dfg-only`` cells and of ``default`` (combined), each over its
  unit's unobfuscated reference.
* P1 — §4.2 latency: with the correct key an obfuscated design runs in
  exactly its reference's cycles on the same workloads (variants reuse
  the baseline schedule, branch masks are compensated by target swaps,
  constants decode losslessly).
* P2 — §4.2 frequency: DFG variants cost ~8 % on average (extra
  multiplexer levels), branch masking <1 % (one XOR in next-state
  logic), constants ~4 % (wider muxes + unmask XOR).
* K1 — §3.4 key management: replication is free, but each locking-key
  bit fans out to ``f = ceil(W/K)`` working-key bits; AES adds a fixed
  core plus NVM bits and flip-flops proportional to W.  Both are
  functions of W, set against the ``default`` cell's area.
* V1/V2 — §4.3 key validation of the ``default`` cells: the correct key
  reproduces the golden outputs, every wrong key corrupts one, and the
  wrong keys' average Hamming fraction (paper: 62.2 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.frontend.lexer import count_code_lines
from repro.tao.keymgmt import AesKeyManager, ReplicationKeyManager

if TYPE_CHECKING:
    from repro.runtime.results import CampaignResult, CampaignUnit
    from repro.tao.metrics import ValidationReport

    #: ``{benchmark: {config: unit}}`` (:func:`design_cells`).
    Cells = dict[str, dict[str, CampaignUnit]]


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
    if design_cells(result):
        lines += ["", format_evaluation(result)]
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


# ----------------------------------------------------------------------
# The paper's evaluation
# ----------------------------------------------------------------------
#: The numbers printed in the paper's Table 1, for side-by-side report.
PAPER_TABLE1 = {
    "gsm": {"c_lines": 110, "consts": 4, "bbs": 88, "cjmps": 4, "w": 484},
    "adpcm": {"c_lines": 412, "consts": 5, "bbs": 100, "cjmps": 5, "w": 565},
    "sobel": {"c_lines": 65, "consts": 2, "bbs": 11, "cjmps": 2, "w": 110},
    "backprop": {"c_lines": 264, "consts": 12, "bbs": 123, "cjmps": 11, "w": 887},
    "viterbi": {"c_lines": 144, "consts": 117, "bbs": 98, "cjmps": 9, "w": 4145},
}

#: Per-benchmark overhead percentages annotated on the paper's Figure 6.
PAPER_FIGURE6 = {
    "gsm": {"branches": 1, "constants": 4, "dfg": 18},
    "adpcm": {"branches": 0, "constants": 6, "dfg": 23},
    "sobel": {"branches": 2, "constants": 5, "dfg": 11},
    "backprop": {"branches": 0, "constants": 11, "dfg": 31},
    "viterbi": {"branches": 1, "constants": 20, "dfg": 25},
}

#: The paper's average output corruptibility over the five benchmarks.
PAPER_AVERAGE_HAMMING = 0.622

#: The config cell behind each single-obfuscation bar, in bar order.
BAR_CONFIGS = {
    "branches": "branches-only",
    "constants": "constants-only",
    "dfg": "dfg-only",
}
#: The configs of the evaluation campaign: the full flow and each bar.
EVALUATION_CONFIGS = ("default", *BAR_CONFIGS.values())


def design_cells(result: "CampaignResult") -> "Cells":
    """The evaluation's cells, ``{benchmark: {config: unit}}``: the ok
    units that carry a design block (the first per pair, in document
    order), for each benchmark that has all of
    :data:`EVALUATION_CONFIGS`."""
    cells: Cells = {}
    for unit in result.units:
        if unit.ok and unit.design is not None:
            cells.setdefault(unit.benchmark, {}).setdefault(unit.config, unit)
    return {
        name: by_config
        for name, by_config in cells.items()
        if all(config in by_config for config in EVALUATION_CONFIGS)
    }


def _working_key_bits(unit: "CampaignUnit") -> int:
    """W of a unit: the key bits its stages consumed (Eq. 1)."""
    return sum(stage["key_bits_consumed"] for stage in unit.stages)


def area_overhead(unit: "CampaignUnit") -> float:
    """The unit's area over its unobfuscated reference, minus one."""
    return unit.design["area_gates"] / unit.design["reference"]["area_gates"] - 1.0


def frequency_ratio(unit: "CampaignUnit") -> float:
    """The unit's frequency over its unobfuscated reference's."""
    return unit.design["frequency_mhz"] / unit.design["reference"]["frequency_mhz"]


def latency_overhead(unit: "CampaignUnit") -> float:
    """Correct-key cycles over the reference's cycles, minus one."""
    reference = unit.design["reference"]["cycles"]
    if reference == 0:
        return 0.0
    return unit.report.baseline_cycles / reference - 1.0


@dataclass
class Table1Row:
    benchmark: str
    c_lines: int
    consts: int
    bbs: int
    cjmps: int
    w: int


def table1_rows(cells: "Cells") -> list[Table1Row]:
    """One row per benchmark, in document order."""
    from repro.benchsuite import get_benchmark

    rows = []
    for name, by_config in cells.items():
        unit = by_config["default"]
        ops = {stage["stage"]: stage["ops_touched"] for stage in unit.stages}
        rows.append(
            Table1Row(
                benchmark=name,
                c_lines=count_code_lines(get_benchmark(name).source),
                consts=ops.get("constants", 0),
                bbs=ops.get("dfg", 0),
                cjmps=ops.get("branches", 0),
                w=_working_key_bits(unit),
            )
        )
    return rows


def format_table1(rows: list[Table1Row]) -> str:
    """Render the table with paper values alongside ours."""
    lines = [
        "Table 1: Characteristics of the benchmarks "
        "(ours | paper)",
        f"{'Benchmark':<10} {'# C lines':>16} {'# Const':>14} "
        f"{'# BB':>12} {'# CJMP':>12} {'W (bits)':>16}",
    ]
    for row in rows:
        paper = PAPER_TABLE1.get(row.benchmark, {})

        def pair(ours: int, key: str) -> str:
            reference = paper.get(key)
            return f"{ours} | {reference}" if reference is not None else str(ours)

        lines.append(
            f"{row.benchmark:<10} {pair(row.c_lines, 'c_lines'):>16} "
            f"{pair(row.consts, 'consts'):>14} {pair(row.bbs, 'bbs'):>12} "
            f"{pair(row.cjmps, 'cjmps'):>12} {pair(row.w, 'w'):>16}"
        )
    return "\n".join(lines)


def format_figure6(cells: "Cells") -> str:
    lines = [
        "Figure 6: Area overhead of TAO obfuscations, normalized to the "
        "baseline (ours % | paper %)",
        f"{'Benchmark':<10} {'branches':>16} {'constants':>16} "
        f"{'DFG variants':>16} {'combined':>10}",
    ]
    sums = dict.fromkeys(BAR_CONFIGS, 0.0)
    for name, by_config in cells.items():
        paper = PAPER_FIGURE6.get(name, {})
        bars = []
        for bar, config in BAR_CONFIGS.items():
            overhead = area_overhead(by_config[config])
            sums[bar] += overhead
            bars.append(f"+{100 * overhead:.1f} | +{paper.get(bar, '?')}")
        combined = "+%.1f" % (100 * area_overhead(by_config["default"]))
        lines.append(
            f"{name:<10} {bars[0]:>16} {bars[1]:>16} {bars[2]:>16} {combined:>10}"
        )
    n = max(1, len(cells))
    lines.append(
        f"{'average':<10} {'+%.1f | ~+1' % (100 * sums['branches'] / n):>16} "
        f"{'+%.1f | ~+10' % (100 * sums['constants'] / n):>16} "
        f"{'+%.1f | ~+21' % (100 * sums['dfg'] / n):>16}"
    )
    return "\n".join(lines)


def format_latency(cells: "Cells") -> str:
    lines = []
    for name, by_config in cells.items():
        unit = by_config["default"]
        lines.append(
            f"{name:<10} baseline {unit.design['reference']['cycles']:>6} cycles, "
            f"obfuscated {unit.report.baseline_cycles:>6} cycles "
            f"({100 * latency_overhead(unit):+.2f}%)"
        )
    return "\n".join(lines)


def format_frequency(cells: "Cells") -> str:
    lines = [
        "Frequency impact per obfuscation (ours; paper: branches <1%, "
        "constants ~4%, DFG ~8% average)",
        f"{'Benchmark':<10} {'branches':>10} {'constants':>10} {'DFG':>10}",
    ]
    for name, by_config in cells.items():
        lines.append(
            f"{name:<10} "
            + " ".join(
                f"{100 * (frequency_ratio(by_config[config]) - 1):>+9.1f}%"
                for config in BAR_CONFIGS.values()
            )
        )
    return "\n".join(lines)


@dataclass
class KeyManagementRow:
    benchmark: str
    working_key_bits: int
    design_area: float
    replication_extra: float
    replication_fanout: int
    aes_extra: float

    @property
    def aes_relative(self) -> float:
        """AES overhead as a fraction of the obfuscated design area."""
        return self.aes_extra / self.design_area if self.design_area else 0.0


def keymgmt_rows(cells: "Cells") -> list[KeyManagementRow]:
    """One row per benchmark, in document order."""
    rows = []
    for name, by_config in cells.items():
        unit = by_config["default"]
        w = _working_key_bits(unit)
        replication = ReplicationKeyManager(w)
        rows.append(
            KeyManagementRow(
                benchmark=name,
                working_key_bits=w,
                design_area=unit.design["area_gates"],
                replication_extra=replication.overhead().total,
                replication_fanout=replication.fanout,
                aes_extra=AesKeyManager(w).overhead().total,
            )
        )
    return rows


def format_keymgmt(rows: list[KeyManagementRow]) -> str:
    lines = [
        "Key-management overhead (paper §3.4: replication free; AES = "
        "fixed core + W-proportional storage)",
        f"{'Benchmark':<10} {'W bits':>8} {'repl. extra':>12} "
        f"{'fan-out f':>10} {'AES extra':>12} {'AES/design':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:<10} {row.working_key_bits:>8} "
            f"{row.replication_extra:>12.0f} {row.replication_fanout:>10} "
            f"{row.aes_extra:>12.0f} {100 * row.aes_relative:>10.1f}%"
        )
    return "\n".join(lines)


@dataclass
class ValidationSummary:
    """Aggregate of the per-benchmark campaigns."""

    reports: dict[str, "ValidationReport"]

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


def validation_summary(cells: "Cells") -> ValidationSummary:
    """The ``default`` cells' reports, in document order."""
    return ValidationSummary(
        reports={name: by_config["default"].report for name, by_config in cells.items()}
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


def format_evaluation(result: "CampaignResult") -> str:
    """The paper's evaluation sections (module docstring), rendered
    from one document's :func:`design_cells`."""
    cells = design_cells(result)
    sections = [
        ("T1 — Table 1", format_table1(table1_rows(cells))),
        ("F6 — Figure 6", format_figure6(cells)),
        ("P1 — latency with the correct key", format_latency(cells)),
        ("P2 — frequency impact", format_frequency(cells)),
        ("K1 — key management", format_keymgmt(keymgmt_rows(cells))),
        (
            f"V1/V2 — key validation ({result.spec['n_keys']} keys per benchmark)",
            format_validation(validation_summary(cells)),
        ),
    ]
    lines = ["# TAO reproduction — machine-generated evaluation report"]
    for title, body in sections:
        lines += ["", f"## {title}", "```", body, "```"]
    return "\n".join(lines)
