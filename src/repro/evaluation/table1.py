"""Table 1 regeneration: benchmark characteristics.

Reports, per benchmark: # C lines, # Const, # BB, # CJMP and the
working-key width W (Eq. 1) under the paper's parameters (C = 32,
1 bit per branch, B_i = 4), next to the values the paper printed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchsuite import all_benchmarks
from repro.frontend.lexer import count_code_lines
from repro.tao.flow import TaoFlow
from repro.tao.key import ObfuscationParameters

#: The numbers printed in the paper's Table 1, for side-by-side report.
PAPER_TABLE1 = {
    "gsm": {"c_lines": 110, "consts": 4, "bbs": 88, "cjmps": 4, "w": 484},
    "adpcm": {"c_lines": 412, "consts": 5, "bbs": 100, "cjmps": 5, "w": 565},
    "sobel": {"c_lines": 65, "consts": 2, "bbs": 11, "cjmps": 2, "w": 110},
    "backprop": {"c_lines": 264, "consts": 12, "bbs": 123, "cjmps": 11, "w": 887},
    "viterbi": {"c_lines": 144, "consts": 117, "bbs": 98, "cjmps": 9, "w": 4145},
}


@dataclass
class Table1Row:
    benchmark: str
    c_lines: int
    consts: int
    bbs: int
    cjmps: int
    w: int


def characterize_benchmark(name: str, params: ObfuscationParameters | None = None) -> Table1Row:
    """Compute one benchmark's Table-1 row from our flow."""
    bench = all_benchmarks()[name]
    flow = TaoFlow(params=params)
    module = flow.compile_front_end(bench.source, name)
    apportionment = flow.analyze(module, bench.top)
    return Table1Row(
        benchmark=name,
        c_lines=count_code_lines(bench.source),
        consts=apportionment.num_constants,
        bbs=apportionment.num_blocks,
        cjmps=apportionment.num_branches,
        w=apportionment.working_key_bits,
    )


def generate_table1(params: ObfuscationParameters | None = None) -> list[Table1Row]:
    """All five rows, in the paper's benchmark order."""
    return [characterize_benchmark(name, params) for name in all_benchmarks()]


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
