"""Experiment T1 — regenerate Table 1 (benchmark characteristics).

Paper reference: Table 1 reports # C lines, # Const, # BB, # CJMP and
the working-key width W per benchmark after compiler optimization with
C = 32, one key bit per branch and B_i = 4.  The rows come from the
``default`` cells of the session's evaluation document.
"""

import pytest

from repro.evaluation.report import PAPER_TABLE1, format_table1, table1_rows

BENCHMARKS = list(PAPER_TABLE1)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_table1_row(benchmark, name, evaluation):
    rows = benchmark(table1_rows, evaluation)
    row = next(r for r in rows if r.benchmark == name)
    assert row.w == row.cjmps + 32 * row.consts + 4 * row.bbs  # Eq. 1


def test_table1_full(benchmark, capsys, evaluation):
    rows = benchmark.pedantic(table1_rows, args=(evaluation,), rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table1(rows))
    # Shape assertions against the paper's Table 1:
    by_name = {r.benchmark: r for r in rows}
    # viterbi has by far the most constants and the largest W.
    assert by_name["viterbi"].consts == max(r.consts for r in rows)
    assert by_name["viterbi"].w == max(r.w for r in rows)
    # sobel is the smallest benchmark (fewest lines, branches, W).
    assert by_name["sobel"].w == min(r.w for r in rows)
    assert by_name["sobel"].cjmps == min(r.cjmps for r in rows)
    # backprop has the most branches after inlining (paper: 11).
    assert by_name["backprop"].cjmps >= by_name["gsm"].cjmps
