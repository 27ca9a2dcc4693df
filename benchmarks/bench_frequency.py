"""Experiment P2 — achievable-frequency impact (paper §4.2).

Paper reference: target frequency drops ~8 % on average with DFG
variants (extra multiplexers), <1 % with branch masking (one XOR in
the next-state logic) and ~4 % with constant obfuscation (larger
muxes, slightly longer critical path), with the variant penalty
proportional to the key bits per block.  The ratios come from the
session's evaluation document: each single-obfuscation cell's
frequency over its unobfuscated reference.
"""

import pytest

from repro.evaluation.report import BAR_CONFIGS, format_frequency, frequency_ratio

BENCHMARKS = ["gsm", "adpcm", "sobel", "backprop", "viterbi"]


def ratios(by_config):
    """Frequency ratio per single-obfuscation bar of one benchmark."""
    return {bar: frequency_ratio(by_config[config]) for bar, config in BAR_CONFIGS.items()}


@pytest.mark.parametrize("name", BENCHMARKS)
def test_frequency_row(benchmark, name, evaluation):
    row = benchmark(ratios, evaluation[name])
    assert row["branches"] > 0.99  # <1 % loss
    assert 0.85 < row["constants"] <= 1.0  # a few percent
    assert 0.80 < row["dfg"] <= 1.0  # largest impact


def test_frequency_suite_shape(benchmark, capsys, evaluation):
    def sweep():
        return [ratios(evaluation[name]) for name in BENCHMARKS]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_frequency(evaluation))
    n = len(rows)
    avg_branches = sum(r["branches"] for r in rows) / n
    avg_constants = sum(r["constants"] for r in rows) / n
    avg_dfg = sum(r["dfg"] for r in rows) / n
    assert avg_branches > 0.99  # paper: negligible (<1 %)
    assert avg_constants >= avg_dfg  # constants lighter than variants
    assert 0.85 < avg_dfg < 1.0  # paper: ~8 % average loss
