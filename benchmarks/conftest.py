"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` file regenerates one of the paper's tables/figures.
T1, F6, P1, P2, K1 and the B_i ablation read cells of one
session-scoped campaign document, the evaluation campaign
``repro campaign --design-metrics`` writes, with the ablation's B_i
configs added.  The regenerated rows are printed so
``pytest benchmarks/bench_*.py --benchmark-only -s`` doubles as the
report generator; timings from pytest-benchmark measure the cost of
each regeneration.
"""

from __future__ import annotations

import pytest

from repro.benchsuite import all_benchmarks, benchmark_names
from repro.evaluation.report import EVALUATION_CONFIGS, design_cells
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.executor import ExecutionOptions
from repro.tao import TaoFlow

#: The A1 ablation's cells ``bi1`` .. ``bi5``: DFG variants alone at
#: each B_i, under selector diversity.
BLOCK_BITS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def benchmark_suite():
    return all_benchmarks()


@pytest.fixture(scope="session")
def obfuscated_components():
    """Fully-obfuscated components for all five benchmarks (cached)."""
    flow = TaoFlow()
    return {
        name: flow.obfuscate(bench.source, bench.top)
        for name, bench in all_benchmarks().items()
    }


@pytest.fixture(scope="session")
def evaluation():
    """``{benchmark: {config: unit}}`` of the session's evaluation
    document: every benchmark under the four evaluation configs and the
    B_i configs, each unit with its design block."""
    spec = CampaignSpec(
        benchmarks=tuple(benchmark_names()),
        configs=EVALUATION_CONFIGS + tuple(f"bi{bits}" for bits in BLOCK_BITS),
        extra_configs=tuple(
            (
                f"bi{bits}",
                (
                    ("obfuscate_constants", False),
                    ("obfuscate_branches", False),
                    ("block_bits", bits),
                    ("variant_diversity", "selector"),
                ),
            )
            for bits in BLOCK_BITS
        ),
        n_keys=3,
        design_metrics=True,
    )
    return design_cells(run_campaign(spec, ExecutionOptions(jobs=0)))
