"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` file regenerates one of the paper's tables/figures
(see DESIGN.md's per-experiment index).  The regenerated rows are
printed so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
report generator; timings from pytest-benchmark measure the cost of
each regeneration pipeline.
"""

from __future__ import annotations

import pytest

from repro.benchsuite import all_benchmarks
from repro.tao import TaoFlow


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
def baseline_designs():
    flow = TaoFlow()
    return {
        name: flow.synthesize_baseline(bench.source, bench.top)
        for name, bench in all_benchmarks().items()
    }
