"""Shared fixtures for the unit suite."""

import pytest

from repro.registry import REGISTRY


@pytest.fixture
def isolated_registry():
    """Snapshot the process registry and restore it after the test, so
    ad-hoc registrations cannot leak across tests."""
    state = REGISTRY.snapshot()
    yield REGISTRY
    REGISTRY.restore(state)


@pytest.fixture(scope="session")
def evaluation_result():
    """The evaluation campaign at 3 keys: every benchmark under the four
    configs the paper's evaluation compares, each unit with its design
    block (``repro campaign --design-metrics``)."""
    from repro.benchsuite import benchmark_names
    from repro.evaluation.report import EVALUATION_CONFIGS
    from repro.runtime.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        benchmarks=tuple(benchmark_names()),
        configs=EVALUATION_CONFIGS,
        n_keys=3,
        design_metrics=True,
    )
    return run_campaign(spec)
