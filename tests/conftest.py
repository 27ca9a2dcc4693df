"""Shared fixtures for the unit suite."""

import pytest

from repro.registry import REGISTRY


@pytest.fixture
def isolated_registry():
    """Snapshot the process registry and restore it after the test, so
    plugin loads and ad-hoc registrations cannot leak across tests."""
    state = REGISTRY.snapshot()
    yield REGISTRY
    REGISTRY.restore(state)
