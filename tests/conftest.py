"""Fixtures shared across test modules."""

import pytest

from repro.analysis.sanitizers import reset_sanitizers, set_sanitizers


@pytest.fixture
def sanitized():
    """Force sanitizers on with clean state; restore env control after."""
    set_sanitizers(True)
    reset_sanitizers()
    yield
    reset_sanitizers()
    set_sanitizers(None)
