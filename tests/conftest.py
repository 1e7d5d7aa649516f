"""Fixtures shared across test modules."""

import pytest

from repro.analysis.locks import sanitizers_enabled
from repro.analysis.sanitizers import collect_report, reset_sanitizers, set_sanitizers

# Suites that drive the batch server's event loop: with sanitizers on
# (CI's dataplane and shard jobs), no test in them may leave an
# event-loop stall behind.
_LOOP_SUITES = {"test_dataplane", "test_inline_serving", "test_prefetch", "test_sharding"}


@pytest.fixture(autouse=True)
def no_event_loop_stalls(request):
    yield
    if sanitizers_enabled() and request.module.__name__.rsplit(".", 1)[-1] in _LOOP_SUITES:
        stalls = collect_report().event_loop_stalls
        assert stalls == [], stalls


@pytest.fixture
def sanitized():
    """Force sanitizers on with clean state; restore env control after."""
    set_sanitizers(True)
    reset_sanitizers()
    yield
    reset_sanitizers()
    set_sanitizers(None)
