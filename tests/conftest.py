"""Repo-wide fixtures.

One autouse fixture resets every process-wide counter family — and
the process-wide schedule cache every subsystem now shares — around
each test, so absolute-value assertions (compile counts, cache misses)
cannot bleed between tests under xdist or reordering — shared here
instead of being duplicated per test package.
"""

import pytest

from repro.schedule.builder import GLOBAL_CACHE
from repro.schedule.indexplan import PLAN_STATS
from repro.util.counters import RACE_STATS, TRANSPORT_STATS
from repro.verify.hook import VERIFY_STATS


def _reset_all():
    TRANSPORT_STATS.reset()
    PLAN_STATS.reset()
    VERIFY_STATS.reset()
    RACE_STATS.reset()
    GLOBAL_CACHE.clear()


@pytest.fixture(autouse=True)
def transport_stats():
    """Reset the transport, plan-compilation, and verification counters
    and empty the schedule cache around every test.  Yields the transport counters for convenience."""
    _reset_all()
    yield TRANSPORT_STATS
    _reset_all()
