"""Repo-wide fixtures.

One autouse fixture resets every process-wide counter family — and
the process-wide schedule cache every subsystem now shares — around
each test, so absolute-value assertions (compile counts, cache misses)
cannot bleed between tests under xdist or reordering — shared here
instead of being duplicated per test package.

A second one fails any test that leaves a shared-memory segment of this
session (``repro.simmpi.shm.segments()``: named with a prefix fixed at
import in this process, so a benchmark or a second pytest running beside
it is not counted) or a live child process behind: the procs backend's
teardown must release every segment and join every rank process.
"""

import multiprocessing
import os
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

from repro.schedule.builder import GLOBAL_CACHE
from repro.schedule.indexplan import PLAN_STATS
from repro.simmpi.shm import segments
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


def _live_children() -> set[int]:
    path = Path(f"/proc/self/task/{os.getpid()}/children")
    try:
        return {int(p) for p in path.read_text().split()}
    except OSError:
        return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture(autouse=True)
def no_leaks():
    """After each test, no segment and no live child process it created
    remains."""
    # the shared-memory resource tracker is a session-long child: start
    # it before the first snapshot so it is never a test's leak
    resource_tracker.ensure_running()
    shm0, kids0 = segments(), _live_children()
    yield
    leaked = sorted(segments() - shm0)
    assert not leaked, f"test left /dev/shm entries behind: {leaked}"
    alive = sorted(_live_children() - kids0)
    assert not alive, f"test left live child processes behind: {alive}"
