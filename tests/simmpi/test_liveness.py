"""The liveness table and the one stall rule both supervisors apply."""

import threading
import time

import pytest

from repro.errors import DeadlockError, SpmdError
from repro.simmpi import run_spmd, shm
from repro.simmpi.matching import AbortFlag, Mailbox

BACKENDS = ["threads", "procs"]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _rule(n, timeout=1.0):
    live = shm.Liveness(n)
    clock = FakeClock()
    return live, clock, shm.StallRule(live, timeout, clock=clock)


def test_rule_trips_only_after_the_timeout():
    live, clock, rule = _rule(2)
    live.set_blocked(0, "recv(tag=1)")
    live.set_blocked(1, "recv(tag=2)")
    assert rule.check() is None              # the stall starts here
    clock.now = 0.999
    assert rule.check() is None
    clock.now = 1.0
    assert rule.check() == {0: "recv(tag=1)", 1: "recv(tag=2)"}
    # a stall outliving its abort restarts the window: no busy re-trip
    assert rule.check() is None
    assert rule.wait() == rule.tick
    clock.now = 2.0
    assert rule.check() is not None


def test_progress_change_resets_the_timer():
    live, clock, rule = _rule(2)
    live.set_blocked(0, "a")
    live.set_blocked(1, "b")
    assert rule.check() is None
    clock.now = 0.9
    live.bump(1)
    assert rule.check() is None              # restarted at 0.9
    clock.now = 1.8
    assert rule.check() is None
    clock.now = 2.0
    assert rule.check() == {0: "a", 1: "b"}


def test_one_runnable_rank_resets_the_timer():
    live, clock, rule = _rule(2)
    live.set_blocked(0, "a")
    live.set_blocked(1, "b")
    assert rule.check() is None
    clock.now = 0.5
    live.set_blocked(1, None)                # rank 1 runs again
    assert rule.check() is None
    live.set_blocked(1, "b")
    clock.now = 1.2
    assert rule.check() is None              # restarted at 1.2
    clock.now = 2.2
    assert rule.check() == {0: "a", 1: "b"}


def test_finished_ranks_are_ignored():
    live, clock, rule = _rule(3)
    live.set_finished(0)
    live.set_blocked(1, "a")
    live.set_blocked(2, "b")
    assert rule.check() is None
    clock.now = 5.0
    assert rule.check() == {1: "a", 2: "b"}
    live.set_blocked(0, "late")              # a finished row stays finished
    assert live.finished(0)


def test_all_finished_launch_never_trips():
    live, clock, rule = _rule(2)
    live.set_finished(0)
    live.set_finished(1)
    for t in range(10):
        clock.now = float(t)
        assert rule.check() is None


def test_tick_is_capped_for_short_timeouts():
    assert shm.StallRule(shm.Liveness(1), 3600).tick == shm.SUPERVISE_TICK
    assert shm.StallRule(shm.Liveness(1), 0.2).tick == pytest.approx(0.01)


def test_wait_ends_at_the_stall_deadline():
    live, clock, rule = _rule(1, timeout=1.0)
    assert rule.wait() == rule.tick          # no stall under way
    live.set_blocked(0, "a")
    rule.check()
    clock.now = 0.98
    assert rule.wait() == pytest.approx(0.02)
    clock.now = 1.5
    assert rule.wait() == 0.0


def test_rows_view_writes_the_launch_table():
    table = shm.Liveness(5)
    job = table.rows(2, 3)
    assert job.base == 2
    job.set_blocked(1, "recv")
    job.bump(1)
    job.set_finished(0)
    assert table.stalled() is None           # rows 0, 1 and 4 still run
    assert int(table.progress[3]) == 1
    assert table.finished(2)
    assert job.stalled() is None             # job row 2 runs
    job.set_blocked(2, "recv2")
    assert job.stalled() == {1: "recv", 2: "recv2"}


def test_mailbox_writes_its_row_and_unwatched_waits_stay_invisible():
    live = shm.Liveness(2)
    box = Mailbox(1, AbortFlag(), live)
    seen = {}
    go = threading.Event()

    def waiter(watched):
        box.wait_until(lambda: go.is_set() or None, "wait", poll=0.005,
                       watched=watched)

    for watched in (False, True):
        go.clear()
        t = threading.Thread(target=waiter, args=(watched,))
        t.start()
        deadline = time.monotonic() + 5.0
        while (watched and live.state[1] != shm.STATE_BLOCKED
               and time.monotonic() < deadline):
            time.sleep(0.001)
        time.sleep(0.02)
        seen[watched] = (int(live.state[1]), int(live.progress[1]))
        go.set()
        t.join()
    assert seen[False] == (shm.STATE_RUNNING, 0)
    assert seen[True] == (shm.STATE_BLOCKED, 0)
    # leaving the watched wait marks the row running and counts progress
    assert (int(live.state[1]), int(live.progress[1])) == (
        shm.STATE_RUNNING, 1)


def _noop(comm):
    return comm.rank


def test_threads_supervisor_returns_at_once_when_ranks_finish():
    """A finish ends the supervisor's wait without a tick: 20 launches
    take well under the 20 ticks a waiting supervisor would spend."""
    start = time.monotonic()
    for _ in range(20):
        assert run_spmd(2, _noop, deadlock_timeout=3600,
                        backend="threads") == [0, 1]
    assert time.monotonic() - start < 20 * shm.SUPERVISE_TICK / 2


def _stuck(comm):
    comm.recv(source=1 - comm.rank, tag=5)


@pytest.mark.parametrize("backend", BACKENDS)
def test_trip_time_is_the_timeout_plus_ticks(backend):
    """The watchdog trips no earlier than ``deadlock_timeout`` and, with
    slack for a loaded 2-core host and the procs fork, soon after."""
    timeout = 0.5
    start = time.monotonic()
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _stuck, deadlock_timeout=timeout, backend=backend)
    elapsed = time.monotonic() - start
    assert all(isinstance(e, DeadlockError)
               for e in ei.value.failures.values())
    assert timeout <= elapsed < timeout + 3.0
