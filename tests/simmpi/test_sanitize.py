"""The ``REPRO_TSAN=1`` happens-before race sanitizer.

Three layers of evidence, mirroring the PR's proof obligation:

* **accessor hooks** — the real :class:`~repro.simmpi.shm.SegmentPool`
  and :class:`~repro.simmpi.rma.ExposedWindow` verbs run clean under
  the sanitizer, and every seeded protocol corruption (the same bug
  classes :mod:`repro.verify.race` model-checks) records exactly the
  expected :class:`~repro.simmpi.sanitize.RaceReport` class;
* **concurrency stress** — a hypothesis-driven multi-threaded
  producer/consumer storm over one slot ring stays report-free at
  every drawn shape (the dynamic twin of the bounded-model clean
  proof);
* **procs backend** — a full forked-rank job runs report-free with
  the sanitizer on (the per-rank exit gate enforces it), a rank
  SIGKILLed mid-epoch aborts the domain without fabricating reports,
  and a rank that breaks the slot discipline through the *real*
  accessors fails its exit gate with the race report in the message.

Plus the satellite that lives in :mod:`repro.simmpi.shm`: ``slot_view``
dtype validation.
"""

import os
import queue
import signal
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpmdError
from repro.simmpi import rma, run_spmd, sanitize, shm
from repro.simmpi import transport
from repro.simmpi.communicator import allocate_context
from repro.simmpi.runner import Job
from repro.util.counters import RACE_STATS


@pytest.fixture
def tsan():
    """Enable the sanitizer for one test; restore and clear after."""
    was = sanitize.set_tsan(True)
    san = sanitize.ACTIVE
    san.clear()
    yield san
    san.clear()
    sanitize.set_tsan(was)


def _pool(**kw):
    kw.setdefault("slot_bytes", 256)
    kw.setdefault("slots_per_endpoint", 2)
    return shm.SegmentPool(1, **kw)


# -- accessor hooks: clean rounds and seeded corruptions ----------------------


def test_clean_slot_round_is_report_free(tsan):
    pool = _pool()
    try:
        s = pool.acquire(0)
        assert s is not None
        token = tsan.slot_publish(pool, s)
        tsan.slot_consume(pool, s, token)
        pool.release(s)
        assert tsan.race_reports == []
        assert RACE_STATS.snapshot().get("reports", 0) == 0
        assert RACE_STATS.snapshot().get("sync_ops", 0) > 0
    finally:
        pool.close()
        pool.unlink()


def test_early_release_mutant_fires_aba(tsan):
    """The ``release_before_consume`` mutant of the bounded model,
    executed live through the real pool verbs: releasing before the
    consume lets the slot re-acquire, and the stale-generation consume
    is reported as ABA reuse."""
    pool = _pool()
    try:
        s = pool.acquire(0)
        token = tsan.slot_publish(pool, s)
        pool.release(s)                    # seeded bug: free before read
        s2 = pool.acquire(0)               # ring hands the slot out again
        assert s2 == s
        tsan.slot_consume(pool, s, token)  # stale generation
        kinds = [r.kind for r in tsan.race_reports]
        assert kinds == [sanitize.SLOT_REUSE]
        assert RACE_STATS.snapshot().get("reports_slot_reuse", 0) == 1
    finally:
        pool.close()
        pool.unlink()


def test_run_round_clean_and_reuse_of_any_slot_fires(tsan):
    """A message spanning a run of slots: the clean round through the
    real verbs is report-free, and re-acquiring only the run's *last*
    slot before the consume (a receiver that freed it early) is caught —
    the wire token carries every slot's generation."""
    pool = _pool(slots_per_endpoint=3)
    try:
        s = pool.acquire(0, 3)
        token = tsan.slot_publish(pool, s, 3)
        assert len(token[0]) == 3
        tsan.slot_consume(pool, s, token)
        pool.release(s, 3)
        assert tsan.race_reports == []

        s = pool.acquire(0, 3)
        token = tsan.slot_publish(pool, s, 3)
        pool.release(s + 2)                # seeded bug: last slot freed
        assert pool.acquire(0) == s + 2    # ...and handed out again
        tsan.slot_consume(pool, s, token)
        reps = tsan.race_reports
        assert [r.kind for r in reps] == [sanitize.SLOT_REUSE]
        assert f"slot={s + 2}" in reps[0].site
    finally:
        pool.close()
        pool.unlink()


def test_double_release_mutant_fires(tsan):
    pool = _pool()
    try:
        s = pool.acquire(0)
        pool.release(s)
        pool.release(s)                    # seeded bug: double release
        kinds = [r.kind for r in tsan.race_reports]
        assert kinds == [sanitize.SLOT_REUSE]
    finally:
        pool.close()
        pool.unlink()


def test_publish_without_acquire_fires_unsync(tsan):
    pool = _pool()
    try:
        tsan.slot_publish(pool, 0)         # seeded bug: no acquire
        kinds = [r.kind for r in tsan.race_reports]
        assert kinds == [sanitize.UNSYNC_WRITE]
        assert RACE_STATS.snapshot().get(
            "reports_unsynchronized_write", 0) == 1
    finally:
        pool.close()
        pool.unlink()


def _window(monkeypatch):
    """A real one-writer window on a one-rank job, whose rank is its
    own writer, over storage allocated as a procs rank allocates it: a
    named segment for the array and one for the epoch header."""
    monkeypatch.setattr(shm, "NAMED", True)
    comm = Job(1).world(0, allocate_context())
    return rma.ExposedWindow(comm, shm.alloc(8, np.float64), [0])


def test_window_epoch_round_clean_and_torn_read_fires(tsan, monkeypatch):
    """Real :class:`rma.ExposedWindow` verbs: a full open/put/commit/
    fence/read round is clean; a ``check_read`` inside the open epoch
    (the ``read_before_fence`` mutant) reports a torn seqlock read."""
    win = _window(monkeypatch)
    try:
        seg = win._win
        win.epoch_open()
        tsan.win_put(seg, 0)               # exposed epoch: clean
        tsan.win_commit(seg, 0, 1)
        seg.set_done(0, 1)
        win.fence()                        # min(done) == 1: fast path
        win.check_read()
        assert tsan.race_reports == []

        win.epoch_open()                   # epoch 2 now open
        win.check_read()                   # seeded bug: read pre-fence
        kinds = [r.kind for r in tsan.race_reports]
        assert kinds == [sanitize.TORN_READ]
        assert RACE_STATS.snapshot().get(
            "reports_torn_seqlock_read", 0) == 1
    finally:
        tsan.clear()


def test_unexposed_put_and_repeat_commit_fire(tsan, monkeypatch):
    win = _window(monkeypatch)
    try:
        seg = win._win
        tsan.win_put(seg, 0)               # no epoch open yet
        win.epoch_open()
        tsan.win_commit(seg, 0, 1)
        seg.set_done(0, 1)
        tsan.win_commit(seg, 0, 1)         # seeded bug: repeat commit
        kinds = [r.kind for r in tsan.race_reports]
        assert kinds == [sanitize.UNSYNC_WRITE, sanitize.UNSYNC_WRITE]
        assert "unexposed epoch" in tsan.race_reports[0].detail
    finally:
        tsan.clear()


def test_state_single_writer_claims(tsan):
    """Watchdog fields: writes from the supervisor (no runtime bound)
    are clean for endpoint fields and abort; a rank process writing a
    peer endpoint's field or the abort record is reported."""
    state = shm.SharedState(2)

    class _FakeRuntime:
        endpoint = 1

    try:
        state.bump(0)
        state.set_abort("supervisor abort")
        assert tsan.race_reports == []
        transport.set_current_runtime(_FakeRuntime())
        state.bump(1)                      # own endpoint: clean
        assert tsan.race_reports == []
        state.bump(0)                      # peer endpoint: unsync
        state.set_abort("rank abort")      # supervisor-only field
        kinds = [r.kind for r in tsan.race_reports]
        assert kinds == [sanitize.UNSYNC_WRITE, sanitize.UNSYNC_WRITE]
    finally:
        transport.set_current_runtime(None)


# -- hypothesis stress: concurrent ring exhaustion and reuse ------------------


@settings(max_examples=10, deadline=None)
@given(writers=st.integers(1, 3), messages=st.integers(1, 8),
       slots=st.integers(1, 3))
def test_slot_ring_thread_storm_is_report_free(writers, messages, slots):
    """Threads hammer one shared ring through the real accessors —
    acquire (spinning through exhaustion), publish, consume, release —
    at hypothesis-drawn shapes.  The sanitizer must stay silent: the
    dynamic analogue of the bounded model's clean proof."""
    was = sanitize.set_tsan(True)
    san = sanitize.ACTIVE
    san.clear()
    pool = shm.SegmentPool(writers, slot_bytes=128,
                           slots_per_endpoint=slots)
    control: queue.Queue = queue.Queue()
    errors: list = []

    def produce(ep):
        try:
            san.register_actor(f"producer{ep}")
            for i in range(messages):
                slot = None
                while slot is None:        # ring exhaustion: spin
                    slot = pool.acquire(ep)
                token = san.slot_publish(pool, slot)
                control.put((slot, token))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def consume():
        try:
            san.register_actor("consumer")
            for _ in range(writers * messages):
                slot, token = control.get(timeout=10)
                san.slot_consume(pool, slot, token)
                pool.release(slot)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    try:
        threads = [threading.Thread(target=produce, args=(ep,))
                   for ep in range(writers)]
        threads.append(threading.Thread(target=consume))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        assert san.race_reports == []
        assert pool.stats.snapshot().get("releases") == writers * messages
    finally:
        san.clear()
        pool.close()
        pool.unlink()
        sanitize.set_tsan(was)


# -- procs backend: whole-job cleanliness, kill -9, seeded rank bug -----------


def _tsan_exchange(comm):
    peer = 1 - comm.rank
    data = np.arange(1200, dtype=np.float64) * (comm.rank + 1)  # slot path
    comm.send(data, peer, tag=5)
    got = comm.recv(peer, tag=5)
    return float(got.sum())


def test_procs_job_clean_under_tsan():
    """A forked-rank job with real slot traffic runs report-free: each
    rank's exit gate raises if its process accumulated any report, so a
    plain pass is the cleanliness proof."""
    was = sanitize.set_tsan(True)
    try:
        out = run_spmd(2, _tsan_exchange, backend="procs")
        assert out[0] == float(np.arange(1200).sum() * 2)
        assert sanitize.reports() == []
    finally:
        sanitize.set_tsan(was)


def _kill9_mid_epoch(comm):
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)  # vanish mid-protocol
    data = np.arange(1200, dtype=np.float64)
    comm.send(data, 1 - comm.rank, tag=6)
    got = comm.recv(1 - comm.rank, tag=6)
    return float(got.sum())


def test_procs_kill9_mid_epoch_sanitizer_stays_clean():
    """A rank SIGKILLed mid-protocol must surface as a dead-process
    abort — not as fabricated race reports in the survivors or the
    supervisor."""
    was = sanitize.set_tsan(True)
    try:
        with pytest.raises(SpmdError) as ei:
            run_spmd(2, _kill9_mid_epoch, backend="procs",
                     deadlock_timeout=8.0)
        assert any("exited without reporting" in str(e)
                   for e in ei.value.failures.values())
        assert sanitize.reports() == []
    finally:
        sanitize.set_tsan(was)


def _seeded_double_release_rank(comm):
    rt = transport.current_runtime()
    slot = rt.pool.acquire(rt.endpoint)
    rt.pool.release(slot)
    rt.pool.release(slot)                  # seeded bug through real verbs
    return "survived"


def test_procs_exit_gate_fails_rank_on_seeded_report():
    """A rank that breaks the slot discipline through the *real*
    accessors must fail its exit gate — the report travels in the
    SpmdError message, proving the REPRO_TSAN CI shard would catch it."""
    was = sanitize.set_tsan(True)
    try:
        with pytest.raises(SpmdError) as ei:
            run_spmd(1, _seeded_double_release_rank, backend="procs")
        blob = " ".join(str(e) for e in ei.value.failures.values())
        assert "race sanitizer recorded" in blob
        assert sanitize.SLOT_REUSE in blob
    finally:
        sanitize.set_tsan(was)


# -- satellite: slot_view validation ------------------------------------------


def test_slot_view_validates_dtype_and_alignment():
    pool = _pool()
    try:
        ok = pool.slot_view(0, 16, dtype=np.float64)
        assert ok.size == 16
        with pytest.raises(ValueError, match="dtype mismatch"):
            pool.slot_view(0, 13, dtype=np.float64)
        with pytest.raises(ValueError, match="does not fit"):
            pool.slot_view(0, pool.slots_per_endpoint * pool.slot_bytes + 1)
    finally:
        pool.close()
        pool.unlink()


def test_disabled_sanitizer_records_nothing():
    """With the sanitizer off every RACE_STATS name stays exactly zero
    across real slot traffic — the invariant the A2 ablation benchmark
    gates on.  Forces the sanitizer off for its scope so the invariant
    also holds when the suite itself runs under ``REPRO_TSAN=1``."""
    was = sanitize.set_tsan(False)
    try:
        assert sanitize.ACTIVE is None
        RACE_STATS.reset()
        pool = _pool()
        try:
            s = pool.acquire(0)
            pool.release(s)
            assert RACE_STATS.snapshot() == {}
            assert sanitize.reports() == []
        finally:
            pool.close()
            pool.unlink()
    finally:
        sanitize.set_tsan(was)
