"""Instrumentation counter tests."""

import sys
import threading

from repro.util.counters import Counters, Histogram


def test_basic_accounting():
    c = Counters()
    c.add("msgs")
    c.add("msgs", 4)
    c.add("bytes", 100)
    assert c.get("msgs") == 5
    assert c.get("bytes") == 100
    assert c.get("missing") == 0


def test_snapshot_is_copy():
    c = Counters()
    c.add("x")
    snap = c.snapshot()
    c.add("x")
    assert snap == {"x": 1}
    assert c.get("x") == 2


def test_reset():
    c = Counters()
    c.add("x", 7)
    c.reset()
    assert c.snapshot() == {}


def test_thread_safety():
    c = Counters()
    n, per = 8, 1000

    def worker():
        for _ in range(per):
            c.add("hits")

    threads = [threading.Thread(target=worker) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.get("hits") == n * per


def _run_threads(targets, timeout=30.0):
    """Start one thread per target under a short switch interval (so
    increments interleave), join each with a timeout, and check every
    one finished."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=t) for t in targets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


def test_adds_stay_exact_while_another_thread_snapshots():
    c = Counters()
    n, per = 8, 2000
    done = threading.Event()
    seen = []

    def adder():
        for _ in range(per):
            c.add("hits")
            c.add("bytes", 3)

    def reader():
        while not done.is_set():
            snap = c.snapshot()
            seen.append((snap.get("hits", 0), c.get("hits")))

    watcher = threading.Thread(target=reader)
    watcher.start()
    try:
        _run_threads([adder] * n)
    finally:
        done.set()
        watcher.join(30.0)
    assert not watcher.is_alive()
    assert c.get("hits") == n * per
    assert c.snapshot() == {"hits": n * per, "bytes": 3 * n * per}
    # reads in between never run ahead of the adds, nor backwards
    assert all(0 <= a <= b <= n * per for a, b in seen)


def test_a_finished_thread_keeps_its_counts():
    c = Counters()
    _run_threads([lambda: c.add("x", 5)])
    assert c.get("x") == 5           # folded into the base on this read
    _run_threads([lambda: c.add("x", 2)] * 3)
    c.add("x")
    assert c.snapshot() == {"x": 12}
    assert len(c._shards) == 1       # only this (live) thread's shard


def test_reset_clears_every_shard():
    c = Counters()
    go, stop = threading.Event(), threading.Event()

    def parked():
        c.add("x", 10)
        go.set()
        stop.wait(30.0)
        c.add("x", 1)                # after the reset: a fresh shard

    t = threading.Thread(target=parked)
    t.start()
    try:
        assert go.wait(30.0)
        c.add("x", 100)
        assert c.get("x") == 110
        c.reset()
        assert c.snapshot() == {}
        c.add("y")
    finally:
        stop.set()
        t.join(30.0)
    assert not t.is_alive()
    assert c.snapshot() == {"x": 1, "y": 1}


def test_histogram_count_and_p50_exact_under_concurrent_record():
    h = Histogram()
    n, per = 8, 1000

    def recorder():
        for k in range(per):
            # three quarters at 3 µs (bucket edge 4), a quarter at 100 µs
            h.record(100e-6 if k % 4 == 0 else 3e-6)

    _run_threads([recorder] * n)
    assert h.count == n * per
    assert h.percentile(0.50) == 4.0
    assert h.percentile(0.99) == 128.0
    assert abs(h.mean_us() - (0.75 * 3 + 0.25 * 100)) < 1e-6
    h.reset()
    assert h.count == 0 and h.percentile(0.5) == 0.0


def test_gauge_add_tracks_level_and_peak():
    c = Counters()
    c.gauge_add("resident_bytes", 100)
    c.gauge_add("resident_bytes", 50)
    assert c.get("resident_bytes") == 150
    assert c.get("peak_resident_bytes") == 150
    c.gauge_add("resident_bytes", -150)
    assert c.get("resident_bytes") == 0
    # the high-water mark survives the release
    assert c.get("peak_resident_bytes") == 150
    c.gauge_add("resident_bytes", 20)
    assert c.get("peak_resident_bytes") == 150  # lower levels never lower it


def test_gauge_reset_zeroes_level_and_peak():
    c = Counters()
    c.gauge_add("pool_bytes", 64)
    c.reset()
    assert c.get("pool_bytes") == 0
    assert c.get("peak_pool_bytes") == 0


def test_gauge_thread_safety_peak_never_stale():
    c = Counters()
    n, per, amount = 8, 500, 16

    def worker():
        for _ in range(per):
            c.gauge_add("g", amount)
            c.gauge_add("g", -amount)

    threads = [threading.Thread(target=worker) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.get("g") == 0
    peak = c.get("peak_g")
    assert amount <= peak <= n * amount


def test_buffer_pool_moves_memory_gauges():
    import numpy as np

    from repro.schedule.bufpool import BufferPool
    from repro.util.counters import TRANSPORT_STATS

    TRANSPORT_STATS.reset()
    pool = BufferPool()
    buf, release = pool.loan("k", 32, np.dtype(np.float64))
    nbytes = buf.nbytes
    assert TRANSPORT_STATS.get("pool_bytes") == nbytes
    assert TRANSPORT_STATS.get("resident_bytes") == nbytes
    release()
    assert TRANSPORT_STATS.get("pool_bytes") == 0
    assert TRANSPORT_STATS.get("resident_bytes") == 0
    # peaks persist as the section's high-water mark
    assert TRANSPORT_STATS.get("peak_pool_bytes") == nbytes
    assert TRANSPORT_STATS.get("peak_resident_bytes") == nbytes
    TRANSPORT_STATS.reset()


_SLOT = 4096
_RING = 8 * _SLOT


def _one_way_slot_traffic(comm):
    import numpy as np

    from repro.util.counters import TRANSPORT_STATS

    TRANSPORT_STATS.reset()          # this rank process's own gauges
    comm.barrier()                   # ...before any message is queued
    levels = []
    for k in range(24):
        if comm.rank == 0:            # runs of 1, 2 and 3 slots
            comm.send(np.full(512 * (1 + k % 3), float(k)), 1, tag=3)
        else:
            comm.recv(0, tag=3)
        levels.append((TRANSPORT_STATS.get("slot_bytes"),
                       TRANSPORT_STATS.get("resident_bytes")))
    return levels, TRANSPORT_STATS.get("peak_slot_bytes")


def test_procs_slot_gauges_never_drift_below_zero():
    """On procs the sender's process charges *and* credits the slots of
    its ring, so no process's gauge goes negative (the receiver's used
    to, crediting slots it never charged) and the sender's level stays
    within its ring instead of growing with every message."""
    from repro.simmpi import run_spmd

    (sent, sender_peak), (recvd, receiver_peak) = run_spmd(
        2, _one_way_slot_traffic, backend="procs",
        transport_opts={"slot_bytes": _SLOT})
    for slot_level, resident_level in sent + recvd:
        assert slot_level >= 0 and resident_level >= 0
    assert all(level <= _RING for level, _ in sent)
    assert 0 < sender_peak <= _RING
    assert receiver_peak == 0 and all(level == 0 for level, _ in recvd)
