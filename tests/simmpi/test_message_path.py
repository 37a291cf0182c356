"""Guard for the flattened message path, on both backends.

A send is one transport call and a receive one drain-and-match loop
(:mod:`repro.simmpi.transport`, :mod:`repro.simmpi.matching`,
:mod:`repro.simmpi.procs`).  These tests pin, per backend, how many
Python calls inside :mod:`repro` one hot inline send, one matched
receive and one preposted-sink delivery make — so a layer that only
forwards cannot come back silently — and the exact counter deltas each
message leaves.

The two ranks take turns: a barrier outside the mailbox separates the
operations, so each one runs with nothing else in flight and its
counters (per address space: one job-wide set on threads, one per rank
process on procs) are its own.
"""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from repro.simmpi import run_spmd, sanitize
from repro.util.counters import TRANSPORT_STATS

BACKENDS = ["threads", "procs"]

#: Python calls inside ``repro`` per operation: (send, recv, prepost
#: delivery: the send that completes the sink plus the slot's wait).
CALLS = {
    "threads": {"send": 12, "recv": 11, "prepost": (16, 4)},
    "procs": {"send": 12, "recv": 17, "prepost": (12, 16)},
}

_SLOT_ELEMS = 4096                    # 32 KiB: above INLINE_MAX, one slot


def _repro_calls(fn):
    """Run ``fn`` and count the Python calls it makes in ``repro``."""
    calls = 0

    def prof(frame, event, _arg):
        nonlocal calls
        if event == "call" and "/repro/" in frame.f_code.co_filename:
            calls += 1

    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _measured(comm, fn):
    """The calls ``fn`` makes and the counter deltas it leaves: every
    transport counter from a reset (gauge peaks included) and the job
    counters' difference."""
    TRANSPORT_STATS.reset()
    TRANSPORT_STATS.shard()            # registers this thread's shard anew
    before = comm.counters.snapshot()
    calls = _repro_calls(fn)
    after = comm.counters.snapshot()
    transport = {k: v for k, v in TRANSPORT_STATS.snapshot().items() if v}
    job = {k: after[k] - before.get(k, 0) for k in after
           if after[k] != before.get(k, 0)}
    return calls, transport, job


def _program(comm, turn):
    out = {}
    one, slot_msg = np.zeros(1), np.zeros(_SLOT_ELEMS)
    for _ in range(2):                 # the second round is the hot one
        turn.wait()
        if comm.rank == 0:
            out["send"] = _measured(comm, lambda: comm.send(one, 1, tag=3))
        turn.wait()
        if comm.rank == 1:
            out["recv"] = _measured(comm, lambda: comm.recv(0, tag=3))
        # a preposted sink, armed before its message is sent
        got = np.empty(1)

        def sink(values):
            got[:] = values
            return 1

        slot = comm.prepost_recv(sink, 0, tag=4) if comm.rank == 1 else None
        turn.wait()
        if comm.rank == 0:
            out["prepost_send"] = _measured(
                comm, lambda: comm.send(one, 1, tag=4))
        turn.wait()
        if comm.rank == 1:
            out["prepost_wait"] = _measured(comm, slot.wait)
        # a message wider than the record: one slot run on procs
        turn.wait()
        if comm.rank == 0:
            out["slot_send"] = _measured(
                comm, lambda: comm.send(slot_msg, 1, tag=5))
        turn.wait()
        if comm.rank == 1:
            out["slot_recv"] = _measured(comm, lambda: comm.recv(0, tag=5))
        # a receive that blocks for its sender
        turn.wait()
        if comm.rank == 1:
            out["blocked_recv"] = _measured(comm,
                                            lambda: comm.recv(0, tag=6))
        else:
            time.sleep(0.1)
            comm.send(None, 1, tag=6)
        turn.wait()
    return out


@pytest.fixture(scope="module", params=BACKENDS)
def path(request):
    """Both ranks' measurements, taken with the race sanitizer off: its
    hooks cost one global load each when off, which is what is pinned."""
    backend = request.param
    turn = (multiprocessing.get_context("fork").Barrier(2)
            if backend == "procs" else threading.Barrier(2))
    was = sanitize.set_tsan(False)
    try:
        sender, receiver = run_spmd(2, _program, turn, backend=backend)
    finally:
        sanitize.set_tsan(was)
    return backend, {**sender, **receiver}


def test_each_operation_makes_its_pinned_python_calls(path):
    backend, ops = path
    want = CALLS[backend]
    assert ops["send"][0] == want["send"]
    assert ops["recv"][0] == want["recv"]
    assert (ops["prepost_send"][0], ops["prepost_wait"][0]) == \
        want["prepost"]


def test_per_message_counter_deltas_are_exact(path):
    backend, ops = path
    rx8 = {"msgs": 1, "bytes": 8, "rank1.rx_bytes": 8}
    rx_slot = {"msgs": 1, "bytes": 8 * _SLOT_ELEMS,
               "rank1.rx_bytes": 8 * _SLOT_ELEMS}
    copy8 = {"bytes_copied": 8, "alloc_bytes": 8}
    if backend == "threads":
        # the send copies and queues (or completes the sink); the
        # receive takes the queued envelope
        queued8 = {**copy8, "peak_resident_bytes": 8, "resident_bytes": 8}
        assert ops["send"][1:] == (queued8, rx8)
        assert ops["recv"][1:] == ({"messages_matched": 1,
                                    "resident_bytes": -8}, {})
        assert ops["prepost_send"][1:] == (
            {**copy8, "direct_deliveries": 1, "direct_bytes": 8,
             "messages_matched": 1}, rx8)
        assert ops["prepost_wait"][1:] == ({}, {})
        nbytes = 8 * _SLOT_ELEMS
        assert ops["slot_send"][1:] == (
            {"bytes_copied": nbytes, "alloc_bytes": nbytes,
             "peak_resident_bytes": nbytes, "resident_bytes": nbytes},
            rx_slot)
        assert ops["slot_recv"][1:] == ({"messages_matched": 1,
                                         "resident_bytes": -nbytes}, {})
        # one address space: the sender's queueing shows here too
        assert ops["blocked_recv"][1:] == (
            {"messages_matched": 1, "rendezvous_waits": 1,
             "peak_resident_bytes": 8}, rx8)
        return
    # procs: the record (or slot run) is the isolating copy; the receive
    # drains the record and takes it without queueing it
    inline8 = {"ctl_ring_msgs": 1, "shm_inline_msgs": 1,
               "shm_inline_bytes": 8}
    assert ops["send"][1:] == (inline8, rx8)
    assert ops["recv"][1:] == (
        {**copy8, "borrow_snapshots": 1, "messages_matched": 1}, {})
    assert ops["prepost_send"][1:] == (inline8, rx8)
    assert ops["prepost_wait"][1:] == (
        {"direct_deliveries": 1, "direct_bytes": 8, "messages_matched": 1},
        {})
    # the hot round's run takes the slot the first round's freed: the
    # sender's slot gauges, charged then, do not move
    nbytes = 8 * _SLOT_ELEMS
    assert ops["slot_send"][1:] == (
        {"ctl_ring_msgs": 1, "shm_slot_msgs": 1, "shm_slot_bytes": nbytes},
        rx_slot)
    assert ops["slot_recv"][1:] == (
        {"bytes_copied": nbytes, "alloc_bytes": nbytes,
         "borrow_snapshots": 1, "messages_matched": 1}, {})
    assert ops["blocked_recv"][1:] == (
        {"messages_matched": 1, "rendezvous_waits": 1}, {})
