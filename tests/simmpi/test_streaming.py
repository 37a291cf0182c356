"""One wire on procs: payloads wider than the slot ring stream through it.

A procs rank receives everything through its incoming descriptor rings.
A payload wider than the sender's whole slot ring travels as consecutive
records of its pair's ring, each carrying one run of at most the whole
ring plus the run's byte offset; the receiver copies every run into the
payload's own array and releases it at once.  Covered here: byte
identity for every payload kind, streams longer than the control ring,
two ranks streaming at each other, an armed prepost sink, progress per
run under a tight watchdog, an abort in the middle of a stream, and a
rank process that runs no thread besides its own.
"""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.errors import DeadlockError, SpmdError
from repro.simmpi import payload, run_coupled, run_spmd, shm
from repro.simmpi.intercomm import default_nameservice
from repro.simmpi.procs import slot_stats
from repro.util.counters import TRANSPORT_STATS

#: 4 KiB slots, 4 per ring: a 16 KiB ring, so a run is at most 16 KiB
_OPTS = {"slot_bytes": 4096, "slots_per_endpoint": 4}
_RING = 4096 * 4


def _wide_payloads():
    """One payload of every wire kind, each about 3x the ring."""
    base = np.arange(12288, dtype=np.float64)           # 96 KiB
    rec = np.zeros(2048, dtype=[("a", "<i4"), ("b", "<f8"), ("c", "S12")])
    rec["a"] = np.arange(2048)
    rec["b"] = np.arange(2048) * 0.5
    rec["c"] = [b"x%d" % i for i in range(2048)]
    return [
        base[:6144] * 3.0,                              # ND, 48 KiB
        payload.Borrowed(base[::2]),                    # lent strided
        payload.Borrowed(base.reshape(96, 128)[:, 32:96]),  # lent 2-D
        bytes(range(256)) * 192,                        # BYTES, 48 KiB
        {"blob": list(range(12000))},                   # PICKLE
        rec,                                            # structured
    ]


def _wire_bytes(p):
    if isinstance(p, np.ndarray) and p.dtype.fields is None:
        return p.nbytes
    if isinstance(p, bytes):
        return len(p)
    return len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))


def _plain(p):
    return p.value if isinstance(p, payload.Borrowed) else p


def _wide_exchange(comm):
    if comm.rank == 0:
        for p in _wide_payloads():
            comm.send(p, 1, tag=4)
        return slot_stats()
    time.sleep(0.1)                      # the sender blocks on its ring
    got = [comm.recv(0, tag=4) for _ in _wide_payloads()]
    return got, slot_stats()


def test_procs_payloads_3x_the_ring_arrive_byte_identical():
    """ND, lent strided, lent 2-D, bytes, pickled and structured
    payloads three times the ring stream through it and arrive
    byte-identical; each counts one oversize message and one
    allocation, and every run is released."""
    stats, (got, rstats) = run_spmd(2, _wide_exchange, backend="procs",
                                    transport_opts=_OPTS)
    sent = [_plain(p) for p in _wide_payloads()]
    runs = [-(-_wire_bytes(p) // _RING) for p in sent]
    assert all(r >= 3 for r in runs), runs
    for want, have in zip(sent, got):
        if isinstance(want, np.ndarray):
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes()
        else:
            assert have == want
    assert stats["oversize"] == len(sent)
    assert stats["allocations"] == len(sent)
    assert stats["reuses"] == sum(runs)
    assert rstats["releases"] == sum(runs)


def _long_stream(comm, n):
    if comm.rank == 0:
        comm.send(np.arange(n, dtype=np.int64), 1, tag=1)
        return slot_stats()
    got = comm.recv(0, tag=1)
    return bool(np.array_equal(got, np.arange(n))), slot_stats()


def test_procs_stream_longer_than_the_control_ring():
    """A stream of more runs than the pair's ring holds records wraps
    the ring: each run frees its record and its slots as it drains."""
    chunks = shm.CTL_DEPTH + 6
    n = chunks * _RING // 8
    stats, (same, rstats) = run_spmd(2, _long_stream, n, backend="procs",
                                     transport_opts=_OPTS)
    assert same
    assert stats["reuses"] == chunks
    assert rstats["releases"] == chunks


def _cross_stream(comm):
    peer = 1 - comm.rank
    data = np.arange(20000, dtype=np.float64) * (comm.rank + 1)
    comm.send(data, peer, tag=2)         # blocks on the ring until the
    got = comm.recv(peer, tag=2)         # peer drains while it waits
    return bool(np.array_equal(got, np.arange(20000.0) * (peer + 1)))


def test_procs_two_ranks_streaming_at_each_other_do_not_deadlock():
    """Each sender drains its own incoming rings while it waits for its
    slot ring, so two simultaneous streams both complete."""
    assert run_spmd(2, _cross_stream, backend="procs", transport_opts=_OPTS,
                    deadlock_timeout=30.0) == [True, True]


def _prepost_wide(comm):
    n = 3 * _RING // 8
    if comm.rank == 0:
        comm.recv(1, tag=1)              # the receiver has armed its sink
        comm.send(np.arange(n, dtype=np.float64), 1, tag=7)
        return None
    dest = np.zeros(n)

    def sink(values):
        dest[:] = values
        return values.size

    d0 = TRANSPORT_STATS.get("direct_deliveries")
    slot = comm.prepost_recv(sink, source=0, tag=7)
    comm.send(None, 0, tag=1)
    count = slot.wait(timeout=30)
    return (count, TRANSPORT_STATS.get("direct_deliveries") - d0,
            bool(np.array_equal(dest, np.arange(n, dtype=np.float64))))


def test_procs_wide_message_completes_an_armed_prepost_sink():
    """The assembled array of a streamed message completes an armed
    prepost sink directly, like any other message."""
    out = run_spmd(2, _prepost_wide, backend="procs", transport_opts=_OPTS)
    assert out[1] == (3 * _RING // 8, 1, True)


def test_procs_long_stream_counts_progress_per_run():
    """A stream of over 2 000 runs, far longer than the watchdog timeout,
    completes: every run published counts as progress, so a sender and
    receiver that both look blocked between runs never trip it."""
    chunks = 2048
    stats, (same, _) = run_spmd(2, _long_stream, chunks * _RING // 8,
                                backend="procs", transport_opts=_OPTS,
                                deadlock_timeout=0.2)
    assert same
    assert stats["reuses"] == chunks


def _abort_mid_stream(comm):
    if comm.rank == 1:
        time.sleep(0.3)                  # let rank 0 block mid-stream
        raise ValueError("receiver died")
    comm.send(np.zeros(100 * _RING // 8), 1, tag=3)


def test_procs_abort_during_a_stream_raises_promptly():
    """A receiver dying while a stream to it waits on the slot ring
    aborts the sender with a DeadlockError at once, not a hang."""
    t0 = time.monotonic()
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _abort_mid_stream, backend="procs",
                 transport_opts=_OPTS, deadlock_timeout=30.0)
    assert time.monotonic() - t0 < 10.0
    failures = ei.value.failures
    assert isinstance(failures[1], ValueError)
    assert isinstance(failures[0], DeadlockError)
    assert "rank 1 raised ValueError: receiver died" in str(failures[0])
    assert "slot_ring" in str(failures[0])


# -- a rank process runs no transport thread --------------------------------


def _threads(comm):
    return [t.name for t in threading.enumerate()]


def _coupled_threads(comm, side):
    if side == "acc":
        inter = default_nameservice.accept("one-wire", comm)
    else:
        inter = default_nameservice.connect("one-wire", comm)
    inter.send(comm.rank, comm.rank, tag=1)
    inter.recv(comm.rank, tag=1)
    return _threads(comm)


def _wide_threads(comm):
    _cross_stream(comm)
    return _threads(comm)


@pytest.mark.parametrize("launch", ["spmd", "coupled", "wide"])
def test_procs_rank_runs_only_its_main_thread(launch):
    """Inside a procs rank the only thread is the rank's own: with no
    coupling, after a rendezvous, and after a stream exchange."""
    if launch == "spmd":
        out = run_spmd(2, _threads, backend="procs")
    elif launch == "wide":
        out = run_spmd(2, _wide_threads, backend="procs",
                       transport_opts=_OPTS)
    else:
        res = run_coupled([("acc", 2, _coupled_threads, ("acc",)),
                           ("conn", 2, _coupled_threads, ("conn",))],
                          deadlock_timeout=10.0, backend="procs")
        out = res["acc"] + res["conn"]
    assert out == [["MainThread"]] * len(out)
