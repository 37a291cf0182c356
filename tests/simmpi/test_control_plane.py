"""The procs backend's shared-memory control plane.

Every cross-process message is one fixed-size descriptor record in the
(sender, receiver) ring of :class:`~repro.simmpi.shm.ControlSegment`,
drained by whichever thread touches the receiving mailbox.  Covered
here: the record codec, the ``ctl_*`` transport counters, the two ways
a bounded ring or a parked waiter must fail loud instead of hanging,
and a hypothesis property test that drives every payload placement
(record inline area, one slot, a run, a stream of runs) through
mixed tags, wildcards and ``iprobe`` — with more sends than the ring
holds while the receiver computes — and compares the result with the
threads backend.
"""

import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SpmdError
from repro.simmpi import ANY_SOURCE, ANY_TAG, run_spmd, shm
from repro.util.counters import TRANSPORT_STATS

DEPTH = shm.CTL_DEPTH

#: 4 KiB slots, 4 per ring: payloads over 16 KiB stream through it
_OPTS = {"slot_bytes": 4096, "slots_per_endpoint": 4}


# -- record codec -------------------------------------------------------------


@pytest.mark.parametrize("obj", [
    None, True, False, 0, -(1 << 63), (1 << 63) - 1, 2.5, complex(1, -2),
    "", "héllo", b"raw\x00bytes", {"k": [1, 2]}, 1 << 70,
], ids=repr)
def test_scalar_and_object_payloads_round_trip(obj):
    kind, buf, _ = shm.encode_payload(obj)
    if obj is None or isinstance(obj, (bool, int, float, complex, str,
                                       bytes)) and obj != 1 << 70:
        assert kind != shm.PICKLE        # raw bytes, no pickle
    got = shm.decode_payload(kind, buf)
    assert got == obj and type(got) is type(obj)


def test_control_segment_record_round_trip():
    seg = shm.ControlSegment(2)
    arr = np.arange(12, dtype=np.int16).reshape(3, 4)[:, 1:]
    kind, buf, _ = shm.encode_payload(arr)
    assert kind == shm.ND
    seg.write(1, 0, 0, 77, 3, 9, buf.nbytes, shm.SLOT_INLINE, kind, buf)
    assert seg.tails(1) == [0, 0]            # filled, not published
    seg.publish(1, 0, 0)
    assert seg.tails(1) == [1, 0]
    (context, source, tag, nbytes, wire, slot, k, dtype, shape,
     raw, span) = seg.read(1, 0, 0)
    assert (context, source, tag, nbytes, wire, slot, k, span) == \
        (77, 3, 9, arr.nbytes, arr.nbytes, shm.SLOT_INLINE, shm.ND, None)
    got = shm.decode_payload(k, raw, dtype, shape)
    assert got.shape == arr.shape and got.tobytes() == arr.tobytes()
    del raw, got
    assert seg.head(1, 0) == 0
    seg.set_head(1, 0, 1)
    assert seg.head(1, 0) == 1
    # a later record of the same ring lands DEPTH records on
    seg.write(1, 0, DEPTH, 1, 0, 0, 8, 5, shm.NONE, None)
    assert seg.read(1, 0, DEPTH)[5] == 5


def test_record_cannot_describe_structured_or_deep_arrays():
    def kind(arr):
        return shm.encode_payload(arr)[0]

    assert kind(np.zeros(2, dtype=[("a", "<i4")])) == shm.PICKLE
    assert kind(np.zeros((1,) * (shm.CTL_MAX_NDIM + 1))) == shm.PICKLE
    assert kind(np.zeros((1,) * shm.CTL_MAX_NDIM)) == shm.ND


def _structured(comm):
    arr = np.zeros(3, dtype=[("a", "<i4"), ("b", "<f8")])
    arr["a"] = [1, 2, 3]
    if comm.rank == 0:
        comm.send(arr, 1, tag=1)
        return None
    got = comm.recv(0, tag=1)
    return got.dtype.names, got["a"].tolist()


def test_procs_structured_array_is_pickled_intact():
    """No record header describes a structured dtype: the array travels
    pickled, as a ``PICKLE`` payload, and arrives with its fields."""
    assert run_spmd(2, _structured, backend="procs")[1] == \
        (("a", "b"), [1, 2, 3])


# -- counters -----------------------------------------------------------------


def _counted_traffic(comm):
    keys = ("ctl_ring_msgs", "ctl_ring_full")
    if comm.rank == 0:
        before = {k: TRANSPORT_STATS.get(k) for k in keys}
        from repro.simmpi.procs import slot_stats
        s0 = slot_stats().get("ring_full", 0)
        for _ in range(DEPTH + 4):                 # overflows the ring
            comm.send(None, 1, tag=2)
        slot_full = slot_stats().get("ring_full", 0) - s0
        comm.send(np.ones(100), 1, tag=1)          # record inline
        comm.send(np.ones(1000), 1, tag=1)         # slot run
        comm.send(np.ones(4096), 1, tag=1)         # 32 KiB: streamed
        return ({k: TRANSPORT_STATS.get(k) - before[k] for k in keys},
                slot_full)
    time.sleep(0.5)                                # compute first
    sizes = [comm.recv(0, tag=1).size for _ in range(3)]
    for _ in range(DEPTH + 4):
        comm.recv(0, tag=2)
    return sizes


def test_ctl_counters_count_ring_messages_and_full_waits():
    """``ctl_ring_msgs`` counts every message once — a streamed one,
    which takes several records, included — and ``ctl_ring_full`` each
    send that found its control ring full, which the slot pool's own
    ``ring_full`` does not see."""
    (deltas, slot_full), sizes = run_spmd(2, _counted_traffic,
                                          backend="procs",
                                          transport_opts=_OPTS)
    assert sizes == [100, 1000, 4096]
    assert deltas == {"ctl_ring_msgs": 3 + DEPTH + 4, "ctl_ring_full": 1}
    assert slot_full == 0


# -- concurrent waiters in one rank process -----------------------------------

_WAITERS, _PER_WAITER = 4, 150


def _many_waiters(comm):
    if comm.rank == 1:
        for k in range(_PER_WAITER):
            for tag in range(_WAITERS):
                comm.send(k, 0, tag=tag)
        return None
    got: dict = {}
    was = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def waiter(tag):
        got[tag] = [comm.recv(1, tag=tag) for _ in range(_PER_WAITER)]

    try:
        threads = [threading.Thread(target=waiter, args=(t,))
                   for t in range(_WAITERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        alive = sum(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(was)
    return alive, got


def test_procs_concurrent_waiters_hand_the_doorbell_on():
    """More receiving threads than cores in one rank process: one parks
    on the doorbell, the rest on the mailbox condition, and whichever
    drains the rings wakes the others — every stream completes in
    order."""
    alive, got = run_spmd(2, _many_waiters, backend="procs",
                          deadlock_timeout=30.0)[0]
    assert alive == 0
    assert sorted(got) == list(range(_WAITERS))
    for stream in got.values():
        assert stream == list(range(_PER_WAITER))


# -- fail loud, never hang ----------------------------------------------------


def _flood_returned_peer(comm):
    if comm.rank == 1:
        return None                      # returns without receiving
    for _ in range(DEPTH + 1):
        comm.send(None, 1, tag=4)


def test_ctl_ring_flood_to_returned_peer_is_a_prompt_deadlock():
    """More sends than the ring holds, to a rank that returned without
    receiving, raise a typed DeadlockError naming the ``ctl_ring`` wait
    as soon as the peer is gone — not after the watchdog timeout."""
    t0 = time.monotonic()
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _flood_returned_peer, backend="procs",
                 deadlock_timeout=30.0)
    assert time.monotonic() - t0 < 10.0
    exc = ei.value.failures[0]
    assert isinstance(exc, DeadlockError)
    assert "ctl_ring" in str(exc)
    assert "ctl_ring" in exc.blocked[0]
    assert set(ei.value.failures) == {0}


def _crash_while_peer_parked(comm):
    if comm.rank == 1:
        time.sleep(0.3)                  # let rank 0 park on its doorbell
        raise ValueError(f"boom@{time.time()!r}")
    try:
        comm.recv(1, tag=5)
    except DeadlockError:
        raise RuntimeError(f"aborted@{time.time()!r}") from None


def test_parked_rank_raises_promptly_on_abort():
    """The supervisor's abort rings every pending doorbell, so a rank
    parked on an empty inbox raises well inside half a second."""
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _crash_while_peer_parked, backend="procs",
                 deadlock_timeout=30.0)
    failures = ei.value.failures
    crashed = float(str(failures[1]).split("boom@", 1)[1])
    aborted = float(str(failures[0]).split("aborted@", 1)[1])
    assert 0.0 <= aborted - crashed < 0.5


# -- property: FIFO and byte identity against the threads backend -------------

_KINDS = ("none", "int", "str", "inline", "slot", "run", "wide")
_PAD_TAG = 9


def _payload(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "none":
        return None
    if kind == "int":
        return int(rng.integers(-(1 << 62), 1 << 62))
    if kind == "str":
        return "é" * int(rng.integers(0, 40)) + str(seed)
    if kind == "inline":                           # <= INLINE_MAX bytes
        return rng.integers(0, 1 << 15, size=(3, int(rng.integers(0, 60))),
                            dtype=np.int16)
    size = {"slot": 400, "run": 1200, "wide": 2500}[kind]
    return rng.random(size)                        # 1, 3 slots / stream


def _canon(obj):
    if isinstance(obj, np.ndarray):
        return ("nd", obj.dtype.str, obj.shape, obj.tobytes())
    return obj


def _sends(msgs, pad, pad_first, s):
    """Sender ``s``'s ``(tag index, kind, seed)`` in send order."""
    mine = [(t, k, seed) for (src, t, k, seed) in msgs if src == s]
    pads = [(_PAD_TAG, "none", 0)] * pad
    return pads + mine if pad_first else mine + pads


def _plan(msgs, pad, pad_first, order_seed, wild_tail):
    """Receive specs for every message, satisfiable on any arrival
    order: each spec consumes from one known (source, tag) stream, and
    the ``wild_tail`` last receives take whatever is left."""
    sends = {s: [t for t, _, _ in _sends(msgs, pad, pad_first, s)]
             for s in (1, 2)}
    targets = [(s, t) for s in (1, 2) for t in sends[s]]
    rnd = random.Random(order_seed)
    rnd.shuffle(targets)
    remaining = {s: list(ts) for s, ts in sends.items()}
    plan = []
    for i, (s, t) in enumerate(targets):
        if i >= len(targets) - wild_tail:
            plan.append(("any_any", ANY_SOURCE, ANY_TAG))
            continue
        styles = ["exact", "any_source", "probe"]
        if remaining[s][0] == t:         # ANY_TAG takes this stream too
            styles.append("any_tag")
        style = rnd.choice(styles)
        remaining[s].remove(t)
        plan.append((style, ANY_SOURCE if style == "any_source" else s,
                     ANY_TAG if style == "any_tag" else 10 * s + t))
    return plan


def _property_rank(comm, msgs, pad, pad_first, plan):
    if comm.rank:
        for t, k, seed in _sends(msgs, pad, pad_first, comm.rank):
            comm.send(_payload(k, seed), 0, tag=10 * comm.rank + t)
        return None
    time.sleep(0.05)                     # compute while the rings fill
    got = []
    for style, source, tag in plan:
        if style == "probe":
            deadline = time.monotonic() + 30.0
            while (st_ := comm.iprobe(source, tag)) is None:
                assert time.monotonic() < deadline, "iprobe never matched"
                time.sleep(0.0005)
            assert (st_.source, st_.tag) == (source, tag)
        obj, status = comm.recv(source, tag, return_status=True)
        got.append((status.source, status.tag, _canon(obj)))
    return got


def _streams(received):
    out: dict = {}
    for source, tag, obj in received:
        out.setdefault((source, tag), []).append(obj)
    return out


_MSG = st.tuples(st.sampled_from((1, 2)), st.integers(0, 2),
                 st.sampled_from(_KINDS), st.integers(0, 1 << 16))


@settings(max_examples=10, deadline=None)
@given(msgs=st.lists(_MSG, min_size=1, max_size=14),
       pad=st.sampled_from((0, DEPTH + 3)), pad_first=st.booleans(),
       order_seed=st.integers(0, 1 << 16), wild_tail=st.integers(0, 6))
def test_control_plane_property_fifo_and_bytes_match_threads_backend(
        msgs, pad, pad_first, order_seed, wild_tail):
    plan = _plan(msgs, pad, pad_first, order_seed, wild_tail)
    args = (msgs, pad, pad_first, plan)
    procs = run_spmd(3, _property_rank, *args, backend="procs",
                     transport_opts=_OPTS, deadlock_timeout=30.0)[0]
    threads = run_spmd(3, _property_rank, *args, backend="threads",
                       deadlock_timeout=30.0)[0]
    want: dict = {}
    for s in (1, 2):
        for t, k, seed in _sends(msgs, pad, pad_first, s):
            want.setdefault((s, 10 * s + t), []).append(
                _canon(_payload(k, seed)))
    assert _streams(procs) == want            # per-(source, tag) FIFO
    assert _streams(threads) == want
    assert _streams(procs) == _streams(threads)
