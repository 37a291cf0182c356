"""The eager/rendezvous split of the point-to-point tiers.

A two-sided pair whose wire bytes exceed ``EAGER_MAX`` is put straight
into the receiver's window: on procs on a persistent transfer, on
threads (whose window is the receiver's own array) on one-shots too.
Either way the push waits for the consumer's arm; a pair at or below
the limit stays an eager message.  Every size here is derived from
``EAGER_MAX``.

Block 2 -> 3 has four pairs: two of a third of the extent, two of a
sixth.  At ``MIXED`` elements the thirds exceed the limit and the
sixths do not; at ``LARGE`` every pair exceeds it.
"""

import time

import numpy as np
import pytest

from repro.dad import (Block, CartesianTemplate, DistArrayDescriptor,
                       DistributedArray)
from repro.dad.template import block_template
from repro.errors import SpmdError
from repro.highlevel import Coupler
from repro.schedule import GLOBAL_CACHE
from repro.schedule.executor import (EAGER_MAX, bind, execute_inter,
                                     execute_intra)
from repro.simmpi import run_coupled, run_spmd
from repro.simmpi.intercomm import couple_jobs, default_nameservice
from repro.simmpi.runner import Job
from repro.util.counters import TRANSPORT_STATS

M, N = 2, 3
STEPS = 3
LIMIT = EAGER_MAX // np.dtype(np.float64).itemsize   # elements
MIXED = 4 * LIMIT        # pairs of 4/3 LIMIT (put) and 2/3 LIMIT (eager)
LARGE = 8 * LIMIT        # pairs of 8/3 and 4/3 LIMIT: all put
_COPY_KEYS = ("bytes_copied", "shm_slot_bytes", "shm_inline_bytes")


def _descs(extent, m=M, n=N):
    return tuple(DistArrayDescriptor(CartesianTemplate([Block(extent, p)]))
                 for p in (m, n))


def _truth(extent, step):
    return np.arange(extent, dtype=np.float64) + 1000.0 * step


def _counts():
    return {k: TRANSPORT_STATS.get(k)
            for k in ("rma_puts", "messages_matched") + _COPY_KEYS}


def _delta(before, after):
    return {k: after[k] - before[k] for k in after}


def _producer(comm, extent, name):
    src_desc, _ = _descs(extent)
    da = DistributedArray.from_global(src_desc, comm.rank, _truth(extent, 0))
    chan = Coupler(name, default_nameservice).open(comm, "source", da)
    deltas = []
    for step in range(STEPS):
        da.flat_local()[:] = DistributedArray.from_global(
            src_desc, comm.rank, _truth(extent, step)).flat_local()
        before = _counts()
        chan.push()
        deltas.append(_delta(before, _counts()))
    chan.close()
    return chan.mode, deltas


def _consumer(comm, extent, name):
    _, dst_desc = _descs(extent)
    chan = Coupler(name, default_nameservice).open(comm, "destination",
                                                   dst_desc)
    snaps, deltas = [], []
    for _ in range(STEPS):
        before = _counts()
        snaps.append(chan.pull().flat_local().copy())
        deltas.append(_delta(before, _counts()))
    chan.close()
    return chan.mode, deltas, snaps, chan.array.flat_local().copy()


def _run(extent, name, backend="procs"):
    res = run_coupled([("prod", M, _producer, (extent, name)),
                       ("cons", N, _consumer, (extent, name))],
                      deadlock_timeout=60.0, backend=backend)
    per_step = [
        {k: sum(r[1][step][k] for r in res["prod"] + res["cons"])
         for k in res["prod"][0][1][0]}
        for step in range(STEPS)]
    return res, per_step


def _assembled(parts, extent):
    _, dst_desc = _descs(extent)
    das = []
    for r, flat in enumerate(parts):
        da = DistributedArray.allocate(dst_desc, r)
        da.flat_local()[:] = flat
        das.append(da)
    return DistributedArray.assemble(das)


def test_pairs_above_the_limit_are_put_and_the_rest_stay_eager():
    res, per_step = _run(MIXED, "rdv-mixed")
    assert {r[0] for r in res["prod"] + res["cons"]} == {"two_sided"}
    for step in range(STEPS):
        got = _assembled([r[2][step] for r in res["cons"]], MIXED)
        assert got.tobytes() == _truth(MIXED, step).tobytes()
        assert per_step[step]["rma_puts"] == 2
        assert per_step[step]["messages_matched"] == 2
    # after close the consumer's array, evacuated from the window, keeps
    # the last snapshot (the no_leaks fixture checks the window is gone)
    last = _assembled([r[3] for r in res["cons"]], MIXED)
    assert last.tobytes() == _truth(MIXED, STEPS - 1).tobytes()


def test_all_put_pairs_move_each_wire_byte_once():
    res, per_step = _run(LARGE, "rdv-large")
    wire = LARGE * np.dtype(np.float64).itemsize
    for step in range(STEPS):
        assert per_step[step]["rma_puts"] == 4
        assert per_step[step]["messages_matched"] == 0
        moved = sum(per_step[step][k] for k in _COPY_KEYS)
        assert moved / wire == 1.0
    got = _assembled([r[2][-1] for r in res["cons"]], LARGE)
    assert got.tobytes() == _truth(LARGE, STEPS - 1).tobytes()


def test_threads_put_the_pairs_above_the_limit_too():
    res, _ = _run(MIXED, "rdv-threads", backend="threads")
    assert {r[0] for r in res["prod"] + res["cons"]} == {"two_sided"}
    for step in range(STEPS):
        got = _assembled([r[2][step] for r in res["cons"]], MIXED)
        assert got.tobytes() == _truth(MIXED, step).tobytes()
    # thread ranks share this process's counters, bind included
    assert TRANSPORT_STATS.get("rma_puts") == 2 * STEPS


def _rma_step(comm, name, late):
    """One persistent ``rma`` step, the consumer arming ``late`` seconds
    after the producer is ready to put; returns this rank's counts."""
    src_desc, dst_desc = _descs(LARGE, 1, 1)
    if comm.job.name == "prod":
        da = DistributedArray.from_global(src_desc, 0, _truth(LARGE, 0))
        chan = Coupler(name, default_nameservice).open(comm, "source", da,
                                                       tier="rma")
    else:
        chan = Coupler(name, default_nameservice).open(
            comm, "destination", dst_desc, tier="rma")
    before = {k: TRANSPORT_STATS.get(k) for k in
              ("rma_epoch_waits", "rma_puts")}
    parks = _PARKS[0]
    if comm.job.name == "prod":
        chan.push()
        flat = None
    else:
        time.sleep(late)
        flat = chan.pull().flat_local().copy()
    delta = {k: TRANSPORT_STATS.get(k) - v for k, v in before.items()}
    delta["parks"] = _PARKS[0] - parks
    chan.close()
    return delta, flat


_PARKS = [0]


def _counting_parks(monkeypatch):
    from repro.simmpi.matching import Mailbox
    park = Mailbox._park

    def counted(self, timeout):
        _PARKS[0] += 1
        park(self, timeout)

    monkeypatch.setattr(Mailbox, "_park", counted)


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_a_put_parked_on_a_late_arm_completes_once_the_receiver_arms(
        monkeypatch, backend):
    """The producer's put waits for an epoch the consumer opens 0.3 s
    late: it parks once (no poll) and its bytes land when the consumer
    arms.  Forked ranks inherit the counting park."""
    _counting_parks(monkeypatch)
    name = f"rdv-park-{backend}"
    res = run_coupled([("prod", 1, _rma_step, (name, 0.0)),
                       ("cons", 1, _rma_step, (name, 0.3))],
                      deadlock_timeout=30.0, backend=backend)
    (prod, _), = res["prod"]
    (_, flat), = res["cons"]
    assert flat.tobytes() == _truth(LARGE, 0).tobytes()
    assert prod["rma_puts"] == 1
    assert prod["rma_epoch_waits"] == 1
    # a 0.2 ms poll would have parked about 1500 times
    assert prod["parks"] <= 5, prod


def test_a_threads_persistent_rma_step_matches_no_message():
    src_desc, dst_desc = _descs(LARGE)
    sched = GLOBAL_CACHE.get(src_desc, dst_desc)
    src_inters, dst_inters = couple_jobs(Job(M), Job(N))
    dsts = [DistributedArray.allocate(dst_desc, r) for r in range(N)]
    rxs = [bind(sched, "dst", dst_inters[r], dsts[r], tier="rma")
           for r in range(N)]
    txs = [bind(sched, "src", src_inters[r], DistributedArray.from_global(
        src_desc, r, _truth(LARGE, 0)), tier="rma") for r in range(M)]
    before = TRANSPORT_STATS.get("messages_matched")
    for rx in rxs:
        rx.arm()
    for tx in txs:
        tx.step()
    for rx in rxs:
        rx.complete()
    assert TRANSPORT_STATS.get("messages_matched") == before
    assert TRANSPORT_STATS.get("rma_puts") == 4
    assert DistributedArray.assemble(dsts).tobytes() == \
        _truth(LARGE, 0).tobytes()
    for half in txs + rxs:
        half.close()


# -- a one-shot's put pair never meets an unarmed receiver ------------------

_SENT_TAG = 9


def _send_once(comm, extent, name):
    src_desc, dst_desc = _descs(extent)
    da = DistributedArray.from_global(src_desc, comm.rank, _truth(extent, 0))
    inter = default_nameservice.accept(name, comm)
    execute_inter(GLOBAL_CACHE.get(src_desc, dst_desc), inter, "src", da)
    for r in range(N):
        inter.send(None, r, tag=_SENT_TAG)


def _recv_once_late(comm, extent, name, after_sends):
    src_desc, dst_desc = _descs(extent)
    inter = default_nameservice.connect(name, comm)

    def sends_returned():
        for r in range(M):
            inter.recv(source=r, tag=_SENT_TAG)

    if after_sends:
        sends_returned()          # no sender may wait for this receiver
    else:
        time.sleep(0.05)          # every sender is ready long before this
    da = DistributedArray.allocate(dst_desc, comm.rank)
    execute_inter(GLOBAL_CACHE.get(src_desc, dst_desc), inter, "dst", da)
    if not after_sends:
        sends_returned()
    return da.flat_local().copy()


@pytest.mark.parametrize("extent, after_sends, late_pairs", [
    (LARGE, False, 0),            # every pair above the limit: puts
    (LIMIT, True, 4),             # every pair below it: eager, snapshotted
], ids=["above-limit", "below-limit"])
def test_a_threads_one_shot_waits_for_a_late_receiver_above_the_limit(
        extent, after_sends, late_pairs):
    name = f"rdv-late-{extent}"
    res = run_coupled(
        [("prod", M, _send_once, (extent, name)),
         ("cons", N, _recv_once_late, (extent, name, after_sends))],
        deadlock_timeout=60.0, backend="threads")
    assert _assembled(res["cons"], extent).tobytes() == \
        _truth(extent, 0).tobytes()
    # block 2 -> 3 has four pairs; thread ranks share these counters
    assert TRANSPORT_STATS.get("borrow_snapshots") == late_pairs
    if late_pairs:
        assert TRANSPORT_STATS.get("direct_deliveries") == 0
    else:
        assert TRANSPORT_STATS.get("rma_puts") == 4


def _send_to_two(comm, extent):
    src_desc, dst_desc = _descs(extent, 1, 2)
    inter = default_nameservice.accept("rdv-order", comm)
    da = DistributedArray.from_global(src_desc, 0, _truth(extent, 0))
    return execute_inter(GLOBAL_CACHE.get(src_desc, dst_desc), inter, "src",
                         da)


def _arm_after_peer(comm, extent):
    """Receiver 0 arms only once receiver 1 holds its whole pair."""
    src_desc, dst_desc = _descs(extent, 1, 2)
    inter = default_nameservice.connect("rdv-order", comm)
    da = DistributedArray.allocate(dst_desc, comm.rank)
    rx = bind(GLOBAL_CACHE.get(src_desc, dst_desc), "dst", inter, da,
              one_shot=True)
    if comm.rank == 0:
        comm.recv(source=1, tag=7)
    rx.complete()
    rx.close()
    if comm.rank == 1:
        comm.send(None, dest=0, tag=7)
    return da.flat_local().copy()


def test_a_sender_serves_put_pairs_in_the_order_their_receivers_open_epochs():
    """The first receiver in pair order arms only after the second has
    its bytes: a sender that waited for the epochs in pair order would
    never put the second pair (the watchdog would fire)."""
    extent = 4 * LIMIT                      # two pairs of 2 LIMIT each
    res = run_coupled([("prod", 1, _send_to_two, (extent,)),
                       ("cons", 2, _arm_after_peer, (extent,))],
                      deadlock_timeout=10.0, backend="threads")
    assert res["prod"] == [extent]
    got = np.concatenate(res["cons"])
    assert got.tobytes() == _truth(extent, 0).tobytes()


def _transpose(comm, rows, cols):
    # every rank is a source and a destination of the same cohort
    truth = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
    src = DistArrayDescriptor(block_template((rows, cols), (comm.size, 1)))
    dst = DistArrayDescriptor(block_template((rows, cols), (1, comm.size)))
    sa = DistributedArray.from_global(src, comm.rank, truth)
    da = DistributedArray.allocate(dst, comm.rank)
    execute_intra(GLOBAL_CACHE.get(src, dst), comm, src_array=sa,
                  dst_array=da)
    return da


def test_an_intra_job_transpose_above_the_limit_puts_every_pair_once():
    rows = 256
    cols = 2 * 2 * (2 * LIMIT) // rows     # 2 x 2 pairs of 2 LIMIT each
    parts = run_spmd(2, _transpose, rows, cols, deadlock_timeout=60.0,
                     backend="threads")
    got = DistributedArray.assemble(parts)
    assert got.tobytes() == np.arange(rows * cols, dtype=np.float64).tobytes()
    assert TRANSPORT_STATS.get("borrow_snapshots") == 0
    assert TRANSPORT_STATS.get("rma_puts") == 4


def _persistent_intra(comm, extent):
    # one Communicator carries both halves of every rank: the link kind
    # must not matter to a put pair
    desc = DistArrayDescriptor(block_template((extent,), (comm.size,)))
    sched = GLOBAL_CACHE.get(desc, desc)
    src = DistributedArray.from_global(desc, comm.rank, _truth(extent, 0))
    dst = DistributedArray.allocate(desc, comm.rank)
    puts = TRANSPORT_STATS.get("rma_puts")
    rx = bind(sched, "dst", comm, dst)   # receivers first: the handle
    tx = bind(sched, "src", comm, src)   # travels to the sender's bind
    same = []
    for step in range(STEPS):
        want = DistributedArray.from_global(desc, comm.rank,
                                            _truth(extent, step))
        src.flat_local()[:] = want.flat_local()
        rx.arm()
        tx.step()
        rx.complete()
        same.append(dst.flat_local().tobytes() == want.flat_local().tobytes())
    puts = TRANSPORT_STATS.get("rma_puts") - puts
    tx.close()
    rx.close()
    return same, puts


def test_a_persistent_intra_job_bind_puts_pairs_above_the_limit():
    """Halves bound on one ``Communicator`` on procs put each pair above
    ``EAGER_MAX`` (4 MiB here) into the receiver's window, exactly as
    halves bound on an intercommunicator do."""
    extent = 1 << 20
    assert extent // 2 > LIMIT
    res = run_spmd(2, _persistent_intra, extent, deadlock_timeout=60.0,
                   backend="procs")
    for same, puts in res:
        assert same == [True] * STEPS
        assert puts > 0


def _publish(comm):
    src_desc, _ = _descs(MIXED)
    da = DistributedArray.from_global(src_desc, comm.rank, _truth(MIXED, 0))
    Coupler("rdv-once", default_nameservice).publish(comm, da)
    return TRANSPORT_STATS.get("rma_puts")


def _subscribe(comm):
    _, dst_desc = _descs(MIXED)
    da = Coupler("rdv-once", default_nameservice).subscribe(comm, dst_desc)
    return TRANSPORT_STATS.get("rma_puts"), da.flat_local().copy()


def test_a_one_shot_makes_no_puts():
    res = run_coupled([("prod", M, _publish, ()),
                       ("cons", N, _subscribe, ())],
                      deadlock_timeout=60.0, backend="procs")
    assert res["prod"] == [0] * M
    assert [puts for puts, _ in res["cons"]] == [0] * N
    got = _assembled([flat for _, flat in res["cons"]], MIXED)
    assert got.tobytes() == _truth(MIXED, 0).tobytes()


# -- a put pair is a rendezvous: pushing ahead fails loud, not silently ------

_TIMEOUT = 3.0


def _push_twice(comm, extent):
    src_desc, _ = _descs(extent, 1, 1)
    da = DistributedArray.from_global(src_desc, 0, _truth(extent, 0))
    chan = Coupler("rdv-ahead", default_nameservice).open(comm, "source", da)
    chan.push()
    chan.push()                   # no matching pull
    chan.close()


def _pull_once(comm, extent):
    _, dst_desc = _descs(extent, 1, 1)
    chan = Coupler("rdv-ahead", default_nameservice).open(
        comm, "destination", dst_desc)
    chan.pull()
    chan.close()
    return chan.array.flat_local().copy()


def _ahead(extent, backend="procs"):
    # on procs every slot holds a whole below-limit pair and the ring two
    # of them, so the eager producer never waits for the consumer to drain
    opts = ({"slot_bytes": EAGER_MAX, "slots_per_endpoint": 2}
            if backend == "procs" else None)
    return run_coupled(
        [("prod", 1, _push_twice, (extent,)),
         ("cons", 1, _pull_once, (extent,))],
        deadlock_timeout=_TIMEOUT, backend=backend, transport_opts=opts)


def _raises_naming(extent, backend, waits_on):
    t0 = time.monotonic()
    with pytest.raises(SpmdError) as ei:
        _ahead(extent, backend)
    assert time.monotonic() - t0 < 4 * _TIMEOUT
    assert any(waits_on in str(e) for e in ei.value.failures.values())


# the second push waits for an epoch the consumer never opens; the dump
# names the consumer (rank 0 of its job) and the channel's data tag
_PUT_WAIT = "rma_put(owners=[0], tag="


def test_pushing_ahead_of_a_put_pair_raises_naming_rma_put():
    _raises_naming(2 * LIMIT, "procs", _PUT_WAIT)


def test_pushing_ahead_of_a_put_pair_on_threads_raises_naming_rma_put():
    _raises_naming(2 * LIMIT, "threads", _PUT_WAIT)


def test_pushing_ahead_below_the_limit_buffers_and_completes():
    res = _ahead(LIMIT // 2)
    assert res["cons"][0].tobytes() == _truth(LIMIT // 2, 0).tobytes()


def test_pushing_ahead_below_the_limit_buffers_and_completes_on_threads():
    res = _ahead(LIMIT // 2, "threads")
    assert res["cons"][0].tobytes() == _truth(LIMIT // 2, 0).tobytes()
