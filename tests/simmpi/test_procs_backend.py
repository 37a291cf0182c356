"""The procs execution backend: ranks as processes, payloads in shared
memory.

Everything here runs the *same* rank functions the threads backend runs
— the point of the Transport abstraction is that matching semantics,
collectives, intercommunicators and the persistent engines are backend
invariants.  The procs-only mechanics (slot rings, streamed payloads,
cross-process watchdog and abort propagation, broker rendezvous) get
targeted coverage.
"""

import os
import pickle
import re
import signal
import time

import numpy as np
import pytest

from repro.dad import (
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.dad.template import block_template
from repro.errors import CommunicatorError, DeadlockError, SpmdError
from repro.highlevel import Coupler
from repro.schedule import bind, build_region_schedule
from repro.simmpi import run_coupled, run_spmd
from repro.simmpi import payload
from repro.simmpi.intercomm import default_nameservice
from repro.util.counters import TRANSPORT_STATS

BACKENDS = ["threads", "procs"]


def _ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    data = np.arange(5000, dtype=np.float64) * (comm.rank + 1)
    comm.send(data, right, tag=3)
    got = comm.recv(left, tag=3)
    return float(got.sum()) + comm.allreduce(comm.rank)


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_ring_exchange_identical_across_backends(backend):
    assert run_spmd(3, _ring, backend=backend) == run_spmd(3, _ring)


def test_procs_ranks_are_real_processes():
    pids = run_spmd(3, lambda comm: os.getpid(), backend="procs")
    assert len(set(pids)) == 3
    assert os.getpid() not in pids


def test_backend_env_var_selects_procs(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "procs")
    pids = run_spmd(2, lambda comm: os.getpid())
    assert os.getpid() not in pids
    with pytest.raises(ValueError, match="REPRO_BACKEND"):
        run_spmd(2, lambda comm: None, backend="fibers")


def _collectives(comm):
    root_val = comm.bcast({"shape": (4, 5)} if comm.rank == 0 else None)
    gathered = comm.gather(comm.rank * 10)
    swapped = comm.alltoall([np.full(comm.rank + 1, float(comm.rank))]
                            * comm.size)
    total = comm.allreduce(float(sum(part.sum() for part in swapped)))
    return root_val, gathered, total


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_collectives_identical_across_backends(backend):
    assert (run_spmd(3, _collectives, backend=backend)
            == run_spmd(3, _collectives))


def _value_semantics(comm):
    if comm.rank == 0:
        arr = np.ones(4000)          # > inline threshold: slot path
        comm.send(arr, 1, tag=1)
        arr[:] = -1.0                # mutate after send
        small = np.ones(4)           # <= inline threshold
        comm.send(small, 1, tag=2)
        small[:] = -1.0
        obj = {"k": [1, 2]}
        comm.send(obj, 1, tag=3)
        obj["k"].append(3)
        return None
    a = comm.recv(0, tag=1)
    b = comm.recv(0, tag=2)
    c = comm.recv(0, tag=3)
    return float(a.sum()), float(b.sum()), c


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_send_isolates_payloads(backend):
    """Mutating any payload after send must never reach the receiver —
    on procs the slot/pickle write is the isolating copy, on threads the
    defensive copy is."""
    out = run_spmd(2, _value_semantics, backend=backend)
    assert out[1] == (4000.0, 4.0, {"k": [1, 2]})


#: 4 KiB slots, 8 per ring: a 32 KiB ring, so messages of 4 KiB-32 KiB
#: ride runs of 1-8 slots and anything wider streams through the ring
_SMALL_RING = {"slot_bytes": 4096}


def _oversize(comm):
    peer = 1 - comm.rank
    data = np.arange(8192, dtype=np.float64) + comm.rank  # 64 KB > ring
    comm.send(data, peer, tag=9)
    got = comm.recv(peer, tag=9)
    from repro.simmpi.procs import slot_stats
    return float(got.sum()), slot_stats()


def test_procs_wide_payload_streams_through_the_ring():
    """A payload wider than the sender's whole ring — the one case no
    run of slots can hold — streams through the ring as two ring-width
    runs, both ranks sending at once: correct, and counted as one
    oversize message and one allocation (the receiver's array)."""
    out = run_spmd(2, _oversize, backend="procs",
                   transport_opts=_SMALL_RING)
    base = float(np.arange(8192).sum())
    assert out[0][0] == base + 8192 and out[1][0] == base
    for _, stats in out:
        assert stats["oversize"] == 1
        assert stats["allocations"] == 1
        assert stats["reuses"] == 2 and stats["releases"] == 2


def _oversize_lent(comm):
    base = np.arange(8192, dtype=np.float64)
    strided = base[1::2]                            # 32 KB, every other
    boxed = base.reshape(64, 128)[:, 5:69]          # 32 KB, 2-D sub-block
    if comm.rank == 0:
        comm.send(payload.Borrowed(strided), 1, tag=9)
        comm.send(payload.Borrowed(boxed), 1, tag=9)
        from repro.simmpi.procs import slot_stats
        return slot_stats()
    got = [comm.recv(0, tag=9) for _ in range(2)]
    return [(a.shape, a.tobytes() == want.tobytes())
            for a, want in zip(got, (strided, boxed))]


def test_procs_oversize_lent_views_arrive_byte_identical():
    """A lent non-contiguous view larger than a slot — strided, or an
    n-D sub-block — is copied in C order into a run of slots that spans
    the whole ring, shape kept, with no inline allocation."""
    stats, got = run_spmd(2, _oversize_lent, backend="procs",
                          transport_opts=_SMALL_RING)
    assert stats["oversize"] == 2
    assert stats["allocations"] == 0
    assert got == [((4096,), True), ((64, 64), True)]


def _run_payloads():
    """One payload of every wire kind spanning 2-8 of 4 KiB slots."""
    base = np.arange(4096, dtype=np.float64)
    return [
        base[:1000] * 3.0,                            # ND, 2 slots
        base.reshape(64, 64)[::2, :48],               # ND 2-D view, 3 slots
        payload.Borrowed(base[::2]),                  # lent strided, 4 slots
        payload.Borrowed(base.reshape(64, 64)[3:50, 7:63]),  # lent 2-D, 6
        bytes(range(256)) * 100,                      # BYTES, 7 slots
        {"blob": list(range(3000))},                  # PICKLE, several
        base[:4090].copy(),                           # ND, 8: the whole ring
    ]


def _runs_exchange(comm):
    from repro.simmpi.procs import slot_stats
    if comm.rank == 0:
        for p in _run_payloads():
            comm.send(p, 1, tag=4)
        return slot_stats()
    got = [comm.recv(0, tag=4) for _ in _run_payloads()]
    return got, slot_stats()


def _wire_bytes(p):
    if isinstance(p, np.ndarray):
        return p.nbytes
    if isinstance(p, bytes):
        return len(p)
    return len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))


def test_procs_multi_slot_payloads_ride_runs_byte_identical():
    """Every payload kind wider than one slot but no wider than the ring
    — plain, strided and 2-D lent arrays, bytes, pickled objects — lands
    in a run of adjacent slots and arrives byte-identical, with no
    inline allocation."""
    stats, (got, rstats) = run_spmd(2, _runs_exchange, backend="procs",
                                    transport_opts=_SMALL_RING)
    sent = [p.value if isinstance(p, payload.Borrowed) else p
            for p in _run_payloads()]
    widths = [-(-_wire_bytes(p) // 4096) for p in sent]
    assert all(2 <= w <= 8 for w in widths), widths
    for want, have in zip(sent, got):
        if isinstance(want, np.ndarray):
            assert have.shape == want.shape
            assert have.tobytes() == want.tobytes()
        else:
            assert have == want
    assert stats["oversize"] == len(sent)
    assert stats["allocations"] == 0
    assert stats["reuses"] == len(sent)
    assert rstats["releases"] == len(sent)


def _flood(comm, messages):
    if comm.rank == 0:
        before = TRANSPORT_STATS.get("shm_inline_msgs")
        for k in range(messages):
            comm.send(np.full(4096, float(k)), 1, tag=2)   # 32 KiB each
        from repro.simmpi.procs import slot_stats
        return TRANSPORT_STATS.get("shm_inline_msgs") - before, slot_stats()
    import time
    time.sleep(0.3)
    return [float(comm.recv(0, tag=2)[0]) for _ in range(messages)]


def test_procs_full_ring_blocks_until_release():
    """A sender pushing 3x its ring to a receiver that sleeps first
    waits for the receiver's drain to free each run instead of going
    inline: every message rides the ring, in order, and the waits are
    counted once per message."""
    (inline, stats), got = run_spmd(2, _flood, 3, backend="procs",
                                    transport_opts=_SMALL_RING)
    assert got == [0.0, 1.0, 2.0]
    assert inline == 0
    assert stats["allocations"] == 0
    assert 1 <= stats["ring_full"] <= 2
    assert stats["reuses"] == 3


def _sender_outlives_receiver(comm):
    if comm.rank == 1:
        comm.send("bye", 0, tag=1)
        return None                      # exits without receiving
    comm.recv(1, tag=1)
    import time
    time.sleep(1.0)                      # let rank 1's process exit
    for _ in range(3):
        comm.send(np.zeros(4096), 1, tag=2)


#: 3 MiB: Block 2 -> 3 migrates pairs of 512 KiB and 1 MiB, runs of 2
#: and 4 default 256 KiB slots
_BIG = 3 << 17
_BIG_GLOBAL = np.arange(float(_BIG))


def _resize_2_to_3(comm):
    from repro.dad.template import block_template
    from repro.highlevel import reconfigure
    from repro.simmpi.procs import slot_stats

    old = DistArrayDescriptor(block_template((_BIG,), (2,)))
    new = DistArrayDescriptor(block_template((_BIG,), (3,)))
    da = (DistributedArray.from_global(old, comm.rank, _BIG_GLOBAL)
          if comm.rank < 2 else None)
    return reconfigure(comm, da, new), slot_stats()


def _one_shot_2_to_3(comm):
    from repro.dad.template import block_template
    from repro.schedule import GLOBAL_CACHE, execute_intra
    from repro.simmpi.procs import slot_stats

    src = DistArrayDescriptor(block_template((_BIG,), (2,)))
    dst = DistArrayDescriptor(block_template((_BIG,), (3,)))
    sa = (DistributedArray.from_global(src, comm.rank, _BIG_GLOBAL)
          if comm.rank < 2 else None)
    da = DistributedArray.allocate(dst, comm.rank)
    execute_intra(GLOBAL_CACHE.get(src, dst), comm, src_array=sa,
                  dst_array=da, src_ranks=range(2), dst_ranks=range(3))
    return da, slot_stats()


@pytest.mark.parametrize("fn", [_resize_2_to_3, _one_shot_2_to_3],
                         ids=["reconfigure", "redistribute"])
def test_procs_default_options_big_pairs_ride_runs(fn):
    """A live resize and a one-shot redistribute on procs with default
    transport options, pairs over the 256 KiB slot: byte-identical, with
    every pair message in a run of slots and none inline."""
    out = run_spmd(3, fn, backend="procs")
    parts = [da for da, _ in out]
    np.testing.assert_array_equal(DistributedArray.assemble(parts),
                                  _BIG_GLOBAL)
    stats = [s for _, s in out]
    assert sum(s.get("oversize", 0) for s in stats) >= 2
    assert all(s["allocations"] == 0 for s in stats)


def test_procs_redistribute_big_pairs_byte_identical():
    from repro.highlevel import redistribute
    g = _BIG_GLOBAL.reshape(768, 512)
    np.testing.assert_array_equal(
        redistribute(g, (2, 1), (3, 1), backend="procs"), g)


def test_procs_full_ring_with_gone_receiver_is_a_watchdog_deadlock():
    """A sender blocked on a ring nobody will ever free is a deadlock
    the watchdog reports — naming the slot wait — not a hang."""
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _sender_outlives_receiver, backend="procs",
                 transport_opts=_SMALL_RING, deadlock_timeout=1.0)
    exc = ei.value.failures[0]
    assert isinstance(exc, DeadlockError)
    assert "watchdog" in str(exc)
    assert "slot_ring" in exc.blocked[0]


def test_segment_pool_ring_exhaustion_and_reuse():
    from repro.simmpi.shm import SegmentPool
    pool = SegmentPool(1, slot_bytes=128, slots_per_endpoint=2)
    try:
        a = pool.acquire(0)
        b = pool.acquire(0)
        assert a is not None and b is not None and a != b
        assert pool.acquire(0) is None          # ring full -> fallback
        assert pool.stats.get("ring_full") == 1
        pool.release(a)
        assert pool.acquire(0) == a             # slots recycle in place
        view = pool.slot_view(a, 16)
        view[:] = 42
        assert (pool.slot_view(a, 16) == 42).all()
    finally:
        pool.close()
        pool.unlink()


def _steady_state(comm):
    from repro.simmpi.procs import slot_stats
    peer = 1 - comm.rank
    data = np.arange(8192, dtype=np.float64)  # 64 KB: slot-ring path
    for _ in range(2):                         # warm-up
        comm.send(data, peer, tag=4)
        comm.recv(peer, tag=4)
    before = slot_stats()
    for _ in range(10):
        comm.send(data, peer, tag=4)
        comm.recv(peer, tag=4)
    after = slot_stats()
    return (after["allocations"] - before.get("allocations", 0),
            after["reuses"] - before["reuses"])


def test_procs_zero_steady_state_slot_allocations():
    """The PR 3 guarantee, ported: once the ring is warm, a steady
    send/recv loop draws every payload from recycled slots."""
    for allocs, reuses in run_spmd(2, _steady_state, backend="procs"):
        assert allocs == 0
        assert reuses == 10


def _crasher(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.recv(1, tag=99)  # would block forever without abort propagation


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_crash_aborts_blocked_peers(backend):
    with pytest.raises(SpmdError) as ei:
        run_spmd(3, _crasher, backend=backend, deadlock_timeout=3.0)
    failures = ei.value.failures
    assert isinstance(failures[1], ValueError)
    assert "exploded" in str(failures[1])
    for r in (0, 2):  # aborted, not hung
        assert isinstance(failures[r], DeadlockError)


def _mutual_deadlock(comm):
    comm.recv((comm.rank + 1) % comm.size, tag=1)


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_watchdog_detects_cross_process_deadlock(backend):
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _mutual_deadlock, backend=backend,
                 deadlock_timeout=1.0)
    for exc in ei.value.failures.values():
        assert isinstance(exc, DeadlockError)
        assert "watchdog" in str(exc)


def _raw_sender(comm):
    comm.send(payload.Raw(object()), 1 - comm.rank, tag=1)


def test_procs_rejects_raw_payloads_across_processes():
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _raw_sender, backend="procs", deadlock_timeout=3.0)
    assert any(isinstance(e, CommunicatorError)
               and "process-local" in str(e)
               for e in ei.value.failures.values())


# -- run_coupled failure paths (both backends) -------------------------------


def _coupled_crasher(comm):
    raise ValueError("producer died before coupling")


def _coupled_blocker(comm):
    comm.recv(0, tag=5, timeout=30)


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_coupled_crash_aborts_peer_job_and_names_ranks(backend):
    """One job crashing while its peer blocks in a receive must abort
    both jobs, and the SpmdError must name failures '{job} rank {r}'
    with the originating exception surfaced."""
    with pytest.raises(SpmdError) as ei:
        run_coupled([("alpha", 1, _coupled_crasher, ()),
                     ("beta", 1, _coupled_blocker, ())],
                    deadlock_timeout=3.0, backend=backend)
    failures = ei.value.failures
    assert set(failures) == {"alpha rank 0", "beta rank 0"}
    assert isinstance(failures["alpha rank 0"], ValueError)
    assert "producer died" in str(failures["alpha rank 0"])
    assert isinstance(failures["beta rank 0"], DeadlockError)
    assert "alpha rank 0" in str(ei.value)


def test_threads_coupled_crash_aborts_peer_job_at_once():
    """On threads a crash in one coupled job aborts every job of the
    launch at once, like the procs supervisor does: the peer's
    DeadlockError names the originating job, rank and exception long
    before the watchdog timeout."""
    t0 = time.monotonic()
    with pytest.raises(SpmdError) as ei:
        run_coupled([("alpha", 1, _coupled_crasher, ()),
                     ("beta", 1, _coupled_blocker, ())],
                    deadlock_timeout=30.0, backend="threads")
    assert time.monotonic() - t0 < 5.0
    peer = ei.value.failures["beta rank 0"]
    assert isinstance(peer, DeadlockError)
    assert ("alpha rank 0 raised ValueError: producer died before "
            "coupling") in str(peer)
    assert peer.blocked == {}


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_coupled_cross_job_deadlock_dump_names_jobs(backend):
    def stuck(comm):
        comm.recv(0, tag=1)

    with pytest.raises(SpmdError) as ei:
        run_coupled([("left", 1, stuck, ()), ("right", 1, stuck, ())],
                    deadlock_timeout=1.0, backend=backend)
    dumps = [e.blocked for e in ei.value.failures.values()
             if isinstance(e, DeadlockError)]
    assert dumps
    for blocked in dumps:
        assert set(blocked) == {"left rank 0", "right rank 0"}


def test_spmd_error_formats_string_and_int_keys():
    err = SpmdError({"alpha rank 1": ValueError("x"), 0: KeyError("y")})
    msg = str(err)
    assert "alpha rank 1: ValueError" in msg
    assert "rank 0: KeyError" in msg


# -- coupled persistent channels over the procs backend ----------------------

_EXT = 3600
_SRC_DESC = DistArrayDescriptor(CartesianTemplate([Cyclic(_EXT, 2)]))
_DST_DESC = DistArrayDescriptor(CartesianTemplate([Cyclic(_EXT, 3)]))
_GLOBAL = np.arange(float(_EXT))


def _producer(comm):
    coupler = Coupler("procs-chan", default_nameservice)
    da = DistributedArray.from_global(_SRC_DESC, comm.rank, _GLOBAL)
    chan = coupler.open(comm, "source", da)
    for _ in range(3):
        chan.push()
    return chan.pool_stats.get("allocations", 0)


def _consumer(comm):
    coupler = Coupler("procs-chan", default_nameservice)
    chan = coupler.open(comm, "destination", _DST_DESC)
    for _ in range(3):
        out = chan.pull()
    return out


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_persistent_channel_byte_identical_across_backends(backend):
    """highlevel.Channel selects the backend transparently: rendezvous
    through the broker, payloads through the slot rings, pooled packs
    stay allocation-free."""
    res = run_coupled([("prod", 2, _producer, ()),
                       ("cons", 3, _consumer, ())],
                      deadlock_timeout=30.0, backend=backend)
    np.testing.assert_array_equal(
        DistributedArray.assemble(res["cons"]), _GLOBAL)
    assert res["prod"] == [0, 0]               # zero pool allocations


def _engine_producer(comm, steps):
    inter = default_nameservice.accept("procs-direct", comm)
    da = DistributedArray.from_global(_SRC_DESC, comm.rank, _GLOBAL)
    tx = bind(build_region_schedule(_SRC_DESC, _DST_DESC), "src", inter, da,
              tag=61)
    for _ in range(steps):
        for d in range(_DST_DESC.nranks):      # wait until every consumer
            inter.recv(d, tag=62)              # has preposted its slots
        tx.step()


def _engine_consumer(comm, steps):
    inter = default_nameservice.connect("procs-direct", comm)
    da = DistributedArray.allocate(_DST_DESC, comm.rank)
    rx = bind(build_region_schedule(_SRC_DESC, _DST_DESC), "dst", inter, da,
              tag=61)
    d0 = TRANSPORT_STATS.get("direct_deliveries")
    for _ in range(steps):
        rx.arm()
        for s in range(_SRC_DESC.nranks):
            inter.send(None, s, tag=62)
        rx.complete(timeout=30)
    return da, TRANSPORT_STATS.get("direct_deliveries") - d0


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_prepost_direct_delivery_across_backends(backend):
    """With arm-before-send ordering made explicit (consumers signal
    after preposting), every payload must land straight in destination
    memory — on procs that means scattering directly out of the shared
    slot, never staging through the mailbox queue."""
    res = run_coupled([("prod", 2, _engine_producer, (2,)),
                       ("cons", 3, _engine_consumer, (2,))],
                      deadlock_timeout=30.0, backend=backend)
    parts = [p for p, _ in res["cons"]]
    np.testing.assert_array_equal(
        DistributedArray.assemble(parts), _GLOBAL)
    for _, direct in res["cons"]:
        assert direct > 0                      # preposts actually hit


def test_distributed_array_pickle_preserves_consolidation():
    """The procs backend ships DistributedArrays between processes;
    pickling must rebuild patch views aliasing one consolidated base."""
    da = DistributedArray.from_global(_SRC_DESC, 0, _GLOBAL)
    clone = pickle.loads(pickle.dumps(da))
    np.testing.assert_array_equal(clone.flat_local(), da.flat_local())
    base = clone.flat_local()
    base[:] = -7.0
    for view in clone.patches.values():
        assert (view == -7.0).all()            # views alias the base


def _rendezvous_pair(comm, side):
    if side == "acc":
        inter = default_nameservice.accept("procs-rdv", comm)
        inter.send(np.full(100, float(comm.rank)), comm.rank, tag=2)
        return float(inter.recv(comm.rank, tag=3).sum())
    inter = default_nameservice.connect("procs-rdv", comm)
    got = inter.recv(comm.rank, tag=2)
    inter.send(got * 2, comm.rank, tag=3)
    return float(got.sum())


def test_procs_nameservice_rendezvous_both_directions():
    res = run_coupled(
        [("acc", 2, _rendezvous_pair, ("acc",)),
         ("conn", 2, _rendezvous_pair, ("conn",))],
        deadlock_timeout=10.0, backend="procs")
    assert res["conn"] == [0.0, 100.0]
    assert res["acc"] == [0.0, 200.0]


# -- one-sided RMA tier over the procs backend -------------------------------


def _rma_producer(comm, steps, crash_rank=None):
    coupler = Coupler("procs-rma", default_nameservice)
    da = DistributedArray.from_global(_SRC_DESC, comm.rank, _GLOBAL)
    chan = coupler.open(comm, "source", da, tier="rma")
    stats0 = dict(TRANSPORT_STATS.snapshot())
    for s in range(1, steps + 1):
        if crash_rank is not None and comm.rank == crash_rank:
            raise RuntimeError("producer died mid-epoch")
        da.fill(float(s))
        chan.push()
    mode = chan.mode
    chan.close()
    delta = {k: v - stats0.get(k, 0)
             for k, v in TRANSPORT_STATS.snapshot().items()}
    return mode, delta


def _rma_consumer(comm, steps):
    coupler = Coupler("procs-rma", default_nameservice)
    chan = coupler.open(comm, "destination", _DST_DESC, tier="rma")
    generations = []
    for _ in range(steps):
        da = chan.pull()
        values = da.flat_local()
        # seqlock property: between fence(k) and epoch_open(k+1) the
        # array is generation k in full — never a mix of generations.
        assert np.all(values == values[0]), "torn read across epochs"
        generations.append(float(values[0]))
    mode = chan.mode
    chan.close()
    return mode, generations, chan.array


def test_rma_channel_byte_identical_and_message_free():
    """The tentpole acceptance path: a one-sided persistent channel on
    real processes — every pull observes exactly one generation (no
    torn reads), steady-state steps match zero messages, and the data
    plane is carried entirely by puts."""
    steps = 3
    res = run_coupled([("prod", 2, _rma_producer, (steps,)),
                       ("cons", 3, _rma_consumer, (steps,))],
                      deadlock_timeout=30.0, backend="procs")
    assert [m for m, _ in res["prod"]] == ["rma", "rma"]
    assert [m for m, _, _ in res["cons"]] == ["rma"] * 3
    # lockstep epochs: pull s observes exactly generation s
    for _, generations, _ in res["cons"]:
        assert generations == [float(s) for s in range(1, steps + 1)]
    # the evacuated arrays still assemble to the final generation
    parts = [arr for _, _, arr in res["cons"]]
    np.testing.assert_array_equal(
        DistributedArray.assemble(parts), np.full(_EXT, float(steps)))
    for _, delta in res["prod"]:
        pairs = sum(1 for _ in range(_DST_DESC.nranks))  # 3 peers/rank
        assert delta.get("rma_puts", 0) == steps * pairs
        # after the bootstrap handles, the data plane matches nothing:
        # per steady-state step the producer matches 0 messages
        assert delta.get("messages_matched", 0) <= pairs + 1


def test_rma_crash_mid_epoch_propagates_abort():
    """A producer dying before its put must not hang the consumers'
    fences: the domain abort reaches the spinning ranks and surfaces
    as the watchdog's deadlock report, not a silent stall."""
    with pytest.raises(SpmdError) as ei:
        run_coupled([("prod", 2, _rma_producer, (2, 1)),
                     ("cons", 3, _rma_consumer, (2,))],
                    deadlock_timeout=8.0, backend="procs")
    failures = ei.value.failures
    assert any("producer died mid-epoch" in str(e)
               for e in failures.values())
    # every consumer unblocked with an error instead of spinning forever
    cons_keys = [k for k in failures if str(k).startswith("cons")]
    assert cons_keys


# -- rank death on procs -----------------------------------------------------

# Rows over 2 producers, columns over 3 consumers: every consumer rank
# takes a pair from every producer rank, so each one blocks on a
# producer that dies.  (60, 60) makes 4.7 KiB pairs (eager); (600, 3000)
# makes 2.3 MiB pairs, above EAGER_MAX (put).
_DEATH_SHAPES = {"eager": (60, 60), "put": (600, 3000)}


def _death_descs(shape):
    return (DistArrayDescriptor(block_template(shape, (2, 1))),
            DistArrayDescriptor(block_template(shape, (1, 3))))


def _dying_producer(comm, service, shape):
    src, _ = _death_descs(shape)
    da = DistributedArray.allocate(src, comm.rank)
    da.fill(1.0)
    chan = Coupler(service, default_nameservice).open(comm, "source", da)
    chan.push()
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    chan.push()


def _death_consumer(comm, service, shape):
    _, dst = _death_descs(shape)
    chan = Coupler(service, default_nameservice).open(
        comm, "destination", dst)
    for _ in range(2):
        chan.pull()


@pytest.mark.parametrize("case", sorted(_DEATH_SHAPES))
def test_procs_rank_killed_between_pushes_fails_every_peer_fast(case):
    """A producer rank SIGKILLed between two pushes — its pairs eager,
    or put into the consumers' windows — fails the launch within a
    stall tick, far inside the watchdog's timeout: the dead rank reads
    as a rank that exited without reporting, and every consumer blocked
    on it raises a DeadlockError that names it.  The ``no_leaks``
    fixture checks that the launch leaves no segment behind."""
    from repro.schedule.executor import EAGER_MAX

    rows, cols = shape = _DEATH_SHAPES[case]
    pair_bytes = rows // 2 * cols // 3 * 8
    assert (pair_bytes > EAGER_MAX) == (case == "put")
    service = f"rank-death-{case}"
    t0 = time.monotonic()
    with pytest.raises(SpmdError) as ei:
        run_coupled([("prod", 2, _dying_producer, (service, shape)),
                     ("cons", 3, _death_consumer, (service, shape))],
                    deadlock_timeout=10.0, backend="procs")
    assert time.monotonic() - t0 < 3.0
    failures = ei.value.failures
    assert ("exited without reporting (exit code -9)"
            in str(failures["prod rank 1"]))
    for r in range(3):
        peer = failures[f"cons rank {r}"]
        assert isinstance(peer, DeadlockError)
        assert "prod rank 1" in str(peer)
        # blocked where the case says: an armed eager sink, or a fence
        # naming the writers behind, the dead rank 1 among them
        assert ("rma_fence(" if case == "put" else "prepost_recv(") \
            in str(peer)
        if case == "put":
            assert re.search(r"rma_fence\(epoch=2, writers=\[(0, )?1\]\)",
                             str(peer))


def _pushing_producer(comm, service, shape):
    src, _ = _death_descs(shape)
    da = DistributedArray.allocate(src, comm.rank)
    da.fill(1.0)
    chan = Coupler(service, default_nameservice).open(comm, "source", da)
    # eager pairs are buffered: keep pushing until the dead consumer's
    # unconsumed messages fill the rings; a put pair waits at once
    for _ in range(64):
        chan.push()


def _dying_consumer(comm, service, shape):
    _, dst = _death_descs(shape)
    chan = Coupler(service, default_nameservice).open(
        comm, "destination", dst)
    chan.pull()
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    chan.pull()


@pytest.mark.parametrize("case", sorted(_DEATH_SHAPES))
def test_procs_consumer_killed_between_pulls_fails_every_producer_fast(case):
    """The dead-consumer twin: a consumer rank SIGKILLed between two
    pulls fails the launch within a stall tick, far inside the
    watchdog's timeout.  The dead rank reads as a rank that exited
    without reporting, and every producer left blocked on it — on a full
    ring of its unconsumed eager messages, or on its window's next epoch
    — raises a DeadlockError that names it.  The window the dead rank
    owned (the ``put`` case) is reclaimed by the launcher, which the
    ``no_leaks`` fixture checks."""
    args = (f"consumer-death-{case}", _DEATH_SHAPES[case])
    t0 = time.monotonic()
    with pytest.raises(SpmdError) as ei:
        run_coupled([("prod", 2, _pushing_producer, args),
                     ("cons", 3, _dying_consumer, args)],
                    deadlock_timeout=10.0, backend="procs")
    assert time.monotonic() - t0 < 3.0
    failures = ei.value.failures
    assert ("exited without reporting (exit code -9)"
            in str(failures["cons rank 1"]))
    for r in range(2):
        peer = failures[f"prod rank {r}"]
        assert isinstance(peer, DeadlockError)
        assert "cons rank 1" in str(peer)
        assert ("rma_put(" if case == "put" else "_ring(") in str(peer)


def test_leak_check_counts_only_this_sessions_segments():
    """The ``no_leaks`` fixture diffs :func:`repro.simmpi.shm.segments`:
    a segment another process makes while a test runs (a benchmark
    beside pytest) is not counted, and one this session leaves is."""
    from multiprocessing import shared_memory

    from repro.simmpi import shm

    before = shm.segments()
    foreign = [shared_memory.SharedMemory(create=True, size=64),
               shared_memory.SharedMemory(
                   create=True, size=64,
                   name=f"repro{os.getpid() + 1}_{os.getpid() + 1}_0")]
    try:
        assert shm.segments() == before
    finally:
        for seg in foreign:
            seg.close()
            seg.unlink()
    ours = shm.SharedState(1)
    try:
        assert shm.segments() - before == {ours._shm.name.lstrip("/")}
    finally:
        ours.close()
        ours.unlink()
    assert shm.segments() == before


# -- transport counters and tunables -----------------------------------------


def test_matching_counters_track_rendezvous_cost():
    """messages_matched counts every envelope hand-off; rendezvous_waits
    counts only receives that actually blocked — the two-sided costs the
    one-sided tier exists to delete."""
    from repro.simmpi import run_spmd as _run

    def main(comm):
        m0 = TRANSPORT_STATS.get("messages_matched")
        w0 = TRANSPORT_STATS.get("rendezvous_waits")
        if comm.rank == 0:
            comm.recv(source=1)                 # blocks: nothing in flight
        else:
            time.sleep(0.05)                    # ...until rank 0 waits
            comm.send(np.zeros(8), dest=0)
        comm.barrier()
        return (TRANSPORT_STATS.get("messages_matched") - m0,
                TRANSPORT_STATS.get("rendezvous_waits") - w0)

    matched, waited = _run(2, main)[0]          # rank 0: the receiver
    assert matched >= 1
    assert waited >= 1


def test_slot_view_rejects_oversized_payload():
    """A view may span a run up to the end of its ring, never past it."""
    from repro.simmpi.shm import SegmentPool

    pool = SegmentPool(1, slot_bytes=128, slots_per_endpoint=2)
    try:
        slot = pool.acquire(0)
        with pytest.raises(ValueError, match="does not fit"):
            pool.slot_view(slot, 257)
        assert pool.slot_view(slot, 256).nbytes == 256
        with pytest.raises(ValueError, match="does not fit"):
            pool.slot_view(slot + 1, 129)
        assert pool.slot_view(slot + 1, 128).nbytes == 128
    finally:
        pool.close()
        pool.unlink()


def test_segment_pool_runs_first_fit_and_release():
    from repro.simmpi.shm import SegmentPool

    pool = SegmentPool(2, slot_bytes=128, slots_per_endpoint=4)
    try:
        assert pool.acquire(1, 3) == 4          # endpoint 1's ring: 4-7
        assert pool.acquire(1, 2) is None       # one slot left
        assert pool.acquire(1) == 7
        assert pool.acquire(0, 4) == 0          # a whole ring is one run
        assert pool.find_run(0) is None
        pool.release(0, 4)                      # the run frees as a whole
        assert pool.find_run(0, 4) == 0
        pool.release(4, 3)
        assert pool.acquire(1, 2) == 4          # lowest fitting run
        assert pool.stats.get("ring_full") == 1
        assert pool.stats.get("reuses") == 4
        view = pool.slot_view(4, 200)           # crosses slot 4 -> 5
        view[:] = np.arange(200) % 251
        assert (pool.slot_view(4, 256)[:200] == view).all()
    finally:
        pool.close()
        pool.unlink()


def test_segment_pool_fragmented_ring_has_no_run():
    """Free slots 0 and 2 of 4 hold two one-slot messages but not one
    two-slot message: runs are adjacent slots only."""
    from repro.simmpi.shm import SegmentPool

    pool = SegmentPool(1, slot_bytes=128, slots_per_endpoint=4)
    try:
        slots = [pool.acquire(0) for _ in range(4)]
        assert slots == [0, 1, 2, 3]
        pool.release(0)
        pool.release(2)
        assert pool.find_run(0, 2) is None
        assert pool.acquire(0, 2) is None
        assert pool.acquire(0) == 0 and pool.acquire(0) == 2
    finally:
        pool.close()
        pool.unlink()


def test_segment_pool_run_view_never_crosses_into_next_ring():
    from repro.simmpi.shm import SegmentPool

    pool = SegmentPool(2, slot_bytes=128, slots_per_endpoint=4)
    try:
        assert pool.acquire(0, 2) == 0
        assert pool.acquire(0, 2) == 2
        assert pool.slot_view(2, 256).nbytes == 256   # ends with ring 0
        with pytest.raises(ValueError, match="does not fit"):
            pool.slot_view(2, 257)                    # would reach slot 4
    finally:
        pool.close()
        pool.unlink()


def test_window_segment_geometry_checks():
    from repro.simmpi.shm import WindowSegment

    seg = WindowSegment(256, 2)
    try:
        with pytest.raises(ValueError, match="writers"):
            WindowSegment.attach(seg.name, 256, 3).close()
        with pytest.raises(ValueError, match="geometry"):
            WindowSegment.attach(seg.name, 10_000, 2).close()
        peer = WindowSegment.attach(seg.name, 256, 2)
        peer.data[:] = 7
        assert (seg.data == 7).all()            # same physical pages
        seg.set_epoch(3)
        assert peer.epoch() == 3
        peer.set_done(1, 3)
        assert seg.done(1) == 3 and seg.min_done() == 0
        peer.close()
    finally:
        seg.close()
        seg.unlink()
