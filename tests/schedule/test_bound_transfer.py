"""The single execution core: every tier through bind → step → close.

One equivalence matrix (tier × deployment shape × one-shot/persistent)
against the global truth, and the closed-transfer contract on every
tier.
"""

import os

import numpy as np
import pytest

from repro.dad import DistArrayDescriptor, DistributedArray
from repro.errors import ConnectionError_
from repro.highlevel import Coupler
from repro.mxn.connection import (ConnectionKind, ConnectionSpec,
                                  MxNConnection)
from repro.schedule import (bind, build_region_schedule, execute_inter,
                            execute_intra)
from repro.simmpi import run_coupled, run_spmd
from repro.simmpi.intercomm import couple_jobs, default_nameservice
from repro.simmpi.runner import Job
from repro.util.counters import TRANSPORT_STATS

from tests.schedule.test_packing import CASES

STEPS = 3


def _descs(src_t, dst_t):
    return (DistArrayDescriptor(src_t, np.float64),
            DistArrayDescriptor(dst_t, np.float64))


def _truth(shape, step):
    n = int(np.prod(shape))
    return np.arange(n, dtype=np.float64).reshape(shape) + 1000.0 * step


def _same_bytes(parts, truth):
    return DistributedArray.assemble(parts).tobytes() == truth.tobytes()


# -- the tier-equivalence matrix ----------------------------------------------

def _intra(src_desc, dst_desc, steps):
    """``steps`` one-shot transfers inside one job; returns per-step
    (assembled-bytes-ok, data messages, barriers)."""
    sched = build_region_schedule(src_desc, dst_desc)
    n = max(src_desc.nranks, dst_desc.nranks)
    out = []
    for step in range(steps):
        g = _truth(src_desc.shape, step)

        def main(comm, g=g):
            src = (DistributedArray.from_global(src_desc, comm.rank, g)
                   if comm.rank < src_desc.nranks else None)
            dst = (DistributedArray.allocate(dst_desc, comm.rank)
                   if comm.rank < dst_desc.nranks else None)
            execute_intra(sched, comm, src_array=src, dst_array=dst,
                          src_ranks=range(src_desc.nranks),
                          dst_ranks=range(dst_desc.nranks))
            return dst, comm.counters   # shared per job; read after join

        res = run_spmd(n, main)
        counters = res[0][1].snapshot()
        out.append((_same_bytes([d for d, _ in res if d is not None], g),
                    counters.get("msgs", 0), counters.get("barriers", 0)))
    return sched, out


def _inter(src_desc, dst_desc, tier, steps, persistent):
    """``steps`` transfers between two coupled jobs — one bound transfer
    stepped ``steps`` times, or a fresh one-shot per step; returns
    per-step (assembled-bytes-ok, data messages sent by the producers,
    acks sent by the consumers)."""
    sched = build_region_schedule(src_desc, dst_desc)
    kw = dict(tag=77)

    def producer(comm):
        inter = default_nameservice.accept("matrix", comm)
        da = DistributedArray.allocate(src_desc, comm.rank)
        tx = (bind(sched, "src", inter, da, tier=tier, **kw) if persistent
              else None)
        for step in range(steps):
            da.flat_local()[:] = DistributedArray.from_global(
                src_desc, comm.rank, _truth(src_desc.shape, step)).flat_local()
            if persistent:
                tx.step()
            else:
                execute_inter(sched, inter, "src", da, **kw)
            inter.recv(source=0, tag=78)   # consumers checked this step
        return comm.counters

    def consumer(comm):
        inter = default_nameservice.connect("matrix", comm)
        da = DistributedArray.allocate(dst_desc, comm.rank)
        rx = (bind(sched, "dst", inter, da, tier=tier, **kw) if persistent
              else None)
        snaps = []
        for _ in range(steps):
            if persistent:
                rx.step()
            else:
                execute_inter(sched, inter, "dst", da, **kw)
            snaps.append(da.flat_local().copy())
            comm.barrier()
            if comm.rank == 0:
                for s in range(src_desc.nranks):
                    inter.send(None, s, tag=78)
        return snaps, comm.counters

    res = run_coupled([("prod", src_desc.nranks, producer, ()),
                       ("cons", dst_desc.nranks, consumer, ())],
                      deadlock_timeout=30.0)
    out = []
    for step in range(steps):
        parts = []
        for r, (snaps, _) in enumerate(res["cons"]):
            da = DistributedArray.allocate(dst_desc, r)
            da.flat_local()[:] = snaps[step]
            parts.append(da)
        out.append(_same_bytes(parts, _truth(src_desc.shape, step)))
    sent = res["prod"][0].get("inter_msgs")
    acks = res["cons"][0][1].get("inter_msgs") - steps * src_desc.nranks
    return sched, out, sent, acks


@pytest.mark.parametrize("src_t,dst_t", CASES)
@pytest.mark.parametrize("tier", [pytest.param("two_sided", id="p2p"), "rma"])
class TestTierEquivalence:
    """Every request moves the same bytes: one packed message per
    communicating pair and step, or — persistent ``rma`` — one put per
    pair and step after one window handle per pair at bind, as on procs
    (tested below).  A one-shot takes no tier argument; ``tier`` is then
    the ``REPRO_TIER`` it runs under, which it only validates."""

    def test_intra_one_shot(self, src_t, dst_t, tier, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", tier)
        src_desc, dst_desc = _descs(src_t, dst_t)
        sched, steps = _intra(src_desc, dst_desc, STEPS)
        for ok, msgs, barriers in steps:
            assert ok
            # one packed message per communicating pair, no barrier
            assert (msgs, barriers) == (sched.pair_count, 0)

    @pytest.mark.parametrize("persistent", [False, True],
                             ids=["one-shot", "persistent"])
    def test_inter(self, src_t, dst_t, tier, persistent, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", tier)
        src_desc, dst_desc = _descs(src_t, dst_t)
        sched, oks, sent, acks = _inter(src_desc, dst_desc, tier, STEPS,
                                        persistent)
        assert oks == [True] * STEPS
        if persistent and tier == "rma":
            assert (sent, acks) == (0, sched.pair_count)
        else:
            assert (sent, acks) == (STEPS * sched.pair_count, 0)


# -- RMA on real processes ----------------------------------------------------

_SRC_T, _DST_T = CASES[2]
_SRC_DESC, _DST_DESC = _descs(_SRC_T, _DST_T)


def _rma_producer(comm, steps):
    chan = Coupler("core-rma", default_nameservice).open(
        comm, "source",
        DistributedArray.allocate(_SRC_DESC, comm.rank), tier="rma")
    matched = []
    for step in range(steps):
        chan.array.flat_local()[:] = DistributedArray.from_global(
            _SRC_DESC, comm.rank, _truth(_SRC_DESC.shape, step)).flat_local()
        m0 = TRANSPORT_STATS.get("messages_matched")
        chan.push()
        matched.append(TRANSPORT_STATS.get("messages_matched") - m0)
    chan.close()
    with pytest.raises(ConnectionError_):
        chan.push()
    chan.close()                       # idempotent
    return chan.mode, matched


def _rma_consumer(comm, steps):
    chan = Coupler("core-rma", default_nameservice).open(
        comm, "destination", _DST_DESC, tier="rma")
    snaps = [chan.pull().flat_local().copy() for _ in range(steps)]
    chan.close()
    with pytest.raises(ConnectionError_):
        chan.pull()
    chan.close()
    return chan.mode, snaps


def test_rma_tier_on_procs_matches_truth_and_refuses_steps_after_close():
    res = run_coupled([("prod", _SRC_DESC.nranks, _rma_producer, (STEPS,)),
                       ("cons", _DST_DESC.nranks, _rma_consumer, (STEPS,))],
                      deadlock_timeout=30.0, backend="procs")
    assert {m for m, _ in res["prod"] + res["cons"]} == {"rma"}
    for step in range(STEPS):
        parts = []
        for r, (_, snaps) in enumerate(res["cons"]):
            da = DistributedArray.allocate(_DST_DESC, r)
            da.flat_local()[:] = snaps[step]
            parts.append(da)
        assert _same_bytes(parts, _truth(_SRC_DESC.shape, step))
    # after the bind's window handles, the data plane matches nothing
    for _, matched in res["prod"]:
        assert matched[1:] == [0] * (STEPS - 1)


# -- a closed transfer refuses every verb -------------------------------------

def _bound_pair(tier):
    src_desc, dst_desc = _descs(*CASES[2])
    sched = build_region_schedule(src_desc, dst_desc)
    src_inters, dst_inters = couple_jobs(Job(src_desc.nranks),
                                         Job(dst_desc.nranks))
    g = _truth(src_desc.shape, 0)
    tx = bind(sched, "src", src_inters[0],
              DistributedArray.from_global(src_desc, 0, g), tier=tier)
    rx = bind(sched, "dst", dst_inters[0],
              DistributedArray.allocate(dst_desc, 0), tier=tier)
    return tx, rx


def test_closed_two_sided_transfer_raises():
    tx, rx = _bound_pair("two_sided")
    assert (tx.tier, rx.tier) == ("two_sided", "two_sided")
    for half in (tx, rx):
        half.close()
        half.close()                   # idempotent
    for verb in (tx.step, rx.step, rx.arm, rx.complete):
        with pytest.raises(ConnectionError_):
            verb()


# -- MxNConnection.close() closes its bound transfer --------------------------

def _home(arr):
    return arr.flat_local().__array_interface__["data"][0]


def _shm_before(comm):
    """/dev/shm as it is before any rank of this job binds (a window
    is created by the bind, so nobody may bind until everybody looked)."""
    comm.barrier()
    before = set(os.listdir("/dev/shm"))
    comm.barrier()
    return before


def _shm_leaked(comm, before):
    comm.barrier()                     # every rank of this job has closed
    return sorted(set(os.listdir("/dev/shm")) - before)


def _mxn_side(comm, role):
    spec = ConnectionSpec(_SRC_DESC, _DST_DESC, ConnectionKind.PERSISTENT)
    inter = (default_nameservice.accept("core-mxn", comm) if role == "source"
             else default_nameservice.connect("core-mxn", comm))
    g = _truth(_SRC_DESC.shape, 0)
    da = (DistributedArray.from_global(_SRC_DESC, comm.rank, g)
          if role == "source"
          else DistributedArray.allocate(_DST_DESC, comm.rank))
    before = _shm_before(comm)
    private = _home(da)
    conn = MxNConnection(spec, inter, role, da)
    for _ in range(2):
        conn.data_ready()
    in_window = _home(da)
    conn.close()
    conn.close()                       # idempotent
    leaked = _shm_leaked(comm, before)
    with pytest.raises(ConnectionError_):
        conn.data_ready()
    return private, in_window, _home(da), leaked, da


def test_mxn_close_retires_the_rma_window(monkeypatch):
    monkeypatch.setenv("REPRO_TIER", "rma")
    res = run_coupled([("src", _SRC_DESC.nranks, _mxn_side, ("source",)),
                       ("dst", _DST_DESC.nranks, _mxn_side, ("destination",))],
                      deadlock_timeout=30.0, backend="procs")
    for private, in_window, after, leaked, _ in res["dst"]:
        assert in_window != private    # the bind rebased it into the window
        assert after != in_window      # close() evacuated it again
        assert leaked == []
    assert _same_bytes([da for *_, da in res["dst"]],
                       _truth(_SRC_DESC.shape, 0))


# -- closed before the first transfer: the handle's own state is the only state

_TIER_ENV = {"two_sided": {}, "rma": {"REPRO_TIER": "rma"}}


def _both_jobs_here(comm, sync):
    comm.barrier()
    if comm.rank == 0:
        sync.send(None, 0, tag=1)
        sync.recv(source=0, tag=1)
    comm.barrier()


def _close_first(comm, handle, role):
    """Open ``handle`` (the tier comes from the knobs), close it before
    any transfer; returns (the tier a Channel resolved, whether the
    array sat in a window while open, segments left behind)."""
    source = role == "source"
    sync = (default_nameservice.accept("close-first-sync", comm) if source
            else default_nameservice.connect("close-first-sync", comm))
    da = (DistributedArray.allocate(_SRC_DESC, comm.rank) if source
          else None)
    before = _shm_before(comm)
    if handle == "channel":
        h = Coupler("close-first", default_nameservice).open(
            comm, role, da if source else _DST_DESC)
        verb, mode, da = (h.push if source else h.pull), h.mode, h.array
        windowed = False               # the channel allocated it: no "before"
    else:
        inter = (default_nameservice.accept("close-first", comm) if source
                 else default_nameservice.connect("close-first", comm))
        da = da if source else DistributedArray.allocate(_DST_DESC, comm.rank)
        private = _home(da)
        h = MxNConnection(
            ConnectionSpec(_SRC_DESC, _DST_DESC, ConnectionKind(handle)),
            inter, role, da)
        verb, mode, windowed = h.data_ready, None, _home(da) != private
    # Both sides are bound before either closes: a window closed under a
    # sender still attaching is the next test's typed error, not this one.
    _both_jobs_here(comm, sync)
    h.close()
    h.close()                          # idempotent
    leaked = _shm_leaked(comm, before)
    with pytest.raises(ConnectionError_):
        verb()
    return mode, windowed, leaked


@pytest.mark.parametrize("tier", list(_TIER_ENV))
@pytest.mark.parametrize("handle", ["channel", "persistent", "one_shot"])
def test_close_before_first_transfer_refuses_every_verb(monkeypatch, handle,
                                                        tier):
    for var, value in _TIER_ENV[tier].items():
        monkeypatch.setenv(var, value)
    # RMA needs ranks that can attach each other's windows: real processes
    res = run_coupled(
        [("src", _SRC_DESC.nranks, _close_first, (handle, "source")),
         ("dst", _DST_DESC.nranks, _close_first, (handle, "destination"))],
        deadlock_timeout=30.0, backend="procs" if tier == "rma" else "threads")
    if handle == "channel":
        assert {m for m, _, _ in res["src"] + res["dst"]} == {tier}
    for _, windowed, leaked in res["dst"]:
        # a one-shot never takes the RMA tier, whatever the knob says
        assert windowed == (tier == "rma" and handle == "persistent")
        assert leaked == []            # an unused window is retired too


def _bind_after_peer_closed(comm, side):
    sched = build_region_schedule(_SRC_DESC, _DST_DESC)
    if side == "dst":
        inter = default_nameservice.connect("gone", comm)
        bind(sched, "dst", inter,
             DistributedArray.allocate(_DST_DESC, comm.rank),
             tier="rma").close()
        comm.barrier()
        if comm.rank == 0:
            for s in range(_SRC_DESC.nranks):
                inter.send(None, s, tag=78)
        return None
    inter = default_nameservice.accept("gone", comm)
    inter.recv(source=0, tag=78)       # every receiver has closed
    with pytest.raises(ConnectionError_, match="closed its transfer"):
        bind(sched, "src", inter,
             DistributedArray.allocate(_SRC_DESC, comm.rank), tier="rma")


def test_rma_bind_after_the_receiver_closed_is_a_typed_error():
    run_coupled([("src", _SRC_DESC.nranks, _bind_after_peer_closed, ("src",)),
                 ("dst", _DST_DESC.nranks, _bind_after_peer_closed, ("dst",))],
                deadlock_timeout=30.0, backend="procs")
