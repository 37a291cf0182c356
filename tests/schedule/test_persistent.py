"""Persistent-channel engines: zero-allocation steady state, preposted
recv-into-destination correctness, loans scoped to their send, and
byte-identity of the zero-copy transport (borrow semantics) with the
copy-semantics reference across all distribution kinds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dad import (
    Block,
    BlockCyclic,
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
    GeneralizedBlock,
)
from repro.dad.template import ExplicitTemplate, block_template
from repro.highlevel import Coupler
from repro.schedule import bind, build_region_schedule
from repro.simmpi import run_coupled
from repro.simmpi.intercomm import couple_jobs, default_nameservice
from repro.simmpi.runner import Job
from repro.util.counters import TRANSPORT_STATS
from repro.util.regions import Region


@st.composite
def axis_for(draw, extent):
    kind = draw(st.sampled_from(
        ["block", "cyclic", "block_cyclic", "genblock"]))
    nprocs = draw(st.integers(1, min(3, extent)))
    if kind == "block":
        return Block(extent, nprocs)
    if kind == "cyclic":
        return Cyclic(extent, nprocs)
    if kind == "block_cyclic":
        return BlockCyclic(extent, nprocs, draw(st.integers(1, extent)))
    cuts = sorted(draw(st.lists(st.integers(0, extent),
                                min_size=nprocs - 1, max_size=nprocs - 1)))
    bounds = [0] + cuts + [extent]
    return GeneralizedBlock(extent, [b - a for a, b in zip(bounds, bounds[1:])])


@st.composite
def template_pairs(draw):
    ndim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(ndim))
    src = CartesianTemplate([draw(axis_for(e)) for e in shape])
    dst = CartesianTemplate([draw(axis_for(e)) for e in shape])
    return src, dst


def _engines(src_desc, dst_desc, g):
    """Single-threaded persistent channel: jobs, arrays, and engines."""
    sched = build_region_schedule(src_desc, dst_desc)
    src_job, dst_job = Job(src_desc.nranks), Job(dst_desc.nranks)
    src_inters, dst_inters = couple_jobs(src_job, dst_job)
    src_arrays = [DistributedArray.from_global(src_desc, r, g)
                  for r in range(src_desc.nranks)]
    dst_arrays = [DistributedArray.allocate(dst_desc, r)
                  for r in range(dst_desc.nranks)]
    senders = [bind(sched, "src", src_inters[r], src_arrays[r])
               for r in range(src_desc.nranks)]
    receivers = [bind(sched, "dst", dst_inters[r], dst_arrays[r])
                 for r in range(dst_desc.nranks)]
    return src_arrays, dst_arrays, senders, receivers


def _rma_engines(src_desc, dst_desc, g):
    """Single-threaded one-sided channel.  Receivers are constructed
    *first*: their bootstrap window handles are buffered sends the
    sender constructors then drain (the reverse order would block a
    single thread on a recv with nothing in flight)."""
    sched = build_region_schedule(src_desc, dst_desc)
    src_job, dst_job = Job(src_desc.nranks), Job(dst_desc.nranks)
    src_inters, dst_inters = couple_jobs(src_job, dst_job)
    src_arrays = [DistributedArray.from_global(src_desc, r, g)
                  for r in range(src_desc.nranks)]
    dst_arrays = [DistributedArray.allocate(dst_desc, r)
                  for r in range(dst_desc.nranks)]
    receivers = [bind(sched, "dst", dst_inters[r], dst_arrays[r],
                      tier="rma")
                 for r in range(dst_desc.nranks)]
    senders = [bind(sched, "src", src_inters[r], src_arrays[r],
                    tier="rma")
               for r in range(src_desc.nranks)]
    return src_arrays, dst_arrays, senders, receivers


def _step(senders, receivers, *, armed=True):
    """One deterministic steady-state step: arm, send, complete."""
    if armed:
        for rx in receivers:
            rx.arm()
    for tx in senders:
        tx.step()
    return sum(rx.complete(timeout=30) for rx in receivers)


class TestPersistentEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(template_pairs(), st.integers(0, 2 ** 31 - 1))
    def test_steady_state_matches_ground_truth(self, pair, seed):
        """Multiple persistent steps (changing data every step) must be
        byte-identical to the copy-semantics ground truth on every
        destination rank, for every distribution kind."""
        src_t, dst_t = pair
        src_desc = DistArrayDescriptor(src_t, np.float64)
        dst_desc = DistArrayDescriptor(dst_t, np.float64)
        rng = np.random.default_rng(seed)
        g = np.asarray(rng.integers(0, 1000, size=src_t.shape),
                       dtype=np.float64)
        src_arrays, dst_arrays, senders, receivers = _engines(
            src_desc, dst_desc, g)
        total = int(np.prod(src_t.shape))
        for _i in range(3):
            got = _step(senders, receivers)
            assert got == total
            for d, arr in enumerate(dst_arrays):
                expect = DistributedArray.from_global(dst_desc, d, g)
                assert arr.flat_local().tobytes() == \
                    expect.flat_local().tobytes()
            # mutate the source for the next step
            g = g + 1.0
            for s, arr in enumerate(src_arrays):
                arr.flat_local()[:] = DistributedArray.from_global(
                    src_desc, s, g).flat_local()

    @settings(max_examples=15, deadline=None)
    @given(template_pairs(), st.integers(0, 2 ** 31 - 1))
    def test_unarmed_receiver_still_correct(self, pair, seed):
        """Producer running ahead of the consumer (nothing preposted):
        every lend degrades to a snapshot — results must still be
        exact."""
        src_t, dst_t = pair
        src_desc = DistArrayDescriptor(src_t, np.float64)
        dst_desc = DistArrayDescriptor(dst_t, np.float64)
        g = np.asarray(
            np.random.default_rng(seed).integers(0, 1000, size=src_t.shape),
            dtype=np.float64)
        _, dst_arrays, senders, receivers = _engines(src_desc, dst_desc, g)
        for tx in senders:          # sends fire before any slot is armed
            tx.step()
        got = sum(rx.complete(timeout=30) for rx in receivers)
        assert got == int(np.prod(src_t.shape))
        for d, arr in enumerate(dst_arrays):
            expect = DistributedArray.from_global(dst_desc, d, g)
            assert arr.flat_local().tobytes() == expect.flat_local().tobytes()


class TestZeroAllocationSteadyState:
    def test_pool_stops_allocating_after_warmup(self):
        """The acceptance property: armed steady-state steps perform
        zero pack/recv buffer allocations and zero snapshot copies —
        every byte lands via a pooled buffer or a direct strided write."""
        # 2-D column split fragments into index-array pairs (pooled
        # path) — the hard case; cyclic pairs are pure strided views.
        src_desc = DistArrayDescriptor(block_template((6, 8), (1, 2)))
        dst_desc = DistArrayDescriptor(block_template((6, 8), (1, 4)))
        g = np.arange(48.0).reshape(6, 8)
        _, _, senders, receivers = _engines(src_desc, dst_desc, g)
        _step(senders, receivers)  # warm-up: pools fill, plans compile
        pools = [tx.pool for tx in senders]
        allocs = [p.stats.get("allocations") for p in pools]
        snaps = TRANSPORT_STATS.get("borrow_snapshots")
        wire_allocs = TRANSPORT_STATS.get("alloc_bytes")
        for _ in range(5):
            _step(senders, receivers)
        assert [p.stats.get("allocations") for p in pools] == allocs
        assert TRANSPORT_STATS.get("borrow_snapshots") == snaps
        assert TRANSPORT_STATS.get("alloc_bytes") == wire_allocs
        assert all(p.stats.get("reuses") >= 5 for p in pools
                   if p.stats.get("loans"))

    def test_direct_deliveries_cover_all_pairs(self):
        src_desc = DistArrayDescriptor(CartesianTemplate([Cyclic(48, 2)]))
        dst_desc = DistArrayDescriptor(CartesianTemplate([Cyclic(48, 3)]))
        sched = build_region_schedule(src_desc, dst_desc)
        pairs = sched.pair_count
        g = np.arange(48.0)
        _, _, senders, receivers = _engines(src_desc, dst_desc, g)
        _step(senders, receivers)  # warm-up
        before = TRANSPORT_STATS.get("direct_deliveries")
        _step(senders, receivers)
        assert TRANSPORT_STATS.get("direct_deliveries") == before + pairs


def _irregular_descs():
    """An explicit irregular layout: twenty patches of sizes 1..20 dealt
    alternately to two ranks never fold into boxes, so the one sender's
    pairs are index plans that stage through the pool."""
    bounds = np.concatenate(([0], np.cumsum(np.arange(1, 21))))
    src_desc = DistArrayDescriptor(block_template((210,), (1,)))
    dst_desc = DistArrayDescriptor(ExplicitTemplate(
        (210,), [(k % 2, Region((int(a),), (int(b),)))
                 for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]))
    return src_desc, dst_desc


def _scribble(pool):
    """Overwrite every idle buffer in ``pool``'s free lists; returns how
    many there were."""
    bufs = [buf for free in pool._free.values() for buf in free]
    for buf in bufs:
        buf[:] = -1.0
    return len(bufs)


def _scoped_producer(comm, steps):
    src_desc, _ = _irregular_descs()
    da = DistributedArray.from_global(src_desc, comm.rank, np.arange(210.0))
    chan = Coupler("loans-scoped", default_nameservice).open(
        comm, "source", da)
    token = default_nameservice.accept("loans-scoped-token", comm)
    seen = []
    for step in range(steps):
        da.flat_local()[:] = DistributedArray.from_global(
            src_desc, comm.rank, np.arange(210.0) + step).flat_local()
        chan.push()
        stats = chan.pool_stats
        seen.append((stats.get("loans", 0), stats.get("releases", 0),
                     _scribble(chan.pool)))
        for d in range(token.remote_size):   # pull only after the scribble
            token.send(step, d, tag=1)
    chan.close()
    return seen


def _scoped_consumer(comm, steps):
    _, dst_desc = _irregular_descs()
    chan = Coupler("loans-scoped", default_nameservice).open(
        comm, "destination", dst_desc)
    token = default_nameservice.connect("loans-scoped-token", comm)
    exact = []
    for step in range(steps):
        token.recv(0, tag=1)
        got = chan.pull().flat_local()
        expect = DistributedArray.from_global(
            dst_desc, comm.rank, np.arange(210.0) + step).flat_local()
        exact.append(got.tobytes() == expect.tobytes())
    chan.close()
    return exact


class TestLoansAreScoped:
    """Every send lends, so a pooled staging buffer is back in its pool
    once the send returns: after every step the sender's pool has
    released each loan, and overwriting its idle buffers cannot reach
    the consumer's bytes."""

    @pytest.mark.parametrize("armed", [True, False],
                             ids=["armed", "unarmed"])
    def test_threads(self, armed):
        src_desc, dst_desc = _irregular_descs()
        g = np.arange(210.0)
        src_arrays, dst_arrays, senders, receivers = _engines(
            src_desc, dst_desc, g)
        assert all(pp.idx is not None
                   for tx in senders for pp in tx._plan.pairs)
        for step in range(3):
            if armed:
                for rx in receivers:
                    rx.arm()
            for tx in senders:
                tx.step()
            for tx in senders:
                stats = tx.pool.stats
                assert stats.get("loans") == stats.get("releases") > 0
                assert _scribble(tx.pool) > 0
            assert sum(rx.complete(timeout=30) for rx in receivers) == 210
            for d, arr in enumerate(dst_arrays):
                expect = DistributedArray.from_global(dst_desc, d, g)
                assert arr.flat_local().tobytes() == \
                    expect.flat_local().tobytes()
            g = g + 1.0
            for r, arr in enumerate(src_arrays):
                arr.flat_local()[:] = DistributedArray.from_global(
                    src_desc, r, g).flat_local()

    def test_procs_channel(self):
        steps = 3
        res = run_coupled([("prod", 1, _scoped_producer, (steps,)),
                           ("cons", 2, _scoped_consumer, (steps,))],
                          deadlock_timeout=30.0, backend="procs")
        (seen,) = res["prod"]
        for loans, releases, scribbled in seen:
            assert loans == releases > 0
            assert scribbled > 0
        assert res["cons"] == [[True] * steps] * 2


def _close_all(senders, receivers):
    for tx in senders:
        tx.close()
    for rx in receivers:
        rx.close()


class TestRmaEquivalence:
    """One-sided execution tier: the same compiled schedules executed
    as direct window writes must be byte-identical to the two-sided
    ground truth, for every distribution kind."""

    @settings(max_examples=25, deadline=None)
    @given(template_pairs(), st.integers(0, 2 ** 31 - 1))
    def test_rma_steady_state_matches_ground_truth(self, pair, seed):
        src_t, dst_t = pair
        src_desc = DistArrayDescriptor(src_t, np.float64)
        dst_desc = DistArrayDescriptor(dst_t, np.float64)
        rng = np.random.default_rng(seed)
        g = np.asarray(rng.integers(0, 1000, size=src_t.shape),
                       dtype=np.float64)
        src_arrays, dst_arrays, senders, receivers = _rma_engines(
            src_desc, dst_desc, g)
        assert all(tx.tier == "rma" for tx in senders)
        assert all(rx.tier == "rma" for rx in receivers)
        total = int(np.prod(src_t.shape))
        for _i in range(3):
            got = _step(senders, receivers)
            assert got == total
            for d, arr in enumerate(dst_arrays):
                expect = DistributedArray.from_global(dst_desc, d, g)
                assert arr.flat_local().tobytes() == \
                    expect.flat_local().tobytes()
            g = g + 1.0
            for s, arr in enumerate(src_arrays):
                arr.flat_local()[:] = DistributedArray.from_global(
                    src_desc, s, g).flat_local()
        _close_all(senders, receivers)

    def test_rma_steady_state_matches_no_messages(self):
        """The headline property: after bootstrap, RMA steps move data
        with *zero* mailbox matching — the messages_matched counter
        freezes while puts and fences keep counting."""
        src_desc = DistArrayDescriptor(CartesianTemplate([Cyclic(48, 3)]))
        dst_desc = DistArrayDescriptor(CartesianTemplate([Block(48, 4)]))
        g = np.arange(48.0)
        _, _, senders, receivers = _rma_engines(src_desc, dst_desc, g)
        _step(senders, receivers)  # warm-up (bootstrap already drained)
        matched = TRANSPORT_STATS.get("messages_matched")
        puts = TRANSPORT_STATS.get("rma_puts")
        fences = TRANSPORT_STATS.get("rma_fences")
        for _ in range(4):
            _step(senders, receivers)
        assert TRANSPORT_STATS.get("messages_matched") == matched
        assert TRANSPORT_STATS.get("rma_puts") > puts
        assert TRANSPORT_STATS.get("rma_fences") == fences + 4 * 4
        _close_all(senders, receivers)

    def test_rma_zero_steady_state_allocations(self):
        """Index-fragmenting redistributions gather through the pool;
        armed RMA steps must allocate nothing after warm-up."""
        src_desc = DistArrayDescriptor(block_template((6, 8), (1, 2)))
        dst_desc = DistArrayDescriptor(block_template((6, 8), (1, 4)))
        g = np.arange(48.0).reshape(6, 8)
        _, _, senders, receivers = _rma_engines(src_desc, dst_desc, g)
        _step(senders, receivers)
        allocs = [tx.pool.stats.get("allocations") for tx in senders]
        for _ in range(5):
            _step(senders, receivers)
        assert [tx.pool.stats.get("allocations") for tx in senders] == allocs
        _close_all(senders, receivers)

    def test_receiver_array_stays_in_place_through_close(self):
        """The window is an epoch header over the destination array's
        own storage: the array's buffer is the same before bind, after
        steps and after close, and keeps the last step's contents."""
        src_desc = DistArrayDescriptor(CartesianTemplate([Cyclic(24, 2)]))
        dst_desc = DistArrayDescriptor(CartesianTemplate([Block(24, 2)]))
        g = np.arange(24.0)
        sched = build_region_schedule(src_desc, dst_desc)
        src_inters, dst_inters = couple_jobs(Job(2), Job(2))
        dst_arrays = [DistributedArray.allocate(dst_desc, r)
                      for r in range(2)]

        def homes():
            return [arr.flat_local().__array_interface__["data"][0]
                    for arr in dst_arrays]

        before = homes()
        receivers = [bind(sched, "dst", dst_inters[r], dst_arrays[r],
                          tier="rma") for r in range(2)]
        senders = [bind(sched, "src", src_inters[r],
                        DistributedArray.from_global(src_desc, r, g),
                        tier="rma") for r in range(2)]
        _step(senders, receivers)
        assert homes() == before
        _close_all(senders, receivers)
        assert homes() == before
        for d, arr in enumerate(dst_arrays):
            expect = DistributedArray.from_global(dst_desc, d, g)
            assert arr.flat_local().tobytes() == expect.flat_local().tobytes()

    def test_rma_puts_on_the_threads_transport(self):
        """tier="rma" on the plain threads transport puts every pair
        into a heap window over the destination array itself: the
        array stays where it is, and results stay correct."""
        src_desc = DistArrayDescriptor(CartesianTemplate([Cyclic(24, 2)]))
        dst_desc = DistArrayDescriptor(CartesianTemplate([Block(24, 3)]))
        g = np.arange(24.0)
        sched = build_region_schedule(src_desc, dst_desc)
        src_job, dst_job = Job(src_desc.nranks), Job(dst_desc.nranks)
        src_inters, dst_inters = couple_jobs(src_job, dst_job)
        src_arrays = [DistributedArray.from_global(src_desc, r, g)
                      for r in range(src_desc.nranks)]
        dst_arrays = [DistributedArray.allocate(dst_desc, r)
                      for r in range(dst_desc.nranks)]
        homes = [arr.flat_local() for arr in dst_arrays]
        receivers = [bind(sched, "dst", dst_inters[r], dst_arrays[r],
                          tier="rma")
                     for r in range(dst_desc.nranks)]
        senders = [bind(sched, "src", src_inters[r], src_arrays[r],
                        tier="rma")
                   for r in range(src_desc.nranks)]
        assert all(e.tier == "rma" for e in senders + receivers)
        got = _step(senders, receivers)
        assert got == 24
        assert TRANSPORT_STATS.get("rma_puts") > 0
        for d, arr in enumerate(dst_arrays):
            assert arr.flat_local() is homes[d]
            expect = DistributedArray.from_global(dst_desc, d, g)
            assert arr.flat_local().tobytes() == expect.flat_local().tobytes()
        _close_all(senders, receivers)

    def test_rma_env_var_selects_mode(self, monkeypatch):
        """REPRO_TIER=rma turns the one-sided tier on without code
        changes; an explicit tier always wins."""
        monkeypatch.setenv("REPRO_TIER", "rma")
        src_desc = DistArrayDescriptor(CartesianTemplate([Block(12, 2)]))
        dst_desc = DistArrayDescriptor(CartesianTemplate([Block(12, 3)]))
        g = np.arange(12.0)
        sched = build_region_schedule(src_desc, dst_desc)
        src_job, dst_job = Job(2), Job(3)
        src_inters, dst_inters = couple_jobs(src_job, dst_job)
        src_arrays = [DistributedArray.from_global(src_desc, r, g)
                      for r in range(2)]
        dst_arrays = [DistributedArray.allocate(dst_desc, r)
                      for r in range(3)]
        receivers = [bind(sched, "dst", dst_inters[r], dst_arrays[r])
                     for r in range(3)]
        senders = [bind(sched, "src", src_inters[r], src_arrays[r])
                   for r in range(2)]
        assert all(e.tier == "rma" for e in senders + receivers)
        assert _step(senders, receivers) == 12
        _close_all(senders, receivers)
