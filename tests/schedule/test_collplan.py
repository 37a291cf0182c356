"""Memory-bounded collective round planner: static plan invariants,
cost-model dispatch, cache keying, and byte-identity with ground truth
on both execution backends."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dad import (
    Block,
    BlockCyclic,
    CartesianTemplate,
    Collapsed,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
    GeneralizedBlock,
)
from repro.errors import ScheduleError
from repro.schedule import (
    GLOBAL_CACHE,
    PLAN_STATS,
    bind,
    build_region_schedule,
    estimate,
    execute_intra,
    plan_collective_rounds,
)
from repro.schedule.executor import ACK_TAG_OFFSET, resolve_tier
from repro.simmpi import run_spmd
from repro.simmpi.intercomm import couple_jobs
from repro.simmpi.runner import Job
from repro.util.counters import TRANSPORT_STATS


def _cart(*axes):
    return DistArrayDescriptor(CartesianTemplate(list(axes)))


def _fanout_pair(extent=96, m=4, n=3):
    return _cart(Cyclic(extent, m)), _cart(Block(extent, n))


# -- static plan invariants ----------------------------------------------------


def test_chunks_tile_every_pair_exactly():
    src, dst = _fanout_pair()
    sched = build_region_schedule(src, dst)
    coll = plan_collective_rounds(sched, itemsize=8, round_bytes=64)
    by_pair = {}
    for rnd, chunks in enumerate(coll.rounds):
        for c in chunks:
            by_pair.setdefault((c.src, c.dst), []).append((c.lo, c.hi, rnd))
    for s in range(sched.src_nranks):
        for d, _items, offsets in sched.send_groups(s):
            spans = sorted(by_pair.pop((s, d)))
            assert spans[0][0] == 0
            assert spans[-1][1] == int(offsets[-1])
            for (alo, ahi, ar), (blo, bhi, br) in zip(spans, spans[1:]):
                assert ahi == blo, "chunks must tile without gap/overlap"
                assert ar < br, "a pair's chunks must stay in round order"
    assert not by_pair, "planner invented pairs the schedule doesn't have"


def test_per_round_caps_hold_both_directions():
    src, dst = _fanout_pair(extent=120, m=5, n=4)
    sched = build_region_schedule(src, dst)
    cap_elems = 128 // 8
    coll = plan_collective_rounds(sched, itemsize=8, round_bytes=128)
    for rnd, chunks in enumerate(coll.rounds):
        sent, recvd = {}, {}
        for c in chunks:
            sent[c.src] = sent.get(c.src, 0) + c.size
            recvd[c.dst] = recvd.get(c.dst, 0) + c.size
        assert all(v <= cap_elems for v in sent.values())
        assert all(v <= cap_elems for v in recvd.values())
    assert coll.peak_send_bytes <= 128
    assert coll.peak_recv_bytes <= 128


def test_plan_is_deterministic_and_conserves_bytes():
    src, dst = _fanout_pair()
    sched = build_region_schedule(src, dst)
    a = plan_collective_rounds(sched, itemsize=8, round_bytes=96)
    b = plan_collective_rounds(sched, itemsize=8, round_bytes=96)
    assert a.rounds == b.rounds
    assert a.element_count == sched.element_count
    assert a.nbytes == sched.nbytes(np.float64)


def test_resident_ceiling_is_twice_the_inflight_bound():
    src, dst = _fanout_pair()
    sched = build_region_schedule(src, dst)
    coll = plan_collective_rounds(sched, itemsize=8, round_bytes=64)
    assert coll.resident_ceiling() == 2 * coll.inflight_bound()
    # the in-flight bound is independent of the pair count: one round's
    # send load per source, so at most src_nranks * round_bytes.
    assert coll.inflight_bound() <= sched.src_nranks * 64


def test_oversized_element_still_moves():
    src, dst = _fanout_pair(extent=8, m=2, n=2)
    sched = build_region_schedule(src, dst)
    coll = plan_collective_rounds(sched, itemsize=8, round_bytes=4)
    assert coll.element_count == sched.element_count
    assert all(c.size == 1 for r in coll.rounds for c in r)


def test_plan_rejects_nonpositive_parameters():
    src, dst = _fanout_pair()
    sched = build_region_schedule(src, dst)
    with pytest.raises(ScheduleError):
        plan_collective_rounds(sched, itemsize=0, round_bytes=64)
    with pytest.raises(ScheduleError):
        plan_collective_rounds(sched, itemsize=8, round_bytes=0)


def test_collective_plan_memoized_on_schedule():
    src, dst = _fanout_pair()
    sched = build_region_schedule(src, dst)
    assert sched.collective_plan(8, 64) is sched.collective_plan(8, 64)
    assert sched.collective_plan(8, 64) is not sched.collective_plan(8, 128)


# -- tier resolution and the cost model ----------------------------------------


_T, _R, _C = "two_sided", "rma", "collective"

#: ``tier`` request -> schedule -> resolved kind for (a persistent
#: transfer on procs, a persistent transfer on threads, a one-shot on
#: either).  The comments name the old ``(rma, planner)`` knob pair each
#: request replaces; ``(1, auto)`` has no successor.  Only threads
#: cannot attach windows, so a persistent ``rma`` request there — and
#: nothing else — falls back and counts one ``rma_fallbacks``.
TIER_TABLE = {
    "two_sided": {"small": (_T, _T, _T), "fanout": (_T, _T, _T)},   # 0, p2p
    "rma": {"small": (_R, _T, _T), "fanout": (_R, _T, _T)},         # 1, p2p
    "collective": {"small": (_C, _C, _C), "fanout": (_C, _C, _C)},  # *, coll.
    "auto": {"small": (_T, _T, _T), "fanout": (_C, _C, _C)},        # 0, auto
}


def _tier_schedules():
    small = build_region_schedule(*_fanout_pair(extent=96, m=4, n=3))
    # a wire volume past the 1 MiB default ceiling, cheap to build
    fanout = build_region_schedule(_cart(BlockCyclic(400_000, 4, 64)),
                                   _cart(Block(400_000, 6)))
    return {"small": small, "fanout": fanout}


def _resolve_every_request(comm, schedules):
    out = {}
    for request in TIER_TABLE:
        for name, sched in schedules.items():
            for one_shot in (False, True):
                before = TRANSPORT_STATS.get("rma_fallbacks")
                kind = resolve_tier(sched, 8, comm, tier=request,
                                    one_shot=one_shot).kind
                out[request, name, one_shot] = (
                    kind, TRANSPORT_STATS.get("rma_fallbacks") - before)
    return out


def test_cost_model_picks_two_sided_on_small_and_collective_on_fanout():
    schedules = _tier_schedules()
    assert estimate(schedules["small"], 8).chosen == "two_sided"
    big = schedules["fanout"]
    est = estimate(big, 8)
    assert est.p2p_peak_bytes == 2 * big.nbytes(np.float64)
    assert est.coll_peak_bytes < est.p2p_peak_bytes
    assert est.chosen == "collective"


@pytest.mark.parametrize("backend", ["threads", "procs"],
                         ids=["backend-threads", "backend-procs"])
def test_resolve_tier_table(monkeypatch, backend):
    monkeypatch.delenv("REPRO_TIER", raising=False)
    monkeypatch.delenv("REPRO_ROUND_BYTES", raising=False)
    (got,) = run_spmd(1, _resolve_every_request, _tier_schedules(),
                      backend=backend)
    column = 0 if backend == "procs" else 1
    for (request, name, one_shot), (kind, fallbacks) in got.items():
        procs, threads, once = TIER_TABLE[request][name]
        want = once if one_shot else (procs, threads)[column]
        assert kind == want, (request, name, one_shot)
        assert fallbacks == int(not one_shot and backend == "threads"
                                and procs != threads), (request, name)
    assert len(got) == len(TIER_TABLE) * 2 * 2


# -- schedule-cache keying ------------------------------------------------------


# -- intra-communicator execution ------------------------------------------------


@st.composite
def axis_for(draw, extent):
    kind = draw(st.sampled_from(
        ["collapsed", "block", "cyclic", "block_cyclic", "genblock"]))
    if kind == "collapsed":
        return Collapsed(extent)
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
    shape = tuple(draw(st.integers(2, 8)) for _ in range(ndim))
    src = CartesianTemplate([draw(axis_for(e)) for e in shape])
    dst = CartesianTemplate([draw(axis_for(e)) for e in shape])
    return src, dst


@pytest.mark.parametrize(
    "backend", ["threads", "procs"],
    ids=["backend-threads", "backend-procs"])
@settings(max_examples=6, deadline=None)
@given(template_pairs(), st.integers(0, 2 ** 31 - 1))
def test_collective_redistribution_is_lossless(backend, pair, seed):
    """Byte-identity with ground truth for the collective planner on
    both backends, with a tiny round size so every case actually
    decomposes into multiple rounds."""
    src_t, dst_t = pair
    g = np.asarray(
        np.random.default_rng(seed).integers(0, 1000, size=src_t.shape),
        dtype=np.float64)
    src_desc = DistArrayDescriptor(src_t, np.float64)
    dst_desc = DistArrayDescriptor(dst_t, np.float64)
    sched = build_region_schedule(src_desc, dst_desc)
    n = max(src_desc.nranks, dst_desc.nranks)

    def main(comm):
        src = (DistributedArray.from_global(src_desc, comm.rank, g)
               if comm.rank < src_desc.nranks else None)
        dst = (DistributedArray.allocate(dst_desc, comm.rank)
               if comm.rank < dst_desc.nranks else None)
        execute_intra(sched, comm, src_array=src, dst_array=dst,
                      src_ranks=range(src_desc.nranks),
                      dst_ranks=range(dst_desc.nranks),
                      tier="collective", round_bytes=64)
        return dst

    parts = [p for p in run_spmd(n, main, backend=backend)
             if p is not None]
    np.testing.assert_array_equal(DistributedArray.assemble(parts), g)


def test_intra_collective_matches_p2p_exactly():
    src_desc, dst_desc = _fanout_pair(extent=96, m=4, n=4)
    g = np.arange(96.0)
    sched = build_region_schedule(src_desc, dst_desc)

    def run(tier):
        def main(comm):
            src = DistributedArray.from_global(src_desc, comm.rank, g)
            dst = DistributedArray.allocate(dst_desc, comm.rank)
            execute_intra(sched, comm, src_array=src, dst_array=dst,
                          src_ranks=range(4), dst_ranks=range(4),
                          tier=tier, round_bytes=64)
            return dst
        return DistributedArray.assemble(run_spmd(4, main))

    np.testing.assert_array_equal(run("two_sided"), run("collective"))


# -- inter-communicator engines ---------------------------------------------------


def _build_engines(src_desc, dst_desc, g, round_bytes, tag=610):
    sched = build_region_schedule(src_desc, dst_desc)
    itemsize = np.dtype(src_desc.dtype).itemsize
    coll = sched.collective_plan(itemsize, round_bytes)
    src_job, dst_job = Job(src_desc.nranks), Job(dst_desc.nranks)
    src_inters, dst_inters = couple_jobs(src_job, dst_job)
    srcs = [DistributedArray.from_global(src_desc, r, g)
            for r in range(src_desc.nranks)]
    dsts = [DistributedArray.allocate(dst_desc, r)
            for r in range(dst_desc.nranks)]
    bound = dict(tag=tag, tier="collective", round_bytes=round_bytes)
    senders = [bind(sched, "src", src_inters[r], srcs[r], **bound)
               for r in range(src_desc.nranks)]
    receivers = [bind(sched, "dst", dst_inters[r], dsts[r], **bound)
                 for r in range(dst_desc.nranks)]
    return sched, coll, senders, receivers, dsts


def _step_engines(coll, senders, receivers):
    """One full snapshot, single-threaded lockstep: round 0 sends need
    no acks; recv_round queues the acks that the next send_round (or
    finish) drains."""
    received = 0
    for rnd in range(coll.nrounds):
        for tx in senders:
            tx.send_round(rnd)
        for rx in receivers:
            received += rx.recv_round(rnd)
    for tx in senders:
        tx.finish()
    return received


def test_inter_engines_byte_identity_and_round_count():
    src_desc, dst_desc = _fanout_pair(extent=480, m=4, n=3)
    g = np.arange(480.0)
    _sched, coll, senders, receivers, dsts = _build_engines(
        src_desc, dst_desc, g, round_bytes=256)
    received = _step_engines(coll, senders, receivers)
    assert coll.nrounds > 1
    assert received == 480
    np.testing.assert_array_equal(DistributedArray.assemble(dsts), g)
    assert ACK_TAG_OFFSET == 1  # ack stream stays clear of the data tag


def test_inter_engines_peak_resident_within_static_ceiling():
    src_desc, dst_desc = _fanout_pair(extent=480, m=4, n=3)
    g = np.arange(480.0)
    sched, coll, senders, receivers, _dsts = _build_engines(
        src_desc, dst_desc, g, round_bytes=256)
    _step_engines(coll, senders, receivers)  # warm the pools
    TRANSPORT_STATS.reset()  # fully drained: gauges level at zero
    _step_engines(coll, senders, receivers)
    peak = TRANSPORT_STATS.get("peak_resident_bytes")
    ack_slack = 512 * sched.pair_count
    assert 0 < peak <= coll.resident_ceiling() + ack_slack


def test_inter_engines_reuse_pools_after_warmup():
    src_desc, dst_desc = _fanout_pair(extent=480, m=4, n=3)
    g = np.arange(480.0)
    _sched, coll, senders, receivers, _dsts = _build_engines(
        src_desc, dst_desc, g, round_bytes=256)
    _step_engines(coll, senders, receivers)
    allocs0 = sum(tx.pool.stats.get("allocations") for tx in senders)
    assert allocs0 > 0
    _step_engines(coll, senders, receivers)
    assert sum(tx.pool.stats.get("allocations")
               for tx in senders) == allocs0


def _coupler_round_trip(tier):
    from repro.highlevel import Coupler
    from repro.simmpi import NameService, run_coupled

    src_desc, dst_desc = _fanout_pair(extent=480, m=3, n=4)
    g = np.arange(480.0)
    ns = NameService()

    def producer(comm):
        coupler = Coupler("field", ns)
        darray = DistributedArray.from_global(src_desc, comm.rank, g)
        ch = coupler.open(comm, "source", darray, tier=tier)
        assert ch.mode == tier
        for _ in range(2):
            ch.push()
        return ch.transfers

    def consumer(comm):
        coupler = Coupler("field", ns)
        ch = coupler.open(comm, "destination", dst_desc, tier=tier)
        assert ch.mode == tier
        for _ in range(2):
            out = ch.pull()
        return out

    out = run_coupled([("p", 3, producer, ()), ("c", 4, consumer, ())])
    assert out["p"] == [2, 2, 2]
    np.testing.assert_array_equal(
        DistributedArray.assemble(out["c"]), g)


def test_coupler_collective_round_trip():
    _coupler_round_trip("collective")


def test_one_template_pair_is_one_cache_entry_under_both_planners():
    """§2.3 reuse: the tier is not part of the cache key, so opening
    the same template pair under ``two_sided`` then ``collective`` builds
    one schedule and compiles its rank plans once."""
    GLOBAL_CACHE.clear()
    _coupler_round_trip("two_sided")
    first, plans = GLOBAL_CACHE.stats(), PLAN_STATS.get("rank_plans")
    assert (first["entries"], first["misses"], first["hits"]) == (1, 1, 6)
    assert plans == 7  # one per (side, rank)
    _coupler_round_trip("collective")
    second = GLOBAL_CACHE.stats()
    assert (second["entries"], second["misses"], second["hits"]) == (1, 1, 13)
    assert PLAN_STATS.get("rank_plans") == plans
