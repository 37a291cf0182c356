"""Columnar schedules: every builder's columns equal the all-pairs
oracle in wire order, every compiled pair plan expands to the
element-by-element reference, nothing on the build / compile / warm
step path constructs a per-item object, and a pickled schedule is its
columns."""

import pickle

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
    ExplicitTemplate,
    GeneralizedBlock,
)
from repro.schedule import (
    GLOBAL_CACHE,
    PLAN_STATS,
    ScheduleCache,
    bind,
    build_region_schedule,
    compile_delta,
)
from repro.schedule.indexplan import LocalIndexer
from repro.schedule.plan import TransferItem
from repro.simmpi.intercomm import couple_jobs
from repro.simmpi.runner import Job
from repro.util.regions import Region
from repro.verify.schedule import build_allpairs_schedule


@st.composite
def axes(draw, extent, max_procs):
    """One structured axis; ``nprocs`` may exceed the extent (ranks
    owning nothing) and a block size need not divide it."""
    kind = draw(st.sampled_from(
        ["block", "cyclic", "blockcyclic", "genblock", "collapsed"]))
    nprocs = draw(st.integers(1, max_procs))
    if kind == "block":
        return Block(extent, nprocs)
    if kind == "cyclic":
        return Cyclic(extent, nprocs)
    if kind == "blockcyclic":
        return BlockCyclic(extent, nprocs, draw(st.integers(1, extent + 1)))
    if kind == "genblock":   # zero-size blocks included
        cuts = sorted(draw(st.lists(st.integers(0, extent),
                                    min_size=nprocs - 1,
                                    max_size=nprocs - 1)))
        bounds = [0, *cuts, extent]
        return GeneralizedBlock(extent, [b - a for a, b in
                                         zip(bounds, bounds[1:])])
    return Collapsed(extent)


@st.composite
def cartesian(draw, shape):
    max_procs = shape[0] + 2 if len(shape) == 1 else 3
    return DistArrayDescriptor(CartesianTemplate(
        [draw(axes(n, max_procs)) for n in shape]))


@st.composite
def explicit(draw, shape):
    """The cells of a random Cartesian template dealt to random ranks,
    some of which own nothing."""
    cells = draw(cartesian(shape)).template
    nranks = draw(st.integers(1, 5))
    patches = [(draw(st.integers(0, nranks - 1)), reg)
               for _, reg in cells.all_owner_regions()]
    return DistArrayDescriptor(ExplicitTemplate(shape, patches, nranks))


@st.composite
def descriptor_pairs(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, (24, 9, 5)[ndim - 1]))
                  for _ in range(ndim))
    kinds = draw(st.sampled_from(["cc", "ce", "ec", "ee"]))
    return tuple(draw(cartesian(shape) if k == "c" else explicit(shape))
                 for k in kinds[:2])


def _wire_key(it):
    return (it.src, it.dst, it.region.lo)


def _check_plans(sched, src, dst):
    for side, desc, nranks in (("send", src, sched.src_nranks),
                               ("recv", dst, sched.dst_nranks)):
        for r in range(nranks):
            owned = desc.local_regions(r)
            plan = sched.rank_plan(side, r, owned)
            groups = (sched.send_groups(r) if side == "send"
                      else sched.recv_groups(r))
            assert [pp.peer for pp in plan.pairs] == [g[0] for g in groups]
            reference = LocalIndexer(list(owned))
            for pp, (_peer, regions, offsets) in zip(plan.pairs, groups):
                want = np.concatenate(
                    [reference.region_indices(reg) for reg in regions])
                assert pp.size == offsets[-1] == want.size
                np.testing.assert_array_equal(pp.indices(), want)


class TestColumnarBuildersMatchTheOracle:

    @settings(max_examples=80, deadline=None)
    @given(descriptor_pairs(), st.booleans())
    def test_items_and_plans_equal_the_oracle(self, pair, force_general):
        src, dst = pair
        sched = build_region_schedule(src, dst, force_general=force_general)
        oracle = build_allpairs_schedule(src, dst)
        assert len(sched.items) == len(oracle.items)
        assert sched.items == oracle.items
        # the wire order is the (src, dst, lo) sort, receivers by (src, lo)
        items = list(sched.items)
        assert items == sorted(items, key=_wire_key)
        for d in range(dst.nranks):
            got = [(s, reg.lo) for s, reg in sched.recvs_at(d)]
            assert got == sorted(got)
        assert sched.pair_count == len({(it.src, it.dst) for it in items})
        assert sched.element_count == sum(it.region.volume for it in items)
        _check_plans(sched, src, dst)

    def test_owner_regions_are_the_cartesian_product_of_intervals(self):
        from itertools import product
        t = CartesianTemplate([BlockCyclic(11, 2, 3), Cyclic(5, 3),
                               GeneralizedBlock(4, [0, 4, 0])])
        for rank in range(t.nranks):
            per_axis = [a.intervals(c)
                        for a, c in zip(t.axes, t.proc_coords(rank))]
            want = [Region(tuple(a for a, _ in combo),
                           tuple(b for _, b in combo))
                    for combo in product(*per_axis)]
            assert list(t.owner_regions(rank)) == want


@pytest.fixture
def constructed(monkeypatch):
    """Counts of ``Region`` and ``TransferItem`` objects built."""
    counts = {"Region": 0, "TransferItem": 0}
    post_init, init = Region.__post_init__, TransferItem.__init__

    def counted_post_init(self):
        counts["Region"] += 1
        post_init(self)

    def counted_init(self, *args, **kwargs):
        counts["TransferItem"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Region, "__post_init__", counted_post_init)
    monkeypatch.setattr(TransferItem, "__init__", counted_init)
    return counts


def _cyclic(p):
    return DistArrayDescriptor(CartesianTemplate([Cyclic(4800, p)]))


class TestNoObjectPerItem:

    def test_build_len_and_compile_construct_no_item(self, constructed):
        """The compile_cold cyclic 32 -> 48 case: build, ``len(items)``
        and every rank's send and recv plan, all from columns."""
        src, dst = _cyclic(32), _cyclic(48)
        sched = build_region_schedule(src, dst)
        assert len(sched.items) == 4800
        for r in range(src.nranks):
            sched.send_plan(r, src.local_regions(r))
        for r in range(dst.nranks):
            sched.recv_plan(r, dst.local_regions(r))
        assert constructed == {"Region": 0, "TransferItem": 0}
        sched.items[0]   # the counters are live: this materialises
        assert constructed == {"Region": 4800, "TransferItem": 4800}

    def test_warm_cache_bind_step_close_constructs_nothing(self,
                                                         constructed):
        extent = 64 * 37 + 17
        src, dst = (DistArrayDescriptor(CartesianTemplate(
            [BlockCyclic(extent, p, 64)])) for p in (2, 3))
        g = np.random.default_rng(5).random(extent)
        src_inters, dst_inters = couple_jobs(Job(2), Job(3))
        srcs = [DistributedArray.from_global(src, r, g) for r in range(2)]
        dsts = [DistributedArray.allocate(dst, r) for r in range(3)]

        def one_transfer():
            sched = GLOBAL_CACHE.get(src, dst)
            rx = [bind(sched, "dst", dst_inters[r], dsts[r])
                  for r in range(3)]
            tx = [bind(sched, "src", src_inters[r], srcs[r])
                  for r in range(2)]
            for half in rx:
                half.arm()
            for half in tx:
                half.step()
            for half in rx:
                half.complete(timeout=30)
            for half in tx + rx:
                half.close()

        one_transfer()
        constructed.update(Region=0, TransferItem=0)
        for arr in dsts:
            arr.fill(0.0)
        one_transfer()
        assert GLOBAL_CACHE.hits == 1
        assert constructed == {"Region": 0, "TransferItem": 0}
        np.testing.assert_array_equal(DistributedArray.assemble(dsts), g)


def test_pickled_schedule_is_its_columns():
    """A pickle is the schedule's columns and its two ownership tables
    (rank, lo, hi, offset per patch), so an unpickled schedule compiles
    a side in one pass too."""
    src, dst = _cyclic(32), _cyclic(48)
    sched = build_region_schedule(src, dst)
    data = pickle.dumps(sched)
    assert b"TransferItem" not in data and b"Region" not in data
    ndim = 1
    tables = sum(len(t.rank) * (2 + 2 * ndim) * 8 + len(t.starts) * 8
                 for t in sched.owners)
    assert len(data) < len(sched.items) * (2 + 2 * ndim) * 8 + tables + 4096
    back = pickle.loads(data)
    assert back.items == sched.items
    assert back.pair_count == sched.pair_count
    before = PLAN_STATS.get("rank_plans")
    back.send_plan(0, src.local_regions(0))
    assert PLAN_STATS.get("rank_plans") - before == src.nranks
    assert back.element_count == sched.element_count
    # without its tables it compiles one rank from whatever layout form
    # bind passes: a descriptor's whole ownership table
    src = _cyclic(32)
    got = back.send_plan(1, src.ownership())
    want = sched.send_plan(1, src.local_regions(1))
    assert [(p.peer, p.size, p.boxes) for p in got.pairs] == \
        [(p.peer, p.size, p.boxes) for p in want.pairs]
    # memos stay home: a delta split adds no byte
    cache = ScheduleCache()
    cached = cache.get(_cyclic(8), _cyclic(10))
    data = pickle.dumps(cached)
    compile_delta(_cyclic(8), _cyclic(10), cache=cache)
    assert pickle.dumps(cached) == data
