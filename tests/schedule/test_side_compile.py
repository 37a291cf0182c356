"""One-pass side compilation: a schedule that carries its ownership
tables compiles every rank of a side at once, and each rank's plan is
exactly what compiling that rank alone produces — for Cartesian and
explicit templates, dense linearizations and gsmaps; the segmented fold
equals the per-pair loop it replaced; concurrent first binds compile a
side once; a wrong layout is refused; index fallbacks expand only for
the rank that asks."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dad import (CartesianTemplate, Cyclic, DistArrayDescriptor,
                       DistributedArray, ExplicitTemplate, Implicit)
from repro.dad.template import block_template
from repro.errors import ScheduleError
from repro.linearize import DenseLinearization
from repro.linearize.linearization import run_layout
from repro.mct.router import build_gsmap_schedule
from repro.schedule import (PLAN_STATS, build_linear_schedule,
                            build_region_schedule)
from repro.schedule.indexplan import (MAX_BOXES, LocalIndexer, PairPlan,
                                      RankPlan, _box, _compile, _EMPTY,
                                      _expand, _plan, _Unfolded)
from repro.util.regions import Region
from tests.dad.test_template_properties import explicit_templates
from tests.mct.test_gsmap_properties import gsmaps
from tests.schedule.test_redistribution_properties import axis_for


def compile_rank_plan(peers, bounds, lo, hi, layout):
    """The reference: one rank's side (the columns of ``wire``)
    compiled alone, against that rank's own layout."""
    if not isinstance(layout, LocalIndexer):
        layout = LocalIndexer(layout)
    return RankPlan(tuple(map(_plan, _compile(layout, peers, bounds, lo, hi)))
                    if len(peers) else ())


def _key(plan):
    return [(p.peer, p.size, p.boxes,
             None if p.idx is None else p.idx.tolist()) for p in plan.pairs]


def _assert_sides_match(sched, layouts):
    """Every rank's side-compiled plan equals its one-rank compile."""
    assert sched.owners is not None
    for side, nranks, layout_of in (("send", sched.src_nranks, layouts[0]),
                                    ("recv", sched.dst_nranks, layouts[1])):
        for r in range(nranks):
            got = sched.rank_plan(side, r, layout_of(r))
            want = compile_rank_plan(*sched.wire(side, r), layout_of(r))
            assert _key(got) == _key(want), (side, r)
        assert side in sched._side_plans


def _region_layouts(src, dst):
    return src.local_regions, dst.local_regions


@st.composite
def cartesian_pairs(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 9)) for _ in range(ndim))
    return tuple(CartesianTemplate([draw(axis_for(e)) for e in shape])
                 for _ in range(2))


@settings(max_examples=40, deadline=None)
@given(cartesian_pairs(), st.booleans())
def test_cartesian_side_plans_equal_one_rank_compiles(pair, general):
    src, dst = (DistArrayDescriptor(t) for t in pair)
    sched = build_region_schedule(src, dst, force_general=general)
    _assert_sides_match(sched, _region_layouts(src, dst))


@settings(max_examples=30, deadline=None)
@given(explicit_templates(), st.data())
def test_explicit_side_plans_equal_one_rank_compiles(template, data):
    other = CartesianTemplate([data.draw(axis_for(e)) for e in template.shape])
    for src, dst in ((template, other), (other, template)):
        src, dst = DistArrayDescriptor(src), DistArrayDescriptor(dst)
        sched = build_region_schedule(src, dst)
        _assert_sides_match(sched, _region_layouts(src, dst))


def _dense_layout(lin):
    return lambda r: LocalIndexer(*lin.layout(r))


@settings(max_examples=30, deadline=None)
@given(cartesian_pairs())
def test_dense_linear_side_plans_equal_one_rank_compiles(pair):
    src, dst = (DenseLinearization(DistArrayDescriptor(t)) for t in pair)
    sched = build_linear_schedule(src, dst)
    _assert_sides_match(sched, (_dense_layout(src), _dense_layout(dst)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_gsmap_side_plans_equal_one_rank_compiles(data):
    src = data.draw(gsmaps())
    dst = data.draw(gsmaps(gsize=src.gsize))
    sched = build_gsmap_schedule(src, dst)
    _assert_sides_match(sched, tuple(
        (lambda g: lambda r: LocalIndexer(*run_layout(g.runs(r))))(g)
        for g in (src, dst)))


@settings(max_examples=30, deadline=None)
@given(cartesian_pairs())
def test_dense_layout_equals_storage_order(pair):
    """A dense linearization's table, rank by rank, against the linear
    positions a DistributedArray actually stores, read off its flat
    buffer: maximal runs contiguous in both spaces."""
    desc = DistArrayDescriptor(pair[0])
    lin = DenseLinearization(desc)
    positions = np.arange(lin.total).reshape(desc.shape)
    for r in range(desc.nranks):
        stored = DistributedArray.from_global(
            desc, r, positions.astype(desc.dtype)).flat_local().astype(int)
        start = np.flatnonzero(np.diff(stored, prepend=-2) != 1)
        stop = np.append(start, len(stored))[1:]
        order = np.argsort(stored[start])
        regions, offsets = lin.layout(r)
        np.testing.assert_array_equal(regions.lo[:, 0], stored[start][order])
        np.testing.assert_array_equal(regions.hi[:, 0],
                                      stored[stop - 1][order] + 1)
        np.testing.assert_array_equal(offsets, start[order])


# -- the segmented fold against the per-pair loop it replaced ----------------

def _fold_reference(lo, shape, strides):
    """One folding level of a single pair, greedy in a Python loop."""
    k = len(lo)
    delta = np.diff(lo)
    same = ((shape[1:] == shape[:-1]).all(axis=1)
            & (strides[1:] == strides[:-1]).all(axis=1) & (delta > 0))
    link = np.where(same, delta, 0)
    cuts = np.flatnonzero(link[1:] != link[:-1]) + 1
    first, last = [], []
    a = 0
    starts = [0, *cuts.tolist()]
    for gs, ge, chained in zip(starts, [*starts[1:], k - 1],
                               link[starts].tolist()):
        if not chained:
            first += [a, *range(gs + 1, ge)]
            last += [gs, *range(gs + 1, ge)]
            a = ge
        elif a < gs:
            first.append(a)
            last.append(gs)
            a = gs + 1
    first.append(a)
    last.append(k - 1)
    first = np.asarray(first)
    count = np.asarray(last) - first + 1
    step = np.where(count > 1, lo[np.minimum(first + 1, k - 1)] - lo[first], 0)
    return (lo[first], np.column_stack((count, shape[first])),
            np.column_stack((step, strides[first])))


def _pair_reference(peer, lo, shape, strides):
    size = int(shape.prod(axis=1).sum())
    rows = (lo, shape, strides)
    while len(rows[0]) > 1:
        folded = _fold_reference(*rows)
        if len(folded[0]) == len(rows[0]):
            break
        rows = folded
    if len(rows[0]) > MAX_BOXES:
        return PairPlan(peer, size, (), _expand(lo, shape, strides))
    boxes = [_box(*raw) for raw in zip(
        rows[0].tolist(), rows[1].tolist(), rows[2].tolist())]
    return PairPlan(peer, size, tuple(b for b in boxes if b.size) or (_EMPTY,))


class _Given:
    """An indexer that locates every row where the test says it is."""

    def __init__(self, rows):
        self.rows = rows

    def cut(self, lo, hi, bounds):
        return lo, hi, bounds

    def locate(self, lo, hi, ranks=None):
        return self.rows


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_segmented_fold_equals_per_pair_loop(data):
    sizes = data.draw(st.lists(st.integers(1, 14), min_size=1, max_size=6))
    k, m = sum(sizes), data.draw(st.integers(1, 2))
    deltas = data.draw(st.lists(st.sampled_from([-3, 0, 1, 2, 2, 3, 3, 5]),
                                min_size=k, max_size=k))
    lo = np.cumsum(np.asarray(deltas, dtype=np.int64)) + 20
    shape = np.asarray(data.draw(st.lists(
        st.lists(st.sampled_from([1, 2, 2]), min_size=m, max_size=m),
        min_size=k, max_size=k)), dtype=np.int64)
    strides = np.asarray(data.draw(st.lists(
        st.lists(st.sampled_from([1, 1, 4]), min_size=m, max_size=m),
        min_size=k, max_size=k)), dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    peers = np.arange(len(sizes))
    got = [_plan(p) for p in _compile(_Given((lo, shape, strides)), peers,
                                      bounds, lo[:, None], lo[:, None] + 1)]
    for g, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        want = _pair_reference(g, lo[a:b], shape[a:b], strides[a:b])
        assert (got[g].peer, got[g].size, got[g].boxes) == \
            (want.peer, want.size, want.boxes)
        assert (got[g].idx is None) == (want.idx is None)
        if want.idx is not None:
            np.testing.assert_array_equal(got[g].idx, want.idx)


# -- binding: once per side, checked layouts, per-rank index fallbacks -------

def test_concurrent_first_binds_compile_the_side_once():
    """Eight threads ask for their ranks' plans of one fresh schedule at
    once: the side compiles exactly once, so ``rank_plans`` rises by
    the side's rank count, and every thread gets its own rank's plan."""
    src = DistArrayDescriptor(CartesianTemplate([Cyclic(96, 8)]))
    dst = DistArrayDescriptor(block_template((96,), (3,)))
    sched = build_region_schedule(src, dst)
    barrier = threading.Barrier(8)
    plans = [None] * 8

    def bind(rank):
        barrier.wait(timeout=10)
        plans[rank] = sched.send_plan(rank, src.local_regions(rank))

    before = PLAN_STATS.get("rank_plans")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bind, args=(r,)) for r in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert PLAN_STATS.get("rank_plans") - before == src.nranks
    for r, plan in enumerate(plans):
        assert _key(plan) == _key(compile_rank_plan(
            *sched.wire("send", r), src.local_regions(r)))


def test_layout_must_be_the_ranks_ownership():
    src = DistArrayDescriptor(CartesianTemplate([Cyclic(24, 3)]))
    dst = DistArrayDescriptor(block_template((24,), (4,)))
    sched = build_region_schedule(src, dst)
    with pytest.raises(ScheduleError, match="not the ownership"):
        sched.send_plan(0, src.local_regions(1))
    with pytest.raises(ScheduleError, match="not the ownership"):
        sched.recv_plan(2, [Region((12,), (17,))])
    # an equal layout in another form is accepted, before and after
    # the plan is cached
    for _ in range(2):
        sched.recv_plan(2, [Region((12,), (18,))])
    with pytest.raises(ScheduleError, match="not the ownership"):
        sched.recv_plan(2, dst.local_regions(3))


def test_accepted_layouts_answer_without_comparing_and_wrong_ones_raise(
        monkeypatch):
    """The check's two fast paths — the layout last accepted for a
    (side, rank), and the ownership table of any descriptor of the
    schedule's template — build no indexer; a layout that differs from
    the table still raises, fresh or after a correct one was accepted
    for the same (side, rank), in either form."""
    from repro.schedule import indexplan

    src = DistArrayDescriptor(CartesianTemplate([Cyclic(24, 3)]))
    dst = DistArrayDescriptor(block_template((24,), (4,)))
    sched = build_region_schedule(src, dst)
    twin = DistArrayDescriptor(CartesianTemplate([Cyclic(24, 3)]))
    other = DistArrayDescriptor(block_template((24,), (3,)))
    assert twin.ownership() is not src.ownership()
    # a fresh wrong layout, as regions and as another template's table
    with pytest.raises(ScheduleError, match="not the ownership"):
        sched.send_plan(1, other.local_regions(1))
    with pytest.raises(ScheduleError, match="not the ownership"):
        sched.send_plan(1, other.ownership())
    sched.send_plan(1, twin.local_regions(1))   # compared once, accepted

    class NoIndexer(LocalIndexer):
        def __init__(self, *args, **kwargs):
            raise AssertionError("an accepted layout built a LocalIndexer")

    monkeypatch.setattr(indexplan, "LocalIndexer", NoIndexer)
    for _ in range(2):
        sched.send_plan(1, twin.local_regions(1))   # the one last accepted
    for layout in (twin.ownership(), src.ownership(), twin.ownership()):
        sched.send_plan(1, layout)                  # the template's key
    monkeypatch.undo()
    # a wrong layout on the same (side, rank) after the correct ones
    for wrong in (other.ownership(), src.local_regions(2),
                  [Region((0,), (24,))]):
        with pytest.raises(ScheduleError, match="not the ownership"):
            sched.send_plan(1, wrong)
    sched.send_plan(1, twin.local_regions(1))


def test_rows_must_lie_in_their_own_ranks_patches():
    """Against the all-ranks table a row that another rank owns is
    refused exactly as a one-rank compile refuses it."""
    src = DistArrayDescriptor(block_template((12, 8), (3, 1)))
    dst = DistArrayDescriptor(block_template((12, 8), (1, 2)))
    sched = build_region_schedule(src, dst)
    moved = sched.src.copy()
    moved[sched.src == 0] = 1
    bad = type(sched).from_columns(moved, sched.dst, sched.lo, sched.hi,
                                   sched.src_nranks, sched.dst_nranks,
                                   sched.owners)
    for r in (1, 0):
        with pytest.raises(ScheduleError, match="not contained"):
            bad.send_plan(r, src.local_regions(r))
    with pytest.raises(ScheduleError, match="not contained"):
        compile_rank_plan(*bad.wire("send", 1), src.local_regions(1))
    assert len(bad.recv_plan(0, dst.local_regions(0)).pairs) == 2


def test_index_fallbacks_expand_only_for_the_asking_rank():
    """Irregular Implicit-axis runs do not fold into MAX_BOXES boxes:
    those pairs stay located rows until their own rank asks."""
    owners = np.random.default_rng(7).integers(0, 3, 240)
    src = DistArrayDescriptor(CartesianTemplate([Implicit(owners, 3)]))
    dst = DistArrayDescriptor(block_template((240,), (2,)))
    sched = build_region_schedule(src, dst)
    plan = sched.send_plan(0, src.local_regions(0))
    assert any(p.idx is not None for p in plan.pairs)
    side = sched._side_plans["send"]
    for r in (1, 2):
        mine = side._pairs[side._starts[r]:side._starts[r + 1]]
        assert any(isinstance(p, _Unfolded) for p in mine)
        assert all(isinstance(p, _Unfolded) or p.idx is None for p in mine)
    assert _key(sched.send_plan(1, src.local_regions(1))) == _key(
        compile_rank_plan(*sched.wire("send", 1), src.local_regions(1)))


def test_misaligned_explicit_tiling_scans_a_whole_side():
    """Bricks whose vertical edges never line up between rows: the
    all-ranks cell table would be far larger than the patch count, so
    the side's indexer scans — vectorised — and still compiles every
    rank's plan exactly as a one-rank compile does."""
    rng = np.random.default_rng(3)
    rows, width = 300, 1000
    patches = []
    for i in range(rows):
        cuts = [0, *sorted(rng.choice(np.arange(1, width), 2,
                                      replace=False).tolist()), width]
        patches += [(int(rng.integers(0, 4)), Region((i, a), (i + 1, b)))
                    for a, b in zip(cuts[:-1], cuts[1:])]
    src = DistArrayDescriptor(ExplicitTemplate((rows, width), patches, 4))
    dst = DistArrayDescriptor(block_template((rows, width), (2, 2)))
    sched = build_region_schedule(src, dst)
    indexer = LocalIndexer(src.ownership())
    indexer.locate(src.ownership().lo[:1], src.ownership().hi[:1])
    assert indexer._cells is None
    _assert_sides_match(sched, _region_layouts(src, dst))


def test_import_repro_does_not_load_networkx():
    """Only the graph and tree code needs networkx."""
    code = "import sys, repro; assert 'networkx' not in sys.modules"
    src = Path(__file__).resolve().parents[2] / "src"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(src)})
