"""Compiled copy plans: plan-based pack/unpack must be byte-identical
to the region-loop reference path, regular pairs must compile to strided
boxes (contiguous exactly when a pair's regions flatten to one range)
and never to an index array, and compilation must happen once per
schedule under repeated transfers."""

import pickle

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
from repro.dad.template import block_template
from repro.errors import ScheduleError
from repro.linearize import DenseLinearization, Run
from repro.schedule import (
    PLAN_STATS,
    bind,
    build_linear_schedule,
    build_region_schedule,
    execute_intra,
    pack_regions,
    region_offsets,
    unpack_regions,
)
from repro.schedule.indexplan import MAX_BOXES, Box, PairPlan
from repro.simmpi import run_spmd
from repro.simmpi.intercomm import couple_jobs
from repro.simmpi.rma import WindowHandle
from repro.simmpi.runner import Job
from repro.util.counters import TRANSPORT_STATS
from repro.util.regions import RegionList


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


class TestPlanLoopEquivalence:
    """Plan gather/scatter vs the region-loop pack/unpack reference."""

    @settings(max_examples=40, deadline=None)
    @given(template_pairs(), st.integers(0, 2 ** 31 - 1))
    def test_gather_matches_pack_regions(self, pair, seed):
        src_t, dst_t = pair
        g = np.asarray(
            np.random.default_rng(seed).integers(0, 1000, size=src_t.shape),
            dtype=np.float64)
        src_desc = DistArrayDescriptor(src_t, np.float64)
        dst_desc = DistArrayDescriptor(dst_t, np.float64)
        sched = build_region_schedule(src_desc, dst_desc)
        for s in range(src_desc.nranks):
            arr = DistributedArray.from_global(src_desc, s, g)
            flat = arr.flat_local()
            plan = sched.send_plan(s, src_desc.local_regions(s))
            groups = sched.send_groups(s)
            assert len(plan.pairs) == len(groups)
            for pp, (d, regions, offsets) in zip(plan.pairs, groups):
                assert pp.peer == d
                loop_buf = pack_regions(arr, regions, offsets)
                np.testing.assert_array_equal(pp.gather(flat), loop_buf)

    @settings(max_examples=40, deadline=None)
    @given(template_pairs(), st.integers(0, 2 ** 31 - 1))
    def test_scatter_matches_unpack_regions(self, pair, seed):
        src_t, dst_t = pair
        g = np.asarray(
            np.random.default_rng(seed).integers(0, 1000, size=src_t.shape),
            dtype=np.float64)
        src_desc = DistArrayDescriptor(src_t, np.float64)
        dst_desc = DistArrayDescriptor(dst_t, np.float64)
        sched = build_region_schedule(src_desc, dst_desc)
        src_full = DistributedArray.from_global(
            DistArrayDescriptor(src_t, np.float64), 0, g) \
            if src_desc.nranks == 1 else None
        for d in range(dst_desc.nranks):
            via_plan = DistributedArray.allocate(dst_desc, d)
            via_loop = DistributedArray.allocate(dst_desc, d)
            plan = sched.recv_plan(d, dst_desc.local_regions(d))
            flat = via_plan.flat_local()
            for pp, (s, regions, offsets) in zip(plan.pairs,
                                                 sched.recv_groups(d)):
                # the wire buffer the source side would produce
                src_arr = src_full if src_full is not None and s == 0 else \
                    DistributedArray.from_global(src_desc, s, g)
                send_groups = {
                    dd: (rr, oo)
                    for dd, rr, oo in sched.send_groups(s)}
                s_regions, s_offsets = send_groups[d]
                buf = pack_regions(src_arr, s_regions, s_offsets)
                assert pp.scatter(flat, buf) == buf.size
                unpack_regions(via_loop, regions, buf, offsets)
            assert via_plan.flat_local().tobytes() == \
                via_loop.flat_local().tobytes()

    @settings(max_examples=25, deadline=None)
    @given(template_pairs(), st.integers(0, 2 ** 31 - 1))
    def test_dense_linearization_extract_inject(self, pair, seed):
        """extract(run) must equal the global row-major slice, and
        inject must invert it — across random linearization runs."""
        src_t, dst_t = pair
        g = np.asarray(
            np.random.default_rng(seed).integers(0, 1000, size=src_t.shape),
            dtype=np.float64)
        desc = DistArrayDescriptor(src_t, np.float64)
        lin = DenseLinearization(desc)
        dst_lin = DenseLinearization(DistArrayDescriptor(dst_t, np.float64))
        sched = build_linear_schedule(lin, dst_lin)
        gflat = g.reshape(-1)
        arrays = {r: DistributedArray.from_global(desc, r, g)
                  for r in range(desc.nranks)}
        back = {r: DistributedArray.allocate(desc, r)
                for r in range(desc.nranks)}
        for it in sched.items:
            run = Run(it.region.lo[0], it.region.hi[0])
            values = lin.extract(it.src, run, arrays[it.src])
            np.testing.assert_array_equal(values, gflat[run.lo:run.hi])
            lin.inject(it.src, run, values, back[it.src])
        for r in range(desc.nranks):
            assert back[r].flat_local().tobytes() == \
                arrays[r].flat_local().tobytes()


class TestContiguityFastPath:
    def test_block_templates_compile_to_slices(self):
        """1-D block → block: every pair's regions flatten to one
        ascending range, so no plan materializes an index array."""
        src = DistArrayDescriptor(block_template((24,), (3,)))
        dst = DistArrayDescriptor(block_template((24,), (4,)))
        sched = build_region_schedule(src, dst)
        for s in range(src.nranks):
            plan = sched.send_plan(s, src.local_regions(s))
            assert plan.contiguous_pairs == len(plan.pairs)
            assert all(p.idx is None for p in plan.pairs)
        for d in range(dst.nranks):
            plan = sched.recv_plan(d, dst.local_regions(d))
            assert plan.contiguous_pairs == len(plan.pairs)

    def test_contiguous_gather_is_zero_copy_view(self):
        src = DistArrayDescriptor(block_template((24,), (3,)))
        dst = DistArrayDescriptor(block_template((24,), (4,)))
        sched = build_region_schedule(src, dst)
        arr = DistributedArray.from_global(
            src, 0, np.arange(24.0))
        flat = arr.flat_local()
        plan = sched.send_plan(0, src.local_regions(0))
        buf = plan.pairs[0].gather(flat)
        assert buf.base is not None and np.shares_memory(buf, flat)

    def test_cyclic_pairs_compile_to_strided_slices(self):
        """Block → cyclic: each destination picks every other element
        out of the source's contiguous patch — an arithmetic progression
        that compiles to a one-axis box ``shape=(n,) strides=(k,)``, so
        the gather stays a zero-copy view (and still packs the same
        bytes as the loop)."""
        src = DistArrayDescriptor(block_template((12,), (2,)))
        dst = DistArrayDescriptor(CartesianTemplate([Cyclic(12, 2)]))
        sched = build_region_schedule(src, dst)
        plan = sched.send_plan(0, src.local_regions(0))
        assert [p.boxes for p in plan.pairs] == [
            (Box(0, (3,), (2,)),), (Box(1, (3,), (2,)),)]
        assert plan.contiguous_pairs == 0
        assert all(isinstance(p.selector, slice) for p in plan.pairs)
        arr = DistributedArray.from_global(src, 0, np.arange(12.0))
        flat = arr.flat_local()
        for pp, (_d, regions, offsets) in zip(plan.pairs,
                                              sched.send_groups(0)):
            np.testing.assert_array_equal(
                pp.gather(flat),
                pack_regions(arr, regions, offsets))
            if pp.idx is None:
                assert np.shares_memory(pp.gather(flat), flat)

    def test_2d_row_block_is_contiguous(self):
        """Full-width row blocks of a 2-D array are contiguous in the
        row-major local buffer even though they are 2-D regions."""
        src = DistArrayDescriptor(block_template((8, 6), (2, 1)))
        dst = DistArrayDescriptor(block_template((8, 6), (4, 1)))
        sched = build_region_schedule(src, dst)
        for s in range(src.nranks):
            plan = sched.send_plan(s, src.local_regions(s))
            assert plan.contiguous_pairs == len(plan.pairs)

    def test_2d_column_split_is_not_contiguous(self):
        src = DistArrayDescriptor(block_template((6, 8), (1, 2)))
        dst = DistArrayDescriptor(block_template((6, 8), (1, 4)))
        sched = build_region_schedule(src, dst)
        plan = sched.send_plan(0, src.local_regions(0))
        # each destination's columns stride across the local rows: a
        # two-axis box over the (6, 4) patch, not an index array
        assert [p.boxes for p in plan.pairs] == [
            (Box(0, (6, 2), (4, 1)),), (Box(2, (6, 2), (4, 1)),)]
        assert plan.contiguous_pairs == 0
        assert all(p.idx is None for p in plan.pairs)
        # a multi-axis box has no slice form: its selector materializes
        np.testing.assert_array_equal(
            plan.pairs[1].selector, [2, 3, 6, 7, 10, 11, 14, 15, 18, 19,
                                     22, 23])

    def test_scatter_size_mismatch_rejected(self):
        src = DistArrayDescriptor(block_template((8,), (2,)))
        sched = build_region_schedule(src, src)
        plan = sched.send_plan(0, src.local_regions(0))
        arr = DistributedArray.allocate(src, 0)
        with pytest.raises(ScheduleError):
            plan.pairs[0].scatter(arr.flat_local(), np.zeros(3))


class TestCompileOnce:
    def test_plans_compile_once_per_schedule(self):
        """Repeated packed transfers over a reused schedule must not
        recompile plans (the persistent-channel case)."""
        src_desc = DistArrayDescriptor(CartesianTemplate([Cyclic(24, 3)]))
        dst_desc = DistArrayDescriptor(block_template((24,), (4,)))
        sched = build_region_schedule(src_desc, dst_desc)
        g = np.arange(24.0)

        def main(comm):
            src = (DistributedArray.from_global(src_desc, comm.rank, g)
                   if comm.rank < src_desc.nranks else None)
            dst = (DistributedArray.allocate(dst_desc, comm.rank)
                   if comm.rank < dst_desc.nranks else None)
            execute_intra(sched, comm, src_array=src, dst_array=dst,
                          src_ranks=range(src_desc.nranks),
                          dst_ranks=range(dst_desc.nranks))
            return dst

        n = max(src_desc.nranks, dst_desc.nranks)
        run_spmd(n, main)
        after_first = PLAN_STATS.get("rank_plans")
        for _ in range(3):
            parts = [p for p in run_spmd(n, main) if p is not None]
        assert PLAN_STATS.get("rank_plans") == after_first
        np.testing.assert_array_equal(DistributedArray.assemble(parts), g)

    def test_offsets_are_int64_arrays(self):
        src = DistArrayDescriptor(CartesianTemplate([Cyclic(10, 2)]))
        sched = build_region_schedule(src, src)
        offs = region_offsets(list(src.local_regions(0)))
        assert isinstance(offs, np.ndarray) and offs.dtype == np.int64
        for _, regions, offsets in sched.send_groups(0):
            assert isinstance(offsets, np.ndarray)
            assert offsets.dtype == np.int64
            assert offsets[0] == 0
            assert offsets[-1] == sum(r.volume for r in regions)


# -- strided boxes ----------------------------------------------------------------

def _bc(extent, p, block):
    return DistArrayDescriptor(
        CartesianTemplate([BlockCyclic(extent, p, block)]), np.float64)


@st.composite
def box_geometries(draw):
    """The three geometries whose pairs are strided boxes: 1-D
    block-cyclic with block > 1, 2-D block-cyclic × block-cyclic with
    different blocks, and row-block → column-block (the
    ``prmi_parallel_arg`` geometry)."""
    kind = draw(st.sampled_from(["bc1d", "bc2d", "rowcol"]))
    ranks = st.integers(1, 3)
    if kind == "bc1d":
        block = draw(st.integers(2, 6))
        extent = draw(st.integers(block, 14 * block))
        same = draw(st.booleans())
        other = block if same else draw(st.integers(2, 6))
        return (CartesianTemplate([BlockCyclic(extent, draw(ranks), block)]),
                CartesianTemplate([BlockCyclic(extent, draw(ranks), other)]))
    rows, cols = draw(st.integers(4, 14)), draw(st.integers(4, 14))
    if kind == "rowcol":
        return (block_template((rows, cols), (draw(ranks), 1)),
                block_template((rows, cols), (1, draw(ranks))))
    b = [draw(st.integers(1, 4)) for _ in range(4)]
    return (CartesianTemplate([BlockCyclic(rows, draw(ranks), b[0]),
                               BlockCyclic(cols, draw(ranks), b[1])]),
            CartesianTemplate([BlockCyclic(rows, draw(ranks), b[2]),
                               BlockCyclic(cols, draw(ranks), b[3])]))


class TestBoxLoopEquivalence:
    """Every way a box plan moves bytes vs the region loop."""

    @settings(max_examples=60, deadline=None)
    @given(box_geometries(), st.integers(0, 2 ** 31 - 1))
    def test_every_path_matches_the_region_loop(self, pair, seed):
        src_t, dst_t = pair
        g = np.random.default_rng(seed).random(src_t.shape)
        src_desc = DistArrayDescriptor(src_t, np.float64)
        dst_desc = DistArrayDescriptor(dst_t, np.float64)
        sched = build_region_schedule(src_desc, dst_desc)
        lent_by_pair = {}
        for s in range(src_desc.nranks):
            arr = DistributedArray.from_global(src_desc, s, g)
            flat = arr.flat_local()
            plan = sched.send_plan(s, src_desc.local_regions(s))
            for pp, (d, regions, offsets) in zip(plan.pairs,
                                                 sched.send_groups(s)):
                loop_buf = pack_regions(arr, regions, offsets)
                got = pp.gather(flat)
                assert got.ndim == 1
                np.testing.assert_array_equal(got, loop_buf)
                out = np.empty(pp.size)
                assert pp.gather_into(flat, out) is out
                np.testing.assert_array_equal(out, loop_buf)
                lent = pp.lend(flat)
                assert (lent is not None) == (len(pp.boxes) == 1)
                if lent is not None:
                    assert lent.size == 0 or np.shares_memory(lent, flat)
                    np.testing.assert_array_equal(lent.reshape(-1), loop_buf)
                lent_by_pair[s, d] = (loop_buf, lent)
        for d in range(dst_desc.nranks):
            plan = sched.recv_plan(d, dst_desc.local_regions(d))
            via_loop = DistributedArray.allocate(dst_desc, d)
            feeds = [DistributedArray.allocate(dst_desc, d) for _ in range(3)]
            for pp, (s, regions, offsets) in zip(plan.pairs,
                                                 sched.recv_groups(d)):
                loop_buf, lent = lent_by_pair[s, d]
                unpack_regions(via_loop, regions, loop_buf, offsets)
                nd = (np.ascontiguousarray(lent) if lent is not None
                      else loop_buf.reshape(1, -1))
                for arr, values in zip(
                        feeds, (loop_buf, nd,
                                lent if lent is not None else loop_buf)):
                    assert pp.scatter(arr.flat_local(), values) == pp.size
            for arr in feeds:
                assert arr.flat_local().tobytes() == \
                    via_loop.flat_local().tobytes()

    def test_staged_scatter_of_two_different_strided_boxes(self):
        """Cyclic → block-cyclic 4: the sender's box is (6, 2)/(4, 1),
        the receiver's (12,)/(2,) — neither contiguous, shapes differ —
        so the copy stages once through the loan."""
        src = DistArrayDescriptor(CartesianTemplate([Cyclic(48, 2)]))
        dst = _bc(48, 2, 4)
        sched = build_region_schedule(src, dst)
        g = np.arange(48.0)
        sp = sched.send_plan(0, src.local_regions(0)).pairs[0]
        rp = sched.recv_plan(0, dst.local_regions(0)).pairs[0]
        assert sp.boxes == (Box(0, (6, 2), (4, 1)),)
        assert rp.boxes == (Box(0, (12,), (2,)),)
        lent = sp.lend(DistributedArray.from_global(src, 0, g).flat_local())
        out = DistributedArray.allocate(dst, 0)
        loans = []

        def loan(size, dtype):
            loans.append(size)
            return np.empty(size, dtype), lambda: loans.append("released")

        rp.scatter(out.flat_local(), lent, loan=loan)
        assert loans == [12, "released"]
        expect = DistributedArray.from_global(dst, 0, g).flat_local()
        np.testing.assert_array_equal(out.flat_local()[rp.indices()],
                                      expect[rp.indices()])

    def test_box_outside_the_buffer_is_rejected(self):
        pp = PairPlan(0, 12, (Box(4, (3, 4), (8, 1)),))
        assert pp.lend(np.zeros(24)).shape == (3, 4)
        with pytest.raises(ScheduleError, match="does not fit"):
            pp.lend(np.zeros(23))
        with pytest.raises(ScheduleError, match="does not fit"):
            PairPlan(0, 4, (Box(-1, (4,), (1,)),)).lend(np.zeros(23))


class TestBoxesNotIndices:
    """Regular pairs never construct an int64 element index."""

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
    def test_ragged_tail_compiles_to_main_box_plus_tail_box(self, m, n):
        """An extent that is not a multiple of P·block (last block
        short, one rank with one run fewer) is a main box plus a tail
        box, and moves bytes exactly."""
        extent = 4096 * 37 + 17
        src, dst = _bc(extent, m, 4096), _bc(extent, n, 4096)
        sched = build_region_schedule(src, dst)
        g = np.random.default_rng(7).random(extent)
        outs = [DistributedArray.allocate(dst, d) for d in range(n)]
        nboxes = []
        for s in range(m):
            flat = DistributedArray.from_global(src, s, g).flat_local()
            for sp in sched.send_plan(s, src.local_regions(s)).pairs:
                rp = next(p for p in sched.recv_plan(
                    sp.peer, dst.local_regions(sp.peer)).pairs if p.peer == s)
                assert sp.idx is None and rp.idx is None
                nboxes += [len(sp.boxes), len(rp.boxes)]
                lent = sp.lend(flat)
                rp.scatter(outs[sp.peer].flat_local(),
                           lent if lent is not None else sp.gather(flat))
        assert sorted(set(nboxes)) == [1, 2]
        np.testing.assert_array_equal(DistributedArray.assemble(outs), g)

    def test_plan_and_window_handle_pickle_in_bytes(self):
        """Host-independent size guard: what RMA ships at bind and what
        a rank keeps per schedule is O(pairs), not O(elements)."""
        src, dst = _bc(2 ** 20, 2, 4096), _bc(2 ** 20, 3, 4096)
        sched = build_region_schedule(src, dst)
        for desc, side in ((src, "send"), (dst, "recv")):
            for r in range(desc.nranks):
                plan = sched.rank_plan(side, r, desc.local_regions(r))
                assert all(p.idx is None for p in plan.pairs)
                assert len(pickle.dumps(plan)) < 1024
                for w, pp in enumerate(plan.pairs):
                    handle = WindowHandle("psm_0123456789abcdef", 2 ** 23,
                                          "<f8", len(plan.pairs), w, pp)
                    assert len(pickle.dumps(handle)) < 1024

    def test_benchmark_geometries_hold_no_index(self):
        """stream_large / stream_rma (block-cyclic 4096, 2→3) and
        prmi_parallel_arg (row-block → column-block) at reduced extent:
        no rank plan stores an element index."""
        cases = [(_bc(2 ** 16, 2, 4096), _bc(2 ** 16, 3, 4096)),
                 (DistArrayDescriptor(block_template((96, 64), (2, 1))),
                  DistArrayDescriptor(block_template((96, 64), (1, 3))))]
        for src, dst in cases:
            sched = build_region_schedule(src, dst)
            for desc, side in ((src, "send"), (dst, "recv")):
                for r in range(desc.nranks):
                    plan = sched.rank_plan(side, r, desc.local_regions(r))
                    assert sum(p.idx.nbytes for p in plan.pairs
                               if p.idx is not None) == 0
                    assert all(len(p.boxes) == 1 for p in plan.pairs)

    def test_irregular_pair_still_falls_back_to_an_index(self):
        """More boxes than MAX_BOXES: an index array, wire order kept."""
        from repro.dad.template import ExplicitTemplate
        from repro.util.regions import Region
        bounds = np.concatenate(([0], np.cumsum(np.arange(1, 21))))
        dst = DistArrayDescriptor(ExplicitTemplate(
            (210,), [(k % 2, Region((int(a),), (int(b),)))
                     for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]))
        src = DistArrayDescriptor(block_template((210,), (1,)))
        sched = build_region_schedule(src, dst)
        plan = sched.send_plan(0, src.local_regions(0))
        assert all(p.idx is not None and p.boxes == () for p in plan.pairs)
        assert MAX_BOXES < 10
        arr = DistributedArray.from_global(src, 0, np.arange(210.0))
        for pp, (_d, regions, offsets) in zip(plan.pairs,
                                              sched.send_groups(0)):
            np.testing.assert_array_equal(
                pp.gather(arr.flat_local()),
                pack_regions(arr, regions, offsets))


class TestLocalIndexer:
    """``locate`` (closed-form, vectorised) vs ``region_indices`` (the
    element-by-element reference)."""

    @staticmethod
    def _agree(patches, regions):
        from repro.schedule.indexplan import LocalIndexer, _compile, _plan
        ix = LocalIndexer(patches)
        want = np.concatenate([ix.region_indices(r) for r in regions])
        rows = RegionList(regions, validate=False)
        pair = _plan(_compile(ix, np.array([0]), np.array([0, len(rows.lo)]),
                              rows.lo, rows.hi)[0])
        np.testing.assert_array_equal(pair.indices(), want)
        return ix

    @staticmethod
    def _locate(ix, region):
        return ix.locate(np.array([region.lo]), np.array([region.hi]))

    def test_patches_spanning_several_cells(self):
        from repro.util.regions import Region
        patches = [Region((0, 0), (4, 5)), Region((0, 5), (4, 8)),
                   Region((4, 0), (6, 8))]
        ix = self._agree(patches, [Region((1, 1), (3, 4)),
                                   Region((0, 6), (4, 8)),
                                   Region((4, 2), (6, 7))])
        assert ix._cells is not None
        with pytest.raises(ScheduleError, match="not contained"):
            self._locate(ix, Region((3, 3), (5, 5)))      # straddles two patches
        with pytest.raises(ScheduleError, match="not contained"):
            self._locate(ix, Region((6, 0), (7, 1)))      # outside every patch

    def test_irregular_layout_scans_for_patches(self):
        """200 patches whose edges never line up would need a 399 x 399
        cell table: the indexer scans instead, same answers."""
        from repro.util.regions import Region
        patches = [Region((10 * i, 10 * i),
                          (10 * i + 5 + i % 3, 10 * i + 4 + i % 4))
                   for i in range(200)]
        ix = self._agree(patches, [
            Region((p.lo[0] + 1, p.lo[1]), (p.hi[0], p.hi[1] - 1))
            for p in patches])
        assert ix._cells is None
        with pytest.raises(ScheduleError, match="not contained"):
            self._locate(ix, Region((8, 8), (9, 9)))


class TestLendingSteadyState:
    def test_threads_backend_moves_each_byte_once(self):
        """Row-block → column-block on the threads backend: the sender
        lends a (rows, cols)/(width, 1) box, the receiver's box is a
        contiguous range of another shape — the lent view lands in the
        preposted sink with one copy per byte, no allocation and no
        snapshot, every step."""
        src = DistArrayDescriptor(block_template((96, 64), (2, 1)))
        dst = DistArrayDescriptor(block_template((96, 64), (1, 3)))
        sched = build_region_schedule(src, dst)
        g = np.random.default_rng(3).random((96, 64))
        src_inters, dst_inters = couple_jobs(Job(2), Job(3))
        srcs = [DistributedArray.from_global(src, r, g) for r in range(2)]
        dsts = [DistributedArray.allocate(dst, r) for r in range(3)]
        senders = [bind(sched, "src", src_inters[r], srcs[r])
                   for r in range(2)]
        receivers = [bind(sched, "dst", dst_inters[r], dsts[r])
                     for r in range(3)]
        shapes = {(len(sp.boxes[0].shape), len(rp.boxes[0].shape))
                  for tx in senders for sp in tx._plan.pairs
                  for rx in receivers for rp in rx._plan.pairs}
        assert shapes == {(2, 1)}

        def step():
            for rx in receivers:
                rx.arm()
            for tx in senders:
                tx.step()
            return sum(rx.complete(timeout=30) for rx in receivers)

        step()
        for _ in range(3):
            for arr in srcs:
                arr.flat_local()[:] += 1.0
            g = g + 1.0
            before = TRANSPORT_STATS.snapshot()
            assert step() == g.size
            after = TRANSPORT_STATS.snapshot()
            delta = {k: after.get(k, 0) - before.get(k, 0)
                     for k in ("alloc_bytes", "borrow_snapshots",
                               "bytes_copied")}
            assert delta == {"alloc_bytes": 0, "borrow_snapshots": 0,
                             "bytes_copied": g.nbytes}
            np.testing.assert_array_equal(DistributedArray.assemble(dsts), g)
        assert all(tx.pool.stats.get("loans") == 0 for tx in senders)
