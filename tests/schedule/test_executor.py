"""End-to-end schedule execution over the simulated runtime."""

import numpy as np
import pytest

from repro.dad import (
    BlockCyclic,
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.dad.template import ExplicitTemplate, block_template
from repro.schedule import (
    build_region_schedule,
    execute_inter,
    execute_intra,
)
from repro.simmpi import NameService, run_coupled, run_spmd
from repro.util.regions import Region


def redistribute_intra(src_t, dst_t, global_arr, nranks=None):
    """Run an in-job redistribution and return the reassembled result."""
    src_desc = DistArrayDescriptor(src_t, global_arr.dtype)
    dst_desc = DistArrayDescriptor(dst_t, global_arr.dtype)
    sched = build_region_schedule(src_desc, dst_desc)
    n = nranks or max(src_desc.nranks, dst_desc.nranks)

    def main(comm):
        src = (DistributedArray.from_global(src_desc, comm.rank, global_arr)
               if comm.rank < src_desc.nranks else None)
        dst = (DistributedArray.allocate(dst_desc, comm.rank)
               if comm.rank < dst_desc.nranks else None)
        execute_intra(sched, comm, src_array=src, dst_array=dst,
                      src_ranks=range(src_desc.nranks),
                      dst_ranks=range(dst_desc.nranks))
        return dst

    parts = [p for p in run_spmd(n, main) if p is not None]
    return DistributedArray.assemble(parts)


class TestExecuteIntra:
    def test_block_to_block(self):
        g = np.arange(64.0).reshape(8, 8)
        out = redistribute_intra(block_template((8, 8), (2, 2)),
                                 block_template((8, 8), (4, 1)), g)
        np.testing.assert_array_equal(out, g)

    def test_fig1_8_to_27(self):
        g = np.arange(12.0 ** 3).reshape(12, 12, 12)
        out = redistribute_intra(block_template((12, 12, 12), (2, 2, 2)),
                                 block_template((12, 12, 12), (3, 3, 3)), g)
        np.testing.assert_array_equal(out, g)

    def test_block_cyclic_both_sides(self):
        g = np.random.default_rng(3).random((12, 10))
        src_t = CartesianTemplate([BlockCyclic(12, 2, 3), Cyclic(10, 2)])
        dst_t = CartesianTemplate([Cyclic(12, 3), BlockCyclic(10, 2, 4)])
        out = redistribute_intra(src_t, dst_t, g, nranks=6)
        np.testing.assert_array_equal(out, g)

    def test_explicit_distribution(self):
        g = np.arange(16.0).reshape(4, 4)
        src_t = ExplicitTemplate((4, 4), [
            (0, Region((0, 0), (3, 4))),
            (1, Region((3, 0), (4, 4))),
        ])
        out = redistribute_intra(src_t, block_template((4, 4), (2, 2)), g)
        np.testing.assert_array_equal(out, g)

    def test_self_redistribution_same_cohort(self):
        """Same ranks act as both source and destination (transpose-like)."""
        g = np.arange(36.0).reshape(6, 6)
        src_desc = DistArrayDescriptor(block_template((6, 6), (3, 1)), g.dtype)
        dst_desc = DistArrayDescriptor(block_template((6, 6), (1, 3)), g.dtype)
        sched = build_region_schedule(src_desc, dst_desc)

        def main(comm):
            src = DistributedArray.from_global(src_desc, comm.rank, g)
            dst = DistributedArray.allocate(dst_desc, comm.rank)
            execute_intra(sched, comm, src_array=src, dst_array=dst)
            return dst

        parts = run_spmd(3, main)
        np.testing.assert_array_equal(DistributedArray.assemble(parts), g)

    def test_disjoint_cohorts_in_one_job(self):
        """Sources on ranks 0-1, destinations on ranks 2-4."""
        g = np.arange(40.0).reshape(8, 5)
        src_desc = DistArrayDescriptor(block_template((8, 5), (2, 1)), g.dtype)
        dst_desc = DistArrayDescriptor(block_template((8, 5), (3, 1)), g.dtype)
        sched = build_region_schedule(src_desc, dst_desc)

        def main(comm):
            is_src = comm.rank < 2
            src = (DistributedArray.from_global(src_desc, comm.rank, g)
                   if is_src else None)
            dst = (DistributedArray.allocate(dst_desc, comm.rank - 2)
                   if not is_src else None)
            execute_intra(sched, comm, src_array=src, dst_array=dst,
                          src_ranks=[0, 1], dst_ranks=[2, 3, 4])
            return dst

        parts = [p for p in run_spmd(5, main) if p is not None]
        np.testing.assert_array_equal(DistributedArray.assemble(parts), g)

    def test_repeated_execution_schedule_reuse(self):
        src_desc = DistArrayDescriptor(block_template((6,), (2,)))
        dst_desc = DistArrayDescriptor(block_template((6,), (3,)))
        sched = build_region_schedule(src_desc, dst_desc)

        def main(comm):
            outs = []
            for k in range(3):
                g = np.arange(6.0) * (k + 1)
                src = (DistributedArray.from_global(src_desc, comm.rank, g)
                       if comm.rank < 2 else None)
                dst = DistributedArray.allocate(dst_desc, comm.rank)
                execute_intra(sched, comm, src_array=src, dst_array=dst,
                              src_ranks=[0, 1], dst_ranks=[0, 1, 2])
                outs.append(dst)
            return outs

        results = run_spmd(3, main)
        for k in range(3):
            parts = [results[r][k] for r in range(3)]
            np.testing.assert_array_equal(
                DistributedArray.assemble(parts), np.arange(6.0) * (k + 1))


class TestExecuteInter:
    def test_coupled_jobs_m3_to_n2(self):
        g = np.arange(60.0).reshape(6, 10)
        src_desc = DistArrayDescriptor(block_template((6, 10), (3, 1)), g.dtype)
        dst_desc = DistArrayDescriptor(block_template((6, 10), (1, 2)), g.dtype)
        sched = build_region_schedule(src_desc, dst_desc)
        ns = NameService()

        def producer(comm):
            inter = ns.accept("xfer", comm)
            src = DistributedArray.from_global(src_desc, comm.rank, g)
            return execute_inter(sched, inter, "src", src)

        def consumer(comm):
            inter = ns.connect("xfer", comm)
            dst = DistributedArray.allocate(dst_desc, comm.rank)
            execute_inter(sched, inter, "dst", dst)
            return dst

        out = run_coupled([
            ("producer", 3, producer, ()),
            ("consumer", 2, consumer, ()),
        ])
        np.testing.assert_array_equal(
            DistributedArray.assemble(out["consumer"]), g)
        assert sum(out["producer"]) == 60

    def test_bad_side_rejected(self):
        src_desc = DistArrayDescriptor(block_template((4,), (2,)))
        sched = build_region_schedule(src_desc, src_desc)
        ns = NameService()

        def a(comm):
            inter = ns.accept("bad", comm)
            da = DistributedArray.allocate(src_desc, comm.rank)
            with pytest.raises(ValueError):
                execute_inter(sched, inter, "sideways", da)
            return True

        def b(comm):
            ns.connect("bad", comm)
            return True

        out = run_coupled([("a", 2, a, ()), ("b", 2, b, ())])
        assert all(out["a"])
