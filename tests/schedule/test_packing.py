"""Message coalescing: packed execution must match the per-region
baseline byte-for-byte and collapse the wire traffic to one message per
communicating pair."""

import numpy as np
import pytest

from repro.dad import (
    BlockCyclic,
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.dad.template import block_template
from repro.baselines import redistribute_per_region
from repro.errors import ScheduleError
from repro.schedule import (
    build_region_schedule,
    execute_inter,
    execute_intra,
    pack_regions,
    region_offsets,
    unpack_regions,
)
from repro.simmpi import NameService, run_coupled, run_spmd


def _pairs(schedule):
    """Distinct (src, dst) rank pairs the schedule communicates over."""
    return {(it.src, it.dst) for it in schedule.items}


def _redistribute(src_desc, dst_desc, g, *, packed):
    sched = build_region_schedule(src_desc, dst_desc)
    n = max(src_desc.nranks, dst_desc.nranks)

    def main(comm):
        src = (DistributedArray.from_global(src_desc, comm.rank, g)
               if comm.rank < src_desc.nranks else None)
        dst = (DistributedArray.allocate(dst_desc, comm.rank)
               if comm.rank < dst_desc.nranks else None)
        run = execute_intra if packed else redistribute_per_region
        run(sched, comm, src_array=src, dst_array=dst,
            src_ranks=range(src_desc.nranks),
            dst_ranks=range(dst_desc.nranks))
        # counters are shared per job; snapshot after all threads join
        return dst, comm.counters

    results = run_spmd(n, main)
    parts = [r[0] for r in results if r[0] is not None]
    return DistributedArray.assemble(parts), results[0][1].snapshot(), sched


CASES = [
    (block_template((12, 10), (2, 2)), block_template((12, 10), (4, 1))),
    (CartesianTemplate([BlockCyclic(12, 2, 3), Cyclic(10, 2)]),
     CartesianTemplate([Cyclic(12, 3), BlockCyclic(10, 2, 4)])),
    (CartesianTemplate([Cyclic(16, 4)]), block_template((16,), (2,))),
]


class TestPackedExecution:
    @pytest.mark.parametrize("src_t,dst_t", CASES)
    def test_packed_matches_unpacked_byte_for_byte(self, src_t, dst_t):
        g = np.random.default_rng(7).random(src_t.shape)
        src_desc = DistArrayDescriptor(src_t, g.dtype)
        dst_desc = DistArrayDescriptor(dst_t, g.dtype)
        out_packed, _, _ = _redistribute(src_desc, dst_desc, g, packed=True)
        out_plain, _, _ = _redistribute(src_desc, dst_desc, g, packed=False)
        assert out_packed.tobytes() == out_plain.tobytes()
        assert out_packed.tobytes() == g.tobytes()

    @pytest.mark.parametrize("src_t,dst_t", CASES)
    def test_packed_message_count_is_pair_count(self, src_t, dst_t):
        g = np.arange(np.prod(src_t.shape), dtype=np.float64).reshape(
            src_t.shape)
        src_desc = DistArrayDescriptor(src_t, g.dtype)
        dst_desc = DistArrayDescriptor(dst_t, g.dtype)
        _, packed_counters, sched = _redistribute(
            src_desc, dst_desc, g, packed=True)
        _, plain_counters, _ = _redistribute(
            src_desc, dst_desc, g, packed=False)
        assert packed_counters["msgs"] == len(_pairs(sched))
        assert packed_counters["msgs"] == sched.pair_count
        assert plain_counters["msgs"] == sched.message_count
        # data bytes on the wire are identical — packing adds no padding
        assert packed_counters["bytes"] == plain_counters["bytes"]

    def test_packed_inter_job(self):
        g = np.arange(60.0).reshape(6, 10)
        src_desc = DistArrayDescriptor(
            CartesianTemplate([Cyclic(6, 3), Cyclic(10, 1)]), g.dtype)
        dst_desc = DistArrayDescriptor(block_template((6, 10), (1, 2)),
                                       g.dtype)
        sched = build_region_schedule(src_desc, dst_desc)
        ns = NameService()

        def producer(comm):
            inter = ns.accept("packed-xfer", comm)
            src = DistributedArray.from_global(src_desc, comm.rank, g)
            sent = execute_inter(sched, inter, "src", src)
            return sent, comm.counters  # shared per job; read after join

        def consumer(comm):
            inter = ns.connect("packed-xfer", comm)
            dst = DistributedArray.allocate(dst_desc, comm.rank)
            execute_inter(sched, inter, "dst", dst)
            return dst

        out = run_coupled([
            ("producer", 3, producer, ()),
            ("consumer", 2, consumer, ()),
        ])
        np.testing.assert_array_equal(
            DistributedArray.assemble(list(out["consumer"])), g)
        assert sum(r[0] for r in out["producer"]) == g.size
        # inter_msgs is counted on the sending job: one per communicating pair
        inter_msgs = out["producer"][0][1].get("inter_msgs")
        assert inter_msgs == len(_pairs(sched))
        assert inter_msgs <= sched.message_count


class TestPackPrimitives:
    def test_roundtrip(self):
        desc = DistArrayDescriptor(
            CartesianTemplate([Cyclic(9, 3), BlockCyclic(8, 2, 3)]))
        g = np.random.default_rng(1).random((9, 8))
        src = DistributedArray.from_global(desc, 0, g)
        dst = DistributedArray.allocate(desc, 0)
        regions = list(desc.local_regions(0))
        buf = pack_regions(src, regions)
        assert buf.ndim == 1 and buf.size == sum(r.volume for r in regions)
        assert unpack_regions(dst, regions, buf) == buf.size
        for r in regions:
            np.testing.assert_array_equal(dst.local_view(r),
                                          src.local_view(r))

    def test_offsets(self):
        desc = DistArrayDescriptor(CartesianTemplate([Cyclic(6, 2)]))
        regions = list(desc.local_regions(0))
        offs = region_offsets(regions)
        assert offs[0] == 0 and offs[-1] == sum(r.volume for r in regions)
        assert len(offs) == len(regions) + 1

    def test_size_mismatch_rejected(self):
        desc = DistArrayDescriptor(block_template((4,), (1,)))
        dst = DistributedArray.allocate(desc, 0)
        regions = list(desc.local_regions(0))
        with pytest.raises(ScheduleError):
            unpack_regions(dst, regions, np.zeros(3))
