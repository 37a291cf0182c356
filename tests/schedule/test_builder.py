"""Schedule construction tests: general path, block fast path, caching."""

import numpy as np
import pytest

from repro.dad import (
    BlockCyclic,
    CartesianTemplate,
    DistArrayDescriptor,
)
from repro.dad.template import ExplicitTemplate, block_template
from repro.errors import ScheduleError
from repro.linearize import DenseLinearization
from repro.schedule import (
    ScheduleCache,
    build_linear_schedule,
    build_region_schedule,
    build_structured_schedule,
)
from repro.util.regions import Region
from repro.verify.schedule import verify_linear_schedule


def desc(template, dtype=np.float64):
    return DistArrayDescriptor(template, dtype)


class TestRegionSchedule:
    def test_identity_redistribution(self):
        d = desc(block_template((8, 8), (2, 2)))
        sched = build_region_schedule(d, d)
        sched.validate(d, d)
        # identical templates: every rank sends its own block to itself
        assert sched.message_count == 4
        assert all(it.src == it.dst for it in sched.items)

    def test_row_to_col_blocks(self):
        src = desc(block_template((4, 4), (2, 1)))
        dst = desc(block_template((4, 4), (1, 2)))
        sched = build_region_schedule(src, dst)
        sched.validate(src, dst)
        assert sched.message_count == 4  # every src block splits in two
        assert sched.element_count == 16

    def test_m8_to_n27_fig1(self):
        """The paper's Fig. 1 shape: 8 sources feeding 27 destinations."""
        shape = (12, 12, 12)
        src = desc(block_template(shape, (2, 2, 2)))
        dst = desc(block_template(shape, (3, 3, 3)))
        sched = build_region_schedule(src, dst)
        sched.validate(src, dst)
        assert sched.element_count == 12 ** 3
        # every dst block (4x4x4) overlaps 1..8 src blocks (6x6x6)
        assert sched.message_count >= 27

    def test_block_cyclic_to_block(self):
        src = desc(CartesianTemplate([BlockCyclic(12, 3, 2)]))
        dst = desc(block_template((12,), (2,)))
        sched = build_region_schedule(src, dst)
        sched.validate(src, dst)

    def test_explicit_to_block(self):
        src = desc(ExplicitTemplate((4, 4), [
            (0, Region((0, 0), (4, 1))),
            (1, Region((0, 1), (4, 4))),
        ]))
        dst = desc(block_template((4, 4), (2, 2)))
        sched = build_region_schedule(src, dst)
        sched.validate(src, dst)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ScheduleError):
            build_region_schedule(desc(block_template((4,), (2,))),
                                  desc(block_template((5,), (2,))))

    def test_metrics(self):
        src = desc(block_template((8,), (2,)))
        dst = desc(block_template((8,), (4,)))
        sched = build_region_schedule(src, dst)
        assert sched.nbytes(np.float64) == 8 * 8
        assert sched.entries() > 0


class TestBlockFastPath:
    @pytest.mark.parametrize("shape,g1,g2", [
        ((12, 12), (2, 2), (3, 3)),
        ((10, 6), (2, 3), (5, 1)),
        ((7, 9), (3, 2), (2, 3)),       # uneven blocks
        ((12, 12, 12), (2, 2, 2), (3, 3, 3)),
    ])
    def test_matches_general_path(self, shape, g1, g2):
        src = desc(block_template(shape, g1))
        dst = desc(block_template(shape, g2))
        fast = build_structured_schedule(src, dst)
        general = build_region_schedule(src, dst, force_general=True)
        assert ([(i.src, i.dst, i.region) for i in fast.items]
                == [(i.src, i.dst, i.region) for i in general.items])

    def test_dispatch_uses_fast_path(self):
        src = desc(block_template((8, 8), (2, 2)))
        dst = desc(block_template((8, 8), (4, 2)))
        assert (build_region_schedule(src, dst).items
                == build_structured_schedule(src, dst).items)

    def test_fast_path_with_empty_trailing_blocks(self):
        # extent 5 over 4 procs: block=2 -> rank 3 owns nothing
        src = desc(block_template((5,), (4,)))
        dst = desc(block_template((5,), (2,)))
        sched = build_structured_schedule(src, dst)
        sched.validate(src, dst)


class TestLinearSchedule:
    def test_dense_to_dense(self):
        src = desc(block_template((6, 6), (3, 1)))
        dst = desc(block_template((6, 6), (1, 2)))
        src_lin, dst_lin = DenseLinearization(src), DenseLinearization(dst)
        ls = build_linear_schedule(src_lin, dst_lin)
        verify_linear_schedule(ls, src_lin, dst_lin)
        assert ls.element_count == 36
        assert ls.lo.shape[1] == 1

    def test_fragmentation_increases_messages(self):
        """Linearization fragments column blocks into per-row runs, so it
        moves more (smaller) messages than the region schedule."""
        src = desc(block_template((8, 8), (1, 4)))
        dst = desc(block_template((8, 8), (4, 1)))
        region_sched = build_region_schedule(src, dst)
        linear_sched = build_linear_schedule(DenseLinearization(src),
                                             DenseLinearization(dst))
        assert linear_sched.message_count > region_sched.message_count
        assert linear_sched.element_count == region_sched.element_count

    def test_total_mismatch_rejected(self):
        a = DenseLinearization(desc(block_template((4,), (2,))))
        b = DenseLinearization(desc(block_template((5,), (2,))))
        with pytest.raises(ScheduleError):
            build_linear_schedule(a, b)


class TestScheduleCache:
    def test_hit_on_same_templates(self):
        cache = ScheduleCache()
        src = desc(block_template((8, 8), (2, 2)))
        dst = desc(block_template((8, 8), (4, 1)))
        s1 = cache.get(src, dst)
        s2 = cache.get(src, dst)
        assert s1 is s2
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_for_different_arrays_same_template(self):
        """§2.3: reuse 'even for different arrays as long as they conform
        to the same distribution template'."""
        cache = ScheduleCache()
        t1 = block_template((8, 8), (2, 2))
        t2 = block_template((8, 8), (4, 1))
        a_src, b_src = desc(t1), desc(block_template((8, 8), (2, 2)))
        a_dst, b_dst = desc(t2), desc(block_template((8, 8), (4, 1)))
        s1 = cache.get(a_src, a_dst)
        s2 = cache.get(b_src, b_dst)  # distinct descriptor objects
        assert s1 is s2

    def test_miss_on_different_dtype(self):
        cache = ScheduleCache()
        t = block_template((8,), (2,))
        cache.get(desc(t, np.float64), desc(t, np.float64))
        cache.get(desc(t, np.float32), desc(t, np.float32))
        assert cache.misses == 2

    def test_clear(self):
        cache = ScheduleCache()
        t = block_template((8,), (2,))
        cache.get(desc(t), desc(t))
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0
