"""Equivalence of the schedule engines: sweep, structured, all-pairs.

Property-style guarantees behind the fast-path rewrite: every engine
must produce *element-identical* schedules (same (src, dst, region)
triples in the same deterministic order) for random template pairs over
block / cyclic / block-cyclic / generalized-block / collapsed /
explicit distributions, so dispatching between them can never change
what moves on the wire.
"""

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
    GeneralizedBlock,
)
from repro.dad.template import ExplicitTemplate
from repro.schedule import (
    build_region_schedule,
    build_structured_schedule,
    build_sweep_schedule,
)
from repro.schedule.builder import _is_structured, _overlap_pairs_1d
from repro.verify.schedule import build_allpairs_schedule
from repro.util.regions import Region


def desc(template):
    return DistArrayDescriptor(template, np.float64)


def triples(sched):
    return [(it.src, it.dst, it.region) for it in sched.items]


@st.composite
def axis_for(draw, extent):
    kind = draw(st.sampled_from(
        ["collapsed", "block", "cyclic", "block_cyclic", "genblock"]))
    if kind == "collapsed":
        return Collapsed(extent)
    nprocs = draw(st.integers(1, min(4, extent)))
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
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(ndim))
    src = CartesianTemplate([draw(axis_for(e)) for e in shape])
    dst = CartesianTemplate([draw(axis_for(e)) for e in shape])
    return src, dst


class TestEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(template_pairs())
    def test_all_engines_identical_on_cartesian_pairs(self, pair):
        src, dst = desc(pair[0]), desc(pair[1])
        reference = build_allpairs_schedule(src, dst)
        assert triples(build_sweep_schedule(src, dst)) == triples(reference)
        assert triples(build_structured_schedule(src, dst)) == triples(reference)
        dispatched = build_region_schedule(src, dst)
        assert triples(dispatched) == triples(reference)
        dispatched.validate(src, dst)

    @settings(max_examples=25, deadline=None)
    @given(template_pairs())
    def test_force_general_identical(self, pair):
        src, dst = desc(pair[0]), desc(pair[1])
        assert (triples(build_region_schedule(src, dst, force_general=True))
                == triples(build_allpairs_schedule(src, dst)))

    def test_explicit_pair_uses_sweep(self):
        src = desc(ExplicitTemplate((6, 6), [
            (0, Region((0, 0), (2, 6))),
            (1, Region((2, 0), (6, 3))),
            (2, Region((2, 3), (6, 6))),
        ]))
        dst = desc(ExplicitTemplate((6, 6), [
            (0, Region((0, 0), (6, 1))),
            (1, Region((0, 1), (6, 6))),
        ]))
        assert not _is_structured(src) and not _is_structured(dst)
        sched = build_region_schedule(src, dst)
        assert triples(sched) == triples(build_allpairs_schedule(src, dst))
        sched.validate(src, dst)

    def test_explicit_to_cyclic_uses_structured_side(self):
        src = desc(ExplicitTemplate((8,), [
            (0, Region((0,), (5,))),
            (1, Region((5,), (8,))),
        ]))
        dst = desc(CartesianTemplate([Cyclic(8, 3)]))
        sched = build_region_schedule(src, dst)
        assert triples(sched) == triples(build_allpairs_schedule(src, dst))
        sched.validate(src, dst)


class TestSweepPrimitive:
    def test_overlap_pairs_basic(self):
        a = [(0, 4), (4, 8)]
        b = [(2, 6)]
        assert sorted(_overlap_pairs_1d(a, b)) == [(0, 0), (1, 0)]

    def test_touching_intervals_do_not_overlap(self):
        assert _overlap_pairs_1d([(0, 4)], [(4, 8)]) == []

    def test_empty_intervals_skipped(self):
        assert _overlap_pairs_1d([(3, 3)], [(0, 9)]) == []

    def test_identical_los(self):
        assert sorted(_overlap_pairs_1d([(2, 5)], [(2, 3)])) == [(0, 0)]

    def test_output_sensitive_pair_count(self):
        # n disjoint unit intervals on each side, aligned: n pairs, not n².
        n = 50
        iv = [(i, i + 1) for i in range(n)]
        assert sorted(_overlap_pairs_1d(iv, iv)) == [(i, i) for i in range(n)]


class TestStructuredRejects:
    def test_requires_one_structured_side(self):
        from repro.errors import ScheduleError
        exp = desc(ExplicitTemplate((4,), [(0, Region((0,), (4,)))]))
        with pytest.raises(ScheduleError):
            build_structured_schedule(exp, exp)
