"""Property-based tests for GlobalSegMap and gsmap-schedule transfers."""

import itertools

import numpy as np
from hypothesis import given, strategies as st

from repro.mct import GlobalSegMap, Segment
from repro.mct.router import build_gsmap_schedule


@st.composite
def gsmaps(draw, gsize=None, nranks=None):
    g = gsize if gsize is not None else draw(st.integers(1, 40))
    n = nranks if nranks is not None else draw(st.integers(1, 4))
    owners = draw(st.lists(st.integers(0, n - 1), min_size=g, max_size=g))
    segments, start = [], 0
    for pe, run in itertools.groupby(owners):
        length = len(list(run))
        segments.append(Segment(start, length, pe))
        start += length
    return GlobalSegMap(g, segments, n)


@given(gsmaps())
def test_partition_invariant(gsmap):
    total = sum(gsmap.local_size(pe) for pe in range(gsmap.nranks))
    assert total == gsmap.gsize
    covered = np.zeros(gsmap.gsize, dtype=int)
    for pe in range(gsmap.nranks):
        covered[gsmap.global_indices(pe)] += 1
    assert np.all(covered == 1)


@given(gsmaps())
def test_local_offset_consistency(gsmap):
    for pe in range(gsmap.nranks):
        gidx = gsmap.global_indices(pe)
        for local, g in enumerate(gidx):
            assert gsmap.local_offset(pe, int(g)) == local


@given(st.data())
def test_schedule_covers_everything(data):
    gsize = data.draw(st.integers(1, 30))
    src = data.draw(gsmaps(gsize=gsize))
    dst = data.draw(gsmaps(gsize=gsize))
    sched = build_gsmap_schedule(src, dst)
    assert sched.element_count == gsize
    covered = np.zeros(gsize, dtype=int)
    for item in sched.items:
        covered[item.region.lo[0]:item.region.hi[0]] += 1
    assert np.all(covered == 1)

