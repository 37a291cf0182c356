"""Property-based tests for GlobalSegMap and gsmap-schedule transfers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mct import AttrVect, GlobalSegMap, Rearranger
from repro.mct.router import build_gsmap_schedule
from repro.simmpi import run_spmd


@st.composite
def gsmaps(draw, gsize=None, nranks=None):
    g = gsize if gsize is not None else draw(st.integers(1, 40))
    n = nranks if nranks is not None else draw(st.integers(1, 4))
    owners = draw(st.lists(st.integers(0, n - 1), min_size=g, max_size=g))
    return GlobalSegMap.from_owners(owners, nranks=n)


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


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_rearrange_roundtrip_random_gsmaps(data):
    """Property: rearranging src->dst->src reproduces the original
    AttrVect for random segmented decompositions."""
    gsize = data.draw(st.integers(2, 24))
    nranks = data.draw(st.integers(1, 3))
    src = data.draw(gsmaps(gsize=gsize, nranks=nranks))
    dst = data.draw(gsmaps(gsize=gsize, nranks=nranks))
    fwd = Rearranger(src, dst)
    back = Rearranger(dst, src)

    def main(comm):
        gidx = src.global_indices(comm.rank)
        av0 = AttrVect.from_arrays({
            "a": gidx.astype(float) * 2 + 1,
            "b": np.sin(gidx.astype(float)),
        })
        av1 = AttrVect(["a", "b"], dst.local_size(comm.rank))
        fwd.rearrange(comm, av0, av1)
        av2 = AttrVect(["a", "b"], src.local_size(comm.rank))
        back.rearrange(comm, av1, av2)
        np.testing.assert_array_equal(av2.data, av0.data)
        # forward result holds the right values at the right places
        dst_gidx = dst.global_indices(comm.rank)
        np.testing.assert_array_equal(
            av1["a"], dst_gidx.astype(float) * 2 + 1)
        return True

    assert all(run_spmd(nranks, main))
