"""Property-based tests: ownership is always an exact partition."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dad.axis import (
    Block,
    BlockCyclic,
    Collapsed,
    Cyclic,
    GeneralizedBlock,
    Implicit,
)
from repro.dad.template import CartesianTemplate, ExplicitTemplate
from repro.util.regions import Region


@st.composite
def axis_dists(draw, max_extent=30):
    extent = draw(st.integers(1, max_extent))
    kind = draw(st.sampled_from(
        ["collapsed", "block", "cyclic", "block_cyclic", "genblock",
         "implicit"]))
    if kind == "collapsed":
        return Collapsed(extent)
    nprocs = draw(st.integers(1, min(4, extent)))
    if kind == "block":
        return Block(extent, nprocs)
    if kind == "cyclic":
        return Cyclic(extent, nprocs)
    if kind == "block_cyclic":
        block = draw(st.integers(1, extent))
        return BlockCyclic(extent, nprocs, block)
    if kind == "genblock":
        cuts = sorted(draw(st.lists(
            st.integers(0, extent), min_size=nprocs - 1,
            max_size=nprocs - 1)))
        bounds = [0] + cuts + [extent]
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        return GeneralizedBlock(extent, sizes)
    owners = draw(st.lists(st.integers(0, nprocs - 1),
                           min_size=extent, max_size=extent))
    return Implicit(owners, nprocs=nprocs)


@st.composite
def cartesian_templates(draw):
    ndim = draw(st.integers(1, 3))
    return CartesianTemplate([draw(axis_dists()) for _ in range(ndim)])


@given(axis_dists())
def test_axis_partition_property(dist):
    dist.validate_partition()


@given(axis_dists())
def test_axis_owner_agrees_with_intervals(dist):
    step = max(1, dist.extent // 10)
    for i in range(0, dist.extent, step):
        p = dist.owner(i)
        assert any(a <= i < b for a, b in dist.intervals(p))


@settings(max_examples=50, deadline=None)
@given(cartesian_templates())
def test_template_ownership_partitions(template):
    seen = np.zeros(template.shape, dtype=np.int32)
    for _, region in template.all_owner_regions():
        seen[region.to_slices()] += 1
    assert np.all(seen == 1)


@settings(max_examples=50, deadline=None)
@given(cartesian_templates())
def test_owner_of_matches_owner_regions(template):
    rng = np.random.default_rng(0)
    for _ in range(5):
        point = tuple(int(rng.integers(0, s)) for s in template.shape)
        rank = template.owner_of(point)
        assert template.owner_regions(rank).contains_point(point)


@st.composite
def explicit_templates(draw):
    """Random explicit tilings built by recursive axis splits."""
    ndim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(2, 10)) for _ in range(ndim))
    regions = [Region.from_shape(shape)]
    for _ in range(draw(st.integers(0, 4))):
        idx = draw(st.integers(0, len(regions) - 1))
        reg = regions[idx]
        axis = draw(st.integers(0, ndim - 1))
        if reg.hi[axis] - reg.lo[axis] < 2:
            continue
        cut = draw(st.integers(reg.lo[axis] + 1, reg.hi[axis] - 1))
        lo1, hi1 = list(reg.lo), list(reg.hi)
        lo2, hi2 = list(reg.lo), list(reg.hi)
        hi1[axis] = cut
        lo2[axis] = cut
        regions[idx:idx + 1] = [
            Region(tuple(lo1), tuple(hi1)),
            Region(tuple(lo2), tuple(hi2)),
        ]
    nranks = draw(st.integers(1, 4))
    patches = [(draw(st.integers(0, nranks - 1)), r) for r in regions]
    return ExplicitTemplate(shape, patches, nranks=nranks)


@settings(max_examples=50, deadline=None)
@given(explicit_templates())
def test_explicit_template_partitions(template):
    seen = np.zeros(template.shape, dtype=np.int32)
    for _, region in template.all_owner_regions():
        seen[region.to_slices()] += 1
    assert np.all(seen == 1)
    template.validate()


@settings(max_examples=50, deadline=None)
@given(st.one_of(cartesian_templates(), explicit_templates()))
def test_ownership_table_slices_are_owner_regions(template):
    """The all-ranks table, rank by rank, is the per-rank reference
    ``owner_regions`` in ``lo`` order, its patches back to back."""
    table = template.ownership()
    for r in range(template.nranks):
        ref = sorted(template.owner_regions(r), key=lambda reg: reg.lo)
        s = table.rows(r)
        assert (table.rank[s] == r).all()
        assert table.regions(r).regions == ref
        volumes = [reg.volume for reg in ref]
        np.testing.assert_array_equal(
            table.offset[s], np.cumsum([0] + volumes)[:-1])
