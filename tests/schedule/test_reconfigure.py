"""Elastic re-decomposition: ``reconfigure`` moves only changed bytes
and is byte-identical to a full redistribute.

The property test is the satellite acceptance gate: across random
m→m′ resizes (grow, shrink, same-size redistribution) on both
execution backends, migrating the delta over a live array must
reassemble to exactly the original — i.e. exactly what tearing down
and fully redistributing would produce.
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
    DistributedArray,
    GeneralizedBlock,
)
from repro.dad.template import block_template
from repro.errors import ScheduleError
from repro.highlevel import reconfigure
from repro.schedule import ScheduleCache
from repro.simmpi import run_spmd
from repro.util.counters import REDIST_STATS


@st.composite
def axis_for(draw, extent):
    kind = draw(st.sampled_from(
        ["collapsed", "block", "cyclic", "block_cyclic", "genblock"]))
    if kind == "collapsed":
        return Collapsed(extent)
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
def resize_pairs(draw):
    """Old/new decompositions of one shape: grow, shrink and same-size
    redistributions all arise from independent axis draws."""
    ndim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(2, 8)) for _ in range(ndim))
    old = CartesianTemplate([draw(axis_for(e)) for e in shape])
    new = CartesianTemplate([draw(axis_for(e)) for e in shape])
    return old, new


def _resize(old_desc, new_desc, g, backend):
    n = max(old_desc.nranks, new_desc.nranks)

    def main(comm):
        da = (DistributedArray.from_global(old_desc, comm.rank, g)
              if comm.rank < old_desc.nranks else None)
        return reconfigure(comm, da, new_desc, cache=ScheduleCache())

    return [p for p in run_spmd(n, main, backend=backend) if p is not None]


@pytest.mark.parametrize(
    "backend", ["threads", "procs"],
    ids=["backend-threads", "backend-procs"])
@settings(max_examples=8, deadline=None)
@given(resize_pairs(), st.integers(0, 2 ** 31 - 1))
def test_delta_migration_matches_full_redistribute(backend, pair, seed):
    old_t, new_t = pair
    g = np.asarray(
        np.random.default_rng(seed).integers(0, 1000, size=old_t.shape),
        dtype=np.float64)
    old_desc = DistArrayDescriptor(old_t, np.float64)
    new_desc = DistArrayDescriptor(new_t, np.float64)
    parts = _resize(old_desc, new_desc, g, backend)
    assert len(parts) == new_desc.nranks
    for p in parts:
        assert p.descriptor.cache_key() == new_desc.cache_key()
    np.testing.assert_array_equal(DistributedArray.assemble(parts), g)


def test_surviving_rank_keeps_its_handle():
    """The resize is *live*: a rank inside both decompositions gets the
    same object back, rebound in place, so references stay valid."""
    old = DistArrayDescriptor(block_template((64,), (8,)))
    new = DistArrayDescriptor(block_template((64,), (10,)))
    g = np.arange(64, dtype=np.float64)

    def main(comm):
        da = (DistributedArray.from_global(old, comm.rank, g)
              if comm.rank < 8 else None)
        before = da
        out = reconfigure(comm, da, new)
        if before is not None:
            assert out is before
            assert out.descriptor is not old
        return out

    parts = [p for p in run_spmd(10, main, backend="threads")
             if p is not None]
    np.testing.assert_array_equal(DistributedArray.assemble(parts), g)


def test_identity_ranks_keep_their_buffer():
    """A generalized-block tail split leaves leading ranks' ownership
    untouched: their base buffer must not even be reallocated."""
    old = DistArrayDescriptor(
        CartesianTemplate([GeneralizedBlock(80, [10] * 8)]))
    new = DistArrayDescriptor(
        CartesianTemplate([GeneralizedBlock(80, [10] * 7 + [4, 3, 3])]))
    g = np.arange(80, dtype=np.float64)

    def main(comm):
        da = (DistributedArray.from_global(old, comm.rank, g)
              if comm.rank < 8 else None)
        base_before = da.flat_local() if da is not None else None
        out = reconfigure(comm, da, new)
        if comm.rank < 7:
            assert out.flat_local() is base_before
        return out

    parts = [p for p in run_spmd(10, main, backend="threads")
             if p is not None]
    np.testing.assert_array_equal(DistributedArray.assemble(parts), g)


def test_shrink_drops_trailing_ranks():
    old = DistArrayDescriptor(block_template((60,), (10,)))
    new = DistArrayDescriptor(block_template((60,), (6,)))
    g = np.arange(60, dtype=np.float64)

    def main(comm):
        da = DistributedArray.from_global(old, comm.rank, g)
        return reconfigure(comm, da, new)

    results = run_spmd(10, main, backend="threads")
    assert all(r is None for r in results[6:])
    parts = [p for p in results if p is not None]
    assert len(parts) == 6
    np.testing.assert_array_equal(DistributedArray.assemble(parts), g)


def test_grid_and_nranks_arguments():
    """``new_dist`` may be a plain process grid; ``new_nranks``
    cross-checks it."""
    old = DistArrayDescriptor(block_template((8, 12), (2, 2)))
    g = np.arange(96, dtype=np.float64).reshape(8, 12)

    def main(comm):
        da = (DistributedArray.from_global(old, comm.rank, g)
              if comm.rank < 4 else None)
        return reconfigure(comm, da, (3, 2), 6)

    parts = [p for p in run_spmd(6, main, backend="threads")
             if p is not None]
    np.testing.assert_array_equal(DistributedArray.assemble(parts), g)

    def bad(comm):
        da = (DistributedArray.from_global(old, comm.rank, g)
              if comm.rank < 4 else None)
        with pytest.raises(ScheduleError):
            reconfigure(comm, da, (3, 2), 7)

    run_spmd(6, bad, backend="threads")


def test_redist_stats_account_the_resize():
    old = DistArrayDescriptor(
        CartesianTemplate([Cyclic(40, 8)]))
    new = DistArrayDescriptor(
        CartesianTemplate([Cyclic(40, 10)]))
    g = np.arange(40, dtype=np.float64)
    REDIST_STATS.reset()
    _resize(old, new, g, "threads")
    stats = REDIST_STATS.snapshot()
    assert stats["resizes"] == 1
    # cyclic 8->10: k stays home iff k mod 40 < 8 -> 8 of 40 elements.
    assert stats["migrated_bytes"] == 32 * 8
    assert stats["kept_bytes"] == 8 * 8
    assert stats["resize_wall_us"] > 0
    # strictly fewer bytes than the 40-element full redistribute.
    assert stats["migrated_bytes"] < 40 * 8
