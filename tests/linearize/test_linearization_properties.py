"""Property-based tests: linearization partitions and roundtrips."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dad import (
    Block,
    BlockCyclic,
    CartesianTemplate,
    Collapsed,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.linearize import DenseLinearization
from repro.schedule import build_linear_schedule
from repro.verify.schedule import verify_linear_schedule


@st.composite
def dense_descriptors(draw):
    ndim = draw(st.integers(1, 3))
    axes = []
    for _ in range(ndim):
        extent = draw(st.integers(1, 10))
        kind = draw(st.sampled_from(["collapsed", "block", "cyclic",
                                     "block_cyclic"]))
        if kind == "collapsed":
            axes.append(Collapsed(extent))
        else:
            nprocs = draw(st.integers(1, min(3, extent)))
            if kind == "block":
                axes.append(Block(extent, nprocs))
            elif kind == "cyclic":
                axes.append(Cyclic(extent, nprocs))
            else:
                axes.append(BlockCyclic(extent, nprocs,
                                        draw(st.integers(1, extent))))
    return DistArrayDescriptor(CartesianTemplate(axes))


@settings(max_examples=40, deadline=None)
@given(dense_descriptors())
def test_runs_partition_linear_space(desc):
    DenseLinearization(desc).validate_partition()


@settings(max_examples=40, deadline=None)
@given(dense_descriptors(), st.integers(0, 2 ** 31 - 1))
def test_extract_matches_global_flat_order(desc, seed):
    """Extracting every owned run and placing it at its linear offset
    reconstructs the row-major flattening of the global array."""
    lin = DenseLinearization(desc)
    g = np.asarray(
        np.random.default_rng(seed).integers(0, 100, size=desc.shape),
        dtype=np.float64)
    flat = np.full(lin.total, np.nan)
    for rank in range(desc.nranks):
        da = DistributedArray.from_global(desc, rank, g)
        for run in lin.runs(rank):
            flat[run.lo:run.hi] = lin.extract(rank, run, da)
    np.testing.assert_array_equal(flat, g.reshape(-1))


@settings(max_examples=40, deadline=None)
@given(dense_descriptors())
def test_inject_roundtrips_extract(desc):
    lin = DenseLinearization(desc)
    g = np.arange(float(np.prod(desc.shape))).reshape(desc.shape)
    for rank in range(desc.nranks):
        src = DistributedArray.from_global(desc, rank, g)
        dst = DistributedArray.allocate(desc, rank)
        for run in lin.runs(rank):
            lin.inject(rank, run, lin.extract(rank, run, src), dst)
        for (r1, a1), (r2, a2) in zip(src.iter_patches(),
                                      dst.iter_patches()):
            assert r1 == r2
            np.testing.assert_array_equal(a1, a2)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_linear_schedule_between_random_descriptors(data):
    """Any two linearizations of the same shape produce a complete,
    non-overlapping linear schedule."""
    src_desc = data.draw(dense_descriptors())
    # destination over the same shape, different decomposition
    dst_axes = []
    for extent in src_desc.shape:
        nprocs = data.draw(st.integers(1, min(3, extent)))
        dst_axes.append(Block(extent, nprocs))
    dst_desc = DistArrayDescriptor(CartesianTemplate(dst_axes))
    src_lin = DenseLinearization(src_desc)
    dst_lin = DenseLinearization(dst_desc)
    sched = build_linear_schedule(src_lin, dst_lin)
    verify_linear_schedule(sched, src_lin, dst_lin)
    assert sched.element_count == src_lin.total
