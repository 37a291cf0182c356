"""Flat-index helpers: row-major linearization of N-dim coordinates.

These are the primitives behind the linearization intermediate
representation (Section 2.2.1 of the paper) and behind packing region
data into contiguous message buffers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.regions import Region


def shape_volume(shape: Sequence[int]) -> int:
    """Number of elements in an array of the given shape."""
    v = 1
    for s in shape:
        v *= int(s)
    return v


def row_major_strides(shape: Sequence[int]) -> tuple[int, ...]:
    """Element (not byte) strides of a C-ordered array of ``shape``."""
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * int(shape[d + 1])
    return tuple(strides)


def row_major_offset(coords: Sequence[int], shape: Sequence[int]) -> int:
    """Flat row-major offset of ``coords`` in an array of ``shape``."""
    off = 0
    for c, s in zip(coords, row_major_strides(shape)):
        off += int(c) * s
    return off


def row_major_coords(offset: int, shape: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`row_major_offset`."""
    coords = []
    for s in row_major_strides(shape):
        coords.append(offset // s)
        offset %= s
    return tuple(coords)


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(n) for n in counts])`` without a Python loop
    — the ordinal inside each run of a ragged ``np.repeat`` expansion."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) - np.repeat(ends - counts, counts)


def region_flat_indices(region: Region, shape: Sequence[int]) -> np.ndarray:
    """Row-major flat indices of every element of ``region`` within an
    enclosing array of ``shape``, in region-row-major order.

    Vectorized: builds the index array by broadcasting per-axis offsets
    rather than looping over elements.
    """
    strides = row_major_strides(shape)
    idx = np.zeros((), dtype=np.int64)
    for d in range(region.ndim):
        ax = np.arange(region.lo[d], region.hi[d], dtype=np.int64) * strides[d]
        idx = idx[..., None] + ax
    return idx.reshape(-1)
