"""Ownership tables: every rank's patches as one set of columns.

Which global regions each rank stores, and where each one starts in the
rank's flat local storage, for all ranks of a decomposition at once:
``rank (n,)``, ``lo`` / ``hi`` ``(n, ndim)`` half-open bounds and
``offset (n,)``, sorted by ``(rank, lo)``.  By default a rank's patches
sit back to back in ``lo`` order — the layout of
:class:`~repro.dad.darray.DistributedArray`; a linearization states its
own offsets.  A rank's patches are one contiguous row range, so every
per-rank query is a slice, and the plan compiler locates a whole
schedule side against one table (:mod:`repro.schedule.indexplan`).
"""

from __future__ import annotations

import numpy as np

from repro.util.regions import RegionList


class Ownership:
    """The ownership columns of one decomposition over ``nranks``
    ranks (see module doc); zero-volume rows are dropped."""

    def __init__(self, nranks: int, rank: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, offset: np.ndarray | None = None):
        """``rank (n,)``, ``lo`` / ``hi`` ``(n, ndim)`` in any row
        order; ``offset`` per row, or ``None`` for back to back in
        ``lo`` order."""
        rank = np.asarray(rank, dtype=np.int64)
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        keep = (hi > lo).all(axis=1)
        order = np.flatnonzero(keep)
        order = order[np.lexsort((*lo[order].T[::-1], rank[order]))]
        self.nranks = int(nranks)
        self.rank, self.lo, self.hi = rank[order], lo[order], hi[order]
        #: ``starts[r]:starts[r + 1]`` are rank ``r``'s rows.
        self.starts = np.searchsorted(self.rank, np.arange(self.nranks + 1))
        if offset is None:
            volume = (self.hi - self.lo).prod(axis=1)
            before = np.concatenate(([0], np.cumsum(volume)))
            self.offset = before[:-1] - before[self.starts[self.rank]]
        else:
            self.offset = np.asarray(offset, dtype=np.int64)[order]
        self._lists: dict[int, RegionList] = {}
        #: The cache key of the template this table was built from
        #: (:meth:`~repro.dad.descriptor.DistArrayDescriptor.ownership`),
        #: ``None`` for a table with stated offsets: two tables with equal
        #: keys are the same decomposition.
        self.key: tuple | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_lists"] = {}
        return state

    def rows(self, rank: int) -> slice:
        """Rank ``rank``'s rows (empty for a rank outside the table)."""
        if not 0 <= rank < self.nranks:
            return slice(0, 0)
        return slice(int(self.starts[rank]), int(self.starts[rank + 1]))

    def regions(self, rank: int) -> RegionList:
        """Rank ``rank``'s patches, in ``lo`` order — memoized, so every
        caller asking for one rank gets the same object."""
        regions = self._lists.get(rank)
        if regions is None:
            s = self.rows(rank)
            regions = self._lists.setdefault(
                rank, RegionList.from_arrays(self.lo[s], self.hi[s]))
        return regions

    def layout(self, rank: int) -> tuple[RegionList, np.ndarray]:
        """``(regions, offsets)`` of rank ``rank`` — a
        :class:`~repro.schedule.indexplan.LocalIndexer`'s arguments."""
        return self.regions(rank), self.offset[self.rows(rank)]

    def matches(self, rank: int, lo: np.ndarray, hi: np.ndarray,
                offset: np.ndarray) -> bool:
        """Whether lo-sorted columns ``lo`` / ``hi`` / ``offset`` are
        exactly rank ``rank``'s rows."""
        s = self.rows(rank)
        if not len(lo) or s.stop == s.start:
            return not len(lo) and s.stop == s.start
        return (lo.shape == self.lo[s].shape
                and np.array_equal(lo, self.lo[s])
                and np.array_equal(hi, self.hi[s])
                and np.array_equal(offset, self.offset[s]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Ownership({len(self.rank)} patches, {self.nranks} ranks, "
                f"ndim={self.lo.shape[1]})")
