"""Core linearization machinery: runs, layouts, extraction and injection.

The contract every linearization satisfies:

* every element of the structure has exactly one linear position,
* :meth:`Linearization.runs` reports each rank's owned positions as
  maximal half-open intervals,
* :meth:`Linearization.layout` says where those positions sit in the
  rank's flat local storage — what a schedule's plans compile against,
  exactly as a DAD's owned patches do (a linear run is a region with
  ``ndim = 1``),
* :meth:`extract` reads the values of a linear interval out of local
  storage and :meth:`inject` writes them back — the per-run reference,
  and how a structure with no flat storage (a graph, a tree) is staged.

For dense arrays the canonical (row-major) linearization turns a
rectangular patch into one run per contiguous row segment — which is
precisely why a "structureless" linearization carries more descriptor
entries than a compact DAD (experiment E7).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import DistributionError, ScheduleError
from repro.dad.darray import DistributedArray
from repro.dad.descriptor import DistArrayDescriptor
from repro.dad.ownership import Ownership
from repro.util.indexing import ragged_arange, row_major_strides
from repro.util.regions import RegionList


@dataclass(frozen=True, slots=True)
class Run:
    """A maximal contiguous interval of linear positions owned by a rank."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise DistributionError(f"run hi < lo: [{self.lo}, {self.hi})")

    @property
    def length(self) -> int:
        return self.hi - self.lo

    def intersect(self, other: "Run") -> "Run | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Run(lo, hi) if hi > lo else None


def coalesce_runs(runs: Sequence[Run]) -> list[Run]:
    """Sort and merge adjacent/overlapping runs into maximal intervals."""
    if not runs:
        return []
    ordered = sorted(runs, key=lambda r: r.lo)
    out = [ordered[0]]
    for r in ordered[1:]:
        last = out[-1]
        if r.lo <= last.hi:
            out[-1] = Run(last.lo, max(last.hi, r.hi))
        else:
            out.append(r)
    return out


def run_layout(runs: Sequence[Run]) -> tuple[RegionList, np.ndarray]:
    """``runs`` (ascending) stored back to back: ``(regions, offsets)``,
    the non-empty runs as 1-D regions and the flat local offset of each
    one's first element."""
    bounds = np.array([(r.lo, r.hi) for r in runs if r.hi > r.lo],
                      dtype=np.int64).reshape(-1, 2)
    length = bounds[:, 1] - bounds[:, 0]
    return (RegionList.from_arrays(bounds[:, :1], bounds[:, 1:]),
            np.cumsum(length) - length)


def _chains(lo: np.ndarray, hi: np.ndarray,
            owner: np.ndarray | None = None):
    """Masks of the first and the last interval of every maximal chain
    of consecutive intervals each starting where the previous ends (and,
    given ``owner``, owned by the same rank)."""
    first = np.ones(len(lo), dtype=bool)
    first[1:] = lo[1:] != hi[:-1]
    if owner is not None:
        first[1:] |= owner[1:] != owner[:-1]
    return first, np.roll(first, -1)


class Linearization(ABC):
    """Maps a distributed structure's elements onto ``[0, total)``."""

    nranks: int

    @property
    @abstractmethod
    def total(self) -> int:
        """Total number of elements in the linear space."""

    @abstractmethod
    def runs(self, rank: int) -> list[Run]:
        """Owned linear intervals of ``rank``, coalesced and ascending."""

    @abstractmethod
    def extract(self, rank: int, run: Run, storage) -> np.ndarray:
        """Values of ``run`` (which must be owned by ``rank``) as a flat
        array read from ``storage``."""

    @abstractmethod
    def inject(self, rank: int, run: Run, values: np.ndarray, storage) -> None:
        """Write ``values`` into the positions of ``run`` in ``storage``."""

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the linearized values — what empty wire
        buffers must be typed as.  Defaults to float64; linearizations
        with a known storage dtype should override."""
        return np.dtype(np.float64)

    def layout(self, rank: int) -> tuple[RegionList, np.ndarray]:
        """Where ``rank``'s owned positions sit in its flat storage:
        ``(runs, offsets)``, owned linear intervals as 1-D regions and
        the flat local offset of each one's first element — a
        :class:`~repro.schedule.indexplan.LocalIndexer`'s arguments.
        Default: :meth:`runs` back to back (:func:`run_layout`)."""
        return run_layout(self.runs(rank))

    def ownership(self) -> Ownership:
        """Every rank's :meth:`layout` as one table of 1-D regions — the
        side table a linear schedule carries and compiles against."""
        layouts = [self.layout(r) for r in range(self.nranks)]
        return Ownership(
            self.nranks,
            np.repeat(np.arange(self.nranks), [len(o) for o, _ in layouts]),
            np.concatenate([o.lo.reshape(-1, 1) for o, _ in layouts]),
            np.concatenate([o.hi.reshape(-1, 1) for o, _ in layouts]),
            np.concatenate([off for _, off in layouts]))

    # -- shared -----------------------------------------------------------

    def descriptor_entries(self) -> int:
        """Entries needed to encode all ranks' run lists."""
        return sum(2 * len(self.runs(r)) for r in range(self.nranks))

    def validate_partition(self) -> None:
        """Every linear position owned exactly once."""
        marks = np.zeros(self.total, dtype=np.int32)
        for r in range(self.nranks):
            for run in self.runs(r):
                if not (0 <= run.lo <= run.hi <= self.total):
                    raise DistributionError(
                        f"run [{run.lo},{run.hi}) out of range for rank {r}")
                marks[run.lo:run.hi] += 1
        if self.total and not np.all(marks == 1):
            bad = int(np.flatnonzero(marks != 1)[0])
            raise DistributionError(
                f"linear position {bad} owned {int(marks[bad])} times")


class DenseLinearization(Linearization):
    """Row-major linearization of a DAD-described dense array.

    The linear position of global element ``(i0, .., ik)`` is its
    row-major offset in the global shape.  Each owned rectangular patch
    decomposes into one run per contiguous row segment.
    """

    def __init__(self, descriptor: DistArrayDescriptor):
        self.descriptor = descriptor
        self.nranks = descriptor.nranks
        self._strides = row_major_strides(descriptor.shape)
        self._runs_cache: dict[int, list[Run]] = {}
        self._ownership: Ownership | None = None

    @property
    def total(self) -> int:
        n = 1
        for s in self.descriptor.shape:
            n *= s
        return n

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.descriptor.dtype)

    def runs(self, rank: int) -> list[Run]:
        if rank not in self._runs_cache:
            glo, ghi, _ = self._local_table(rank)
            first, last = _chains(glo, ghi)
            self._runs_cache[rank] = [
                Run(a, b) for a, b in zip(glo[first].tolist(),
                                          ghi[last].tolist())]
        return self._runs_cache[rank]

    def layout(self, rank: int) -> tuple[RegionList, np.ndarray]:
        return self.ownership().layout(rank)

    def ownership(self) -> Ownership:
        """Every rank's owned linear intervals that are contiguous in its
        flat local storage, and the local position of each one's first
        element, as one table.

        Built once, for all ranks, from the descriptor's ownership table
        with no object per row: each patch (in the :meth:`~repro.dad.
        darray.DistributedArray.flat_local` layout) enumerates one
        last-axis row at a time in row-major order, so a row's local
        position is its patch offset plus the running element count;
        consecutive rows of one rank that are also adjacent in the
        linear space merge.
        """
        if self._ownership is None:
            owned = self.descriptor.ownership()
            shape = owned.hi - owned.lo
            nrows = shape[:, :-1].prod(axis=1)
            patch = np.repeat(np.arange(len(shape)), nrows)
            ordinal = ragged_arange(nrows)
            width = shape[patch, -1]
            lbase = owned.offset[patch] + ordinal * width
            glo = owned.lo[patch, -1].copy()
            for d in range(shape.shape[1] - 2, -1, -1):
                ordinal, coord = np.divmod(ordinal, shape[patch, d])
                glo += (owned.lo[patch, d] + coord) * self._strides[d]
            ghi = glo + width
            rank = owned.rank[patch]
            first, last = _chains(glo, ghi, rank)
            self._ownership = Ownership(self.nranks, rank[first],
                                        glo[first, None], ghi[last, None],
                                        lbase[first])
        return self._ownership

    def _local_table(self, rank: int) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
        """``(glo, ghi, lbase)`` of rank ``rank``: its rows of
        :meth:`ownership`, ascending."""
        table = self.ownership()
        s = table.rows(rank)
        return table.lo[s, 0], table.hi[s, 0], table.offset[s]

    # -- data movement ------------------------------------------------------

    def run_indices(self, rank: int, run: Run) -> np.ndarray:
        """Flat-local indices of ``run``, via binary search over the
        rank's interval table — the per-run reference :meth:`extract` /
        :meth:`inject` use and compiled plans are tested against."""
        glo, ghi, lbase = self._local_table(rank)
        parts: list[np.ndarray] = []
        pos = run.lo
        i = int(np.searchsorted(ghi, pos, side="right"))
        while pos < run.hi:
            if i >= glo.size or glo[i] > pos:
                raise ScheduleError(
                    f"rank {rank} does not own all of linear run "
                    f"[{run.lo},{run.hi})")
            stop = min(run.hi, int(ghi[i]))
            base = int(lbase[i]) - int(glo[i])
            parts.append(np.arange(base + pos, base + stop, dtype=np.int64))
            pos = stop
            i += 1
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else \
            np.empty(0, dtype=np.int64)

    def extract(self, rank: int, run: Run,
                storage: DistributedArray) -> np.ndarray:
        return storage.flat_local().take(self.run_indices(rank, run))

    def inject(self, rank: int, run: Run, values: np.ndarray,
               storage: DistributedArray) -> None:
        idx = self.run_indices(rank, run)
        values = np.asarray(values).reshape(-1)
        if values.size != idx.size:
            raise ScheduleError(
                f"rank {rank}: inject of run [{run.lo},{run.hi}) got "
                f"{values.size} values for {idx.size} positions")
        storage.flat_local()[idx] = values
