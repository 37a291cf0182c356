"""Per-axis distribution types for the DAD (paper §2.2.2).

Each distribution describes how one axis of extent ``n`` is divided
among ``nprocs`` process coordinates.  The two queries every type must
answer are :meth:`~AxisDistribution.owner` (element -> process) and
:meth:`~AxisDistribution.intervals` (process -> owned half-open
intervals); everything else in the library is built on those.

``descriptor_entries`` reports the storage cost of the description
itself — the quantity behind the paper's compactness claim ("using the
most compact descriptor appropriate for a given distribution usually
allows ... better performance than ... a completely general,
structureless linearization").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.errors import DistributionError


class AxisDistribution(ABC):
    """How one template axis of extent ``n`` maps onto ``nprocs`` procs."""

    def __init__(self, extent: int, nprocs: int):
        if extent < 0:
            raise DistributionError(f"negative axis extent {extent}")
        if nprocs < 1:
            raise DistributionError(f"axis needs >= 1 process, got {nprocs}")
        self.extent = int(extent)
        self.nprocs = int(nprocs)

    @abstractmethod
    def owner(self, index: int) -> int:
        """Process coordinate owning global index ``index``."""

    @abstractmethod
    def intervals(self, proc: int) -> list[tuple[int, int]]:
        """Half-open ``[lo, hi)`` intervals owned by ``proc``, ascending."""

    @abstractmethod
    def descriptor_entries(self) -> int:
        """Number of integers needed to encode this distribution."""

    # -- shared helpers ---------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.extent):
            raise DistributionError(
                f"index {index} out of range for axis extent {self.extent}")

    def _check_proc(self, proc: int) -> None:
        if not (0 <= proc < self.nprocs):
            raise DistributionError(
                f"process coordinate {proc} out of range (nprocs={self.nprocs})")

    def local_size(self, proc: int) -> int:
        """Number of elements owned by ``proc``."""
        return sum(b - a for a, b in self.intervals(proc))

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The axis as one partition of ``[0, extent)``: ascending int64
        cut points ``(m + 1,)`` and the process coordinate owning each of
        the ``m`` cells, one cell per interval :meth:`intervals` reports.
        The structured schedule builder works on these arrays; a type
        with many cells overrides this with a closed form."""
        spans = sorted((lo, hi, p) for p in range(self.nprocs)
                       for lo, hi in self.intervals(p))
        cuts = np.array([0] + [hi for _, hi, _ in spans], dtype=np.int64)
        return cuts, np.array([p for *_, p in spans], dtype=np.int64)

    def validate_partition(self) -> None:
        """Check that the procs' intervals partition ``[0, extent)``."""
        marks = np.zeros(self.extent, dtype=np.int32)
        for p in range(self.nprocs):
            for a, b in self.intervals(p):
                if not (0 <= a <= b <= self.extent):
                    raise DistributionError(
                        f"interval [{a},{b}) of proc {p} out of axis range")
                marks[a:b] += 1
        if self.extent and not np.all(marks == 1):
            bad = int(np.flatnonzero(marks != 1)[0])
            raise DistributionError(
                f"axis element {bad} owned {int(marks[bad])} times")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(extent={self.extent}, "
                f"nprocs={self.nprocs})")


class Collapsed(AxisDistribution):
    """All elements of the axis belong to a single process."""

    def __init__(self, extent: int):
        super().__init__(extent, 1)

    def owner(self, index: int) -> int:
        self._check_index(index)
        return 0

    def intervals(self, proc: int) -> list[tuple[int, int]]:
        self._check_proc(proc)
        return [(0, self.extent)] if self.extent else []

    def descriptor_entries(self) -> int:
        return 1


def _dealt_cells(extent: int, block: int,
                 nprocs: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells of ``block``-wide blocks dealt round-robin to ``nprocs``."""
    starts = np.arange(0, extent, block, dtype=np.int64)
    return (np.append(starts, np.int64(extent)),
            np.arange(len(starts), dtype=np.int64) % nprocs)


class Block(AxisDistribution):
    """One contiguous block per process (HPF BLOCK).

    Uses the HPF convention: block size ``ceil(n / p)``; trailing
    processes may own fewer (or zero) elements.
    """

    def __init__(self, extent: int, nprocs: int):
        super().__init__(extent, nprocs)
        self.block = -(-extent // nprocs) if extent else 1

    def owner(self, index: int) -> int:
        self._check_index(index)
        return index // self.block

    def intervals(self, proc: int) -> list[tuple[int, int]]:
        self._check_proc(proc)
        lo = min(proc * self.block, self.extent)
        hi = min(lo + self.block, self.extent)
        return [(lo, hi)] if hi > lo else []

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        return _dealt_cells(self.extent, self.block, self.nprocs)

    def descriptor_entries(self) -> int:
        return 2


class BlockCyclic(AxisDistribution):
    """Fixed-size blocks dealt round-robin (HPF CYCLIC(k)).

    ``block=1`` is the classic cyclic distribution; a block size of
    ``ceil(n/p)`` degenerates to :class:`Block`.
    """

    def __init__(self, extent: int, nprocs: int, block: int):
        super().__init__(extent, nprocs)
        if block < 1:
            raise DistributionError(f"block size must be >= 1, got {block}")
        self.block = int(block)

    def owner(self, index: int) -> int:
        self._check_index(index)
        return (index // self.block) % self.nprocs

    def intervals(self, proc: int) -> list[tuple[int, int]]:
        self._check_proc(proc)
        lo = np.arange(proc * self.block, self.extent,
                       self.nprocs * self.block, dtype=np.int64)
        return list(zip(lo.tolist(),
                        np.minimum(lo + self.block, self.extent).tolist()))

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        return _dealt_cells(self.extent, self.block, self.nprocs)

    def descriptor_entries(self) -> int:
        return 3


class Cyclic(BlockCyclic):
    """One element per block (HPF CYCLIC)."""

    def __init__(self, extent: int, nprocs: int):
        super().__init__(extent, nprocs, 1)


class GeneralizedBlock(AxisDistribution):
    """One block per process with per-process sizes (Global Arrays style).

    ``sizes`` must be non-negative and sum to the axis extent.
    """

    def __init__(self, extent: int, sizes: Sequence[int]):
        super().__init__(extent, len(sizes))
        self.sizes = tuple(int(s) for s in sizes)
        if any(s < 0 for s in self.sizes):
            raise DistributionError(f"negative block size in {self.sizes}")
        if sum(self.sizes) != extent:
            raise DistributionError(
                f"generalized block sizes {self.sizes} sum to "
                f"{sum(self.sizes)}, expected {extent}")
        self._bounds = np.concatenate(([0], np.cumsum(self.sizes)))

    def owner(self, index: int) -> int:
        self._check_index(index)
        # bounds is ascending; searchsorted right gives the block index
        return int(np.searchsorted(self._bounds, index, side="right") - 1)

    def intervals(self, proc: int) -> list[tuple[int, int]]:
        self._check_proc(proc)
        lo, hi = int(self._bounds[proc]), int(self._bounds[proc + 1])
        return [(lo, hi)] if hi > lo else []

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        owned = np.flatnonzero(self.sizes)
        return (np.append(np.int64(0), self._bounds[owned + 1]),
                owned.astype(np.int64))

    def descriptor_entries(self) -> int:
        return self.nprocs + 1


class Implicit(AxisDistribution):
    """Arbitrary per-element owner map (HPF-style implicit).

    Complete flexibility "at the cost of one index element per data
    element, and potentially expensive queries into the descriptor".
    """

    def __init__(self, owners: Sequence[int], nprocs: int | None = None):
        owners_arr = np.asarray(owners, dtype=np.int64)
        if owners_arr.ndim != 1:
            raise DistributionError("implicit owner map must be 1-D")
        n = int(owners_arr.max()) + 1 if owners_arr.size else 1
        nprocs = n if nprocs is None else int(nprocs)
        super().__init__(len(owners_arr), nprocs)
        if owners_arr.size and (owners_arr.min() < 0 or owners_arr.max() >= nprocs):
            raise DistributionError(
                f"owner map values must lie in [0, {nprocs})")
        self.owners = owners_arr

    def owner(self, index: int) -> int:
        self._check_index(index)
        return int(self.owners[index])

    def intervals(self, proc: int) -> list[tuple[int, int]]:
        self._check_proc(proc)
        mask = self.owners == proc
        if not mask.any():
            return []
        # Compress the boolean mask into maximal runs (vectorized).
        padded = np.concatenate(([False], mask, [False]))
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        starts, stops = edges[0::2], edges[1::2]
        return list(zip(starts.tolist(), stops.tolist()))

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        starts = np.flatnonzero(np.diff(self.owners, prepend=-1))
        return np.append(starts, self.extent).astype(np.int64), \
            self.owners[starts]

    def descriptor_entries(self) -> int:
        return self.extent
