"""Distribution templates: the virtual arrays of the HPF/DAD model.

A template "can be thought of as a virtual array that specifies the
logical distribution of the array across the processes" (paper §2.2.2).
Two concrete kinds exist:

* :class:`CartesianTemplate` — per-axis distributions over a process
  grid (the common case: all axis types compose freely), and
* :class:`ExplicitTemplate` — the one array-global distribution type:
  arbitrary rectangular patches per rank, validated to tile the array.

Templates are rank-count aware but *communicator independent*: the same
template can describe the layout of the M side or the N side of a
transfer, which is exactly what the schedule builder needs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from repro.errors import DistributionError
from repro.dad.axis import AxisDistribution
from repro.dad.ownership import Ownership
from repro.util.indexing import row_major_coords, row_major_offset
from repro.util.regions import Region, RegionList, tile_check


class Template(ABC):
    """Abstract distribution template over ``nranks`` processes."""

    shape: tuple[int, ...]
    nranks: int

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def global_region(self) -> Region:
        return Region.from_shape(self.shape)

    @abstractmethod
    def owner_regions(self, rank: int) -> RegionList:
        """Global regions owned by ``rank`` (disjoint, ascending order)."""

    @abstractmethod
    def ownership(self) -> Ownership:
        """Every rank's regions as one :class:`~repro.dad.ownership.
        Ownership` table, patches back to back in ``lo`` order."""

    @abstractmethod
    def owner_of(self, point: Sequence[int]) -> int:
        """Rank owning the element at global coordinates ``point``."""

    @abstractmethod
    def descriptor_entries(self) -> int:
        """Size of the descriptor encoding, in integer entries."""

    # -- shared ------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise DistributionError(
                f"rank {rank} out of range for {self.nranks}-rank template")

    def local_volume(self, rank: int) -> int:
        return self.owner_regions(rank).volume

    def all_owner_regions(self) -> list[tuple[int, Region]]:
        """Every (rank, region) ownership pair of the template, by
        (rank, lo)."""
        table = self.ownership()
        return list(zip(table.rank.tolist(),
                        RegionList.from_arrays(table.lo, table.hi).regions))

    def validate(self) -> None:
        """Check the fundamental ownership invariant: the per-rank
        regions partition the global index space exactly."""
        table = self.ownership()
        tile_check(RegionList.from_arrays(table.lo, table.hi).regions,
                   self.global_region)

    def cache_key(self) -> tuple:
        """Hashable identity used to key schedule caches (paper §2.3:
        schedules are reusable across arrays conforming to the same
        template)."""
        return (type(self).__name__, self.shape, self.nranks,
                self._key_details())

    def _key_details(self) -> tuple:
        return ()


class CartesianTemplate(Template):
    """Per-axis distributions composed over a process grid.

    Parameters
    ----------
    axes:
        One :class:`~repro.dad.axis.AxisDistribution` per array axis.
        The process grid shape is ``tuple(d.nprocs for d in axes)`` and
        ranks are row-major over that grid.
    """

    def __init__(self, axes: Sequence[AxisDistribution]):
        if not axes:
            raise DistributionError("template needs at least one axis")
        self.axes = tuple(axes)
        self.shape = tuple(d.extent for d in self.axes)
        self.grid = tuple(d.nprocs for d in self.axes)
        self.nranks = int(np.prod(self.grid))

    def proc_coords(self, rank: int) -> tuple[int, ...]:
        """Process-grid coordinates of ``rank`` (row-major)."""
        self._check_rank(rank)
        return row_major_coords(rank, self.grid)

    def proc_rank(self, coords: Sequence[int]) -> int:
        return row_major_offset(coords, self.grid)

    def owner_regions(self, rank: int) -> RegionList:
        """The outer product of ``rank``'s per-axis interval arrays, as
        columns in ascending (row-major) order — no :class:`Region` is
        built."""
        lo, hi = [], []
        for axis, c in zip(self.axes, self.proc_coords(rank)):
            spans = np.array(axis.intervals(c), dtype=np.int64).reshape(-1, 2)
            lo.append(spans[:, 0])
            hi.append(spans[:, 1])
        pick = np.indices([len(a) for a in lo]).reshape(self.ndim, -1)
        return RegionList.from_arrays(
            np.stack([a[i] for a, i in zip(lo, pick)], axis=1),
            np.stack([b[i] for b, i in zip(hi, pick)], axis=1))

    def ownership(self) -> Ownership:
        """The outer product of every axis's cells
        (:meth:`~repro.dad.axis.AxisDistribution.cells`), each cell
        owned by the rank of its per-axis process coordinates."""
        cells = [axis.cells() for axis in self.axes]
        pick = np.indices([len(procs) for _, procs in cells]).reshape(
            self.ndim, -1)
        return Ownership(
            self.nranks,
            np.ravel_multi_index([procs[i] for (_, procs), i
                                  in zip(cells, pick)], self.grid),
            np.stack([cuts[:-1][i] for (cuts, _), i in zip(cells, pick)],
                     axis=1),
            np.stack([cuts[1:][i] for (cuts, _), i in zip(cells, pick)],
                     axis=1))

    def owner_of(self, point: Sequence[int]) -> int:
        if len(point) != self.ndim:
            raise DistributionError(
                f"point {point} has wrong rank for template {self.shape}")
        coords = tuple(d.owner(int(p)) for d, p in zip(self.axes, point))
        return self.proc_rank(coords)

    def descriptor_entries(self) -> int:
        return sum(d.descriptor_entries() for d in self.axes)

    def _key_details(self) -> tuple:
        details = []
        for d in self.axes:
            entry: tuple = (type(d).__name__, d.extent, d.nprocs)
            block = getattr(d, "block", None)
            if block is not None:
                entry += (block,)
            sizes = getattr(d, "sizes", None)
            if sizes is not None:
                entry += (tuple(sizes),)
            owners = getattr(d, "owners", None)
            if owners is not None:
                entry += (owners.tobytes(),)
            details.append(entry)
        return tuple(details)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        axes = ", ".join(type(d).__name__ for d in self.axes)
        return f"CartesianTemplate({self.shape}, grid={self.grid}, [{axes}])"


class ExplicitTemplate(Template):
    """Arbitrary rectangular patches assigned to ranks (paper: the one
    distribution type "global to the entire array rather than
    axis-specific").

    The patches "must not overlap and must completely cover the
    template" — both are validated at construction.
    """

    def __init__(self, shape: Sequence[int],
                 patches: Iterable[tuple[int, Region]],
                 nranks: int | None = None):
        self.shape = tuple(int(s) for s in shape)
        self.patches: list[tuple[int, Region]] = [
            (int(r), reg) for r, reg in patches]
        if not self.patches:
            raise DistributionError("explicit template needs >= 1 patch")
        max_rank = max(r for r, _ in self.patches)
        self.nranks = int(nranks) if nranks is not None else max_rank + 1
        if max_rank >= self.nranks:
            raise DistributionError(
                f"patch rank {max_rank} exceeds nranks={self.nranks}")
        tile_check([reg for _, reg in self.patches], self.global_region)
        self._by_rank: dict[int, list[Region]] = {}
        for r, reg in self.patches:
            self._by_rank.setdefault(r, []).append(reg)

    def owner_regions(self, rank: int) -> RegionList:
        self._check_rank(rank)
        return RegionList(self._by_rank.get(rank, []), validate=False)

    def ownership(self) -> Ownership:
        return Ownership(
            self.nranks, [r for r, _ in self.patches],
            np.array([reg.lo for _, reg in self.patches],
                     dtype=np.int64).reshape(-1, self.ndim),
            np.array([reg.hi for _, reg in self.patches],
                     dtype=np.int64).reshape(-1, self.ndim))

    def owner_of(self, point: Sequence[int]) -> int:
        for r, reg in self.patches:
            if reg.contains_point(point):
                return r
        raise DistributionError(f"point {tuple(point)} outside template")

    def descriptor_entries(self) -> int:
        # lo + hi per axis plus the owning rank, per patch
        return len(self.patches) * (2 * self.ndim + 1)

    def _key_details(self) -> tuple:
        return tuple((r, reg.lo, reg.hi) for r, reg in self.patches)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExplicitTemplate({self.shape}, {len(self.patches)} patches, "
                f"{self.nranks} ranks)")


def block_template(shape: Sequence[int],
                   grid: Sequence[int]) -> CartesianTemplate:
    """Convenience: a pure block distribution of ``shape`` over ``grid``."""
    from repro.dad.axis import Block

    if len(shape) != len(grid):
        raise DistributionError(
            f"shape {shape} and grid {grid} rank mismatch")
    return CartesianTemplate(
        [Block(int(n), int(p)) for n, p in zip(shape, grid)])
