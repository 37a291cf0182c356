"""N-dimensional half-open rectangular regions and region lists.

A :class:`Region` is the basic unit of data description throughout the
library: distributed-array patches, schedule transfer units, and InterComm
block descriptors are all regions.  Regions use *half-open* bounds
``[lo, hi)`` per axis, matching Python slicing, so conversion to and from
NumPy views is exact and copy-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import DistributionError


@dataclass(frozen=True, slots=True)
class Region:
    """A half-open N-dimensional rectangle ``[lo[d], hi[d])`` per axis.

    Immutable and hashable so regions can key schedule caches.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise DistributionError(
                f"Region lo/hi rank mismatch: {self.lo} vs {self.hi}"
            )
        for d, (a, b) in enumerate(zip(self.lo, self.hi)):
            if b < a:
                raise DistributionError(
                    f"Region axis {d} has hi < lo: [{a}, {b})"
                )

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_shape(shape: Sequence[int]) -> "Region":
        """The region covering a whole array of the given shape."""
        return Region(tuple(0 for _ in shape), tuple(int(s) for s in shape))

    # -- basic properties -----------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def volume(self) -> int:
        v = 1
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    @property
    def empty(self) -> bool:
        return any(b <= a for a, b in zip(self.lo, self.hi))

    # -- algebra ----------------------------------------------------------

    def intersect(self, other: "Region") -> "Region | None":
        """Intersection with ``other``, or ``None`` when disjoint/empty."""
        if self.ndim != other.ndim:
            raise DistributionError(
                f"cannot intersect rank-{self.ndim} with rank-{other.ndim} region"
            )
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        if any(h <= l for l, h in zip(lo, hi)):
            return None
        return Region(lo, hi)

    def contains(self, other: "Region") -> bool:
        """True when ``other`` lies fully inside this region."""
        if other.empty:
            return True
        return all(a <= c and d <= b for a, b, c, d in
                   zip(self.lo, self.hi, other.lo, other.hi))

    def contains_point(self, point: Sequence[int]) -> bool:
        return all(a <= p < b for a, b, p in zip(self.lo, self.hi, point))

    def shift(self, offset: Sequence[int]) -> "Region":
        """Translate the region by ``offset`` per axis."""
        return Region(
            tuple(a + o for a, o in zip(self.lo, offset)),
            tuple(b + o for b, o in zip(self.hi, offset)),
        )

    def relative_to(self, origin: "Region") -> "Region":
        """Express this region in the local coordinates of ``origin``.

        Used to turn a global-coordinate transfer region into an index
        into a rank's local patch storage.
        """
        if not origin.contains(self):
            raise DistributionError(f"{self} is not inside {origin}")
        return self.shift(tuple(-a for a in origin.lo))

    def subtract(self, other: "Region") -> list["Region"]:
        """This region minus ``other``, as a list of disjoint regions.

        Standard axis-sweep decomposition: peel off slabs below and above
        the overlap on each axis in turn.  Returns ``[self]`` when there
        is no overlap.
        """
        inter = self.intersect(other)
        if inter is None:
            return [] if self.empty else [self]
        pieces: list[Region] = []
        lo = list(self.lo)
        hi = list(self.hi)
        for d in range(self.ndim):
            if lo[d] < inter.lo[d]:
                piece_lo = tuple(lo)
                piece_hi = tuple(hi[:d] + [inter.lo[d]] + hi[d + 1:])
                pieces.append(Region(piece_lo, piece_hi))
                lo[d] = inter.lo[d]
            if inter.hi[d] < hi[d]:
                piece_lo = tuple(lo[:d] + [inter.hi[d]] + lo[d + 1:])
                piece_hi = tuple(hi)
                pieces.append(Region(piece_lo, piece_hi))
                hi[d] = inter.hi[d]
        return [p for p in pieces if not p.empty]

    # -- NumPy interop ----------------------------------------------------

    def to_slices(self) -> tuple[slice, ...]:
        """Slices selecting this region out of a global-coordinate array."""
        return tuple(slice(a, b) for a, b in zip(self.lo, self.hi))

    def view(self, array: np.ndarray, origin: "Region | None" = None) -> np.ndarray:
        """A view of ``array`` covering this region.

        ``array`` holds the data of ``origin`` (defaults to the whole
        array at global origin 0); the returned view is not a copy.
        """
        if origin is None:
            origin = Region.from_shape(array.shape)
        local = self.relative_to(origin)
        return array[local.to_slices()]

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        spans = ", ".join(f"{a}:{b}" for a, b in zip(self.lo, self.hi))
        return f"Region[{spans}]"


def intersect_boxes(a_lo: np.ndarray, a_hi: np.ndarray,
                    b_lo: np.ndarray, b_hi: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pairwise intersection of two batches of boxes.

    All inputs are ``(k, ndim)`` integer arrays of half-open bounds; row
    ``i`` of the ``a`` arrays is intersected with row ``i`` of the ``b``
    arrays.  Returns ``(lo, hi, nonempty)`` where ``nonempty[i]`` is True
    when the intersection has positive volume on every axis.  This is
    the batch core of the sweep-line schedule builder: candidate pairs
    found by the per-axis sweep are clipped in one NumPy pass instead of
    one :meth:`Region.intersect` call each.
    """
    lo = np.maximum(a_lo, b_lo)
    hi = np.minimum(a_hi, b_hi)
    return lo, hi, (hi > lo).all(axis=-1)


class RegionList:
    """An ordered collection of disjoint regions with set-like queries.

    Region lists describe ownership (a rank's patches) and schedule
    send/receive sets.  They are stored as columns: ``lo`` and ``hi`` are
    ``(k, ndim)`` int64 arrays of half-open bounds, one row per region,
    zero-volume rows dropped — what the schedule builders and the plan
    compiler read.  :attr:`regions` and iteration materialise
    :class:`Region` objects lazily, once.  Disjointness is validated on
    construction from regions (``validate=True``) because overlapping
    ownership is always a bug in this domain.
    """

    __slots__ = ("lo", "hi", "_regions", "_volume")

    def __init__(self, regions: Iterable[Region] = (), *, validate: bool = True):
        regions = [r for r in regions if not r.empty]
        shape = (len(regions), regions[0].ndim if regions else 0)
        self.lo = np.array([r.lo for r in regions],
                           dtype=np.int64).reshape(shape)
        self.hi = np.array([r.hi for r in regions],
                           dtype=np.int64).reshape(shape)
        self._regions: list[Region] | None = regions
        self._volume: int | None = None
        if validate:
            self._check_disjoint()

    @classmethod
    def from_arrays(cls, lo: np.ndarray, hi: np.ndarray) -> "RegionList":
        """A list over ``(k, ndim)`` bound columns, zero-volume rows
        dropped; no :class:`Region` is built until asked for."""
        keep = (hi > lo).all(axis=1)
        out = cls.__new__(cls)
        out.lo, out.hi = (lo, hi) if keep.all() else (lo[keep], hi[keep])
        out._regions = None
        out._volume = None
        return out

    @property
    def regions(self) -> list[Region]:
        if self._regions is None:
            self._regions = [Region(tuple(a), tuple(b)) for a, b in
                             zip(self.lo.tolist(), self.hi.tolist())]
        return self._regions

    def _check_disjoint(self) -> None:
        # Sort-and-sweep along the first axis: a region can only collide
        # with regions whose axis-0 slab it overlaps, so each candidate
        # pair is checked at most once and the all-pairs quadratic cost
        # only survives inside a single overlapping slab.
        if len(self.regions) < 2:
            return
        ordered = sorted(self.regions, key=lambda r: r.lo[0])
        active: list[Region] = []
        for r in ordered:
            lo0 = r.lo[0]
            active = [a for a in active if a.hi[0] > lo0]
            for a in active:
                if a.intersect(r) is not None:
                    raise DistributionError(f"overlapping regions: {a} and {r}")
            active.append(r)

    @property
    def volume(self) -> int:
        """Total elements, computed once (the columns never change)."""
        if self._volume is None:
            self._volume = int((self.hi - self.lo).prod(axis=1).sum())
        return self._volume

    def intersect(self, other: "RegionList") -> "RegionList":
        out = []
        for r in self.regions:
            for s in other.regions:
                inter = r.intersect(s)
                if inter is not None:
                    out.append(inter)
        return RegionList(out, validate=False)

    def covers(self, region: Region) -> bool:
        """True when the union of this list covers ``region`` exactly."""
        remaining = [region]
        for r in self.regions:
            nxt: list[Region] = []
            for piece in remaining:
                nxt.extend(piece.subtract(r))
            remaining = nxt
            if not remaining:
                return True
        return not remaining

    def contains_point(self, point: Sequence[int]) -> bool:
        return any(r.contains_point(point) for r in self.regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.lo)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegionList({self.regions!r})"


def tile_check(regions: Iterable[Region], template: Region) -> None:
    """Validate that ``regions`` exactly tile ``template``.

    The paper's *explicit* distribution requires patches that "must not
    overlap and must completely cover the template"; this enforces both,
    raising :class:`DistributionError` otherwise.
    """
    rl = RegionList(regions)  # validates disjointness
    total = sum(r.volume for r in rl)
    if total != template.volume or not rl.covers(template):
        raise DistributionError(
            f"patches do not tile template {template}: "
            f"patch volume {total} vs template volume {template.volume}"
        )
