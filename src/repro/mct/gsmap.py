"""GlobalSegMap: MCT's domain decomposition descriptor.

A decomposition of a 1-D global index space ``[0, gsize)`` into
contiguous segments, each owned by one model-local rank.  Local storage
order is segments sorted by global start — the mapping every
:class:`~repro.mct.attrvect.AttrVect` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.dad.ownership import Ownership
from repro.errors import MCTError
from repro.linearize.linearization import Run, _chains, coalesce_runs


@dataclass(frozen=True, slots=True)
class Segment:
    """One contiguous chunk: global ``[gstart, gstart + length)`` on
    model-local rank ``pe``."""

    gstart: int
    length: int
    pe: int

    def __post_init__(self) -> None:
        if self.length < 0 or self.gstart < 0 or self.pe < 0:
            raise MCTError(f"invalid segment {self}")

    @property
    def gend(self) -> int:
        return self.gstart + self.length


class GlobalSegMap:
    """Segmented decomposition of a global index space."""

    def __init__(self, gsize: int, segments: Iterable[Segment],
                 nranks: int | None = None):
        self.gsize = int(gsize)
        self.segments = sorted(segments, key=lambda s: (s.gstart, s.pe))
        if not self.segments and self.gsize:
            raise MCTError("non-empty index space needs segments")
        max_pe = max((s.pe for s in self.segments), default=0)
        self.nranks = int(nranks) if nranks is not None else max_pe + 1
        if max_pe >= self.nranks:
            raise MCTError(
                f"segment pe {max_pe} out of range for {self.nranks} ranks")
        self._validate_partition()

    def _validate_partition(self) -> None:
        marks = np.zeros(self.gsize, dtype=np.int8)
        for s in self.segments:
            if s.gend > self.gsize:
                raise MCTError(f"segment {s} exceeds gsize {self.gsize}")
            marks[s.gstart:s.gend] += 1
        if self.gsize and not np.all(marks == 1):
            bad = int(np.flatnonzero(marks != 1)[0])
            raise MCTError(
                f"global index {bad} covered {int(marks[bad])} times")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def block(cls, gsize: int, nranks: int) -> "GlobalSegMap":
        """Even contiguous blocks, one per rank."""
        size = -(-gsize // nranks)
        segments = []
        for pe in range(nranks):
            lo = min(pe * size, gsize)
            hi = min(lo + size, gsize)
            if hi > lo:
                segments.append(Segment(lo, hi - lo, pe))
        return cls(gsize, segments, nranks)

    @classmethod
    def cyclic(cls, gsize: int, nranks: int, block: int = 1) -> "GlobalSegMap":
        """Round-robin blocks (stress case: many small segments)."""
        segments = []
        pos = 0
        b = 0
        while pos < gsize:
            length = min(block, gsize - pos)
            segments.append(Segment(pos, length, b % nranks))
            pos += length
            b += 1
        return cls(gsize, segments, nranks)

    # -- queries -----------------------------------------------------------------

    def segments_of(self, pe: int) -> list[Segment]:
        """Segments of ``pe``, in local storage order (by gstart)."""
        self._check_pe(pe)
        return [s for s in self.segments if s.pe == pe]

    def local_size(self, pe: int) -> int:
        return sum(s.length for s in self.segments_of(pe))

    def owner_of(self, gindex: int) -> int:
        if not (0 <= gindex < self.gsize):
            raise MCTError(f"global index {gindex} out of range")
        for s in self.segments:
            if s.gstart <= gindex < s.gend:
                return s.pe
        raise MCTError(f"global index {gindex} unowned")  # pragma: no cover

    def global_indices(self, pe: int) -> np.ndarray:
        """Global indices of ``pe``'s points, in local storage order."""
        segs = self.segments_of(pe)
        if not segs:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.arange(s.gstart, s.gend, dtype=np.int64) for s in segs])

    def local_offset(self, pe: int, gindex: int) -> int:
        """Local storage offset of ``gindex`` on ``pe``."""
        off = 0
        for s in self.segments_of(pe):
            if s.gstart <= gindex < s.gend:
                return off + (gindex - s.gstart)
            off += s.length
        raise MCTError(f"global index {gindex} not on pe {pe}")

    def runs(self, pe: int) -> list[Run]:
        """Owned index intervals as linearization runs (schedule input)."""
        return coalesce_runs(
            [Run(s.gstart, s.gend) for s in self.segments_of(pe)])

    def ownership(self) -> Ownership:
        """Every pe's :meth:`runs` as one table of 1-D regions, stored
        back to back — the side table of a gsmap schedule."""
        seg = np.array([(s.pe, s.gstart, s.gend) for s in self.segments
                        if s.length], dtype=np.int64).reshape(-1, 3)
        seg = seg[np.lexsort((seg[:, 1], seg[:, 0]))]
        pe, lo, hi = seg.T
        first, last = _chains(lo, hi, pe)
        return Ownership(self.nranks, pe[first], lo[first, None],
                         hi[last, None])

    def _check_pe(self, pe: int) -> None:
        if not (0 <= pe < self.nranks):
            raise MCTError(
                f"pe {pe} out of range for {self.nranks}-rank GlobalSegMap")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GlobalSegMap(gsize={self.gsize}, "
                f"{len(self.segments)} segments, {self.nranks} ranks)")
