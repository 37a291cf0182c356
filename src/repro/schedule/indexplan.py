"""Compiled gather/scatter index plans for schedule data movement.

PR 1 minimized *message counts* (one packed buffer per communicating
rank pair); this layer minimizes the cost of producing and consuming
those buffers.  The region-loop pack/unpack path walks a pair's regions
one by one, paying a Python-level ``local_view`` (a linear scan over the
rank's patches) plus a small NumPy copy per region — for fragmented
templates (cyclic, block-cyclic) that per-region overhead dominates the
whole transfer.

A :class:`PairPlan` compiles everything a (src, dst) rank pair exchanges
into one flat ``np.int64`` element-index array into the rank's row-major
local buffer (:meth:`~repro.dad.darray.DistributedArray.flat_local`), so
the copy phase of a transfer collapses to a single vectorized call per
pair::

    buf = flat_local.take(plan.idx)      # gather (send side)
    flat_local[plan.idx] = buf           # scatter (receive side)

with a **contiguity fast path**: when a pair's regions flatten to one
ascending unit-stride range, the index array is dropped entirely and the
plan carries a ``[lo, lo + size)`` slice — gather then returns a
zero-copy *view* of local storage and scatter is one slice assignment.
A **strided fast path** generalizes this: indices forming any ascending
arithmetic progression (the signature of cyclic ownership, where every
peer takes every k-th owned element) compress to ``(lo, size, step)``
and gather/scatter become strided-slice operations — still a zero-copy
view on the send side, which is what lets persistent channels deliver
cyclic pairs straight into the destination's ``flat_local()`` base with
a single copy per byte.

Plans are pure functions of (schedule groups, owner patch layout), so
they are compiled once and cached on the schedule next to
``send_groups``/``recv_groups`` — repeated transfers over a reused
schedule (the paper's persistent-channel case) pay compilation once.
``PLAN_STATS`` counts compilations so tests can pin that down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.util.counters import Counters, TRANSPORT_STATS
from repro.util.indexing import region_flat_indices, row_major_strides
from repro.util.regions import Region

__all__ = [
    "PairPlan",
    "RankPlan",
    "PLAN_STATS",
    "LocalIndexer",
    "compile_pair",
    "compile_rank_plan",
    "compile_pair_plans",
    "plan_from_indices",
]

#: Compilation counters: ``rank_plans`` increments once per compiled
#: per-rank plan, ``pair_plans`` once per (src, dst) pair inside it.
#: Regression tests assert these do not grow under repeated transfers
#: over a cached schedule.
PLAN_STATS = Counters()


@dataclass(frozen=True, slots=True)
class PairPlan:
    """One rank pair's compiled copy phase.

    ``idx`` holds flat element indices into the owning rank's local
    buffer, in wire order.  ``idx is None`` is the slice fast path: the
    pair's elements are exactly ``flat_local[lo:lo + size*step:step]`` —
    unit ``step`` is the classic contiguous case, ``step > 1`` the
    strided (arithmetic-progression) case that cyclic templates produce.
    """

    peer: int
    size: int
    lo: int
    idx: np.ndarray | None
    step: int = 1

    @property
    def contiguous(self) -> bool:
        """Unit-stride slice: the gather view is itself contiguous."""
        return self.idx is None and self.step == 1

    @property
    def strided(self) -> bool:
        """Non-unit-stride slice (cyclic signature): still a zero-copy
        view on gather, still a single slice assignment on scatter."""
        return self.idx is None and self.step > 1

    @property
    def selector(self):
        """The NumPy selector addressing this pair's elements in the
        owning rank's flat local buffer — a slice on the fast paths,
        the index array otherwise.  Safe for any consumer that indexes
        a dimension with it (e.g. 2-D AttrVect row selection)."""
        if self.idx is None:
            return slice(self.lo, self.lo + self.size * self.step, self.step)
        return self.idx

    def gather(self, flat_local: np.ndarray) -> np.ndarray:
        """This pair's packed send buffer (a zero-copy view on the slice
        fast paths, a fresh gathered buffer otherwise)."""
        if self.idx is None:
            return flat_local[self.selector]
        out = flat_local.take(self.idx)
        TRANSPORT_STATS.add("bytes_copied", out.nbytes)
        TRANSPORT_STATS.add("alloc_bytes", out.nbytes)
        return out

    def gather_into(self, flat_local: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather this pair's elements into a caller-provided (pooled)
        buffer — the zero-allocation steady-state pack."""
        if out.size != self.size:
            raise ScheduleError(
                f"staging buffer holds {out.size} elements, plan expects "
                f"{self.size}")
        if self.idx is None:
            np.copyto(out, flat_local[self.selector])
        else:
            # mode="clip", not the default "raise": with ``out=`` NumPy
            # services "raise" through a private copy of ``out`` (one
            # extra allocation and pass per call — 2x warm, 10x into a
            # fresh loan).  Compiled indices are in range by
            # construction (LocalIndexer only indexes inside owned
            # patches; REPRO_VERIFY=1 proves the plan), so nothing is
            # ever clipped.
            flat_local.take(self.idx, out=out, mode="clip")
        TRANSPORT_STATS.add("bytes_copied", out.nbytes)
        return out

    def sub(self, lo: int, hi: int) -> "PairPlan":
        """The sub-plan addressing wire-order elements ``[lo, hi)`` of
        this pair — the collective planner's chunking primitive.  Slice
        fast paths stay slices (an arithmetic progression restricted to
        a contiguous index range is still one); index-array pairs
        re-detect progressions on the restricted range.  Does not count
        as a fresh compilation in ``PLAN_STATS``."""
        if not (0 <= lo <= hi <= self.size):
            raise ScheduleError(
                f"sub-plan range [{lo}, {hi}) outside pair of size "
                f"{self.size}")
        if self.idx is None:
            return PairPlan(self.peer, hi - lo, self.lo + lo * self.step,
                            None, self.step)
        return plan_from_indices(self.peer, self.idx[lo:hi])

    def scatter(self, flat_local: np.ndarray, values) -> int:
        """Write a packed buffer back into local storage; returns the
        element count."""
        values = np.asarray(values).reshape(-1)
        if values.size != self.size:
            raise ScheduleError(
                f"packed buffer holds {values.size} elements, plan expects "
                f"{self.size} — sender and receiver disagree on packing")
        if self.idx is None:
            flat_local[self.selector] = values
        else:
            flat_local[self.idx] = values
        TRANSPORT_STATS.add("bytes_copied", values.nbytes)
        return self.size


@dataclass(frozen=True, slots=True)
class RankPlan:
    """All of one rank's compiled pair plans for one schedule side."""

    pairs: tuple[PairPlan, ...]

    @property
    def contiguous_pairs(self) -> int:
        """How many pairs hit the contiguity fast path."""
        return sum(1 for p in self.pairs if p.contiguous)

    @property
    def element_count(self) -> int:
        return sum(p.size for p in self.pairs)


def plan_from_indices(peer: int, idx: np.ndarray) -> PairPlan:
    """Wrap a flat index array as a :class:`PairPlan`, detecting the
    slice fast paths: ascending unit-stride indices (contiguous) and
    any other ascending arithmetic progression (strided — the cyclic
    signature)."""
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    size = int(idx.size)
    if size == 0:
        return PairPlan(peer, 0, 0, None)
    if size == 1:
        return PairPlan(peer, size, int(idx[0]), None)
    d = np.diff(idx)
    step = int(d[0])
    if step >= 1 and bool((d == step).all()):
        return PairPlan(peer, size, int(idx[0]), None, step)
    return PairPlan(peer, size, 0, idx)


class LocalIndexer:
    """Flat row-major indices of global regions inside one rank's local
    storage.

    The local buffer layout is the one :class:`~repro.dad.darray.
    DistributedArray` guarantees: owned patches sorted by ``region.lo``,
    each flattened row-major, concatenated.  Lookup of a transfer
    region's containing patch uses an exact-match dict (the common case
    for fragmented templates, whose transfer regions coincide with
    patches), a last-hit cache (the common case for block templates,
    where one patch serves many regions), and a containment scan as the
    general fallback.
    """

    def __init__(self, owned_regions: Sequence[Region]):
        patches = sorted(owned_regions, key=lambda r: r.lo)
        offsets = np.zeros(len(patches) + 1, dtype=np.int64)
        np.cumsum([r.volume for r in patches], out=offsets[1:])
        self._patches = patches
        self._offsets = offsets
        self._exact = {r: i for i, r in enumerate(patches)}
        self._last: int | None = None

    def _find_patch(self, region: Region) -> int:
        i = self._exact.get(region)
        if i is not None:
            return i
        if self._last is not None and \
                self._patches[self._last].contains(region):
            return self._last
        for i, patch in enumerate(self._patches):
            if patch.contains(region):
                self._last = i
                return i
        raise ScheduleError(
            f"transfer region {region} not contained in any owned patch")

    def region_indices(self, region: Region) -> np.ndarray:
        """Flat local indices of ``region``'s elements, in the region's
        row-major order."""
        i = self._find_patch(region)
        patch = self._patches[i]
        local = region.relative_to(patch)
        idx = region_flat_indices(local, patch.shape)
        idx += self._offsets[i]
        return idx

    def region_run(self, region: Region) -> tuple[int, int] | None:
        """``(lo, size)`` when ``region`` flattens to one contiguous
        local range, else ``None`` — an O(ndim) closed-form check that
        avoids materializing the index array for the common case."""
        i = self._find_patch(region)
        patch = self._patches[i]
        shape = patch.shape
        # Contiguous iff every axis before the first partial axis spans
        # one index, i.e. all fragmentation lives in the trailing
        # full-width tail plus at most one leading partial axis.
        seen_partial = False
        for d in range(len(shape) - 1, -1, -1):
            span = region.hi[d] - region.lo[d]
            if seen_partial and span != 1:
                return None
            if span != shape[d]:
                seen_partial = True
        local = region.relative_to(patch)
        strides = row_major_strides(shape)
        lo = int(self._offsets[i]) + sum(
            l * s for l, s in zip(local.lo, strides))
        return lo, region.volume


def compile_pair(indexer: LocalIndexer, peer: int,
                 regions: Sequence[Region]) -> PairPlan:
    """Compile one (src, dst) pair's wire-order regions against a rank's
    patch layout.  The plan is a pure function of (regions, layout): two
    calls with equal region lists over an equal layout yield
    byte-identical plans — the soundness basis for the delta compiler's
    verbatim plan reuse (:mod:`repro.schedule.delta`)."""
    runs = [indexer.region_run(r) for r in regions]
    if all(r is not None for r in runs):
        # All regions individually contiguous: the pair is a single
        # slice iff the runs chain end-to-start.
        chained = all(runs[k][0] + runs[k][1] == runs[k + 1][0]
                      for k in range(len(runs) - 1))
        if chained:
            lo = runs[0][0] if runs else 0
            size = sum(n for _, n in runs)
            PLAN_STATS.add("pair_plans")
            return PairPlan(peer, size, lo, None)
        idx = np.concatenate(
            [np.arange(lo, lo + n, dtype=np.int64) for lo, n in runs]) \
            if runs else np.empty(0, dtype=np.int64)
    else:
        parts = [indexer.region_indices(r) for r in regions]
        idx = np.concatenate(parts) if parts else \
            np.empty(0, dtype=np.int64)
    PLAN_STATS.add("pair_plans")
    return plan_from_indices(peer, idx)


def compile_rank_plan(groups: Sequence[tuple[int, Sequence[Region], object]],
                      owned_regions: Sequence[Region]) -> RankPlan:
    """Compile one rank's per-pair groups against its patch layout.

    ``groups`` is the schedule's ``send_groups``/``recv_groups`` output:
    ``(peer, regions, offsets)`` with regions in wire order.  The index
    order inside each compiled pair matches the region-loop pack order
    exactly, so plan-based and loop-based buffers are byte-identical.
    """
    indexer = LocalIndexer(owned_regions)
    pairs = [compile_pair(indexer, peer, regions)
             for peer, regions, _offsets in groups]
    PLAN_STATS.add("rank_plans")
    return RankPlan(tuple(pairs))


def compile_pair_plans(groups: Sequence[tuple[int, Sequence, object]],
                       indices_of: Callable[[object], np.ndarray]) -> RankPlan:
    """Generic plan compiler: ``indices_of(item)`` yields each group
    item's flat local indices (linearization runs, AttrVect rows, ...).
    """
    pairs: list[PairPlan] = []
    for peer, items, _offsets in groups:
        parts = [np.asarray(indices_of(it), dtype=np.int64) for it in items]
        idx = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        pairs.append(plan_from_indices(peer, idx))
        PLAN_STATS.add("pair_plans")
    PLAN_STATS.add("rank_plans")
    return RankPlan(tuple(pairs))
