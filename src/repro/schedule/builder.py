"""Schedule construction: descriptor intersection, fast paths, caching.

Two general-purpose engines build region schedules, the more
structure-aware first:

* :func:`build_structured_schedule` — closed form for Cartesian
  templates whose axes are Block / Cyclic / BlockCyclic / Collapsed /
  GeneralizedBlock, from each axis's cell partition
  (:meth:`~repro.dad.axis.AxisDistribution.cells`): an outer product of
  per-axis interval intersections when both sides qualify, a ragged
  per-axis expansion of the other side's ownership regions when one
  does.  The build cost is proportional to the number of transfers.
* :func:`build_sweep_schedule` — a sorted-interval sweep along the
  first axis (the N-dimensional generalization of the merge sweep in
  :func:`build_linear_schedule`) that enumerates only the region pairs
  whose leading intervals overlap, then clips all surviving candidates
  in one vectorized NumPy pass (:func:`repro.util.regions.intersect_boxes`).
  Cost is O((S + D) log(S + D) + overlaps) instead of O(S·D).

Every builder writes the schedule's int64 columns directly — no object
per item (:mod:`repro.schedule.plan`).

:func:`build_region_schedule` dispatches: structured when either side
qualifies, sweep otherwise.  (The O(S·D) all-pairs loop both are proved
against is the oracle in :mod:`repro.verify.schedule`.)

:class:`ScheduleCache` implements the reuse the paper calls out:
schedules are keyed by the *template pair* (plus the builder options),
so transferring a second array with the same decomposition (or the same
array again) skips the build entirely.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.dad.axis import (
    AxisDistribution,
    Block,
    BlockCyclic,
    Collapsed,
    GeneralizedBlock,
)
from repro.dad.descriptor import DistArrayDescriptor
from repro.dad.template import CartesianTemplate
from repro.linearize.linearization import Linearization
from repro.schedule.plan import CommSchedule
from repro.util.indexing import ragged_arange
from repro.util.regions import intersect_boxes


def build_region_schedule(src: DistArrayDescriptor,
                          dst: DistArrayDescriptor,
                          *, force_general: bool = False) -> CommSchedule:
    """Build the communication schedule moving ``src``'s data into
    ``dst``'s decomposition.

    Dispatches to the closed-form structured fast path when either side
    is a Cartesian template of structured axes (unless
    ``force_general``); otherwise — and when ``force_general`` is set —
    runs the general sweep-line builder.  All engines produce
    element-identical schedules.
    """
    if src.shape != dst.shape:
        raise ScheduleError(
            f"cannot build schedule between shapes {src.shape} and "
            f"{dst.shape}")
    if not force_general and (_is_structured(src) or _is_structured(dst)):
        return build_structured_schedule(src, dst)
    return build_sweep_schedule(src, dst)


# -- structured fast path -----------------------------------------------------

#: Axis types whose ownership pieces over an interval have a closed form.
#: Cyclic is a BlockCyclic subclass and needs no separate entry.
_STRUCTURED_AXES = (Block, BlockCyclic, Collapsed, GeneralizedBlock)


def _is_structured(desc: DistArrayDescriptor) -> bool:
    t = desc.template
    return (isinstance(t, CartesianTemplate)
            and all(isinstance(a, _STRUCTURED_AXES) for a in t.axes))


def _axis_pieces(axis: AxisDistribution, lo: np.ndarray, hi: np.ndarray):
    """Owned pieces of the non-empty intervals ``[lo[i], hi[i])`` as
    columns ``(i, proc, piece_lo, piece_hi)``, ascending per interval:
    one ``searchsorted`` per bound over the axis's cells and one ragged
    ``np.repeat`` expansion, proportional to the pieces returned."""
    cuts, procs = axis.cells()
    first = np.searchsorted(cuts, lo, side="right") - 1
    count = np.searchsorted(cuts, hi, side="left") - first
    row = np.repeat(np.arange(len(lo)), count)
    cell = first[row] + ragged_arange(count)
    return (row, procs[cell], np.maximum(lo[row], cuts[cell]),
            np.minimum(hi[row], cuts[cell + 1]))


def _structured_overlaps(template: CartesianTemplate, lo: np.ndarray,
                         hi: np.ndarray):
    """Every ownership piece of ``template`` inside each box row of
    ``lo`` / ``hi``, as columns ``(row, rank, piece_lo, piece_hi)`` —
    one :func:`_axis_pieces` expansion per axis."""
    row = np.arange(len(lo))
    coords: list[np.ndarray] = []
    plo: list[np.ndarray] = []
    phi: list[np.ndarray] = []
    for d, axis in enumerate(template.axes):
        at, proc, a, b = _axis_pieces(axis, lo[row, d], hi[row, d])
        row = row[at]
        coords = [c[at] for c in coords] + [proc]
        plo = [x[at] for x in plo] + [a]
        phi = [x[at] for x in phi] + [b]
    return (row, np.ravel_multi_index(coords, template.grid),
            np.stack(plo, axis=1), np.stack(phi, axis=1))


def _cell_overlay(st: CartesianTemplate, dt: CartesianTemplate):
    """Both sides structured: per axis, the source cells cut against the
    destination cells (:func:`_axis_pieces`); the items are the outer
    product of those per-axis pieces, as columns ``(src, dst, lo,
    hi)``."""
    per_axis = []
    for sa, da in zip(st.axes, dt.axes):
        cuts, procs = da.cells()
        cell, sp, lo, hi = _axis_pieces(sa, cuts[:-1], cuts[1:])
        per_axis.append((lo, hi, sp, procs[cell]))
    pick = np.indices([len(a[0]) for a in per_axis]).reshape(len(per_axis),
                                                              -1)

    def column(j):
        return [a[j][i] for a, i in zip(per_axis, pick)]

    return (np.ravel_multi_index(column(2), st.grid),
            np.ravel_multi_index(column(3), dt.grid),
            np.stack(column(0), axis=1), np.stack(column(1), axis=1))


def build_structured_schedule(src: DistArrayDescriptor,
                              dst: DistArrayDescriptor) -> CommSchedule:
    """Closed-form schedule when at least one side is a Cartesian
    template of structured axes (Block / Cyclic / BlockCyclic /
    Collapsed / GeneralizedBlock) — the Sudarsan–Ribbens per-axis
    interval algebra (arXiv 0706.2146), generalized beyond pure Block:
    :func:`_cell_overlay` when both sides qualify (no ownership region
    enumerated), else the other side's region columns cut per axis
    (:func:`_structured_overlaps`)."""
    s_ok, d_ok = _is_structured(src), _is_structured(dst)
    if not (s_ok or d_ok):
        raise ScheduleError(
            "structured fast path requires a Cartesian template with "
            "Block/Cyclic/BlockCyclic/Collapsed/GeneralizedBlock axes "
            "on at least one side")
    if s_ok and d_ok:
        s, d, lo, hi = _cell_overlay(src.template, dst.template)
    else:
        structured, other = (src, dst) if s_ok else (dst, src)
        owned = other.ownership()
        row, own, lo, hi = _structured_overlaps(structured.template,
                                                owned.lo, owned.hi)
        s, d = (own, owned.rank[row]) if s_ok else (owned.rank[row], own)
    return CommSchedule.from_columns(s, d, lo, hi, src.nranks, dst.nranks,
                                     (src.ownership(), dst.ownership()))


# -- sweep-line general builder ----------------------------------------------

def _overlap_pairs_1d(a_iv: Sequence[tuple[int, int]],
                      b_iv: Sequence[tuple[int, int]],
                      ) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)`` with ``a_iv[i]`` overlapping ``b_iv[j]``.

    Sorted-event sweep with min-heap active sets pruned by interval end:
    every iteration of the inner loops either retires an interval or
    emits an output pair, so the cost is O(n log n + pairs).
    """
    events = sorted(
        [(lo, 0, i, hi) for i, (lo, hi) in enumerate(a_iv) if hi > lo]
        + [(lo, 1, j, hi) for j, (lo, hi) in enumerate(b_iv) if hi > lo])
    active_a: list[tuple[int, int]] = []  # (hi, index) min-heaps
    active_b: list[tuple[int, int]] = []
    pairs: list[tuple[int, int]] = []
    for lo, side, idx, hi in events:
        if side == 0:
            while active_b and active_b[0][0] <= lo:
                heapq.heappop(active_b)
            pairs.extend((idx, j) for _, j in active_b)
            heapq.heappush(active_a, (hi, idx))
        else:
            while active_a and active_a[0][0] <= lo:
                heapq.heappop(active_a)
            pairs.extend((i, idx) for _, i in active_a)
            heapq.heappush(active_b, (hi, idx))
    return pairs


def build_sweep_schedule(src: DistArrayDescriptor,
                         dst: DistArrayDescriptor) -> CommSchedule:
    """General builder: axis-0 sweep plus vectorized N-D clipping.

    Works for *any* descriptor pair (explicit patches, implicit owner
    maps, mixed Cartesian axes).  The sweep over the leading axis
    discards the vast majority of the S·D region pairs an all-pairs scan
    would test; the survivors are intersected on all axes in one NumPy
    call and the non-empty intersections become the schedule's columns.
    """
    if src.shape != dst.shape:
        raise ScheduleError(
            f"cannot build schedule between shapes {src.shape} and "
            f"{dst.shape}")
    s, d = src.ownership(), dst.ownership()
    pairs = _overlap_pairs_1d(list(zip(s.lo[:, 0].tolist(),
                                       s.hi[:, 0].tolist())),
                              list(zip(d.lo[:, 0].tolist(),
                                       d.hi[:, 0].tolist())))
    si, di = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    lo, hi, keep = intersect_boxes(s.lo[si], s.hi[si], d.lo[di], d.hi[di])
    return CommSchedule.from_columns(s.rank[si][keep], d.rank[di][keep],
                                     lo[keep], hi[keep],
                                     src.nranks, dst.nranks, (s, d))


def build_linear_schedule(src: Linearization,
                          dst: Linearization) -> CommSchedule:
    """Intersect two linearizations' run lists by a sorted merge sweep:
    a schedule of ``ndim = 1`` regions, the runs of the linear space.

    Cost is O((Rs + Rd) log) in the total number of runs, independent of
    element count — but the number of runs itself is what a
    "structureless" representation inflates (experiment E7).
    """
    if src.total != dst.total:
        raise ScheduleError(
            f"linear spaces differ: {src.total} vs {dst.total}")
    src_runs = sorted(
        ((run.lo, run.hi, r) for r in range(src.nranks)
         for run in src.runs(r)))
    dst_runs = sorted(
        ((run.lo, run.hi, r) for r in range(dst.nranks)
         for run in dst.runs(r)))
    rows: list[tuple[int, int, int, int]] = []
    i = j = 0
    while i < len(src_runs) and j < len(dst_runs):
        slo, shi, s = src_runs[i]
        dlo, dhi, d = dst_runs[j]
        lo, hi = max(slo, dlo), min(shi, dhi)
        if hi > lo:
            rows.append((s, d, lo, hi))
        if shi <= dhi:
            i += 1
        if dhi <= shi:
            j += 1
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return CommSchedule.from_columns(cols[:, 0], cols[:, 1], cols[:, 2:3],
                                     cols[:, 3:], src.nranks, dst.nranks,
                                     (src.ownership(), dst.ownership()))


#: The LRU bound of a :class:`ScheduleCache`.
SCHEDULE_CACHE_MAX = 512


class ScheduleCache:
    """Template-pair keyed, LRU-bounded schedule cache with statistics.

    Implements §2.3's reuse: "can be reused in consecutive transfers,
    and even for different arrays as long as they conform to the same
    distribution template".  ``get(src, dst)`` returns the cached
    :func:`build_region_schedule` of the pair, building it on a miss.
    The execution tier is not part of the key: a schedule's memoized
    plans serve every tier, so one template pair is one entry whichever
    tier replays it.

    At most :data:`SCHEDULE_CACHE_MAX` entries are retained (512 pinned
    schedules is far beyond any single coupling, small enough that a
    long-lived process cannot grow without limit); least-recently-*used*
    entries are evicted and counted in ``evictions``.

    All operations hold one lock, so threads-backend ranks sharing the
    process-global cache serialize on build and never duplicate work.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._cache: "OrderedDict[tuple, CommSchedule]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, src: DistArrayDescriptor,
            dst: DistArrayDescriptor) -> CommSchedule:
        key = (src.cache_key(), dst.cache_key())
        with self._lock:
            schedule = self._cache.get(key)
            if schedule is not None:
                self.hits += 1
                self._cache.move_to_end(key)
                return schedule
            self.misses += 1
            schedule = self._cache[key] = build_region_schedule(src, dst)
            while len(self._cache) > SCHEDULE_CACHE_MAX:
                self._cache.popitem(last=False)
                self.evictions += 1
            return schedule

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "entries": len(self._cache)}

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self.hits = self.misses = self.evictions = 0


#: The process-wide schedule cache, and the one place a subsystem gets
#: a region schedule from (lint V111): couplings, M×N connections, PRMI
#: parallel arguments, pub/sub channels, pipelines, reorgs and live
#: resizes all call ``GLOBAL_CACHE.get(src, dst)``, so a template pair
#: any of them already compiled — or a resize back to a previously seen
#: decomposition — is a cache hit, not a rebuild.
GLOBAL_CACHE = ScheduleCache()
