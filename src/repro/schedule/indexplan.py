"""Compiled copy plans for schedule data movement: box | index.

A schedule is computed once and replayed (paper §2.3), so the replay is
the product.  A :class:`PairPlan` is everything one (src, dst) rank pair
exchanges, compiled against the owning rank's row-major local buffer
(:meth:`~repro.dad.darray.DistributedArray.flat_local`) into one of two
shapes:

**box** — a :class:`Box` ``(lo, shape, strides)`` in elements, or a
short tuple of them.  The closed-form redistribution tables of
block-cyclic layouts *are* strided boxes:

===========================  ====================  ===================
pair                         ``shape``             ``strides``
===========================  ====================  ===================
contiguous range             ``(n,)``              ``(1,)``
cyclic (every k-th element)  ``(n,)``              ``(k,)``
block-cyclic, block > 1      ``(nruns, run_len)``  ``(stride, 1)``
2-D sub-block of a patch     ``(rows, cols)``      ``(patch_width, 1)``
===========================  ====================  ===================

and a ragged last block is a second box.  A box executes as one
``np.copyto`` over a strided n-D view of the flat buffer — no index is
stored, pickled (the RMA tier ships its scatter plan in the window
handle) or fancy-indexed.

**index** — the fallback: one ``np.int64`` element index per element in
wire order, for pairs that do not fold into :data:`MAX_BOXES` boxes
(irregular explicit templates, linearization runs with no regular
stride).

**Lending.**  A single-box plan *lends*: :meth:`PairPlan.lend` hands out
the n-D view itself, and the executor sends that view as a
:class:`~repro.simmpi.payload.Borrowed` payload instead of gathering
into a staging buffer — the transport's own copy (shared-memory slot
write, preposted sink, RMA window put) reads source storage directly.
:meth:`PairPlan.scatter` accepts what arrives in any shape: wire order
is the C order of the payload, so it reshapes whichever side is
contiguous to the other's shape (free), copies box to box when the
shapes agree, and stages through a loan only when neither holds.

Plans are pure functions of (a rank's wire columns, its local layout:
owned patches, or owned linear runs and where each starts in local
storage — :class:`LocalIndexer`), so they are compiled once and cached
on the schedule —
repeated transfers over a reused schedule (the paper's
persistent-channel case) pay compilation once.
``PLAN_STATS`` counts compilations so tests can pin that down.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.util.counters import Counters, TRANSPORT_STATS
from repro.util.indexing import ragged_arange, region_flat_indices
from repro.util.regions import Region, RegionList

__all__ = [
    "Box",
    "MAX_BOXES",
    "PairPlan",
    "RankPlan",
    "PLAN_STATS",
    "LocalIndexer",
    "compile_pair",
    "compile_rank_plan",
    "plan_from_indices",
]

#: Compilation counters: ``rank_plans`` increments once per compiled
#: per-rank plan, ``pair_plans`` once per (src, dst) pair inside it.
#: Regression tests assert these do not grow under repeated transfers
#: over a cached schedule.
PLAN_STATS = Counters()

#: A pair that does not fold into at most this many boxes falls back to
#: an index array.  A regular pair needs one (plus a ragged tail); a
#: ``sub()`` range of a two-axis box three.
MAX_BOXES = 8

#: ``loan(size, dtype) -> (buffer, release)``: where a copy that needs
#: staging gets its 1-D scratch (the executor passes its buffer pool).
Loan = Callable[[int, np.dtype], tuple[np.ndarray, Callable[[], None]]]


def _heap_loan(size: int, dtype) -> tuple[np.ndarray, Callable[[], None]]:
    buf = np.empty(size, dtype)
    TRANSPORT_STATS.add("alloc_bytes", buf.nbytes)
    return buf, lambda: None


class Box(NamedTuple):
    """``shape`` elements starting at ``lo``, axis ``d`` advancing
    ``strides[d]`` elements of the flat buffer; wire order is the box's
    C order.  Always canonical (see :func:`_box`): at least one axis, no
    unit axis, no two axes that chain — so equal element sequences
    compile to equal boxes and contiguous means ``strides == (1,)``."""

    lo: int
    shape: tuple[int, ...]
    strides: tuple[int, ...]

    @property
    def size(self) -> int:
        return prod(self.shape)

    def view(self, flat: np.ndarray) -> np.ndarray:
        """The box as a strided n-D view of 1-D C-contiguous ``flat``.
        NumPy checks the extent against the buffer, so a box reaching
        outside it raises instead of addressing foreign memory."""
        step = flat.itemsize
        try:
            return np.ndarray(self.shape, flat.dtype, flat, self.lo * step,
                              tuple(s * step for s in self.strides))
        except (TypeError, ValueError) as exc:
            raise ScheduleError(
                f"{self} does not fit a flat buffer of {flat.size} "
                f"elements ({exc})") from None

    def indices(self) -> np.ndarray:
        """Flat element indices in wire order."""
        idx = np.full((), self.lo, dtype=np.int64)
        for n, s in zip(self.shape, self.strides):
            idx = idx[..., None] + np.arange(n, dtype=np.int64) * s
        return idx.reshape(-1)

    def sub(self, a: int, b: int) -> list["Box"]:
        """Wire-order elements ``[a, b)`` as boxes: head-partial row,
        whole rows, tail-partial row, recursively per axis — at most
        ``2 * naxes - 1`` of them."""
        return [_box(*raw) for raw in
                _sub_raw(self.lo, self.shape, self.strides, a, b)]


_EMPTY = Box(0, (0,), (1,))


def _box(lo: int, shape: Sequence[int], strides: Sequence[int]) -> Box:
    """Canonical :class:`Box`: unit axes dropped, axes that chain
    (``strides[d] == shape[d+1] * strides[d+1]``) merged."""
    if 0 in shape:
        return _EMPTY
    out_n: list[int] = []
    out_s: list[int] = []
    for n, s in zip(shape, strides):
        if n == 1:
            continue
        if out_n and out_s[-1] == n * s:
            out_n[-1] *= n
            out_s[-1] = s
        else:
            out_n.append(int(n))
            out_s.append(int(s))
    if not out_n:
        return Box(int(lo), (1,), (1,))
    return Box(int(lo), tuple(out_n), tuple(out_s))


def _sub_raw(lo, shape, strides, a, b):
    if a >= b:
        return
    if len(shape) == 1:
        yield lo + a * strides[0], (b - a,), strides
        return
    inner, step = prod(shape[1:]), strides[0]
    (r0, a0), (r1, b1) = divmod(a, inner), divmod(b, inner)
    if r0 == r1:
        yield from _sub_raw(lo + r0 * step, shape[1:], strides[1:], a0, b1)
        return
    if a0:
        yield from _sub_raw(lo + r0 * step, shape[1:], strides[1:], a0, inner)
        r0 += 1
    if r1 > r0:
        yield lo + r0 * step, (r1 - r0,) + shape[1:], strides
    yield from _sub_raw(lo + r1 * step, shape[1:], strides[1:], 0, b1)


def _copy_box(dst: np.ndarray, src: np.ndarray, loan: Loan | None) -> None:
    """``dst <- src`` for equal-size arrays whose wire order is their C
    order.  Equal shapes copy box to box; otherwise whichever side is
    contiguous is reshaped to the other's shape (free); only two
    non-contiguous views of different shape stage through ``loan``."""
    release = None
    if dst.shape != src.shape:
        if src.flags.c_contiguous:
            src = src.reshape(dst.shape)
        elif dst.flags.c_contiguous:
            dst = dst.reshape(src.shape)
        else:
            src, release = _staged_flat(src, loan)
            src = src.reshape(dst.shape)
    np.copyto(dst, src)
    if release is not None:
        release()


def _staged_flat(values: np.ndarray, loan: Loan | None):
    """A non-contiguous lent view copied into 1-D scratch (one pass)."""
    tmp, release = (loan or _heap_loan)(values.size, values.dtype)
    np.copyto(tmp.reshape(values.shape), values)
    TRANSPORT_STATS.add("bytes_copied", tmp.nbytes)
    return tmp, release


@dataclass(frozen=True, slots=True)
class PairPlan:
    """One rank pair's compiled copy phase: ``boxes`` in wire order, or
    — ``boxes == ()`` — the ``idx`` fallback holding one flat element
    index per element.  ``idx is None`` for every box plan."""

    peer: int
    size: int
    boxes: tuple[Box, ...]
    idx: np.ndarray | None = None

    @property
    def contiguous(self) -> bool:
        """One unit-stride range: the gather view is itself contiguous."""
        return len(self.boxes) == 1 and self.boxes[0].strides == (1,)

    def indices(self) -> np.ndarray:
        """The flat element indices this plan addresses, in wire order —
        boxes expanded (what the static proof and multi-axis selectors
        materialize; never used by a transfer step)."""
        if self.idx is not None:
            return self.idx
        return np.concatenate([box.indices() for box in self.boxes])

    @property
    def selector(self):
        """The NumPy selector addressing this pair's elements in the
        owning rank's flat local buffer — a slice for a one-axis box,
        an index array otherwise.  Safe for any consumer that indexes
        a dimension with it (e.g. 2-D AttrVect row selection)."""
        if len(self.boxes) == 1 and len(self.boxes[0].shape) == 1:
            lo, (n,), (step,) = self.boxes[0]
            return slice(lo, lo + n * step, step)
        return self.indices()

    def lend(self, flat_local: np.ndarray) -> np.ndarray | None:
        """A single-box plan's elements as a live n-D view of
        ``flat_local`` (wire order = the view's C order) — what the
        executor sends instead of a gathered copy.  ``None`` for a
        multi-box or index plan, which must be staged."""
        if len(self.boxes) == 1:
            return self.boxes[0].view(flat_local)
        return None

    def gather(self, flat_local: np.ndarray) -> np.ndarray:
        """This pair's packed 1-D send buffer: a zero-copy view for a
        one-axis box, a fresh gathered buffer otherwise."""
        if len(self.boxes) == 1 and len(self.boxes[0].shape) == 1:
            return self.boxes[0].view(flat_local)
        out, _ = _heap_loan(self.size, flat_local.dtype)
        return self.gather_into(flat_local, out)

    def gather_into(self, flat_local: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather this pair's elements into a caller-provided (pooled)
        C-contiguous buffer — the zero-allocation pack of a plan that
        cannot lend."""
        if out.size != self.size or not out.flags.c_contiguous:
            raise ScheduleError(
                f"staging buffer holds {out.size} elements, plan expects "
                f"{self.size} in a C-contiguous buffer")
        flat_out = out.reshape(-1)
        if self.idx is not None:
            # mode="clip", not the default "raise": with ``out=`` NumPy
            # services "raise" through a private copy of ``out`` (one
            # extra allocation and pass per call — 2x warm, 10x into a
            # fresh loan).  Compiled indices are in range by
            # construction (LocalIndexer only indexes inside owned
            # patches; REPRO_VERIFY=1 proves the plan), so nothing is
            # ever clipped.
            flat_local.take(self.idx, out=flat_out, mode="clip")
        else:
            off = 0
            for box in self.boxes:
                np.copyto(flat_out[off:off + box.size].reshape(box.shape),
                          box.view(flat_local))
                off += box.size
        TRANSPORT_STATS.add("bytes_copied", out.nbytes)
        return out

    def sub(self, lo: int, hi: int) -> "PairPlan":
        """The sub-plan addressing wire-order elements ``[lo, hi)`` of
        this pair — the collective planner's chunking primitive.  Boxes
        stay boxes (a range of a two-axis box is at most head-partial
        row, whole rows, tail-partial row); index pairs re-detect
        progressions on the restricted range.  Does not count as a
        fresh compilation in ``PLAN_STATS``."""
        if not (0 <= lo <= hi <= self.size):
            raise ScheduleError(
                f"sub-plan range [{lo}, {hi}) outside pair of size "
                f"{self.size}")
        if self.idx is not None:
            return plan_from_indices(self.peer, self.idx[lo:hi])
        boxes: list[Box] = []
        off = 0
        for box in self.boxes:
            boxes += box.sub(max(lo - off, 0), min(hi - off, box.size))
            off += box.size
        if len(boxes) > MAX_BOXES:
            return PairPlan(self.peer, hi - lo, (),
                            np.concatenate([b.indices() for b in boxes]))
        return PairPlan(self.peer, hi - lo, tuple(boxes) or (_EMPTY,))

    def scatter(self, flat_local: np.ndarray, values, *,
                loan: Loan | None = None) -> int:
        """Write a packed buffer — or a peer's lent view, of any shape —
        back into local storage; returns the element count.  ``loan``
        supplies scratch for the one case that needs staging (see
        :func:`_copy_box`; default: a fresh heap buffer)."""
        values = np.asarray(values)
        if values.size != self.size:
            raise ScheduleError(
                f"packed buffer holds {values.size} elements, plan expects "
                f"{self.size} — sender and receiver disagree on packing")
        if len(self.boxes) == 1:
            _copy_box(self.boxes[0].view(flat_local), values, loan)
        else:
            release = None
            if not values.flags.c_contiguous:
                values, release = _staged_flat(values, loan)
            values = values.reshape(-1)
            if self.idx is not None:
                flat_local[self.idx] = values
            off = 0
            for box in self.boxes:
                np.copyto(box.view(flat_local),
                          values[off:off + box.size].reshape(box.shape))
                off += box.size
            if release is not None:
                release()
        TRANSPORT_STATS.add("bytes_copied", values.nbytes)
        return self.size


@dataclass(frozen=True, slots=True)
class RankPlan:
    """All of one rank's compiled pair plans for one schedule side."""

    pairs: tuple[PairPlan, ...]

    @property
    def contiguous_pairs(self) -> int:
        """How many pairs are one unit-stride range."""
        return sum(1 for p in self.pairs if p.contiguous)

    @property
    def element_count(self) -> int:
        return sum(p.size for p in self.pairs)


def plan_from_indices(peer: int, idx: np.ndarray) -> PairPlan:
    """Wrap a flat index array as a :class:`PairPlan`: a one-axis box
    when the indices form an ascending arithmetic progression, else the
    index array itself."""
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    size = int(idx.size)
    if size <= 1:
        return PairPlan(peer, size,
                        (_box(int(idx[0]) if size else 0, (size,), (1,)),))
    d = np.diff(idx)
    step = int(d[0])
    if step >= 1 and bool((d == step).all()):
        return PairPlan(peer, size, (_box(int(idx[0]), (size,), (step,)),))
    return PairPlan(peer, size, (), idx)


# -- compilation --------------------------------------------------------------
#
# Rows: k boxes as three int64 arrays ``lo (k,)``, ``shape (k, m)``,
# ``strides (k, m)`` — one per transfer region to start with.

def _fold(lo, shape, strides):
    """One folding level: every maximal run of consecutive rows with
    equal shape and strides and one constant positive ``lo`` delta
    becomes a single row with one more outer axis ``(count, delta)``."""
    k = len(lo)
    delta = np.diff(lo)
    same = ((shape[1:] == shape[:-1]).all(axis=1)
            & (strides[1:] == strides[:-1]).all(axis=1) & (delta > 0))
    link = np.where(same, delta, 0)             # 0 = rows do not chain
    cuts = np.flatnonzero(link[1:] != link[:-1]) + 1
    # Greedy over groups of equal links: a run keeps extending while the
    # link repeats; the first differing link is the boundary to the next
    # run and belongs to neither.
    first, last = [], []
    a = 0
    starts = [0, *cuts.tolist()]
    for gs, ge, chained in zip(starts, [*starts[1:], k - 1],
                               link[starts].tolist()):
        if not chained:
            first += [a, *range(gs + 1, ge)]
            last += [gs, *range(gs + 1, ge)]
            a = ge
        elif a < gs:
            first.append(a)
            last.append(gs)
            a = gs + 1
    first.append(a)
    last.append(k - 1)
    first = np.asarray(first)
    count = np.asarray(last) - first + 1
    step = np.where(count > 1, lo[np.minimum(first + 1, k - 1)] - lo[first], 0)
    return (lo[first], np.column_stack((count, shape[first])),
            np.column_stack((step, strides[first])))


def _expand(lo, shape, strides) -> np.ndarray:
    """Flat indices of ragged rows, row by row in C order — vectorised
    over all elements, no per-row ``arange``."""
    vol = shape.prod(axis=1)
    row = np.repeat(np.arange(len(lo)), vol)
    ordinal = ragged_arange(vol)
    idx = lo[row]
    for d in range(shape.shape[1] - 1, -1, -1):
        ordinal, coord = np.divmod(ordinal, shape[row, d])
        idx += coord * strides[row, d]
    return idx


def _pair_from_rows(peer: int, lo, shape, strides) -> PairPlan:
    PLAN_STATS.add("pair_plans")
    size = int(shape.prod(axis=1).sum())
    rows = (lo, shape, strides)
    while len(rows[0]) > 1:
        folded = _fold(*rows)
        if len(folded[0]) == len(rows[0]):
            break
        rows = folded
    if len(rows[0]) > MAX_BOXES:
        return PairPlan(peer, size, (), _expand(lo, shape, strides))
    boxes = [_box(*raw) for raw in zip(
        rows[0].tolist(), rows[1].tolist(), rows[2].tolist())]
    boxes = tuple(b for b in boxes if b.size) or (_EMPTY,)
    return PairPlan(peer, size, boxes)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    # not np.unique: its first call imports numpy.ma (~10 ms), which
    # every forked rank process would pay inside its first bind
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _region(lo: np.ndarray, hi: np.ndarray) -> Region:
    return Region(tuple(lo.tolist()), tuple(hi.tolist()))


class LocalIndexer:
    """Where global regions live inside one rank's local storage.

    Each owned patch is flattened row-major and starts at its offset in
    the flat local buffer.  By default the patches are stored back to
    back in ``lo`` order — the layout :class:`~repro.dad.darray.
    DistributedArray` guarantees; a linearization says where each of its
    owned runs starts instead (:meth:`~repro.linearize.linearization.
    Linearization.layout`).  :meth:`locate` answers for many regions at
    once, in closed form: the per-axis patch edges cut the index space
    into cells each owned by at most one patch, so a region's patch is
    one ``searchsorted`` per axis and one table lookup, and its box
    ``lo`` one dot with the patch strides.
    """

    def __init__(self, owned_regions: RegionList | Sequence[Region],
                 offsets: np.ndarray | None = None):
        """``owned_regions``: a :class:`RegionList` (its columns are read
        as they are) or any sequence of :class:`Region`; ``offsets``:
        the flat local position of each one's first element, in the
        same order (default: back to back in ``lo`` order)."""
        if not isinstance(owned_regions, RegionList):
            owned_regions = RegionList(owned_regions, validate=False)
        n, ndim = owned_regions.lo.shape
        order = np.lexsort(owned_regions.lo.T[::-1]) if n else slice(None)
        self._plo = owned_regions.lo[order]
        self._phi = owned_regions.hi[order]
        self._patches: list[Region] | None = None
        shape = self._phi - self._plo
        if offsets is None:
            volume = shape.prod(axis=1)
            self._offsets = np.cumsum(volume) - volume
        else:
            self._offsets = np.asarray(offsets, dtype=np.int64)[order]
        self._strides = np.ones_like(shape)
        for d in range(ndim - 2, -1, -1):
            self._strides[:, d] = self._strides[:, d + 1] * shape[:, d + 1]
        self._edges = [_sorted_unique(np.concatenate((self._plo[:, d],
                                                      self._phi[:, d])))
                       for d in range(ndim)]
        cells = tuple(max(len(e) - 1, 0) for e in self._edges)
        # A Cartesian rank's patches are a product of per-axis intervals
        # (at most 2**ndim cells per patch); an irregular layout whose
        # edges do not line up could need far more, and scans instead.
        self._cells = None
        if n and prod(cells) <= (n << ndim) + (1 << 16):
            self._cells = np.full(cells, -1, dtype=np.int64)
            a = [np.searchsorted(e, self._plo[:, d])
                 for d, e in enumerate(self._edges)]
            z = [np.searchsorted(e, self._phi[:, d])
                 for d, e in enumerate(self._edges)]
            single = np.all([zd - ad == 1 for ad, zd in zip(a, z)], axis=0)
            ids = np.arange(n)
            self._cells[tuple(ad[single] for ad in a)] = ids[single]
            for i in ids[~single].tolist():
                self._cells[tuple(slice(ad[i], zd[i])
                                  for ad, zd in zip(a, z))] = i

    def _patch_of(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        k = len(lo)
        if self._cells is None:
            patch = np.full(k, -1, dtype=np.int64)
            for i in range(k):
                hit = np.flatnonzero(((self._plo <= lo[i])
                                      & (hi[i] <= self._phi)).all(axis=1))
                if hit.size:
                    patch[i] = hit[0]
            return patch
        inside = np.ones(k, dtype=bool)
        cell = []
        for d, edges in enumerate(self._edges):
            c = np.searchsorted(edges, lo[:, d], side="right") - 1
            inside &= (c >= 0) & (c < self._cells.shape[d])
            cell.append(np.clip(c, 0, self._cells.shape[d] - 1))
        return np.where(inside, self._cells[tuple(cell)], -1)

    def cut(self, lo: np.ndarray, hi: np.ndarray, bounds: np.ndarray):
        """1-D rows cut at the patch edges inside them, and the pair
        ``bounds`` over the cut rows: a linear run may cross from one
        owned run into the next, which local storage need not hold next
        to it.  n-D rows (regions, each inside one patch) and rows that
        cross no edge pass through."""
        if lo.shape[1] != 1:
            return lo, hi, bounds
        edges = self._edges[0]
        first = np.searchsorted(edges, lo[:, 0], side="right")
        inner = np.searchsorted(edges, hi[:, 0], side="left") - first
        if not inner.any():
            return lo, hi, bounds
        count = inner + 1
        row = np.repeat(np.arange(len(lo)), count)
        k = ragged_arange(count)
        at = first[row] + k
        cuts = np.append(edges, 0)      # ``at`` may step one past the end
        start = np.where(k == 0, lo[row, 0], cuts[at - 1])
        stop = np.where(k == inner[row], hi[row, 0], cuts[at])
        ends = np.concatenate(([0], np.cumsum(count)))
        return start[:, None], stop[:, None], ends[bounds]

    def locate(self, lo: np.ndarray, hi: np.ndarray):
        """Rows ``(lo, shape, strides)`` — one box per row of the
        ``(k, ndim)`` region bounds ``lo`` / ``hi``, in the order given:
        the region inside its containing patch."""
        if len(lo) and not len(self._plo):
            raise ScheduleError(
                f"transfer region {_region(lo[0], hi[0])} not contained in "
                f"any owned patch")
        patch = self._patch_of(lo, hi)
        bad = np.flatnonzero((patch < 0) | (hi > self._phi[patch]).any(axis=1))
        if bad.size:
            i = int(bad[0])
            raise ScheduleError(
                f"transfer region {_region(lo[i], hi[i])} not contained in "
                f"any owned patch")
        strides = self._strides[patch]
        return (self._offsets[patch] + ((lo - self._plo[patch]) * strides
                                        ).sum(axis=1),
                hi - lo, strides)

    def region_indices(self, region: Region) -> np.ndarray:
        """Flat local indices of ``region``'s elements, in the region's
        row-major order — the element-by-element reference the static
        proof (:mod:`repro.verify.schedule`) holds compiled plans to,
        deliberately independent of :meth:`locate`."""
        if self._patches is None:
            self._patches = RegionList.from_arrays(self._plo,
                                                   self._phi).regions
        for i, patch in enumerate(self._patches):
            if patch.contains(region):
                idx = region_flat_indices(region.relative_to(patch),
                                          patch.shape)
                idx += self._offsets[i]
                return idx
        raise ScheduleError(
            f"transfer region {region} not contained in any owned patch")


def compile_pair(indexer: LocalIndexer, peer: int, lo: np.ndarray,
                 hi: np.ndarray) -> PairPlan:
    """Compile one (src, dst) pair's wire-order region bounds against a
    rank's patch layout.  The plan is a pure function of (regions,
    layout): two calls with equal bound columns over an equal layout
    yield byte-identical plans — the soundness basis for the delta
    compiler's verbatim plan reuse (:mod:`repro.schedule.delta`)."""
    return _pair_from_rows(peer, *indexer.locate(lo, hi))


def compile_rank_plan(peers: np.ndarray, bounds: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray, layout) -> RankPlan:
    """Compile one rank's side of a schedule — the columns of
    :meth:`~repro.schedule.plan.CommSchedule.wire` — against its local
    layout: a :class:`LocalIndexer`, or the owned regions to build the
    default one from.  All rows are cut and located in one vectorised
    pass; each pair then folds its slice of them, in wire order, so
    plan-based and loop-based buffers are byte-identical."""
    pairs: tuple[PairPlan, ...] = ()
    if len(peers):
        if not isinstance(layout, LocalIndexer):
            layout = LocalIndexer(layout)
        lo, hi, bounds = layout.cut(lo, hi, bounds)
        rows = layout.locate(lo, hi)
        pairs = tuple(_pair_from_rows(peer, *(r[a:b] for r in rows))
                      for peer, a, b in zip(peers.tolist(),
                                            bounds[:-1].tolist(),
                                            bounds[1:].tolist()))
    PLAN_STATS.add("rank_plans")
    return RankPlan(pairs)
