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
on the schedule — repeated transfers over a reused schedule (the
paper's persistent-channel case) pay compilation once.  One compiler
serves every caller, and its cost follows the number of rows, not of
ranks: rows grouped by (rank, peer) are cut, located and folded in
whole-array passes, so a schedule side compiles all its ranks at once
against an all-ranks ownership table (:class:`SidePlans`, the way the
closed-form redistribution tables of arXiv 0706.2146 cover every
processor at once).
``PLAN_STATS`` counts compilations so tests can pin that down.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.dad.ownership import Ownership
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
    "SidePlans",
]

#: Compilation counters: ``rank_plans`` increments once per compiled
#: per-rank plan (a side compile produces its side's rank count),
#: ``pair_plans`` once per (src, dst) pair inside them.
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


# -- compilation --------------------------------------------------------------
#
# Rows: k boxes as three int64 arrays ``lo (k,)``, ``shape (k, m)``,
# ``strides (k, m)`` — one per transfer region to start with — grouped
# by ``bounds``: group ``g`` (one rank pair) is rows
# ``bounds[g]:bounds[g+1]``, in wire order.

def _fold(lo, shape, strides, bounds):
    """One folding level over every group at once: each maximal run of
    consecutive rows of one group with equal shape and strides and one
    constant positive ``lo`` delta becomes a single row with one more
    outer axis ``(count, delta)``.  Returns the rows and their bounds.

    Greedy, left to right, as a loop over one pair would run: a run
    keeps extending while its link (the ``lo`` delta to the next row, 0
    where rows do not chain) repeats; the first differing link closes it
    and belongs to neither run, so the next run starts one row later.
    Whether a group of equal links starts one row late thus depends on
    the group before it, and alternates through a streak of one-link
    groups: a parity, computed below without a loop."""
    k = len(lo)
    link = np.zeros(k, dtype=np.int64)
    delta = np.diff(lo)
    same = ((shape[1:] == shape[:-1]).all(axis=1)
            & (strides[1:] == strides[:-1]).all(axis=1) & (delta > 0))
    link[:-1] = np.where(same, delta, 0)
    link[bounds[1:] - 1] = 0                # a group boundary breaks a chain
    # Groups of equal links: links gs[j]..ge[j]-1, rows gs[j]..ge[j].
    gs = np.flatnonzero(np.diff(link, prepend=link[0] + 1))
    ge = np.append(gs[1:], k)
    chained = link[gs] != 0
    # cut[j]: row gs[j] already ends the previous group's run.  It does
    # iff the previous group is chained and its run did not start at
    # its last row — flipping through each streak of one-link groups.
    j = np.arange(len(gs))
    streak = chained & (ge - gs == 1)
    base = np.maximum.accumulate(np.where(streak, -1, j))
    base = np.concatenate(([-1], base[:-1]))
    cut = (np.where(base >= 0, chained[base], False)
           ^ ((j - 1 - base) % 2 == 1))
    entry = gs + cut
    # A chained group yields one run entry..ge (if any row is left), a
    # link-0 group one single-row run per remaining row.
    n = np.where(chained, entry < ge, ge - entry)
    first = np.repeat(entry, n) + ragged_arange(n)
    last = np.where(np.repeat(chained, n), np.repeat(ge, n), first)
    count = last - first + 1
    step = np.where(count > 1, lo[np.minimum(first + 1, k - 1)] - lo[first], 0)
    return ((lo[first], np.column_stack((count, shape[first])),
             np.column_stack((step, strides[first]))),
            np.searchsorted(first, bounds))


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


class _Unfolded(NamedTuple):
    """A pair that does not fold into :data:`MAX_BOXES` boxes, kept as
    its located rows until its own rank's plan is asked for."""

    peer: int
    size: int
    lo: np.ndarray
    shape: np.ndarray
    strides: np.ndarray

    def plan(self) -> PairPlan:
        return PairPlan(self.peer, self.size, (),
                        _expand(self.lo, self.shape, self.strides))


def _compile(indexer: "LocalIndexer", peers: np.ndarray, bounds: np.ndarray,
             lo: np.ndarray, hi: np.ndarray,
             ranks: np.ndarray | None = None) -> list:
    """The one compiler: rows grouped by (rank, peer) in wire order —
    pair ``g`` exchanges rows ``bounds[g]:bounds[g+1]`` with
    ``peers[g]`` — cut, located (each row inside a patch of its own
    rank, ``ranks[g]``, when ``indexer`` covers several), folded one
    level at a time over all pairs together, and boxed per pair.
    Returns one :class:`PairPlan`, or :class:`_Unfolded`, per pair."""
    PLAN_STATS.add("pair_plans", len(peers))
    if not len(lo):
        return [PairPlan(peer, 0, (_EMPTY,)) for peer in peers.tolist()]
    lo, hi, bounds = indexer.cut(lo, hi, bounds)
    located = indexer.locate(
        lo, hi, None if ranks is None else np.repeat(ranks, np.diff(bounds)))
    ends = np.concatenate(([0], np.cumsum(located[1].prod(axis=1))))
    sizes = (ends[bounds[1:]] - ends[bounds[:-1]]).tolist()
    rows, rb = located, bounds
    while True:
        folded, fb = _fold(*rows, rb)
        if len(folded[0]) == len(rows[0]):
            break
        rows, rb = folded, fb
    flo, fshape, fstrides = (r.tolist() for r in rows)
    out: list = []
    for g, (peer, size, a, b) in enumerate(zip(
            peers.tolist(), sizes, rb[:-1].tolist(), rb[1:].tolist())):
        if b - a > MAX_BOXES:
            a, b = bounds[g], bounds[g + 1]
            out.append(_Unfolded(peer, size, *(r[a:b] for r in located)))
            continue
        boxes = [_box(*raw) for raw in zip(flo[a:b], fshape[a:b],
                                           fstrides[a:b])]
        out.append(PairPlan(peer, size,
                            tuple(x for x in boxes if x.size) or (_EMPTY,)))
    return out


def _plan(pair) -> PairPlan:
    return pair if isinstance(pair, PairPlan) else pair.plan()


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
    """Where global regions live inside local storage — one rank's, or
    every rank's of a decomposition at once.

    Each owned patch is flattened row-major and starts at its offset in
    its rank's flat local buffer.  By default the patches are stored
    back to back in ``lo`` order — the layout :class:`~repro.dad.darray.
    DistributedArray` guarantees; a linearization says where each of its
    owned runs starts instead (:meth:`~repro.linearize.linearization.
    Linearization.layout`).  :meth:`locate` answers for many regions at
    once, in closed form: the per-axis patch edges cut the index space
    into cells each owned by at most one patch, so a region's patch is
    one ``searchsorted`` per axis and one table lookup, and its box
    ``lo`` one dot with the patch strides.  Over an
    :class:`~repro.dad.ownership.Ownership` table it also checks that
    each region's patch belongs to the region's rank.
    """

    def __init__(self, owned: Ownership | RegionList | Sequence[Region],
                 offsets: np.ndarray | None = None):
        """``owned``: an :class:`~repro.dad.ownership.Ownership` table
        (patches of one or many ranks, with their offsets), a
        :class:`RegionList` (its columns are read as they are) or any
        sequence of :class:`Region`; ``offsets``: for the latter two,
        the flat local position of each one's first element, in the
        same order (default: back to back in ``lo`` order)."""
        self._prank = None
        if isinstance(owned, Ownership):
            self._plo, self._phi = owned.lo, owned.hi
            self._offsets, self._prank = owned.offset, owned.rank
        else:
            if not isinstance(owned, RegionList):
                owned = RegionList(owned, validate=False)
            order = (np.lexsort(owned.lo.T[::-1]) if len(owned.lo)
                     else slice(None))
            self._plo, self._phi = owned.lo[order], owned.hi[order]
            if offsets is None:
                volume = (self._phi - self._plo).prod(axis=1)
                self._offsets = np.cumsum(volume) - volume
            else:
                self._offsets = np.asarray(offsets, dtype=np.int64)[order]
        self._patches: list[Region] | None = None
        self._edges: list[np.ndarray] | None = None
        self._cells: np.ndarray | None = None

    def _index(self) -> list[np.ndarray]:
        """The per-axis edges and cell table (built on first use, so an
        indexer made only to describe a layout costs nothing)."""
        if self._edges is not None:
            return self._edges
        n, ndim = self._plo.shape
        shape = self._phi - self._plo
        self._strides = np.ones_like(shape)
        for d in range(ndim - 2, -1, -1):
            self._strides[:, d] = self._strides[:, d + 1] * shape[:, d + 1]
        edges = [_sorted_unique(np.concatenate((self._plo[:, d],
                                                self._phi[:, d])))
                 for d in range(ndim)]
        cells = tuple(max(len(e) - 1, 0) for e in edges)
        # A Cartesian layout's patches are a product of per-axis
        # intervals (at most 2**ndim cells per patch); an irregular
        # layout whose edges do not line up could need far more, and
        # scans instead.
        if n and prod(cells) <= (n << ndim) + (1 << 16):
            self._cells = np.full(cells, -1, dtype=np.int64)
            a = [np.searchsorted(e, self._plo[:, d])
                 for d, e in enumerate(edges)]
            z = [np.searchsorted(e, self._phi[:, d])
                 for d, e in enumerate(edges)]
            single = np.all([zd - ad == 1 for ad, zd in zip(a, z)], axis=0)
            ids = np.arange(n)
            self._cells[tuple(ad[single] for ad in a)] = ids[single]
            for i in ids[~single].tolist():
                self._cells[tuple(slice(ad[i], zd[i])
                                  for ad, zd in zip(a, z))] = i
        self._edges = edges
        return edges

    def _patch_of(self, lo: np.ndarray) -> np.ndarray:
        """The patch holding each row's ``lo`` corner, or -1."""
        edges = self._index()
        if self._cells is None:
            # Patches are disjoint, so at most one holds a corner: test
            # rows against all patches, a block of rows at a time.
            patch = np.full(len(lo), -1, dtype=np.int64)
            block = max(1, (1 << 20) // max(self._plo.size, 1))
            for a in range(0, len(lo), block):
                corner = lo[a:a + block, None]
                hit = ((self._plo <= corner)
                       & (corner < self._phi)).all(axis=2)
                patch[a:a + block] = np.where(hit.any(axis=1),
                                              hit.argmax(axis=1), -1)
            return patch
        inside = np.ones(len(lo), dtype=bool)
        cell = []
        for d, e in enumerate(edges):
            c = np.searchsorted(e, lo[:, d], side="right") - 1
            inside &= (c >= 0) & (c < self._cells.shape[d])
            cell.append(np.clip(c, 0, self._cells.shape[d] - 1))
        return np.where(inside, self._cells[tuple(cell)], -1)

    def cut(self, lo: np.ndarray, hi: np.ndarray, bounds: np.ndarray):
        """1-D rows cut at the patch edges inside them, and the pair
        ``bounds`` over the cut rows: a linear run may cross from one
        owned run into the next, which local storage need not hold next
        to it.  n-D rows (regions, each inside one patch) and rows that
        cross no edge pass through."""
        if lo.shape[1] != 1 or not len(self._plo):
            return lo, hi, bounds
        edges = self._index()[0]
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

    def locate(self, lo: np.ndarray, hi: np.ndarray,
               ranks: np.ndarray | None = None):
        """Rows ``(lo, shape, strides)`` — one box per row of the
        ``(k, ndim)`` region bounds ``lo`` / ``hi``, in the order given:
        the region inside its containing patch, which over a table must
        be one of rank ``ranks[i]``'s."""
        if len(lo) and not len(self._plo):
            raise ScheduleError(
                f"transfer region {_region(lo[0], hi[0])} not contained in "
                f"any owned patch")
        patch = self._patch_of(lo)
        bad = (patch < 0) | (hi > self._phi[patch]).any(axis=1)
        if ranks is not None and self._prank is not None:
            bad |= self._prank[patch] != ranks
        bad = np.flatnonzero(bad)
        if bad.size:
            i = int(bad[0])
            owner = "" if ranks is None else f" of rank {int(ranks[i])}"
            raise ScheduleError(
                f"transfer region {_region(lo[i], hi[i])} not contained in "
                f"any owned patch{owner}")
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


class SidePlans:
    """Every rank's plan of one schedule side, compiled in one pass
    against the side's ownership table: rows grouped by (rank, peer) in
    wire order — pair ``g`` is rank ``ranks[g]`` exchanging rows
    ``bounds[g]:bounds[g+1]`` with ``peers[g]``, ranks ascending.
    :meth:`plan` slices one rank's pairs out; an index-fallback pair is
    expanded only then, so nobody holds another rank's index arrays."""

    def __init__(self, table: Ownership, ranks: np.ndarray,
                 peers: np.ndarray, bounds: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray):
        self._pairs = _compile(LocalIndexer(table), peers, bounds, lo, hi,
                               ranks)
        self._starts = np.searchsorted(ranks, np.arange(table.nranks + 1))
        PLAN_STATS.add("rank_plans", table.nranks)

    def plan(self, rank: int) -> RankPlan:
        if not 0 <= rank < len(self._starts) - 1:
            return RankPlan(())
        a, b = self._starts[rank], self._starts[rank + 1]
        return RankPlan(tuple(map(_plan, self._pairs[a:b])))


def same_layout(table: Ownership, rank: int, layout) -> bool:
    """Whether ``layout`` — a :class:`LocalIndexer`, a rank's owned
    regions, or a whole :class:`~repro.dad.ownership.Ownership` table
    standing for its rank-``rank`` part — is exactly rank ``rank``'s part of
    ``table``: the same patches, each at the same flat offset.  A table
    with ``table``'s key is the same decomposition, so it answers
    without comparing a column."""
    if isinstance(layout, Ownership):
        if layout is table or (layout.key is not None
                               and layout.key == table.key):
            return True
        layout = LocalIndexer(*layout.layout(rank))
    elif layout is table.regions(rank):
        return True
    if not isinstance(layout, LocalIndexer):
        layout = LocalIndexer(layout)
    return table.matches(rank, layout._plo, layout._phi, layout._offsets)
