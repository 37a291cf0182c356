"""Schedule data structures: columns, not objects.

A schedule is pure data — (source rank, destination rank, what-to-move)
triples in a deterministic order — so it can be computed once, cached,
shipped to a third party, or replayed against any array conforming to
the same templates (paper §2.3).  ``k`` items are four int64 columns:
``src``, ``dst`` ``(k,)`` and the half-open bounds ``lo``, ``hi``
``(k, ndim)`` of the region that moves.  One class serves both ways of
describing the data: a linearization schedule is a :class:`CommSchedule`
of ``ndim = 1`` regions, the runs of the shared linear space.  The
builders write the columns directly; a pickled schedule is them, the
ownership tables and any compiled plans.

**Wire order** is ``(src, dst, lo)``, one stable ``np.lexsort``: every
(src, dst) pair is one contiguous row range in ascending ``lo`` — the
order both sides pack and unpack the pair's message in, with no
metadata — a sender visits its pairs by destination and a receiver by
source.

**Plans per side.**  Every schedule carries the two sides' ownership
tables (:class:`~repro.dad.ownership.Ownership`, ``owners``), and the
first plan asked of a side compiles all its ranks in one vectorised
pass over the side's rows against its table (:class:`~repro.schedule.
indexplan.SidePlans`); each rank's plan is a slice of the result, and a
layout that is not the rank's part of the table is refused.

**Objects on demand.**  ``items`` is a lazy sequence: ``len`` is O(1);
iterating, indexing, slicing, ``==`` and ``+`` materialise the
:class:`TransferItem` objects, once.  The per-rank ``send_groups`` /
``recv_groups`` / ``sends_from`` / ``recvs_at`` views are built on first
use too — for the verifier and the experiment tables, never a build, a
compile or a step.  A list of items and the two tables (the oracle,
tests, mutants) still construct a schedule; the items are converted to
columns once.
"""

from __future__ import annotations

from dataclasses import dataclass

import threading

import numpy as np

from repro.errors import ScheduleError, VerificationError
from repro.dad.descriptor import DistArrayDescriptor
from repro.dad.ownership import Ownership
from repro.schedule.indexplan import RankPlan, SidePlans, same_layout
from repro.util.regions import Region


@dataclass(frozen=True, slots=True)
class TransferItem:
    """Move ``region`` (global coordinates) from src rank to dst rank."""

    src: int
    dst: int
    region: Region


class _Items:
    """A schedule's ``items``: ``len`` reads the columns; anything else
    materialises the item objects (once, cached on the schedule)."""

    __slots__ = ("_schedule",)

    def __init__(self, schedule: "CommSchedule"):
        self._schedule = schedule

    def __len__(self) -> int:
        return len(self._schedule.src)

    def __getitem__(self, index):
        return self._schedule._objects()[index]

    def __iter__(self):
        return iter(self._schedule._objects())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (_Items, list, tuple)):
            return NotImplemented
        return self._schedule._objects() == list(other)

    def __add__(self, other) -> list:
        return self._schedule._objects() + list(other)


#: What a pickle carries: the columns, the ownership tables and the
#: compiled index plans.  Everything else — the pair index, the memos,
#: the side compiles — is re-derived or recompiled by the unpickler.
_PICKLED = ("src", "dst", "lo", "hi", "src_nranks", "dst_nranks", "owners",
            "_plans")

_SIDES = ("send", "recv")


class CommSchedule:
    """A communication schedule between two templates (or two
    linearizations): the sorted columns, the pair index (``pair_src`` /
    ``pair_dst`` / ``pair_size``: the communicating pairs in (src, dst)
    order), the plan caches and the object views."""

    def __init__(self, items, src_nranks: int, dst_nranks: int,
                 owners: tuple[Ownership, Ownership]):
        """A schedule of ``items`` (:class:`TransferItem`) moving between
        the source and destination decompositions whose ownership tables
        are ``owners``."""
        items = list(items)
        shape = (len(items), items[0].region.ndim if items else 0)
        self._set_columns(
            np.array([it.src for it in items], dtype=np.int64),
            np.array([it.dst for it in items], dtype=np.int64),
            np.array([it.region.lo for it in items],
                     dtype=np.int64).reshape(shape),
            np.array([it.region.hi for it in items],
                     dtype=np.int64).reshape(shape),
            src_nranks, dst_nranks, owners)

    @classmethod
    def from_columns(cls, src: np.ndarray, dst: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, src_nranks: int, dst_nranks: int,
                     owners: tuple[Ownership, Ownership]):
        """A schedule over int64 columns in any row order (sorted here);
        ``owners`` are the source and destination ownership tables the
        rows were cut from."""
        schedule = cls.__new__(cls)
        schedule._set_columns(src, dst, lo, hi, src_nranks, dst_nranks,
                              owners)
        return schedule

    def _set_columns(self, src, dst, lo, hi, src_nranks, dst_nranks,
                     owners) -> None:
        order = np.lexsort((*lo.T[::-1], dst, src))
        self.src, self.dst, self.lo, self.hi = (
            src[order], dst[order], lo[order], hi[order])
        self.src_nranks = src_nranks
        self.dst_nranks = dst_nranks
        #: The (send, recv) side ownership tables — see rank_plan.
        self.owners: tuple[Ownership, Ownership] = owners
        #: compiled index plans, keyed ("send"/"recv", rank) — see
        #: rank_plan.
        self._plans: dict[tuple[str, int], RankPlan] = {}
        self._index()

    def _index(self) -> None:
        first = np.flatnonzero((np.diff(self.src, prepend=-1) != 0)
                               | (np.diff(self.dst, prepend=-1) != 0))
        self.pair_src, self.pair_dst = self.src[first], self.dst[first]
        volume = (self.hi - self.lo).prod(axis=1)
        self.pair_size = np.add.reduceat(volume, first)
        self.element_count = int(volume.sum())
        self._item_objects: list | None = None
        self._group_views: dict[tuple[str, int], list] = {}
        self._side_rows: dict[str, tuple] = {}
        self._side_plans: dict[str, SidePlans] = {}
        #: the last layout that passed the ownership check, per
        #: (side, rank) — see rank_plan
        self._accepted: dict[tuple[str, int], object] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {k: self.__dict__[k] for k in _PICKLED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._index()

    def subset(self, mask: np.ndarray):
        """The schedule of the rows ``mask`` selects, over the same ranks
        and the same ownership tables."""
        return self.from_columns(self.src[mask], self.dst[mask],
                                 self.lo[mask], self.hi[mask],
                                 self.src_nranks, self.dst_nranks,
                                 self.owners)

    def _side(self, side: str):
        """Side ``side``'s rows in wire order and its pairs, memoized:
        ``(rows, ranks, peers, bounds)`` — pair ``g`` is rank
        ``ranks[g]`` exchanging rows ``rows[bounds[g]:bounds[g+1]]`` with
        ``peers[g]``, by (rank, peer).  A receiver's rows keep the sorted
        order, which is ``(src, lo)`` for one ``dst``."""
        index = self._side_rows.get(side)
        if index is None:
            if side == "send":
                rows = np.arange(len(self.src))
                rank, peer = self.src, self.dst
            else:
                # stable, so each destination keeps its (src, lo) order
                rows = np.argsort(self.dst, kind="stable")
                rank, peer = self.dst[rows], self.src[rows]
            first = np.flatnonzero((np.diff(rank, prepend=-1) != 0)
                                   | (np.diff(peer, prepend=-1) != 0))
            index = self._side_rows.setdefault(side, (
                rows, rank[first], peer[first],
                np.append(first, len(rows))))
        return index

    def wire(self, side: str, rank: int):
        """Rank ``rank``'s ``side`` (``"send"``/``"recv"``) as columns, in
        wire order: ``(peers, bounds, lo, hi)`` — pair ``i`` moves the
        rows ``bounds[i]:bounds[i+1]`` of ``lo`` / ``hi`` to or from
        ``peers[i]``."""
        rows, ranks, peers, bounds = self._side(side)
        a, b = np.searchsorted(ranks, (rank, rank + 1))
        rows = rows[bounds[a]:bounds[b]]
        return (peers[a:b], bounds[a:b + 1] - bounds[a],
                self.lo[rows], self.hi[rows])

    # -- object views ----------------------------------------------------------

    @property
    def items(self) -> _Items:
        """Every item in wire order — a lazy sequence (see module doc)."""
        return _Items(self)

    def _objects(self) -> list:
        if self._item_objects is None:
            self._item_objects = [
                TransferItem(s, d, Region(tuple(a), tuple(b)))
                for s, d, a, b in zip(
                    self.src.tolist(), self.dst.tolist(), self.lo.tolist(),
                    self.hi.tolist())]
        return self._item_objects

    def _groups(self, side: str, rank: int) -> list[tuple[int, list, np.ndarray]]:
        groups = self._group_views.get((side, rank))
        if groups is None:
            peers, bounds, lo, hi = self.wire(side, rank)
            moved = [Region(tuple(a), tuple(b))
                     for a, b in zip(lo.tolist(), hi.tolist())]
            ends = np.concatenate(([0], np.cumsum((hi - lo).prod(axis=1))))
            groups = self._group_views[(side, rank)] = [
                (peer, moved[a:b], ends[a:b + 1] - ends[a])
                for peer, a, b in zip(peers.tolist(), bounds[:-1].tolist(),
                                      bounds[1:].tolist())]
        return groups

    def send_groups(self, src: int) -> list[tuple[int, list, np.ndarray]]:
        """Per-destination groups of rank ``src``: ``(dst, regions,
        offsets)``, the regions in wire order and their ``np.int64``
        element offsets in the pair's packed buffer (total appended).
        Callers must not mutate the returned lists."""
        return self._groups("send", src)

    def recv_groups(self, dst: int) -> list[tuple[int, list, np.ndarray]]:
        """Per-source coalescing groups for rank ``dst``; item order
        matches the sender's :meth:`send_groups` order, so one packed
        buffer per pair unpacks positionally."""
        return self._groups("recv", dst)

    def sends_from(self, src: int) -> list[tuple]:
        """(dst, region) pairs rank ``src`` sends, in wire order."""
        return [(d, moved) for d, items, _ in self.send_groups(src)
                for moved in items]

    def recvs_at(self, dst: int) -> list[tuple]:
        """(src, region) pairs rank ``dst`` receives, by (src, lo)
        — per source the order :meth:`sends_from` produces, so FIFO
        matching lines up."""
        return [(s, moved) for s, items, _ in self.recv_groups(dst)
                for moved in items]

    # -- compiled index plans ------------------------------------------------

    def send_plan(self, src: int, layout) -> RankPlan:
        """Compiled gather plan for schedule rank ``src``: one
        :class:`~repro.schedule.indexplan.PairPlan` per destination,
        addressing the rank's flat local storage.  ``layout`` says where
        things live there — the rank's patch regions
        (``descriptor.local_regions(src)``), a descriptor's whole
        ownership table (``descriptor.ownership()``, standing for its
        rank-``src`` part), or a
        :class:`~repro.schedule.indexplan.LocalIndexer` over a
        linearization's owned runs and their local offsets.  Plans are
        compiled on first use and cached for the schedule's lifetime,
        which is sound because everything replayed against one schedule
        conforms to the same template: a ``layout`` that differs from
        the rank's part of the schedule's ownership table raises
        :class:`~repro.errors.ScheduleError`."""
        return self.rank_plan("send", src, layout)

    def recv_plan(self, dst: int, layout) -> RankPlan:
        """Compiled scatter plan for schedule rank ``dst`` (see
        :meth:`send_plan`)."""
        return self.rank_plan("recv", dst, layout)

    def rank_plan(self, side: str, rank: int, layout) -> RankPlan:
        """:meth:`send_plan` (``side="send"``) or :meth:`recv_plan`
        (``"recv"``) — the form the executor binds through.

        The first request compiles every rank of the side in one pass
        (:class:`~repro.schedule.indexplan.SidePlans`) and each rank's
        plan is sliced out of it on its first request.  The ownership
        check answers from identity for the layout it last accepted for
        ``(side, rank)`` and from the table key for a table of the same
        template (:func:`~repro.schedule.indexplan.same_layout`); only
        another layout is compared column by column."""
        table = self.owners[_SIDES.index(side)]
        if self._accepted.get((side, rank)) is not layout:
            if not same_layout(table, rank, layout):
                raise ScheduleError(
                    f"{side} layout of rank {rank} is not the "
                    f"ownership this schedule was built for")
            self._accepted[(side, rank)] = layout
        plan = self._plans.get((side, rank))
        if plan is None:
            with self._lock:
                plan = self._plans.get((side, rank))
                if plan is None:
                    plan = self._plans[(side, rank)] = (
                        self._compiled_side(side, table).plan(rank))
        return plan

    def _compiled_side(self, side: str, table: Ownership) -> SidePlans:
        compiled = self._side_plans.get(side)
        if compiled is None:
            rows, ranks, peers, bounds = self._side(side)
            compiled = self._side_plans[side] = SidePlans(
                table, ranks, peers, bounds, self.lo[rows], self.hi[rows])
        return compiled

    # -- metrics -----------------------------------------------------------------

    @property
    def pair_count(self) -> int:
        """Communicating (src, dst) rank pairs — the executors' messages."""
        return len(self.pair_src)

    @property
    def message_count(self) -> int:
        return len(self.src)

    def entries(self) -> int:
        """Bookkeeping size of the schedule itself, in integers."""
        return 2 * (self.src.size + self.lo.size)

    def nbytes(self, dtype: np.dtype | str = np.float64) -> int:
        return self.element_count * np.dtype(dtype).itemsize

    def validate(self, src_desc: DistArrayDescriptor,
                 dst_desc: DistArrayDescriptor) -> None:
        """Ownership on both sides and exactly-once coverage: the static
        proof :func:`repro.verify.schedule.verify_schedule` (no plans),
        failures raised as :class:`~repro.errors.ScheduleError`.  A
        linearization schedule's proof is
        :func:`repro.verify.schedule.verify_linear_schedule`."""
        from repro.verify.schedule import verify_schedule
        try:
            verify_schedule(self, src_desc, dst_desc, check_plans=False)
        except VerificationError as exc:
            raise ScheduleError(str(exc)) from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CommSchedule({self.message_count} messages, "
                f"{self.element_count} elements, "
                f"{self.src_nranks}x{self.dst_nranks})")
