"""Delta-schedule compilation: resize a live decomposition by moving
only the bytes whose owner actually changed.

A full rebuild after a resize (m → m′ ranks) rebuilds the schedule,
recompiles every plan and ships every byte, although for modest resizes
most ownership is unchanged.  The full old→new schedule already is the
exact region-level diff, so one boolean mask over its columns splits it
(memoized on the full schedule, so a cached schedule yields a cached
delta) into the two things a live resize needs:

* the **migration schedule** — the rows with ``src != dst``, the only
  wire bytes; a plain schedule that every tier replays unchanged;
* the **kept schedule** — the rows with ``src == dst``: data that stays
  home but may move inside the rank's consolidated buffer (the patch
  layout follows ownership), repacked by one gather plan over the old
  layout and one scatter plan over the new — a box → box copy through
  the lent view when the gather side is one box.  *Identity ranks*
  (equal :meth:`~repro.dad.descriptor.DistArrayDescriptor.
  ownership_key`) skip even that and keep their buffer.

Both halves are plain schedules over the full schedule's ownership
tables, so their plans come the one way every plan does: the first
request of a side compiles all of its ranks
(:meth:`~repro.schedule.plan.CommSchedule.rank_plan`).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ScheduleError
from repro.dad.descriptor import DistArrayDescriptor
from repro.schedule.builder import build_region_schedule
from repro.schedule.indexplan import PairPlan
from repro.schedule.plan import CommSchedule

__all__ = [
    "DeltaSchedule",
    "compile_delta",
]

_SPLIT_LOCK = threading.Lock()


class DeltaSchedule:
    """The compiled diff between two decompositions of one array.

    Pure data, like every schedule: a function of the descriptor pair
    only, so it caches under the same key as the full schedule and
    replays against any conforming array.  ``migration`` deliberately
    does *not* tile the destination — never call ``validate`` on it;
    the equivalence proof lives in
    :func:`repro.verify.schedule.verify_delta_equivalence`.  ``kept``
    is the schedule of the items that stay home.
    """

    def __init__(self, old_desc: DistArrayDescriptor,
                 new_desc: DistArrayDescriptor,
                 migration: CommSchedule, kept: CommSchedule):
        self.old_desc = old_desc
        self.new_desc = new_desc
        self.migration = migration
        #: Per rank, its receive side lists the rank's kept regions in
        #: wire order (ascending lo), matching the full schedule's recv
        #: order so the local repack and a full redistribute write
        #: elements identically.
        self.kept = kept
        common = min(old_desc.nranks, new_desc.nranks)
        #: Ranks whose ownership (and hence local patch layout) is
        #: byte-identical across the resize — no wire traffic, no
        #: repack, buffer kept as-is.
        self.identity_ranks = frozenset(
            r for r in range(common)
            if old_desc.ownership_key(r) == new_desc.ownership_key(r))

    # -- byte accounting ---------------------------------------------------

    @property
    def moved_elements(self) -> int:
        """Elements whose owner changed — the only wire traffic."""
        return self.migration.element_count

    @property
    def kept_elements(self) -> int:
        """Elements that stay on their rank (repacked or untouched)."""
        return self.kept.element_count

    def migrated_bytes(self) -> int:
        return self.moved_elements * self.old_desc.dtype.itemsize

    def kept_bytes(self) -> int:
        return self.kept_elements * self.old_desc.dtype.itemsize

    # -- local repack ------------------------------------------------------

    def local_plan(self, rank: int) -> tuple[PairPlan, PairPlan] | None:
        """The compiled (gather, scatter) pair repacking ``rank``'s kept
        elements from its old flat layout into its new one, or ``None``
        when the rank keeps nothing — or keeps *everything in place*
        (identity rank).  They are the kept schedule's own ``rank →
        rank`` send and receive plans, cached there, so a resize
        replayed over many arrays compiles the repack once."""
        if rank in self.identity_ranks or not len(
                self.kept.wire("recv", rank)[2]):
            return None
        gather = self.kept.send_plan(
            rank, self.old_desc.local_regions(rank)).pairs
        scatter = self.kept.recv_plan(
            rank, self.new_desc.local_regions(rank)).pairs
        peers = [pair.peer for pair in gather + scatter]
        if peers != [rank, rank]:
            raise ScheduleError(
                f"kept rows of rank {rank} pair it with ranks {peers}, "
                f"not only with itself")
        return gather[0], scatter[0]

    def apply_local(self, rank: int, old_flat: np.ndarray,
                    new_flat: np.ndarray) -> int:
        """Repack ``rank``'s kept elements; returns the element count
        moved locally (0 for identity ranks and ranks keeping nothing).
        """
        plans = self.local_plan(rank)
        if plans is None:
            return 0
        gather, scatter = plans
        kept = gather.lend(old_flat)
        scatter.scatter(new_flat,
                        kept if kept is not None else gather.gather(old_flat))
        return gather.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DeltaSchedule({self.old_desc.nranks}->"
                f"{self.new_desc.nranks} ranks, "
                f"moved={self.moved_elements} kept={self.kept_elements} "
                f"identity={sorted(self.identity_ranks)})")


def compile_delta(old_desc: DistArrayDescriptor,
                  new_desc: DistArrayDescriptor,
                  *, cache=None, full: CommSchedule | None = None,
                  ) -> DeltaSchedule:
    """Diff two decompositions into a :class:`DeltaSchedule`.

    The full old→new schedule is fetched through ``cache`` (a
    :class:`~repro.schedule.builder.ScheduleCache`) when given — which
    is what makes a *repeated* resize a pure cache hit — or built
    directly otherwise; ``full`` short-circuits both.  The split is
    memoized on the full schedule object, so delta compilation is paid
    once per cached schedule.
    """
    if old_desc.shape != new_desc.shape:
        raise ScheduleError(
            f"cannot resize between shapes {old_desc.shape} and "
            f"{new_desc.shape}")
    if old_desc.dtype != new_desc.dtype:
        raise ScheduleError(
            f"cannot resize between dtypes {old_desc.dtype} and "
            f"{new_desc.dtype}")
    if full is None:
        if cache is not None:
            full = cache.get(old_desc, new_desc)
        else:
            full = build_region_schedule(old_desc, new_desc)
    # One split per schedule object, even when threads-backend ranks
    # race through a shared cache.
    with _SPLIT_LOCK:
        delta = getattr(full, "_delta_split", None)
        if delta is None:
            moved = full.src != full.dst
            delta = full._delta_split = DeltaSchedule(
                old_desc, new_desc, full.subset(moved), full.subset(~moved))
    return delta
