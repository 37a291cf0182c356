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

:func:`warm_start_plans` carries compiled artifacts across a resize: on
a :class:`~repro.schedule.builder.ScheduleCache` miss whose key shares a
descriptor side with a cached entry, every sibling :class:`PairPlan`
whose owner layout and wire region columns are unchanged is installed
verbatim (a plan is a pure function of both — see
:func:`~repro.schedule.indexplan.compile_pair`); only the changed pairs
are recompiled.  ``REDIST_STATS`` counts ``pairs_reused`` /
``pairs_recompiled``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ScheduleError
from repro.dad.descriptor import DistArrayDescriptor
from repro.schedule.builder import build_region_schedule
from repro.schedule.indexplan import (
    LocalIndexer,
    PairPlan,
    RankPlan,
    compile_pair,
)
from repro.schedule.plan import CommSchedule
from repro.util.counters import REDIST_STATS

__all__ = [
    "DeltaSchedule",
    "compile_delta",
    "warm_start_plans",
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
        self._local_plans: dict[int, tuple[PairPlan, PairPlan] | None] = {}

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
        (identity rank).  Memoized: a resize replayed over many arrays
        (or many reps of a benchmark) compiles the repack once."""
        if rank in self._local_plans:
            return self._local_plans[rank]
        _peers, _bounds, lo, hi = self.kept.wire("recv", rank)
        if not len(lo) or rank in self.identity_ranks:
            plans = None
        else:
            plans = tuple(
                compile_pair(LocalIndexer(desc.local_regions(rank)), rank,
                             lo, hi)
                for desc in (self.old_desc, self.new_desc))
        self._local_plans[rank] = plans
        return plans

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
    # One split (and one warm start) per schedule object, even when
    # threads-backend ranks race through a shared cache.
    with _SPLIT_LOCK:
        delta = getattr(full, "_delta_split", None)
        if delta is not None:
            return delta
        moved = full.src != full.dst
        migration = full.subset(moved)
        delta = DeltaSchedule(old_desc, new_desc, migration,
                              full.subset(~moved))
        if cache is not None and migration.message_count:
            # Live-resize warm start: only the *migration* schedule's
            # plans get compiled in the reconfigure path (the cached
            # full schedule stays uncompiled), so seed them from the
            # nearest sibling resize's migration — a resize back (B→A
            # after A→B) reuses every pair verbatim, the items merely
            # reversed.
            sibling = cache.delta_sibling(old_desc, new_desc)
            if sibling is not None:
                warm_start_plans(migration, sibling.migration,
                                 old_desc, new_desc,
                                 sibling.old_desc, sibling.new_desc)
        full._delta_split = delta
    return delta


def _wire_pairs(schedule: CommSchedule, side: str, rank: int) -> list:
    """``(peer, lo, hi)`` per pair of ``(side, rank)``, in wire order."""
    peers, bounds, lo, hi = schedule.wire(side, rank)
    return [(peer, lo[a:b], hi[a:b]) for peer, a, b in
            zip(peers.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())]


def warm_start_plans(new_sched: CommSchedule, old_sched: CommSchedule,
                     src_desc: DistArrayDescriptor,
                     dst_desc: DistArrayDescriptor,
                     old_src_desc: DistArrayDescriptor,
                     old_dst_desc: DistArrayDescriptor,
                     ) -> tuple[int, int]:
    """Seed ``new_sched`` with every compiled plan of ``old_sched``
    that is provably still valid; returns ``(reused, recompiled)`` pair
    counts (also accumulated into ``REDIST_STATS``).

    Reuse test, per (side, rank): the rank's owner layout must equal its
    layout under one of the old schedule's sides (``ownership_key``),
    and a pair transfers only if its peer and wire region columns match
    exactly — then :func:`~repro.schedule.indexplan.compile_pair` would
    reproduce the old plan bit-for-bit.  A plan may cross sides (an old
    *recv* plan seeding a new *send* rank: gather and scatter address
    the same flat index set), which carries artifacts down an elastic
    chain.  Only ranks the old schedule compiled are considered, and a
    rank with no reusable pair is left lazy.
    """
    reused = recompiled = 0
    old_sides = (
        ("send", old_src_desc, old_sched.src_nranks),
        ("recv", old_dst_desc, old_sched.dst_nranks),
    )
    for side, desc, nranks in (("send", src_desc, new_sched.src_nranks),
                               ("recv", dst_desc, new_sched.dst_nranks)):
        # Prefer the old side with the identical descriptor key (its
        # fingerprints match for every rank); fall back to the other.
        candidates = sorted(
            old_sides,
            key=lambda o: o[1].cache_key() != desc.cache_key())
        for rank in range(nranks):
            wire = _wire_pairs(new_sched, side, rank)
            if not wire:
                continue
            for old_side, old_desc, old_nranks in candidates:
                old_plan = (old_sched.plan_if_compiled(old_side, rank)
                            if rank < old_nranks else None)
                if old_plan is None or (desc.ownership_key(rank)
                                        != old_desc.ownership_key(rank)):
                    continue  # nothing compiled, or the layout changed
                old_by_peer = {
                    peer: (lo, hi, plan) for (peer, lo, hi), plan
                    in zip(_wire_pairs(old_sched, old_side, rank),
                           old_plan.pairs)}
                matches = []
                for peer, lo, hi in wire:
                    olo, ohi, plan = old_by_peer.get(peer, (None, None, None))
                    matches.append(plan if np.array_equal(olo, lo)
                                   and np.array_equal(ohi, hi) else None)
                n_hit = sum(m is not None for m in matches)
                if n_hit == 0:
                    continue
                indexer = (LocalIndexer(desc.local_regions(rank))
                           if n_hit < len(wire) else None)
                new_sched.seed_plan(side, rank, RankPlan(tuple(
                    m if m is not None else compile_pair(indexer, peer, lo, hi)
                    for m, (peer, lo, hi) in zip(matches, wire))))
                reused += n_hit
                recompiled += len(wire) - n_hit
                break
    if reused or recompiled:
        REDIST_STATS.add("pairs_reused", reused)
        REDIST_STATS.add("pairs_recompiled", recompiled)
    return reused, recompiled
