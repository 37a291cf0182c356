"""Delta-schedule compilation: resize a live decomposition by moving
only the bytes whose owner actually changed.

A full rebuild of an M×N coupling after a resize (m → m′ ranks) pays
three costs the paper's static couplings never see: rebuilding the
region schedule from scratch, recompiling every per-rank index plan,
and shipping *every* byte of the array over the wire — even though for
modest resizes most (src, dst) ownership pairs are unchanged.  This
module diffs the two decompositions at the region level and splits the
result into the only two things a live resize actually needs:

* a **migration schedule** — a :class:`~repro.schedule.plan.
  CommSchedule` containing exactly the transfer items whose source and
  destination ranks differ.  These are the only wire bytes.  The
  migration schedule is a plain schedule: the persistent/collective
  executors replay it unchanged, and the cost model picks the tier.
* **kept items** — regions that stay on their rank but may land at a
  different offset in the rank's consolidated local buffer (the patch
  layout follows ownership).  They become per-rank *local move plans*:
  one gather :class:`~repro.schedule.indexplan.PairPlan` over the old
  layout and one scatter plan over the new layout, compiled with the
  same machinery as wire plans, so a repack is one vectorized
  gather/scatter — one box → box copy through the lent view when
  the gather side is a single box.
  Ranks whose ownership is completely unchanged (*identity ranks*,
  detected via :meth:`~repro.dad.descriptor.DistArrayDescriptor.
  ownership_key`) skip even the repack and keep their buffer.

The diff itself is free: :func:`~repro.schedule.builder.
build_region_schedule` already computes the exact region-level
intersection of the two templates — items with ``src == dst`` *are*
the unchanged intersection, items with ``src != dst`` the delta.
Splitting is a single O(items) pass, memoized on the full schedule so
a cached schedule yields a cached delta.

:func:`warm_start_plans` carries compiled artifacts across a resize:
when the :class:`~repro.schedule.builder.ScheduleCache` misses on a
key that shares one descriptor side with a cached entry, every
:class:`PairPlan` of the sibling whose owner layout and wire regions
are unchanged is installed verbatim on the new schedule (a plan is a
pure function of both — see :func:`~repro.schedule.indexplan.
compile_pair`), and only the changed pairs are recompiled.
``REDIST_STATS`` counts ``pairs_reused`` / ``pairs_recompiled``.
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
from repro.schedule.plan import CommSchedule, TransferItem
from repro.util.counters import REDIST_STATS
from repro.util.regions import Region

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
    :func:`repro.verify.schedule.verify_delta_equivalence`.
    """

    def __init__(self, old_desc: DistArrayDescriptor,
                 new_desc: DistArrayDescriptor,
                 migration: CommSchedule,
                 kept_items: list[TransferItem]):
        self.old_desc = old_desc
        self.new_desc = new_desc
        self.migration = migration
        self.kept_items = kept_items
        kept_by_rank: dict[int, list[Region]] = {}
        for it in kept_items:
            kept_by_rank.setdefault(it.dst, []).append(it.region)
        # Wire order (ascending lo) per rank, matching the full
        # schedule's recv order so the local repack and a full
        # redistribute write elements identically.
        for regions in kept_by_rank.values():
            regions.sort(key=lambda r: r.lo)
        self.kept_by_rank = kept_by_rank
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
        return sum(it.region.volume for it in self.kept_items)

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
        regions = self.kept_by_rank.get(rank)
        if not regions or rank in self.identity_ranks:
            plans = None
        else:
            old_ix = LocalIndexer(list(self.old_desc.local_regions(rank)))
            new_ix = LocalIndexer(list(self.new_desc.local_regions(rank)))
            plans = (compile_pair(old_ix, rank, regions),
                     compile_pair(new_ix, rank, regions))
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
        moved: list[TransferItem] = []
        kept: list[TransferItem] = []
        for it in full.items:
            (kept if it.src == it.dst else moved).append(it)
        migration = CommSchedule(moved, full.src_nranks, full.dst_nranks)
        delta = DeltaSchedule(old_desc, new_desc, migration, kept)
        if cache is not None and moved:
            # Live-resize warm start: only the *migration* schedule's
            # plans get compiled in the reconfigure path (the cached
            # full schedule stays item-only), so seed them from the
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


def warm_start_plans(new_sched: CommSchedule, old_sched: CommSchedule,
                     src_desc: DistArrayDescriptor,
                     dst_desc: DistArrayDescriptor,
                     old_src_desc: DistArrayDescriptor,
                     old_dst_desc: DistArrayDescriptor,
                     ) -> tuple[int, int]:
    """Seed ``new_sched`` with every compiled plan of ``old_sched``
    that is provably still valid; returns ``(reused, recompiled)`` pair
    counts (also accumulated into ``REDIST_STATS``).

    Reuse test, per (side, rank): the rank's owner layout under the new
    schedule must equal its layout under one of the old schedule's
    sides (:meth:`~repro.dad.descriptor.DistArrayDescriptor.
    ownership_key`), and a pair transfers only if its peer and wire
    region list match exactly — under both conditions
    :func:`~repro.schedule.indexplan.compile_pair` is a pure function
    that would reproduce the old plan bit-for-bit, so copying it is
    sound.  A plan may cross sides (an old *recv* plan seeding a new
    *send* rank): gather and scatter address the same flat index set,
    and only layout + regions determine it — this is what carries
    artifacts down an elastic chain, where a resize's source side was
    the previous resize's destination.  Only ranks the old schedule
    actually compiled are considered, and a rank with no reusable pair
    is left lazy (no eager compilation for fully-changed ranks).
    """
    reused = recompiled = 0
    new_sides = (
        ("send", src_desc, new_sched.src_nranks),
        ("recv", dst_desc, new_sched.dst_nranks),
    )
    old_sides = (
        ("send", old_src_desc, old_sched.src_nranks),
        ("recv", old_dst_desc, old_sched.dst_nranks),
    )
    for side, desc, nranks in new_sides:
        # Prefer the old side with the identical descriptor key (its
        # fingerprints match for every rank); fall back to the other.
        candidates = sorted(
            old_sides,
            key=lambda o: o[1].cache_key() != desc.cache_key())
        for rank in range(nranks):
            groups = (new_sched.send_groups(rank) if side == "send"
                      else new_sched.recv_groups(rank))
            if not groups:
                continue
            seeded = False
            for old_side, old_desc, old_nranks in candidates:
                if seeded or rank >= old_nranks:
                    continue
                old_plan = old_sched.plan_if_compiled(old_side, rank)
                if old_plan is None:
                    continue
                if desc.ownership_key(rank) != old_desc.ownership_key(rank):
                    continue  # layout changed: old indices are meaningless
                old_groups = (old_sched.send_groups(rank)
                              if old_side == "send"
                              else old_sched.recv_groups(rank))
                old_by_peer: dict[int, tuple[list, PairPlan]] = {
                    peer: (regions, plan)
                    for (peer, regions, _off), plan
                    in zip(old_groups, old_plan.pairs)}
                matches: list[PairPlan | None] = []
                for peer, regions, _off in groups:
                    hit = old_by_peer.get(peer)
                    matches.append(hit[1] if hit is not None
                                   and hit[0] == regions else None)
                n_hit = sum(m is not None for m in matches)
                if n_hit == 0:
                    continue
                indexer: LocalIndexer | None = None
                pairs: list[PairPlan] = []
                for m, (peer, regions, _off) in zip(matches, groups):
                    if m is not None:
                        pairs.append(m)
                        continue
                    if indexer is None:
                        indexer = LocalIndexer(
                            list(desc.local_regions(rank)))
                    pairs.append(compile_pair(indexer, peer, regions))
                new_sched.seed_plan(side, rank, RankPlan(tuple(pairs)))
                reused += n_hit
                recompiled += len(pairs) - n_hit
                seeded = True
    if reused or recompiled:
        REDIST_STATS.add("pairs_reused", reused)
        REDIST_STATS.add("pairs_recompiled", recompiled)
    return reused, recompiled
