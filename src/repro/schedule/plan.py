"""Schedule data structures.

A schedule is pure data — (source rank, destination rank, what-to-move)
triples in a deterministic order — so it can be computed once, cached,
shipped to a third party, or replayed against any array conforming to
the same templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.errors import ScheduleError
from repro.dad.descriptor import DistArrayDescriptor
from repro.linearize.linearization import Linearization, Run
from repro.schedule.indexplan import RankPlan, compile_pair_plans, compile_rank_plan
from repro.util.regions import Region, RegionList


@dataclass(frozen=True, slots=True)
class TransferItem:
    """Move ``region`` (global coordinates) from src rank to dst rank."""

    src: int
    dst: int
    region: Region


@dataclass(frozen=True, slots=True)
class LinearItem:
    """Move linear interval ``run`` from src rank to dst rank."""

    src: int
    dst: int
    run: Run


def _group_by_peer(pairs: list[tuple[int, "Region"]], volume_of,
                   ) -> list[tuple[int, list, np.ndarray]]:
    """Group an ordered (peer, item) list into per-peer runs.

    Returns ``(peer, items, offsets)`` tuples where ``offsets`` is the
    flattened element offset of each item inside the coalesced buffer,
    with the total volume appended (an ``np.int64`` cumsum, so
    downstream slicing never re-converts) — precomputed once so packed
    execution never rescans volumes.
    """
    grouped: list[tuple[int, list]] = []
    for peer, item in pairs:
        if not grouped or grouped[-1][0] != peer:
            grouped.append((peer, []))
        grouped[-1][1].append(item)
    groups: list[tuple[int, list, np.ndarray]] = []
    for peer, items in grouped:
        offsets = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum([volume_of(it) for it in items], out=offsets[1:])
        groups.append((peer, items, offsets))
    return groups


class _Schedule:
    """What region and linear schedules share: item ordering, per-rank
    views, per-(src, dst)-pair coalescing groups, the compiled-plan
    cache and the memoized collective round plans.

    Subclasses name the attribute of an item that says *what* moves
    (``_WHAT``: ``"region"`` / ``"run"``) and of that object's element
    count (``_SIZE``), and supply :meth:`_compile`.  Everything is
    indexed once at construction, so the executor's queries are
    O(per-rank items) instead of O(total items) rescans.
    """

    _WHAT: str
    _SIZE: str

    def __init__(self, items: list, src_nranks: int, dst_nranks: int):
        what = attrgetter(self._WHAT)
        self.items = sorted(
            items, key=lambda it: (it.src, it.dst, what(it).lo))
        self.src_nranks = src_nranks
        self.dst_nranks = dst_nranks
        sends: list[list[tuple]] = [[] for _ in range(src_nranks)]
        recvs: list[list[tuple]] = [[] for _ in range(dst_nranks)]
        for it in self.items:
            # items are (src, dst, lo)-sorted, so each send list arrives
            # ordered by (dst, lo) already.
            moved = what(it)
            sends[it.src].append((it.dst, moved))
            recvs[it.dst].append((it.src, moved))
        for lst in recvs:
            lst.sort(key=lambda t: (t[0], t[1].lo))
        self._sends = sends
        self._recvs = recvs
        size = attrgetter(self._SIZE)
        self._send_groups = [_group_by_peer(lst, size) for lst in sends]
        self._recv_groups = [_group_by_peer(lst, size) for lst in recvs]
        #: compiled index plans, keyed ("send"/"recv", rank) — see
        #: rank_plan.
        self._plans: dict[tuple[str, int], RankPlan] = {}
        #: memoized collective round plans, keyed (itemsize, round_bytes)
        self._coll_plans: dict[tuple[int, int], object] = {}

    # -- per-rank views -------------------------------------------------------

    def sends_from(self, src: int) -> list[tuple]:
        """(dst, region-or-run) pairs rank ``src`` must send, in wire
        order."""
        if not (0 <= src < self.src_nranks):
            return []
        return list(self._sends[src])

    def recvs_at(self, dst: int) -> list[tuple]:
        """(src, region-or-run) pairs rank ``dst`` must receive.

        Ordered by (src, lo) — the same relative order per source as
        :meth:`sends_from` produces, so FIFO matching lines up.
        """
        if not (0 <= dst < self.dst_nranks):
            return []
        return list(self._recvs[dst])

    # -- per-pair coalescing groups ------------------------------------------

    def send_groups(self, src: int) -> list[tuple[int, list, np.ndarray]]:
        """Per-destination coalescing groups for rank ``src``:
        ``(dst, items, offsets)`` with the regions/runs in wire order
        and ``offsets`` the flattened ``np.int64`` element offsets of
        each inside the pair's packed buffer (total appended).  Callers
        must not mutate the returned lists."""
        if not (0 <= src < self.src_nranks):
            return []
        return self._send_groups[src]

    def recv_groups(self, dst: int) -> list[tuple[int, list, np.ndarray]]:
        """Per-source coalescing groups for rank ``dst``; item order
        matches the sender's :meth:`send_groups` order, so one packed
        buffer per pair unpacks positionally."""
        if not (0 <= dst < self.dst_nranks):
            return []
        return self._recv_groups[dst]

    # -- compiled index plans ------------------------------------------------

    def send_plan(self, src: int, layout) -> RankPlan:
        """Compiled gather plan for schedule rank ``src``: one flat
        index array (or slice) per destination, addressing the rank's
        flat local storage.  ``layout`` says where things live there —
        the rank's patch regions (``descriptor.local_regions(src)``) for
        a region schedule, an ``indices_of(run)`` mapping for a linear
        one.  Plans are compiled on first use and cached for the
        schedule's lifetime, which is sound because everything replayed
        against one schedule conforms to the same template — every
        caller must therefore supply an equivalent ``layout``."""
        return self.rank_plan("send", src, layout)

    def recv_plan(self, dst: int, layout) -> RankPlan:
        """Compiled scatter plan for schedule rank ``dst`` (see
        :meth:`send_plan`)."""
        return self.rank_plan("recv", dst, layout)

    def rank_plan(self, side: str, rank: int, layout) -> RankPlan:
        """:meth:`send_plan` (``side="send"``) or :meth:`recv_plan`
        (``"recv"``) — the form the executor binds through."""
        plan = self._plans.get((side, rank))
        if plan is None:
            groups = (self._send_groups if side == "send"
                      else self._recv_groups)[rank]
            plan = self._plans[(side, rank)] = self._compile(groups, layout)
        return plan

    def _compile(self, groups, layout) -> RankPlan:
        raise NotImplementedError

    def plan_if_compiled(self, side: str, rank: int) -> RankPlan | None:
        """The cached compiled plan for ``(side, rank)``, or ``None`` if
        it was never compiled — the delta compiler's probe for artifacts
        worth carrying across a resize (no compilation is triggered)."""
        return self._plans.get((side, rank))

    def seed_plan(self, side: str, rank: int, plan: RankPlan) -> None:
        """Install a precompiled :class:`~repro.schedule.indexplan.
        RankPlan` for ``(side, rank)`` — the warm-start path of
        :func:`repro.schedule.delta.warm_start_plans`.  The caller owns
        the soundness argument: the plan must equal what
        :meth:`send_plan`/:meth:`recv_plan` would compile (same wire
        items over the same layout)."""
        if side not in ("send", "recv"):
            raise ScheduleError(f"unknown schedule side {side!r}")
        self._plans[(side, rank)] = plan

    def collective_plan(self, itemsize: int, round_bytes: int):
        """The memory-bounded round decomposition of this schedule (see
        :func:`repro.schedule.collplan.plan_collective_rounds`), memoized
        per (itemsize, round_bytes) next to the index plans — sound
        because the decomposition depends only on the schedule's pair
        sizes."""
        key = (int(itemsize), int(round_bytes))
        plan = self._coll_plans.get(key)
        if plan is None:
            from repro.schedule.collplan import plan_collective_rounds
            plan = plan_collective_rounds(self, itemsize=key[0],
                                          round_bytes=key[1])
            self._coll_plans[key] = plan
        return plan

    # -- metrics -----------------------------------------------------------------

    @property
    def pair_count(self) -> int:
        """Number of communicating (src, dst) rank pairs — the
        executors' message count."""
        return sum(len(g) for g in self._send_groups)

    @property
    def message_count(self) -> int:
        return len(self.items)

    @property
    def element_count(self) -> int:
        return sum(int(offsets[-1]) for groups in self._send_groups
                   for _, _, offsets in groups)


class CommSchedule(_Schedule):
    """A region-based communication schedule between two templates."""

    _WHAT, _SIZE = "region", "volume"

    def _compile(self, groups, owned_regions) -> RankPlan:
        return compile_rank_plan(groups, list(owned_regions))

    # -- metrics -----------------------------------------------------------------

    def nbytes(self, dtype: np.dtype | str = np.float64) -> int:
        return self.element_count * np.dtype(dtype).itemsize

    def entries(self) -> int:
        """Bookkeeping size of the schedule itself."""
        ndim = self.items[0].region.ndim if self.items else 0
        return len(self.items) * (2 + 2 * ndim)

    # -- validation ---------------------------------------------------------------

    def validate(self, src_desc: DistArrayDescriptor,
                 dst_desc: DistArrayDescriptor) -> None:
        """Check schedule completeness and consistency:

        * every item's region is owned by its src on the source side and
          by its dst on the destination side,
        * per destination rank, the received regions exactly tile that
          rank's ownership (every destination element written once).
        """
        if src_desc.shape != dst_desc.shape:
            raise ScheduleError(
                f"template shapes differ: {src_desc.shape} vs {dst_desc.shape}")
        for it in self.items:
            if not src_desc.local_regions(it.src).intersect_region(
                    it.region).volume == it.region.volume:
                raise ScheduleError(
                    f"item {it}: region not owned by source rank {it.src}")
            if not dst_desc.local_regions(it.dst).intersect_region(
                    it.region).volume == it.region.volume:
                raise ScheduleError(
                    f"item {it}: region not owned by dest rank {it.dst}")
        for dst in range(self.dst_nranks):
            incoming = [r for _, r in self.recvs_at(dst)]
            owned = dst_desc.local_regions(dst)
            got = sum(r.volume for r in incoming)
            if got != owned.volume:
                raise ScheduleError(
                    f"dest rank {dst} receives {got} elements but owns "
                    f"{owned.volume}")
            RegionList(incoming)  # disjointness

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CommSchedule({self.message_count} messages, "
                f"{self.element_count} elements, "
                f"{self.src_nranks}x{self.dst_nranks})")


class LinearSchedule(_Schedule):
    """A linearization-based schedule: runs moved between rank pairs."""

    _WHAT, _SIZE = "run", "length"

    def _compile(self, groups, indices_of) -> RankPlan:
        return compile_pair_plans(groups, indices_of)

    def entries(self) -> int:
        return len(self.items) * 4

    def validate(self, src_lin: Linearization, dst_lin: Linearization) -> None:
        """Every destination position covered exactly once by items that
        the source side actually owns."""
        if src_lin.total != dst_lin.total:
            raise ScheduleError(
                f"linear spaces differ: {src_lin.total} vs {dst_lin.total}")
        marks = np.zeros(dst_lin.total, dtype=np.int32)
        for it in self.items:
            owned = any(r.intersect(it.run) is not None and
                        r.lo <= it.run.lo and it.run.hi <= r.hi
                        for r in src_lin.runs(it.src))
            if not owned:
                raise ScheduleError(
                    f"item {it}: run not owned by source rank {it.src}")
            marks[it.run.lo:it.run.hi] += 1
        if not np.all(marks == 1):
            bad = int(np.flatnonzero(marks != 1)[0])
            raise ScheduleError(
                f"linear position {bad} transferred {int(marks[bad])} times")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LinearSchedule({self.message_count} runs, "
                f"{self.element_count} elements)")
