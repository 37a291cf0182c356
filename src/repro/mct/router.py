"""Router: MCT's inter-model communication scheduler.

Built once from the source and destination GlobalSegMaps (schedule
reuse), a Router moves an AttrVect between two models living on
disjoint rank sets of the world communicator.

The transfer runs on **compiled row plans**: at first use the Router
compiles each rank's side of the linear schedule against the rank's
GlobalSegMap layout (its owned runs, stored back to back in ascending
order) with the same compiler every schedule uses, so every (src, dst)
rank pair exchanges exactly **one message** carrying a single 2-D
``(rows, nfields)`` block — all of the pair's runs coalesced in
ascending global order, all fields fused as AttrVect columns.  Each
pair's row selector is computed once: a slice when its rows are a
regular progression (the send block is then a zero-copy view), an index
array otherwise.  (E13's per-field ablation is the sparse matrix's,
:meth:`~repro.mct.sparsematrix.SparseMatrix.apply`.)
"""

from __future__ import annotations


from repro.errors import MCTError
from repro.linearize.linearization import run_layout
from repro.mct.attrvect import AttrVect
from repro.mct.gsmap import GlobalSegMap
from repro.mct.registry import MCTWorld
from repro.schedule.builder import build_linear_schedule
from repro.schedule.indexplan import LocalIndexer
from repro.schedule.plan import CommSchedule
from repro.simmpi import payload

ROUTER_TAG = 160


class _GsmapLinearization:
    """Adapter: a GlobalSegMap as a linearization (runs provider)."""

    def __init__(self, gsmap: GlobalSegMap):
        self.gsmap = gsmap
        self.nranks = gsmap.nranks

    @property
    def total(self) -> int:
        return self.gsmap.gsize

    def runs(self, rank: int):
        return self.gsmap.runs(rank)

    def ownership(self):
        return self.gsmap.ownership()


def build_gsmap_schedule(src: GlobalSegMap,
                         dst: GlobalSegMap) -> CommSchedule:
    """Linear schedule between two segmented decompositions."""
    if src.gsize != dst.gsize:
        raise MCTError(
            f"GlobalSegMap sizes differ: {src.gsize} vs {dst.gsize}")
    return build_linear_schedule(_GsmapLinearization(src),
                                 _GsmapLinearization(dst))


class _RowPlans:
    """A gsmap schedule and its compiled row plans: per (side, rank),
    each pair as ``(peer, size, rows)`` with the AttrVect row selector
    computed once — a pair that folds to a multi-axis box expands its
    indices, which must not happen per transfer."""

    def __init__(self, src_gsmap: GlobalSegMap, dst_gsmap: GlobalSegMap):
        self.src_gsmap = src_gsmap
        self.dst_gsmap = dst_gsmap
        self.schedule = build_gsmap_schedule(src_gsmap, dst_gsmap)
        self._rows: dict[tuple[str, int], list] = {}

    def _pairs(self, side: str, rank: int) -> list:
        pairs = self._rows.get((side, rank))
        if pairs is None:
            gsmap = self.src_gsmap if side == "send" else self.dst_gsmap
            plan = self.schedule.rank_plan(
                side, rank, LocalIndexer(*run_layout(gsmap.runs(rank))))
            pairs = self._rows[side, rank] = [
                (pp.peer, pp.size, pp.selector) for pp in plan.pairs]
        return pairs


class Router(_RowPlans):
    """Inter-model transfer scheduler over an MCTWorld."""

    def __init__(self, world: MCTWorld, src_model: str, dst_model: str,
                 src_gsmap: GlobalSegMap, dst_gsmap: GlobalSegMap):
        if src_gsmap.nranks != world.size_of(src_model):
            raise MCTError(
                f"source GlobalSegMap has {src_gsmap.nranks} ranks but "
                f"model {src_model!r} has {world.size_of(src_model)}")
        if dst_gsmap.nranks != world.size_of(dst_model):
            raise MCTError(
                f"dest GlobalSegMap has {dst_gsmap.nranks} ranks but "
                f"model {dst_model!r} has {world.size_of(dst_model)}")
        super().__init__(src_gsmap, dst_gsmap)
        self.world = world
        self.src_model = src_model
        self.dst_model = dst_model
        self._src_ranks = world.ranks_of(src_model)
        self._dst_ranks = world.ranks_of(dst_model)

    def transfer(self, av_send: AttrVect | None = None,
                 av_recv: AttrVect | None = None, *,
                 tag: int = ROUTER_TAG) -> int:
        """Move data per the schedule; collective over both models.

        Source ranks pass ``av_send``; destination ranks pass
        ``av_recv``.  A rank in neither model passes nothing and the
        call is a no-op there.  Each (src, dst) rank pair exchanges one
        2-D block, its runs coalesced and its fields fused.  Returns
        elements moved at this rank.
        """
        comm = self.world.world
        me = comm.rank
        moved = 0
        if me in self._src_ranks:
            if av_send is None:
                raise MCTError(f"rank {me} is in {self.src_model!r} but "
                               f"passed no send AttrVect")
            s = self._src_ranks.index(me)
            if av_send.lsize != self.src_gsmap.local_size(s):
                raise MCTError(
                    f"send AttrVect lsize {av_send.lsize} != gsmap local "
                    f"size {self.src_gsmap.local_size(s)}")
            for peer, size, rows in self._pairs("send", s):
                comm.send(payload.Borrowed(av_send.data[rows, :]),
                          self._dst_ranks[peer], tag)
                moved += size
        if me in self._dst_ranks:
            if av_recv is None:
                raise MCTError(f"rank {me} is in {self.dst_model!r} but "
                               f"passed no recv AttrVect")
            d = self._dst_ranks.index(me)
            if av_recv.lsize != self.dst_gsmap.local_size(d):
                raise MCTError(
                    f"recv AttrVect lsize {av_recv.lsize} != gsmap local "
                    f"size {self.dst_gsmap.local_size(d)}")
            for peer, size, rows in self._pairs("recv", d):
                av_recv.data[rows, :] = comm.recv(
                    source=self._src_ranks[peer], tag=tag)
                moved += size
        return moved

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Router({self.src_model}->{self.dst_model}, "
                f"{self.schedule.message_count} runs)")
