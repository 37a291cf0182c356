"""Rearranger: intra-model parallel data redistribution.

The same schedule machinery as the :class:`~repro.mct.router.Router`,
but both decompositions live on one model's communicator — every rank
is (potentially) both a source and a destination.  Like the Router, the
transfer runs on the same compiled row plans: one multi-field 2-D block
per communicating rank pair, with zero-copy slice views when a pair's
rows are a regular progression in local storage.
"""

from __future__ import annotations

from repro.errors import MCTError
from repro.mct.attrvect import AttrVect
from repro.mct.gsmap import GlobalSegMap
from repro.mct.router import _pair_wire, _RowPlans
from repro.simmpi.communicator import Communicator

REARRANGE_TAG = 161


class Rearranger(_RowPlans):
    """Intra-model redistribution between two GlobalSegMaps."""

    def __init__(self, src_gsmap: GlobalSegMap, dst_gsmap: GlobalSegMap):
        if src_gsmap.nranks != dst_gsmap.nranks:
            raise MCTError(
                f"rearranger needs equal rank counts, got "
                f"{src_gsmap.nranks} and {dst_gsmap.nranks}")
        super().__init__(src_gsmap, dst_gsmap)

    def rearrange(self, comm: Communicator, av_src: AttrVect,
                  av_dst: AttrVect, *, tag: int = REARRANGE_TAG) -> int:
        """Collective: move ``av_src`` (src decomposition) into
        ``av_dst`` (dst decomposition).  One message per communicating
        rank pair, all fields fused.  Returns elements received."""
        if comm.size != self.src_gsmap.nranks:
            raise MCTError(
                f"communicator size {comm.size} != GlobalSegMap ranks "
                f"{self.src_gsmap.nranks}")
        if not av_src.same_fields(av_dst):
            raise MCTError(
                f"field lists differ: {av_src.fields} vs {av_dst.fields}")
        me = comm.rank
        for peer, _size, rows in self._pairs("send", me):
            comm.send(_pair_wire(rows, av_src), peer, tag)
        received = 0
        for peer, size, rows in self._pairs("recv", me):
            av_dst.data[rows, :] = comm.recv(source=peer, tag=tag)
            received += size
        return received
