"""The broker: offer/request matching and coupling orchestration.

The broker object is control-plane only.  It records offers, assigns a
private rendezvous name per request, and tells the consumer how to
regrid — the field data flows directly between the two programs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.dad.darray import DistributedArray
from repro.dad.descriptor import DistArrayDescriptor
from repro.dad.template import block_template
from repro.ddb.regrid import regrid_matrix
from repro.mct.attrvect import AttrVect
from repro.mct.gsmap import GlobalSegMap
from repro.mct.sparsematrix import InterpolationScheduler, SparseMatrix
from repro.schedule.builder import GLOBAL_CACHE
from repro.schedule.executor import execute_inter
from repro.simmpi import payload as _payload
from repro.simmpi.communicator import Communicator
from repro.simmpi.intercomm import NameService

DDB_DATA_TAG = 210


@dataclass
class _Offer:
    field: str
    resolution: int
    producer_nranks: int
    next_request: int = 0
    served: int = 0


class DataBroker:
    """Shared control-plane object for brokered model coupling."""

    def __init__(self, nameservice: NameService):
        self.nameservice = nameservice
        self._lock = threading.Lock()
        self._offers: dict[str, _Offer] = {}

    # -- registry -----------------------------------------------------------

    def _register_offer(self, field: str, resolution: int,
                        nranks: int) -> None:
        with self._lock:
            if field in self._offers:
                raise ReproError(f"field {field!r} already offered")
            self._offers[field] = _Offer(field, int(resolution), nranks)

    def _claim_request(self, field: str) -> tuple[_Offer, str]:
        with self._lock:
            try:
                offer = self._offers[field]
            except KeyError:
                raise ReproError(
                    f"no producer offers field {field!r}; offers: "
                    f"{sorted(self._offers)}") from None
            service = f"ddb/{field}/{offer.next_request}"
            offer.next_request += 1
            return offer, service

    def offered_fields(self) -> list[str]:
        with self._lock:
            return sorted(self._offers)

    # -- producer side ----------------------------------------------------------

    def offer(self, comm: Communicator, field: str,
              darray: DistributedArray) -> None:
        """Register a 1-D field this program produces.

        Collective over the producing cohort; ``darray`` defines the
        resolution (global length) and decomposition.
        """
        desc = darray.descriptor
        if desc.ndim != 1:
            raise ReproError("DDB fields are 1-D profiles")
        if comm.rank == 0:
            self._register_offer(field, desc.shape[0], comm.size)
        comm.barrier()

    def serve(self, comm: Communicator, field: str,
              darray: DistributedArray, requests: int = 1) -> int:
        """Serve ``requests`` consumer requests for ``field``, in
        arrival order.  Collective over the producing cohort.  Returns
        elements sent by this rank."""
        desc = darray.descriptor
        sent = 0
        for _ in range(requests):
            # Requests claim strictly increasing ids; serve them in the
            # same order so accept/connect pairs line up.
            served_id = comm.bcast(
                self._served_counter(field) if comm.rank == 0 else None,
                root=0)
            service = f"ddb/{field}/{served_id}"
            inter = self.nameservice.accept(service, comm)
            # The consumer's intermediate layout is the producer
            # resolution blocked over the consumer's ranks.
            inter_desc = DistArrayDescriptor(
                block_template(desc.shape, (inter.remote_size,)),
                desc.dtype)
            sched = GLOBAL_CACHE.get(desc, inter_desc)
            sent += execute_inter(sched, inter, "src", darray,
                                  tag=DDB_DATA_TAG)
        return sent

    def _served_counter(self, field: str) -> int:
        with self._lock:
            offer = self._offers[field]
            offer.served += 1
            return offer.served - 1

    # -- consumer side -------------------------------------------------------------

    def request(self, comm: Communicator, field: str,
                resolution: int) -> tuple[np.ndarray, GlobalSegMap]:
        """Fetch ``field`` at this program's ``resolution``.

        Collective over the consuming cohort.  Returns this rank's
        values and the block GlobalSegMap they follow.
        """
        if comm.rank == 0:
            offer, service = self._claim_request(field)
            info = (offer.resolution, service)
        else:
            info = None
        got = comm.bcast(
            _payload.Raw(info) if info is not None else None, root=0)
        src_res, service = got.value if isinstance(got, _payload.Raw) \
            else got

        inter = self.nameservice.connect(service, comm)
        # Stage 1: producer-resolution field onto OUR ranks.
        inter_desc = DistArrayDescriptor(
            block_template((src_res,), (comm.size,)))
        src_side_desc = DistArrayDescriptor(
            block_template((src_res,), (inter.remote_size,)))
        sched = GLOBAL_CACHE.get(src_side_desc, inter_desc)
        staged = DistributedArray.allocate(inter_desc, comm.rank)
        execute_inter(sched, inter, "dst", staged, tag=DDB_DATA_TAG)

        staged_gsmap = GlobalSegMap.block(src_res, comm.size)
        values = np.concatenate(
            [arr for _, arr in staged.iter_patches()]) \
            if staged.local_volume else np.empty(0)

        dst_gsmap = GlobalSegMap.block(int(resolution), comm.size)
        if int(resolution) == src_res:
            return values, dst_gsmap

        # Stage 2: distributed regrid to our resolution.
        rows, cols, vals = regrid_matrix(src_res, int(resolution))
        mine = np.isin(rows, dst_gsmap.global_indices(comm.rank))
        matrix = SparseMatrix(int(resolution), src_res, rows[mine],
                              cols[mine], vals[mine], dst_gsmap,
                              comm.rank)
        scheduler = InterpolationScheduler(comm, matrix, staged_gsmap)
        x_av = AttrVect.from_arrays({field: values})
        y_av = scheduler.apply(comm, x_av)
        return y_av[field].copy(), dst_gsmap
