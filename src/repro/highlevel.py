"""High-level convenience API — §6's "user-friendly simplifications".

"The complexity of the current port interfaces alludes to the low-level
'assembly-language' nature of our current understanding of this
technology.  More user-friendly simplifications will be developed for
the most common operations, to make this technology more readily
available and practical for everyday usage."

Two simplifications cover the overwhelmingly common cases:

* :func:`redistribute` — one call to move a replicated array between
  two decompositions inside one job (testing, bootstrapping, demos);
* :class:`Coupler` — one object per coupled field between two programs:
  the producer calls :meth:`Coupler.publish`, the consumer
  :meth:`Coupler.subscribe`; descriptor exchange, schedule construction
  and caching all happen behind the scenes.  :meth:`Coupler.open` gives
  a persistent channel with ``push``/``pull`` for time loops.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.errors import ConnectionError_, ScheduleError
from repro.dad.darray import DistributedArray
from repro.dad.descriptor import DistArrayDescriptor
from repro.dad.template import Template, block_template
from repro.mxn.connection import agreed_requests, handshake
from repro.schedule.bufpool import BufferPool
from repro.schedule.builder import GLOBAL_CACHE
from repro.schedule.delta import compile_delta
from repro.schedule.executor import bind, execute_inter, execute_intra
from repro.simmpi.communicator import Communicator
from repro.simmpi.intercomm import Intercommunicator, NameService
from repro.simmpi.runner import run_spmd
from repro.util.counters import REDIST_STATS

_HANDSHAKE_TAG = 150
_DATA_TAG = 151
_RESIZE_TAG = 152


def redistribute(global_array: np.ndarray,
                 src_grid: Sequence[int],
                 dst_grid: Sequence[int],
                 *, backend: str | None = None) -> np.ndarray:
    """Scatter ``global_array`` onto ``src_grid`` blocks, redistribute to
    ``dst_grid`` blocks, and reassemble — the whole Fig. 1 pipeline in
    one call (runs an SPMD job internally).

    ``backend="procs"`` runs the ranks as real processes with payloads
    in shared memory (see :mod:`repro.simmpi.transport`); the default
    is the ``backend`` knob.  Like every one-shot the transfer runs
    two-sided (:func:`~repro.schedule.executor.resolve_tier`)."""
    global_array = np.asarray(global_array)
    src = DistArrayDescriptor(
        block_template(global_array.shape, src_grid), global_array.dtype)
    dst = DistArrayDescriptor(
        block_template(global_array.shape, dst_grid), global_array.dtype)
    sched = GLOBAL_CACHE.get(src, dst)
    n = max(src.nranks, dst.nranks)

    def main(comm):
        sa = (DistributedArray.from_global(src, comm.rank, global_array)
              if comm.rank < src.nranks else None)
        da = (DistributedArray.allocate(dst, comm.rank)
              if comm.rank < dst.nranks else None)
        execute_intra(sched, comm, src_array=sa, dst_array=da,
                      src_ranks=range(src.nranks),
                      dst_ranks=range(dst.nranks))
        return da

    parts = [p for p in run_spmd(n, main, backend=backend) if p is not None]
    return DistributedArray.assemble(parts)


def _resolve_new_descriptor(old_desc: DistArrayDescriptor, new_dist,
                            new_nranks: int | None) -> DistArrayDescriptor:
    """Normalize ``reconfigure``'s target: a descriptor is taken as-is,
    a template is wrapped with the old dtype, a process-grid sequence
    becomes a block template over the old shape."""
    if isinstance(new_dist, DistArrayDescriptor):
        new_desc = new_dist
    elif isinstance(new_dist, Template):
        new_desc = DistArrayDescriptor(new_dist, old_desc.dtype)
    else:
        new_desc = DistArrayDescriptor(
            block_template(old_desc.shape, tuple(new_dist)), old_desc.dtype)
    if new_nranks is not None and new_desc.nranks != int(new_nranks):
        raise ScheduleError(
            f"new distribution spans {new_desc.nranks} ranks, caller "
            f"asked for {new_nranks}")
    if new_desc.shape != old_desc.shape:
        raise ScheduleError(
            f"cannot resize between shapes {old_desc.shape} and "
            f"{new_desc.shape}")
    if new_desc.dtype != old_desc.dtype:
        raise ScheduleError(
            f"cannot resize between dtypes {old_desc.dtype} and "
            f"{new_desc.dtype}")
    return new_desc


def reconfigure(comm: Communicator, darray: DistributedArray | None,
                new_dist, new_nranks: int | None = None, *,
                cache=None) -> DistributedArray | None:
    """Resize a live distributed array to a new decomposition, moving
    only the bytes whose owner changed — the elastic counterpart of
    :func:`redistribute`.

    Collective over ``comm`` (every rank calls it).  Ranks inside the
    old decomposition pass their live array; ranks joining the cohort
    (``rank >= old nranks``) pass ``None``.  ``new_dist`` is a
    :class:`~repro.dad.descriptor.DistArrayDescriptor`, a
    :class:`~repro.dad.template.Template`, or a process-grid sequence
    (block decomposition); ``new_nranks`` optionally cross-checks it.

    The pipeline is the delta-schedule compiler's
    (:mod:`repro.schedule.delta`): fetch the old→new schedule through
    the shared :class:`~repro.schedule.builder.ScheduleCache` (a
    repeated resize is a pure cache hit), split it into migration +
    kept, repack kept bytes locally, stream only the
    migration as a one-shot transfer (two-sided, as in
    :func:`redistribute`), then — after a drain barrier guarantees no
    rank still has transfer steps in flight — atomically swap the
    ownership map (:meth:`~repro.dad.darray.DistributedArray.adopt`).

    Returns the surviving handle: for a rank inside the new
    decomposition this is the *same object* it passed in (rebound in
    place, so existing references stay live), or a fresh array for a
    joining rank.  Ranks leaving the cohort get ``None`` and must stop
    using their old handle (its contents are stale by construction).

    ``REDIST_STATS`` accounts the resize on comm rank 0:
    ``migrated_bytes`` / ``kept_bytes`` / ``identity_ranks`` /
    ``resizes`` / ``resize_wall_us``.
    """
    t0 = time.perf_counter()
    if comm.rank == 0 and darray is None:
        raise ScheduleError(
            "reconfigure: rank 0 must hold the live array (it broadcasts "
            "the old decomposition)")
    old_desc = comm.bcast(darray.descriptor if comm.rank == 0 else None,
                          root=0)
    new_desc = _resolve_new_descriptor(old_desc, new_dist, new_nranks)
    old_n, new_n = old_desc.nranks, new_desc.nranks
    if comm.size < max(old_n, new_n):
        raise ScheduleError(
            f"reconfigure needs {max(old_n, new_n)} ranks "
            f"(old={old_n}, new={new_n}), comm has {comm.size}")
    me = comm.rank
    if (darray is None) != (me >= old_n):
        raise ScheduleError(
            f"rank {me}: ranks below the old size {old_n} pass their live "
            f"array, ranks joining pass None")
    if darray is not None and \
            darray.descriptor.cache_key() != old_desc.cache_key():
        raise ScheduleError(
            f"rank {me}: local array's decomposition differs from rank "
            f"0's — the cohort disagrees on the old distribution")
    delta = compile_delta(old_desc, new_desc,
                          cache=GLOBAL_CACHE if cache is None else cache)
    incoming = None
    if me < new_n:
        if me in delta.identity_ranks and darray is not None:
            # Ownership unchanged: keep the buffer, no repack at all.
            incoming = darray
        else:
            incoming = DistributedArray.allocate(new_desc, me)
            if darray is not None:
                delta.apply_local(me, darray.flat_local(),
                                  incoming.flat_local())
    execute_intra(delta.migration, comm, src_array=darray,
                  dst_array=incoming, src_ranks=range(old_n),
                  dst_ranks=range(new_n), tag=_RESIZE_TAG)
    # Drain: no rank may swap its ownership map while any peer still
    # has migration steps in flight — after this barrier every receive
    # everywhere has completed, so the swap is globally atomic.
    comm.barrier()
    result = None
    if me < new_n:
        result = (darray.adopt(incoming, new_desc) if darray is not None
                  else incoming)
    if me == 0:
        REDIST_STATS.add("resizes")
        REDIST_STATS.add("migrated_bytes", delta.migrated_bytes())
        REDIST_STATS.add("kept_bytes", delta.kept_bytes())
        REDIST_STATS.add("identity_ranks", len(delta.identity_ranks))
        REDIST_STATS.add("resize_wall_us",
                         int((time.perf_counter() - t0) * 1e6))
    return result


class Channel:
    """A persistent coupled-field channel (see :meth:`Coupler.open`).

    Holds one bound transfer (:func:`repro.schedule.executor.bind`),
    bound at open and stepped by every ``push``/``pull``: the
    producer packs through a per-channel
    :class:`~repro.schedule.bufpool.BufferPool` (zero steady-state
    allocations) and lends every payload to its send; the consumer
    preposts recv-into-destination slots so in-flight data lands
    straight in ``channel.array``'s consolidated local base.
    ``pool_stats`` exposes the pool counters (producer side; all zeros
    on the consumer, which needs no staging at all).

    The execution tier is resolved once, at open, from the ``tier``
    request by :func:`~repro.schedule.executor.resolve_tier` (its table
    says what each tier costs and releases); both sides must request
    the same ``tier`` (:meth:`Coupler.open` checks).  A pair may go by
    *put*, on either backend: the consumer's array is exposed as a
    window over its own storage and ``push`` writes that pair straight
    into it, after waiting for the consumer's matching ``pull``.
    ``tier="rma"`` puts every pair; the default ``two_sided`` puts the
    pairs above :data:`~repro.schedule.executor.EAGER_MAX` wire bytes
    (MPI's rendezvous) and sends the rest as buffered messages that
    never wait.  Producer and consumer of a channel that waits proceed
    in lockstep — two programs that each push before pulling the
    reverse channel need one whose pairs stay eager (or pre-arm) to
    avoid a cycle.
    """

    def __init__(self, inter: Intercommunicator, role: str,
                 schedule, darray: DistributedArray,
                 tier: str | None = None):
        self._role = role
        self._darray = darray
        self.pool = BufferPool()
        self._transfer = bind(
            schedule, "src" if role == "source" else "dst", inter, darray,
            tag=_DATA_TAG, pool=self.pool, tier=tier)
        self.transfers = 0

    @property
    def mode(self) -> str:
        """The resolved execution tier: ``"two_sided"`` (put pairs
        above the eager limit included) or ``"rma"``."""
        return self._transfer.tier

    def push(self) -> None:
        """Producer side: send the current contents of the local array."""
        if self._role != "source":
            raise ConnectionError_("push() is for the publishing side")
        self._transfer.step()
        self.transfers += 1

    def pull(self) -> DistributedArray:
        """Consumer side: receive the next snapshot into the local array."""
        if self._role != "destination":
            raise ConnectionError_("pull() is for the subscribing side")
        self._transfer.step()
        self.transfers += 1
        return self._darray

    def close(self) -> None:
        """Close the bound transfer, releasing what its tier holds (the
        window of its put pairs); ``push``/``pull`` raise
        :class:`~repro.errors.ConnectionError_` afterwards.  Idempotent;
        safe on channels that never transferred."""
        self._transfer.close()

    @property
    def array(self) -> DistributedArray:
        return self._darray

    @property
    def pool_stats(self) -> dict:
        """Snapshot of the channel's buffer-pool counters."""
        return self.pool.stats.snapshot()


class Coupler:
    """One-line coupling of a named field between two programs.

    Both programs construct ``Coupler(name, nameservice)``; the producer
    then calls :meth:`publish` (or :meth:`open` + ``push``), the
    consumer :meth:`subscribe` (or :meth:`open` + ``pull``).
    """

    def __init__(self, name: str, nameservice: NameService):
        self.name = name
        self.nameservice = nameservice

    # -- connection plumbing ------------------------------------------------

    def _handshake(self, comm: Communicator, role: str,
                   descriptor: DistArrayDescriptor, *,
                   tier: str | None = None, persistent: bool = False):
        """Connect, then exchange the descriptor and, for a persistent
        channel, this job's :func:`~repro.mxn.connection.agreed_requests`
        in one message (:func:`~repro.mxn.connection.handshake`): every
        rank of both jobs raises :class:`~repro.errors.ConnectionError_`
        when the requests differ — before any transfer could stall on
        it."""
        if role == "source":
            inter = self.nameservice.accept(self.name, comm)
        else:
            inter = self.nameservice.connect(self.name, comm)
        peer = handshake(inter, _HANDSHAKE_TAG, descriptor,
                         agreed_requests(tier) if persistent else {},
                         what=f"coupling {self.name!r}")
        if role == "source":
            sched = GLOBAL_CACHE.get(descriptor, peer)
        else:
            sched = GLOBAL_CACHE.get(peer, descriptor)
        return inter, sched

    # -- one-shot -----------------------------------------------------------------

    def publish(self, comm: Communicator, darray: DistributedArray) -> int:
        """Producer: push one snapshot of the field; returns elements
        sent by this rank."""
        inter, sched = self._handshake(comm, "source", darray.descriptor)
        return execute_inter(sched, inter, "src", darray, tag=_DATA_TAG)

    def subscribe(self, comm: Communicator,
                  layout: DistArrayDescriptor) -> DistributedArray:
        """Consumer: receive one snapshot in ``layout``."""
        inter, sched = self._handshake(comm, "destination", layout)
        darray = DistributedArray.allocate(layout, comm.rank)
        execute_inter(sched, inter, "dst", darray, tag=_DATA_TAG)
        return darray

    # -- persistent ------------------------------------------------------------------

    def open(self, comm: Communicator, role: str,
             darray_or_layout, *, tier: str | None = None,
             one_sided: bool | None = None) -> Channel:
        """Open a persistent channel.

        Producer: ``open(comm, "source", darray)``.
        Consumer: ``open(comm, "destination", layout_descriptor)`` —
        the local array is allocated for you (``channel.array``).

        ``tier`` requests the execution tier (see :class:`Channel`;
        ``None`` defers to the ``tier`` knob of :mod:`repro.config`).
        ``one_sided`` is its older spelling, kept for existing callers:
        ``True`` means ``tier="rma"``, ``False`` ``tier="two_sided"``;
        passing both raises :class:`TypeError`.  Both sides must
        resolve the same requests — the handshake raises
        :class:`~repro.errors.ConnectionError_` on every rank of both
        jobs otherwise — and the tier then follows from the handshaken
        schedule and the dtype without negotiating.
        """
        if role not in ("source", "destination"):
            raise ConnectionError_(
                f"role must be 'source' or 'destination', got {role!r}")
        if one_sided is not None:
            if tier is not None:
                raise TypeError("Coupler.open takes tier= or one_sided=, "
                                "not both")
            tier = "rma" if one_sided else "two_sided"
        darray = (darray_or_layout if role == "source" else
                  DistributedArray.allocate(darray_or_layout, comm.rank))
        inter, sched = self._handshake(comm, role, darray.descriptor,
                                       tier=tier, persistent=True)
        return Channel(inter, role, sched, darray, tier=tier)
