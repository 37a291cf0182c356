"""Schedule execution: one bound-transfer core, two tiers.

A schedule is computed once and replayed (paper §2.3); this module is
the one way to replay it.  :func:`bind` ties one side of a schedule to
local storage, a link and an execution tier and returns a
:class:`BoundTransfer`: ``step()`` moves one snapshot, ``close()``
releases what the tier holds.  Everything else is that lifecycle:

* a **one-shot** transfer (:func:`execute_inter`, :func:`execute_intra`)
  is literally bind → step → close;
* an **intra-job** transfer binds a sender half and a receiver half on
  the same :class:`~repro.simmpi.communicator.Communicator` (peer
  translation = the cohort rank lists) instead of running a second
  engine — a communicator and an intercommunicator share one
  point-to-point core (``send``/``recv``/``wait_any``/``prepost_recv``,
  ``local_comm``, the calling rank's mailbox), so a half never knows
  which one its link is;
* a **persistent channel** keeps the handle and calls ``step()`` per
  time step (:func:`bind`, re-exported as ``repro.schedule.bind``, is
  the one public constructor).

Bind does, once: side validation, the ``REPRO_VERIFY`` proof
(:func:`~repro.verify.hook.maybe_verify_side` — never in a step), plan
compilation through the schedule's cache, tier resolution
(:func:`resolve_tier`), peer translation of every pair, and the tier's
bootstrap.  A step replays compiled :class:`~repro.schedule.indexplan.
PairPlan` objects only: every pair lends
(:class:`~repro.simmpi.payload.Borrowed`) — a single-box pair its
strided n-D view of local storage, so the wire's own copy reads source
storage, multi-box and index pairs a
:class:`~repro.schedule.bufpool.BufferPool` loan they gathered into and
release as soon as the send returns — zero steady-state allocations.
Every verb of a closed transfer raises
:class:`~repro.errors.ConnectionError_`.

The two tiers are the same pair of halves over that shared core
(``picked when`` is :func:`resolve_tier`'s rule): a pair goes *eager*
(one lent message into a sink the receiver preposts) or, above the
tier's ``eager_max`` wire bytes, as a *put* — ``wait_open → put →
commit`` straight into the receiver's RMA window (:mod:`repro.simmpi.
rma`), whatever the backend.  The window is the transport's: on threads
the receiver's own array under a heap epoch header, on procs a shared
segment the array is rebased into at bind.  A put is the only
rendezvous:

===========  ==========================  ==========================
             ``two_sided``               ``rma``
===========  ==========================  ==========================
put pairs    above :data:`EAGER_MAX`;    all (``eager_max`` 0)
             none on a one-shot over a
             shared segment (procs)
who blocks   nobody on an eager pair     a sender waits for the
on whom      (buffered sends); a put     receiver's exposure epoch,
             pair's sender waits for     the receiver fences once
             the receiver's ``arm``      per step: lockstep
             (its epoch)
``close()``  as ``rma`` if it has put    sender detaches its remote
releases     pairs, else nothing         windows; a receiver rebased
                                         into a segment evacuates its
                                         array and retires the window
picked       ``tier="two_sided"`` (the   ``tier="rma"`` on a
when         default), every one-shot    persistent transfer
===========  ==========================  ==========================

Both jobs derive the split from the same schedule, dtype, limit and
transport, so nothing is negotiated.  The receiver's
``arm()``/``complete()`` split exists so a single thread can drive both
sides deterministically (tests, A7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from repro import config
from repro.errors import ConnectionError_, ScheduleError
from repro.dad.darray import DistributedArray
from repro.schedule.bufpool import BufferPool
from repro.schedule.plan import CommSchedule
from repro.simmpi import payload, rma
from repro.simmpi import sanitize as _san
from repro.simmpi.communicator import Communicator
from repro.simmpi.intercomm import Intercommunicator
from repro.verify.hook import maybe_verify_side

#: Default tag for schedule-driven data messages.
TRANSFER_TAG = 64

#: Executor side names -> the schedule's plan-cache side names; also the
#: set of valid sides.
_PLAN_SIDE = {"src": "send", "dst": "recv"}

#: Wire bytes above which a two-sided pair is put into the receiver's
#: window instead of sent as an eager message: the limit from 2 -> 3
#: pair-size sweeps on both backends (DESIGN.md §8).  It must stay below
#: ``prmi_parallel_arg``'s 2.66 MiB pairs and above ``stream_default``'s
#: 1 MiB pairs.
EAGER_MAX = 2 << 20


@dataclass(frozen=True, slots=True)
class Tier:
    """A resolved execution tier: ``kind`` is ``"two_sided"`` or
    ``"rma"``.  A pair whose wire bytes exceed ``eager_max`` is a put
    (``None``: no pair is)."""

    kind: str
    eager_max: int | None = None


def resolve_tier(link, *, tier: str | None = None,
                 one_shot: bool = False) -> Tier:
    """The one place a transfer's execution tier is decided.

    ``tier`` is a knob of :mod:`repro.config` (``None`` = environment,
    then default).  A persistent transfer runs it on either backend:
    ``rma`` puts every pair, ``two_sided`` those above
    :data:`EAGER_MAX`.  A one-shot takes no tier and runs two-sided,
    putting the pairs above :data:`EAGER_MAX` into a heap window
    (threads) and none into a shared segment (procs): one transfer
    cannot amortise a segment and a rebase.

    A pure function of the transport's window, the persistence and the
    request: two coupled jobs that agree on the request
    (:meth:`repro.highlevel.Coupler.open` cross-checks it at the
    handshake) resolve the same tier without negotiating.
    """
    kind = config.resolve("tier", tier)
    if one_shot:
        shared = link.local_comm.job.transport.window.shared
        return Tier("two_sided", eager_max=None if shared else EAGER_MAX)
    return Tier(kind, eager_max=0 if kind == "rma" else EAGER_MAX)


# -- the core -----------------------------------------------------------------

class BoundTransfer:
    """One side of one schedule, bound: compiled rank plan × flat local
    storage × link × translated peers × tag × tier.

    ``storage`` is anything with ``flat_local()`` (re-read every step —
    a rebase or an ownership swap may move it) and, for a destination
    with put pairs, ``rebase()``.  ``link`` is a communicator or an
    intercommunicator.  ``tier`` names the resolved tier; ``pool`` is
    the staging-buffer pool (``pool.stats`` proves the zero-allocation
    steady state), made on first use — a transfer whose pairs all lend
    views of local storage never needs one.  Construct through
    :func:`bind`.
    """

    def __init__(self, plan, storage, link, tier: Tier, *, tag: int,
                 me: int, peer_map: Sequence[int] | None = None,
                 pool: BufferPool | None = None):
        self.tier = tier.kind
        self._pool = pool
        self._plan = plan
        self._storage = storage
        self._dtype = storage.flat_local().dtype
        self._link = link
        self._tag = tag
        self._me = me
        self._closed = False
        self._pairs = [(pp, peer_map[pp.peer] if peer_map is not None
                        else pp.peer) for pp in plan.pairs]
        self._setup(tier)

    @property
    def pool(self) -> BufferPool:
        if self._pool is None:
            self._pool = BufferPool()
        return self._pool

    def _setup(self, tier: Tier) -> None:
        """Tier bootstrap (window exchange)."""

    def _live(self) -> None:
        if self._closed:
            raise ConnectionError_(
                f"{self.tier} transfer is closed — bind a new one")

    def _staged(self, pp, flat) -> tuple:
        """One pair's wire-order elements and their loan release: the
        lent n-D view of local storage (release ``None``) for a
        single-box plan, a pooled staging buffer otherwise."""
        view = pp.lend(flat)
        if view is not None:
            return view, None
        buf, release = self.pool.loan(("send", self._me, pp.peer), pp.size,
                                      self._dtype)
        pp.gather_into(flat, buf)
        return buf, release

    def _scratch(self, pp):
        """Pooled scratch for the one copy a plan cannot do in place (a
        lent non-contiguous view meeting a box of another shape)."""
        return partial(self.pool.loan, ("stage", self._me, pp.peer))

    def step(self) -> int:
        """Move one snapshot; returns the elements this side moved."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the tier holds.  Idempotent; afterwards every
        other verb raises :class:`~repro.errors.ConnectionError_`."""
        if not self._closed:
            self._closed = True
            self._release()

    def _release(self) -> None:
        """Tier teardown."""


def _split(pairs, dtype, eager_max) -> tuple[list, list]:
    """Split translated pairs into (eager, put) by wire bytes."""
    limit = np.inf if eager_max is None else eager_max
    return ([p for p in pairs if p[0].size * dtype.itemsize <= limit],
            [p for p in pairs if p[0].size * dtype.itemsize > limit])


class _PointSend(BoundTransfer):

    def _setup(self, tier: Tier) -> None:
        # Bootstrap of put pairs: one WindowHandle each, shipped by the
        # receiver on the data tag, which no eager message to or from a
        # put peer uses.
        self._eager, put = _split(self._pairs, self._dtype, tier.eager_max)
        self._puts = [
            (pp, rma.RemoteWindow(self._link.recv(source=peer, tag=self._tag),
                                  self._link, peer, pp.size))
            for pp, peer in put]
        self._epoch = 0
        #: the storage the eager pairs' lent views below are of
        self._flat = None
        self._views: list = []

    def step(self) -> int:
        """Send every eager pair (buffered, so no wait) as a lent
        payload, then put each put pair once its receiver has opened
        this step's epoch — whichever receiver opens first is served
        first."""
        self._live()
        self._epoch += 1
        flat = self._storage.flat_local()
        if flat is not self._flat:
            # per eager pair its lent view, or None (it stages through a
            # pool loan), kept while the storage stays
            self._flat = flat
            self._views = [pp.lend(flat) for pp, _ in self._eager]
        send, tag, moved = self._link.send, self._tag, 0
        for (pp, peer), view in zip(self._eager, self._views):
            buf, release = ((view, None) if view is not None
                            else self._staged(pp, flat))
            send(payload.Borrowed(buf), peer, tag)
            if release is not None:
                release()
            moved += pp.size
        for pp, rwin in rma.wait_open(self._puts, self._epoch,
                                      tag=self._tag):
            buf, release = self._staged(pp, flat)
            moved += rwin.put(buf, loan=self._scratch(pp))
            if release is not None:
                release()
            rwin.commit(self._epoch)
        return moved

    def _release(self) -> None:
        self._flat = self._views = None
        for _, rwin in self._puts:
            rwin.close()


class _PointRecv(BoundTransfer):
    _slots = None
    _win = None
    #: the storage the bound sinks below scatter into
    _flat = None

    def _setup(self, tier: Tier) -> None:
        # With put pairs: expose the array's consolidated base as a
        # window — the array itself on a heap window, a segment the
        # array is rebased into otherwise — so remote puts land in final
        # storage; each put peer gets the handle carrying its pair's
        # scatter plan.
        self._eager, put = _split(self._pairs, self._dtype, tier.eager_max)
        self._put_size = sum(pp.size for pp, _ in put)
        if put:
            self._win = rma.ExposedWindow(
                self._link, self._storage.flat_local(),
                [peer for _, peer in put])
            if self._win.shared:
                self._storage.rebase(self._win.buffer)
            for i, (pp, peer) in enumerate(put):
                self._link.send(self._win.handle(i, pp), peer, self._tag)

    def arm(self) -> None:
        """Prepost every eager pair's recv-into-destination sink (queued
        messages are consumed at once, FIFO-safe) and open the window's
        exposure epoch for the put pairs.  A producer running ahead of
        an unarmed consumer is buffered on an eager pair and waits on a
        put pair, so the array never changes outside a step."""
        self._live()
        if self._slots is None:
            flat = self._storage.flat_local()
            if flat is not self._flat:
                # per eager pair its scatter, kept while the storage stays
                self._flat = flat
                self._sinks = [partial(pp.scatter, flat,
                                       loan=self._scratch(pp))
                               for pp, _ in self._eager]
            prepost, tag = self._link.prepost_recv, self._tag
            self._slots = [prepost(sink, source=peer, tag=tag)
                           for sink, (_, peer) in zip(self._sinks,
                                                      self._eager)]
            if self._win is not None:
                self._win.epoch_open()

    def complete(self, *, timeout: float | None = None) -> int:
        """Arm if needed, then block until every sink has fired and every
        put peer has committed (one fence for all of them)."""
        self.arm()
        slots, self._slots = self._slots, None
        moved = sum(slot.wait(timeout) for slot in slots)
        if self._win is not None:
            self._win.fence(timeout=timeout)
            if _san.ACTIVE is not None:
                # The destination array is handed back to the caller
                # here — the seqlock read site of the epoch protocol.
                self._win.check_read()
            moved += self._put_size
        return moved

    def step(self) -> int:
        return self.complete()

    def _release(self) -> None:
        # A rebased array is evacuated onto a private heap buffer (a
        # rebase with the last fenced contents) before the mapping goes
        # away: no remote write can reach it afterwards and its lifetime
        # no longer pins the window — nor do the sinks bound to it.
        self._flat = self._sinks = None
        if self._win is not None:
            if self._win.shared:
                flat = self._storage.flat_local()
                self._storage.rebase(np.empty(flat.size, dtype=flat.dtype))
            self._win.close()


def bind(schedule: CommSchedule, side: str, link, array: DistributedArray,
         *, tag: int = TRANSFER_TAG, rank: int | None = None,
         peer_map: Sequence[int] | None = None,
         pool: BufferPool | None = None, tier: str | None = None,
         one_shot: bool = False) -> BoundTransfer:
    """Bind ``side`` (``"src"``/``"dst"``) of ``schedule`` to ``array``
    over ``link``.

    Schedule ranks equal the link's local ranks by default.  ``rank``
    overrides this side's schedule rank (PRMI sub-setting, where
    effective caller ranks differ from cohort ranks; intra-job cohorts)
    and ``peer_map`` translates the *peer* side's schedule ranks to
    actual ranks on the link for the same reason.  ``tier`` and
    ``one_shot`` (a transfer stepped once, then closed) go through
    :func:`resolve_tier`; the result is the handle's ``tier``.  With put
    pairs the two sides' binds rendezvous (window handles travel
    receiver → sender), so a single thread must bind receivers first,
    and a sender's step waits for its receivers' exposure epochs, so it
    must also ``arm`` receivers before it steps senders.
    """
    if side not in _PLAN_SIDE:
        raise ValueError(f"side must be 'src' or 'dst', got {side!r}")
    me = rank if rank is not None else link.rank
    descriptor = array.descriptor
    # Verification happens here — never in step() — so the steady-state
    # path carries zero hook overhead.
    maybe_verify_side(schedule, _PLAN_SIDE[side], me, descriptor)
    plan = schedule.rank_plan(_PLAN_SIDE[side], me, descriptor.ownership())
    half = _PointRecv if side == "dst" else _PointSend
    return half(plan, array, link, resolve_tier(link, tier=tier,
                                                one_shot=one_shot),
                tag=tag, me=me, peer_map=peer_map, pool=pool)


def allocate_dst(schedule: CommSchedule, descriptor, rank: int
                 ) -> DistributedArray:
    """``rank``'s destination array for a transfer of ``schedule``:
    uninitialized when the rank's receive plan covers every local
    element (template patches never overlap, so its pairs are disjoint
    and the transfer writes each element once), zeroed otherwise."""
    plan = schedule.rank_plan("recv", rank, descriptor.ownership())
    return DistributedArray.allocate(
        descriptor, rank,
        zeroed=plan.element_count < descriptor.local_regions(rank).volume)


# -- one-shot transfers: bind, step, close ---------------------------------------

def _once(half: BoundTransfer) -> int:
    try:
        return half.step()
    finally:
        half.close()


def execute_inter(schedule: CommSchedule, inter: Intercommunicator,
                  side: str, array: DistributedArray,
                  *, tag: int = TRANSFER_TAG, rank: int | None = None,
                  peer_map: Sequence[int] | None = None) -> int:
    """Run ``schedule`` once across an intercommunicator; returns
    elements sent (``side="src"``) or received (``"dst"``).

    ``rank``/``peer_map`` as in :func:`bind`.  A one-shot takes no tier:
    it runs two-sided, see :func:`resolve_tier`.  On the threads backend
    the send side puts each pair above :data:`EAGER_MAX`, waiting for the
    receiver's window handle and epoch, so both jobs must drive the
    transfer concurrently; a single-threaded harness binds the halves
    itself and drives ``arm``/``step``/``complete``.
    """
    return _once(bind(schedule, side, inter, array, tag=tag, rank=rank,
                      peer_map=peer_map, one_shot=True))


def execute_intra(schedule: CommSchedule, comm: Communicator,
                  *, src_array: DistributedArray | None = None,
                  dst_array: DistributedArray | None = None,
                  src_ranks: Sequence[int] | None = None,
                  dst_ranks: Sequence[int] | None = None,
                  tag: int = TRANSFER_TAG) -> int:
    """Run ``schedule`` once inside one communicator; returns the
    elements this rank received.

    ``src_ranks[i]`` is the comm rank playing source-template rank ``i``
    (default: identity); likewise ``dst_ranks``.  A rank may appear on
    both sides (e.g. a transpose over the same cohort): it binds a
    receiver half and then a sender half on ``comm``, arms its receives
    (opening its window's epoch), posts its sends, then completes its
    receives — no barrier on either side, which is what experiment E9
    counts.  Receivers bind and arm first, so no rank's bind waits for a
    window handle, nor its send for an epoch, that its peer has not yet
    offered.  Every participating rank calls this collectively with the
    same schedule; like every one-shot it runs two-sided
    (:func:`resolve_tier`).
    """
    src_ranks = list(src_ranks if src_ranks is not None
                     else range(schedule.src_nranks))
    dst_ranks = list(dst_ranks if dst_ranks is not None
                     else range(schedule.dst_nranks))
    if len(src_ranks) != schedule.src_nranks:
        raise ScheduleError(
            f"need {schedule.src_nranks} source ranks, got {len(src_ranks)}")
    if len(dst_ranks) != schedule.dst_nranks:
        raise ScheduleError(
            f"need {schedule.dst_nranks} dest ranks, got {len(dst_ranks)}")
    me = comm.rank
    if me in src_ranks and src_array is None:
        raise ScheduleError(f"rank {me} is a source but has no src_array")
    if me in dst_ranks and dst_array is None:
        raise ScheduleError(
            f"rank {me} is a destination but has no dst_array")
    kw = dict(tag=tag, one_shot=True)
    rx = (bind(schedule, "dst", comm, dst_array, rank=dst_ranks.index(me),
               peer_map=src_ranks, **kw) if me in dst_ranks else None)
    tx = (bind(schedule, "src", comm, src_array, rank=src_ranks.index(me),
               peer_map=dst_ranks, **kw) if me in src_ranks else None)
    try:
        if rx is not None:
            rx.arm()
        if tx is not None:
            tx.step()
        return rx.complete() if rx is not None else 0
    finally:
        for half in (tx, rx):
            if half is not None:
                half.close()

