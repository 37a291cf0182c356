"""Schedule execution: one bound-transfer core, three tiers.

A schedule is computed once and replayed (paper §2.3); this module is
the one way to replay it.  :func:`bind` ties one side of a schedule to
local storage, a link and an execution tier and returns a
:class:`BoundTransfer`: ``step()`` moves one snapshot, ``close()``
releases what the tier holds.  Everything else is that lifecycle:

* a **one-shot** transfer (:func:`execute_inter`, :func:`execute_intra`,
  :func:`execute_linear_inter`) is literally bind → step → close;
* an **intra-job** transfer binds a sender half and a receiver half on
  the same :class:`~repro.simmpi.communicator.Communicator` (peer
  translation = the cohort rank lists) instead of running a second
  engine — a communicator and an intercommunicator expose the same
  ``send``/``recv``/``prepost_recv`` shape, so a half never knows which
  one its link is;
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

The tiers — small strategy halves over that shared core (``picked
when`` is :func:`resolve_tier`'s rule):

===========  ======================  ======================  ======================
             ``two_sided``           ``rma``                 ``collective``
===========  ======================  ======================  ======================
wire per     one message per pair;   ``wait_open → put →     ``round_bytes``-capped
step         the receiver preposts   commit`` per pair       rounds: ``alltoallv``
             one scatter sink per    straight into the       + tree barrier on a
             pair, so armed data     receiver's shared       communicator, acked
             lands with one copy     window — no message,    messages across an
                                     no matching             intercommunicator
who blocks   nobody: sends are       sender waits for the    round *r+1* is not
on whom      buffered, a receiver    receiver's exposure     packed until round *r*
             waits only for its      epoch, receiver fences  is drained: lockstep,
             own pairs               once per step:          peak residency
                                     lockstep                O(round buffer)
``close()``  nothing                 sender detaches its     nothing
releases                             remote windows;
                                     receiver evacuates its
                                     array to private heap,
                                     retires the window
picked       ``tier="two_sided"``    ``tier="rma"`` on a     ``tier="collective"``,
when         (the default), ``rma``  persistent transfer     or ``auto`` when the
             on a one-shot or an     over an                 cost model says
             incapable transport,    ``rma_capable``         two-sided residency
             ``auto`` under the      transport               exceeds the ceiling
             ceiling
===========  ======================  ======================  ======================

Both wires of the collective tier replay the same bind-time
:meth:`~repro.schedule.collplan.CollectivePlan.round_table`; which one
runs follows from the link type, because the static memory bound and
its proofs are stated per wire.  The receiver's ``arm()``/``complete()``
split and the collective halves' ``send_round``/``recv_round`` exist so
a single thread can drive both sides deterministically (tests, A7, A10).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from repro import config
from repro.errors import ConnectionError_, ScheduleError
from repro.dad.darray import DistributedArray
from repro.linearize.linearization import Linearization
from repro.schedule.bufpool import BufferPool
from repro.schedule.collplan import CollectivePlan
from repro.schedule.costmodel import estimate
from repro.schedule.indexplan import LocalIndexer
from repro.schedule.plan import CommSchedule
from repro.simmpi import payload, rma
from repro.simmpi import sanitize as _san
from repro.simmpi.communicator import Communicator
from repro.simmpi.intercomm import Intercommunicator
from repro.util.counters import TRANSPORT_STATS
from repro.verify.hook import maybe_verify_side

#: Default tag for schedule-driven data messages.
TRANSFER_TAG = 64

#: Tag offset of the collective tier's round-acknowledgement stream
#: relative to the data tag (both scoped by the link's context).
ACK_TAG_OFFSET = 1

#: Executor side names -> the schedule's plan-cache side names; also the
#: set of valid sides.
_PLAN_SIDE = {"src": "send", "dst": "recv"}


@dataclass(frozen=True, slots=True)
class Tier:
    """A resolved execution tier: ``kind`` is ``"two_sided"``, ``"rma"``
    or ``"collective"``; ``coll`` is the round plan of the last."""

    kind: str
    coll: CollectivePlan | None = None


def resolve_tier(schedule, itemsize: int, link, *,
                 tier: str | None = None, round_bytes: int | None = None,
                 one_shot: bool = False) -> Tier:
    """The one place a transfer's execution tier is decided.

    ``tier`` and ``round_bytes`` are knobs of :mod:`repro.config`
    (``None`` = environment, then default).  ``collective`` carries the
    round plan for ``round_bytes``; ``auto`` takes the cost model's pick
    (:func:`~repro.schedule.costmodel.estimate`: collective or
    two-sided, never RMA).  ``rma`` needs a window worth its set-up and
    ranks that can attach each other's windows: a one-shot runs
    two-sided instead, and a transport that cannot attach (the threads
    backend) falls back to two-sided, counted as ``rma_fallbacks``.

    A pure function of the schedule, the itemsize, the transport, the
    persistence and those two requests: two coupled jobs that agree on
    the requests (:meth:`repro.highlevel.Coupler.open` cross-checks
    them at the handshake) resolve the same tier without negotiating.
    """
    kind = config.resolve("tier", tier)
    if kind == "auto":
        kind = estimate(schedule, itemsize, round_bytes=round_bytes).chosen
    if kind == "collective":
        return Tier(kind, schedule.collective_plan(
            itemsize, config.resolve("round_bytes", round_bytes)))
    if kind == "rma" and not one_shot:
        comm = link.local_comm if isinstance(link, Intercommunicator) else link
        if comm.job.transport.rma_capable:
            return Tier(kind)
        TRANSPORT_STATS.add("rma_fallbacks")
    return Tier("two_sided")


# -- the core -----------------------------------------------------------------

class BoundTransfer:
    """One side of one schedule, bound: compiled rank plan × flat local
    storage × link × translated peers × tag × tier.

    ``storage`` is anything with ``flat_local()`` (re-read every step —
    a rebase or an ownership swap may move it) and, for an RMA
    destination, ``rebase()``.  ``link`` is a communicator or an
    intercommunicator.  ``tier`` names the resolved tier; ``pool`` is
    the staging-buffer pool (``pool.stats`` proves the zero-allocation
    steady state).  Construct through :func:`bind`.
    """

    def __init__(self, plan, storage, link, tier: Tier, *, tag: int,
                 me: int, peer_map: Sequence[int] | None = None,
                 pool: BufferPool | None = None):
        self.tier = tier.kind
        self.pool = pool if pool is not None else BufferPool()
        self._plan = plan
        self._storage = storage
        self._dtype = storage.flat_local().dtype
        self._link = link
        self._tag = tag
        self._me = me
        self._closed = False
        self._peer_of = lambda r: peer_map[r] if peer_map is not None else r
        self._pairs = [(pp, self._peer_of(pp.peer)) for pp in plan.pairs]
        self._setup(tier)

    def _setup(self, tier: Tier) -> None:
        """Tier bootstrap (window exchange, round table)."""

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


class _TwoSidedSend(BoundTransfer):

    def step(self) -> int:
        self._live()
        flat = self._storage.flat_local()
        moved = 0
        for pp, peer in self._pairs:
            buf, release = self._staged(pp, flat)
            self._link.send(payload.Borrowed(buf), peer, self._tag)
            if release is not None:
                release()
            moved += pp.size
        return moved


class _TwoSidedRecv(BoundTransfer):
    _slots = None

    def arm(self) -> None:
        """Prepost every pair's recv-into-destination sink.  Messages
        already queued are consumed at once (FIFO-safe); later sends
        write straight into final storage.  A producer running ahead of
        an unarmed consumer falls back to snapshot buffering, so the
        consumer's array never changes outside a step."""
        self._live()
        if self._slots is None:
            flat = self._storage.flat_local()
            self._slots = [
                self._link.prepost_recv(
                    partial(pp.scatter, flat, loan=self._scratch(pp)),
                    source=peer, tag=self._tag)
                for pp, peer in self._pairs]

    def complete(self, *, timeout: float | None = None) -> int:
        """Arm if needed, then block until every sink has fired."""
        self.arm()
        slots, self._slots = self._slots, None
        return sum(slot.wait(timeout) for slot in slots)

    def step(self) -> int:
        return self.complete()


class _RmaSend(BoundTransfer):

    def _setup(self, tier: Tier) -> None:
        # Bootstrap: one WindowHandle per pair, shipped by the receiver
        # over the ordinary two-sided channel.  The data tag is free for
        # this — on this tier no data message ever travels on it again.
        mailbox = self._link._my_mailbox()
        self._rwins = [
            rma.RemoteWindow(
                rma.check_handle(
                    self._link.recv(source=peer, tag=self._tag), pp.size),
                mailbox)
            for pp, peer in self._pairs]
        self._epoch = 0

    def step(self) -> int:
        self._live()
        self._epoch += 1
        flat = self._storage.flat_local()
        moved = 0
        for (pp, _peer), rwin in zip(self._pairs, self._rwins):
            rwin.wait_open(self._epoch)
            buf, release = self._staged(pp, flat)
            moved += rwin.put(buf, loan=self._scratch(pp))
            if release is not None:
                release()
            rwin.commit(self._epoch)
        return moved

    def _release(self) -> None:
        for rwin in self._rwins:
            rwin.close()


class _RmaRecv(BoundTransfer):
    _armed = False

    def _setup(self, tier: Tier) -> None:
        # Expose the array's consolidated base as a window and rebase the
        # array into it, so remote puts land in final storage; each
        # sender gets the handle carrying its pair's scatter plan.
        flat = self._storage.flat_local()
        self._win = rma.ExposedWindow(flat.nbytes, flat.dtype,
                                      len(self._pairs),
                                      self._link._my_mailbox())
        self._storage.rebase(self._win.buffer)
        for i, (pp, peer) in enumerate(self._pairs):
            self._link.send(self._win.handle(i, pp), peer, self._tag)

    def arm(self) -> None:
        """Open the next exposure epoch: from here until
        :meth:`complete`'s fence returns, senders may write into the
        window (= the destination array's storage)."""
        self._live()
        if not self._armed:
            self._win.epoch_open()
            self._armed = True

    def complete(self, *, timeout: float | None = None) -> int:
        """Fence the open epoch — one wait amortized over all pairs
        replaces per-message rendezvous."""
        self.arm()
        self._armed = False
        self._win.fence(timeout=timeout)
        if _san.ACTIVE is not None:
            # The destination array is handed back to the caller here —
            # the seqlock read site of the epoch protocol.
            self._win.check_read()
        return self._plan.element_count

    def step(self) -> int:
        return self.complete()

    def _release(self) -> None:
        # Evacuate the array onto a private heap buffer (a rebase with
        # the last fenced contents) before the mapping goes away: no
        # remote write can reach it afterwards and its lifetime no
        # longer pins the window.
        flat = self._storage.flat_local()
        self._storage.rebase(np.empty(flat.size, dtype=flat.dtype))
        self._win.close()


def _gather_subs(subs, flat, buf) -> None:
    off = 0
    for sub in subs:
        sub.gather_into(flat, buf[off:off + sub.size])
        off += sub.size


def _scatter_subs(subs, total: int, flat, values) -> int:
    values = np.asarray(values).reshape(-1)
    if values.size != total:
        raise ScheduleError(f"round buffer holds {values.size} elements, "
                            f"plan expects {total}")
    off = 0
    for sub in subs:
        off += sub.scatter(flat, values[off:off + sub.size])
    return off


class _RoundSend(BoundTransfer):
    """Acknowledged rounds, source half: a step does not return until
    the consumer has drained it (same trade as the RMA tier), so two
    programs that each push before pulling a reverse channel must keep
    that channel two-sided."""

    def _setup(self, tier: Tier) -> None:
        self._rounds = tier.coll.round_table(self._plan, "src", self._me,
                                             self._peer_of)
        self._awaiting: list[int] = []

    def _wait_acks(self) -> None:
        awaiting, self._awaiting = self._awaiting, []
        for peer in awaiting:
            self._link.recv(source=peer, tag=self._tag + ACK_TAG_OFFSET)

    def send_round(self, rnd: int) -> int:
        """Drain the previous round's acknowledgements, then pack and
        post round ``rnd`` — one pooled buffer per destination."""
        self._live()
        self._wait_acks()
        flat = self._storage.flat_local()
        moved = 0
        for peer, subs, total in self._rounds[rnd]:
            buf, release = self.pool.loan(
                ("collsend", self._me, rnd, peer), total, self._dtype)
            _gather_subs(subs, flat, buf)
            self._link.send(payload.Borrowed(buf), peer, self._tag)
            release()
            self._awaiting.append(peer)
            moved += total
        return moved

    def finish(self) -> None:
        """Drain the final round's acknowledgements — the step's memory
        is fully released when this returns."""
        self._wait_acks()

    def step(self) -> int:
        self._live()
        moved = sum(self.send_round(rnd) for rnd in range(len(self._rounds)))
        self.finish()
        return moved


class _RoundRecv(BoundTransfer):

    def _setup(self, tier: Tier) -> None:
        self._rounds = tier.coll.round_table(self._plan, "dst", self._me,
                                             self._peer_of)

    def recv_round(self, rnd: int) -> int:
        """Prepost one sink per source (scattering the round buffer
        through the pair's sub-plans into final storage), wait for all
        of them, acknowledge each source."""
        self._live()
        flat = self._storage.flat_local()
        slots = [
            (peer, self._link.prepost_recv(
                partial(_scatter_subs, subs, total, flat),
                source=peer, tag=self._tag))
            for peer, subs, total in self._rounds[rnd]]
        received = 0
        for peer, slot in slots:
            received += slot.wait()
            self._link.send(None, peer, self._tag + ACK_TAG_OFFSET)
        return received

    def step(self) -> int:
        self._live()
        return sum(self.recv_round(rnd) for rnd in range(len(self._rounds)))


def _alltoallv_rounds(comm: Communicator, tx: _RoundSend | None,
                      rx: _RoundRecv | None) -> int:
    """The collective tier's intra-job wire: per round one ``alltoallv``
    (statically known counts — no count exchange) and one tree barrier,
    collective over **all** ranks of ``comm``, so no rank packs round
    r+1 before every rank has drained round r — the static bound's
    lockstep.  ``tx``/``rx`` are this rank's bound halves (either may be
    absent); returns the elements this rank received."""
    received = 0
    half = tx if tx is not None else rx
    dtype, nrounds = half._dtype, len(half._rounds)
    flat = tx._storage.flat_local() if tx is not None else None
    rflat = rx._storage.flat_local() if rx is not None else None
    for rnd in range(nrounds):
        sendcounts = [0] * comm.size
        recvcounts = [0] * comm.size
        segs = tx._rounds[rnd] if tx is not None else ()
        total = sum(n for _, _, n in segs)
        if total:
            buf, release = tx.pool.loan(("collsend", comm.rank, rnd), total,
                                        dtype)
        else:
            buf, release = np.empty(0, dtype=dtype), None
        off = 0
        for peer, subs, n in segs:
            _gather_subs(subs, flat, buf[off:off + n])
            sendcounts[peer] = n
            off += n
        rsegs = rx._rounds[rnd] if rx is not None else ()
        for peer, _, n in rsegs:
            recvcounts[peer] = n
        arrived = comm.alltoallv(buf, sendcounts, recvcounts=recvcounts)
        if release is not None:
            release()
        off = 0
        for _, subs, n in rsegs:
            received += _scatter_subs(subs, n, rflat, arrived[off:off + n])
            off += n
        comm.barrier()
    return received


_HALVES = {
    ("two_sided", "src"): _TwoSidedSend, ("two_sided", "dst"): _TwoSidedRecv,
    ("rma", "src"): _RmaSend, ("rma", "dst"): _RmaRecv,
    ("collective", "src"): _RoundSend, ("collective", "dst"): _RoundRecv,
}


def _half(tier: Tier, side: str, plan, storage, link, **kw) -> BoundTransfer:
    # A point-to-point rank with no pairs has nothing to bootstrap (no
    # window to expose or attach): it runs the empty two-sided loops
    # while still reporting the resolved tier.
    kind = tier.kind if plan.pairs or tier.coll is not None else "two_sided"
    return _HALVES[kind, side](plan, storage, link, tier, **kw)


def bind(schedule: CommSchedule, side: str, link, array: DistributedArray,
         *, tag: int = TRANSFER_TAG, rank: int | None = None,
         peer_map: Sequence[int] | None = None,
         pool: BufferPool | None = None, tier: str | None = None,
         round_bytes: int | None = None,
         one_shot: bool = False) -> BoundTransfer:
    """Bind ``side`` (``"src"``/``"dst"``) of ``schedule`` to ``array``
    over ``link``.

    Schedule ranks equal the link's local ranks by default.  ``rank``
    overrides this side's schedule rank (PRMI sub-setting, where
    effective caller ranks differ from cohort ranks; intra-job cohorts)
    and ``peer_map`` translates the *peer* side's schedule ranks to
    actual ranks on the link for the same reason.  ``tier``,
    ``round_bytes`` and ``one_shot`` (a transfer stepped once, then
    closed) go through :func:`resolve_tier`; the result is the handle's
    ``tier``.  On the RMA tier the two sides' binds rendezvous (window
    handles travel receiver → sender), so a single thread must bind
    receivers first.
    """
    if side not in _PLAN_SIDE:
        raise ValueError(f"side must be 'src' or 'dst', got {side!r}")
    me = rank if rank is not None else link.rank
    descriptor = array.descriptor
    # Verification happens here — never in step() — so the steady-state
    # path carries zero hook overhead.
    maybe_verify_side(schedule, _PLAN_SIDE[side], me, descriptor)
    plan = schedule.rank_plan(_PLAN_SIDE[side], me,
                              descriptor.local_regions(me))
    resolved = resolve_tier(schedule, np.dtype(descriptor.dtype).itemsize,
                            link, tier=tier, round_bytes=round_bytes,
                            one_shot=one_shot)
    return _half(resolved, side, plan, array, link, tag=tag, me=me,
                 peer_map=peer_map, pool=pool)


# -- one-shot transfers: bind, step, close ---------------------------------------

def _once(half: BoundTransfer) -> int:
    try:
        return half.step()
    finally:
        half.close()


def execute_inter(schedule: CommSchedule, inter: Intercommunicator,
                  side: str, array: DistributedArray,
                  *, tag: int = TRANSFER_TAG, rank: int | None = None,
                  peer_map: Sequence[int] | None = None,
                  tier: str | None = None,
                  round_bytes: int | None = None) -> int:
    """Run ``schedule`` once across an intercommunicator; returns
    elements sent (``side="src"``) or received (``"dst"``).

    ``rank``/``peer_map``/``tier``/``round_bytes`` as in :func:`bind`.
    A one-shot never takes the RMA tier (a window's setup is only worth
    it amortized over steps).  On the collective tier the send side
    blocks until the peer consumes each round, so both jobs must drive
    the transfer concurrently; a single-threaded harness binds the
    halves itself and drives ``send_round``/``recv_round``.
    """
    return _once(bind(schedule, side, inter, array, tag=tag, rank=rank,
                      peer_map=peer_map, tier=tier, round_bytes=round_bytes,
                      one_shot=True))


def execute_intra(schedule: CommSchedule, comm: Communicator,
                  *, src_array: DistributedArray | None = None,
                  dst_array: DistributedArray | None = None,
                  src_ranks: Sequence[int] | None = None,
                  dst_ranks: Sequence[int] | None = None,
                  tag: int = TRANSFER_TAG,
                  tier: str | None = None,
                  round_bytes: int | None = None) -> int:
    """Run ``schedule`` once inside one communicator; returns the
    elements this rank received.

    ``src_ranks[i]`` is the comm rank playing source-template rank ``i``
    (default: identity); likewise ``dst_ranks``.  A rank may appear on
    both sides (e.g. a transpose over the same cohort): it binds a
    sender half and a receiver half on ``comm``, posts its (buffered)
    sends, then completes its receives — no barrier on either side,
    which is what experiment E9 counts.  Every participating rank calls
    this collectively with the same schedule.  On the collective tier
    (``tier``/``round_bytes`` as in :func:`resolve_tier`; ``rma`` runs
    two-sided, as on every one-shot) the rounds are collective over the
    *whole* communicator, so every comm rank must hold at least one
    side's array.
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
    tier = config.resolve("tier", tier)
    if src_array is None and dst_array is None and \
            tier in ("collective", "auto"):
        raise ScheduleError(
            f"rank {me} joins {tier}-tier execution holding neither "
            f"array — the rounds need every comm rank on at least one side")
    kw = dict(tag=tag, tier=tier, round_bytes=round_bytes, one_shot=True)
    tx = rx = None
    if me in src_ranks:
        if src_array is None:
            raise ScheduleError(f"rank {me} is a source but has no src_array")
        tx = bind(schedule, "src", comm, src_array,
                  rank=src_ranks.index(me), peer_map=dst_ranks, **kw)
    if me in dst_ranks:
        if dst_array is None:
            raise ScheduleError(
                f"rank {me} is a destination but has no dst_array")
        rx = bind(schedule, "dst", comm, dst_array,
                  rank=dst_ranks.index(me), peer_map=src_ranks, **kw)
    try:
        if "collective" in (tx and tx.tier, rx and rx.tier):
            return _alltoallv_rounds(comm, tx, rx)
        if tx is not None:
            tx.step()
        return rx.step() if rx is not None else 0
    finally:
        for half in (tx, rx):
            if half is not None:
                half.close()


class _FlatStorage:
    """A bare flat array as bound storage (linearized structures)."""

    def __init__(self, flat: np.ndarray):
        self._flat = flat

    def flat_local(self) -> np.ndarray:
        return self._flat


def execute_linear_inter(schedule: CommSchedule, inter: Intercommunicator,
                         side: str, lin: Linearization, storage,
                         *, tag: int = TRANSFER_TAG) -> int:
    """Run a linearization schedule once across an intercommunicator:
    the same bind → step → close as :func:`execute_inter`, over a plan
    compiled against ``lin.layout`` and cached on the schedule.

    ``storage`` is whatever local form ``lin`` extracts from / injects
    into (a :class:`DistributedArray`, a graph-value dict, ...).  The
    plan addresses ``lin.flat_storage``; a structure with none (a graph,
    a tree) is staged once — a sender extracts its owned runs into one
    buffer laid out as those runs, a receiver injects that buffer back
    after the step.  The wire carries one packed buffer per
    communicating rank pair either way.
    """
    if side not in _PLAN_SIDE:
        raise ValueError(f"side must be 'src' or 'dst', got {side!r}")
    me = inter.rank
    flat = lin.flat_storage(me, storage)
    runs = None
    if flat is None:
        runs = lin.runs(me)
        flat = (np.concatenate([np.asarray(lin.extract(me, run, storage))
                                .reshape(-1) for run in runs])
                if side == "src" and runs else
                np.empty(sum(run.length for run in runs), dtype=lin.dtype))
    plan = schedule.rank_plan(_PLAN_SIDE[side], me,
                              LocalIndexer(*lin.layout(me)))
    moved = _once(_half(Tier("two_sided"), side, plan, _FlatStorage(flat),
                        inter, tag=tag, me=me))
    if runs is not None and side == "dst":
        off = 0
        for run in runs:
            lin.inject(me, run, flat[off:off + run.length], storage)
            off += run.length
    return moved
