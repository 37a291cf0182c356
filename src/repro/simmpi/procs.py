"""The ``procs`` execution backend: ranks as real processes.

Every rank of a :func:`~repro.simmpi.runner.run_spmd` job (or of every
job of a :func:`~repro.simmpi.runner.run_coupled` launch — one shared
*domain*) runs in its own forked process, so packing, protocol work and
scatters execute on separate GILs.

Sending is one call, :meth:`ProcTransport.send`: classify the payload
(:func:`~repro.simmpi.shm.encode_payload`), fill the next descriptor
record of the (sender, receiver) ring of the domain's
:class:`~repro.simmpi.shm.ControlSegment` — payload bytes in the record
when tiny, else in a run of adjacent slots of the
:class:`~repro.simmpi.shm.SegmentPool` — store the ring's ``tail`` and
post the receiver's doorbell.  A sender whose slot ring or control ring
is full waits (abort-aware, visible to the watchdog) while draining its
own rings.  A payload wider than the whole slot ring *streams*:
consecutive records each carry one ring-width run and its offset.

Receiving is the mailbox's drain-and-match loop
(:mod:`repro.simmpi.matching`) over :meth:`ControlInbox.drain`: every
published record, in ring order, goes to the receive that drains it
when it matches, else to an armed prepost sink — as a lent view, so the
sink scatters **straight out of shared memory** — else to the queue;
each run is released the moment it is consumed.  A wait parks on the
doorbell only once the rings are empty; a publish after the drain posts
it, so no wakeup is lost.  While ``fn`` runs a rank process runs no
thread besides its own.

Supervision: the parent samples the liveness table in the domain's
:class:`~repro.simmpi.shm.SharedState` with the threads launcher's
:class:`~repro.simmpi.shm.StallRule`.  A deadlock, a failing rank or a
dead process aborts the domain: the shared abort record, then a post to
every doorbell, so a parked rank raises at once.  A rank's arrays and
window headers are named segments of its own (:func:`~repro.simmpi.shm.
alloc`); at teardown the launcher unlinks those a rank still held when
it exited or was killed.

Rendezvous: ``NameService.accept/connect`` inside a procs rank routes
to the parent's *broker thread*, which pairs them, allocates
intercommunicator contexts from a reserved range and answers in the
requesting endpoint's row of the shared reply table, then posts its
doorbell.  Child-side ``dup``/``split`` context ranges are partitioned
so allocations never collide across processes.

Limitations: ``payload.Raw`` process-local handles cannot cross a
process boundary, and the ``fork`` start method is required (``fn`` and
its closures are inherited, not pickled — results and exceptions are
pickled back).
"""


from __future__ import annotations

import itertools
import multiprocessing
import pickle
import queue as _queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import CommunicatorError, DeadlockError, SpmdError
from repro.simmpi import communicator as _comm_mod
from repro.simmpi import payload as _payload
from repro.simmpi import sanitize as _san
from repro.simmpi import shm
from repro.simmpi import transport as _transport
from repro.simmpi.matching import Envelope, Mailbox
from repro.simmpi.transport import Transport
from repro.util.counters import TRANSPORT_STATS

__all__ = ["run_spmd_procs", "run_coupled_procs", "ProcRuntime",
           "ControlInbox"]

#: Child-side context allocators restart at ``(endpoint+1) << 20``
#: after fork; the broker hands out intercomm contexts from ``1 << 40``.
#: Pre-fork (parent) allocations stay far below either range.
CHILD_CTX_SHIFT = 20
BROKER_CTX_BASE = 1 << 40

#: Backoff between flag scans while a sender waits for a free run (or a
#: free control record).  A release lands within one scatter of the
#: wait starting.  Measured on ``stream_default`` (2-core guest): 5 and
#: 20 µs polls are indistinguishable (timer slack makes either a
#: ~60-80 µs sleep), while a 200 µs poll cost ~7 % of a step.
RING_POLL = 20e-6


def _fork_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" not in methods:  # pragma: no cover - non-POSIX hosts
        raise RuntimeError(
            "the procs backend requires the 'fork' start method "
            f"(available: {methods}); use backend='threads'")
    return multiprocessing.get_context("fork")


# -- domain description (built in the parent, inherited over fork) -----------


@dataclass
class JobSpec:
    name: str
    n: int
    base: int            # first global endpoint of this job
    world_context: int


class DomainSpec:
    """Everything the supervisor and every rank process share."""

    def __init__(self, ctx, jobs: Sequence[JobSpec], *,
                 slot_bytes: int, slots_per_endpoint: int):
        self.jobs = list(jobs)
        self.endpoints = sum(j.n for j in jobs)
        #: one doorbell per endpoint, posted after every record publish,
        #: rendezvous reply and abort
        self.doorbells = [ctx.Semaphore(0) for _ in range(self.endpoints)]
        #: rank -> supervisor reports, read once ``fn`` has returned
        self.results = ctx.Queue()
        #: rank -> broker rendezvous requests; a SimpleQueue writes its
        #: pipe directly, so a rank that rendezvouses starts no thread
        self.broker_q = ctx.SimpleQueue()
        self.pool = shm.SegmentPool(
            self.endpoints, slot_bytes=slot_bytes,
            slots_per_endpoint=slots_per_endpoint)
        self.state = shm.SharedState(self.endpoints)
        self.ctl = shm.ControlSegment(self.endpoints)

    def job_of(self, endpoint: int) -> JobSpec:
        for j in self.jobs:
            if j.base <= endpoint < j.base + j.n:
                return j
        raise ValueError(f"endpoint {endpoint} out of range")

    def label(self, endpoint: int, *, qualified: bool) -> Any:
        """Watchdog/failure key for one endpoint: the plain job rank for
        single-job domains, ``"{job} rank {r}"`` for coupled ones."""
        j = self.job_of(endpoint)
        r = endpoint - j.base
        return f"{j.name} rank {r}" if qualified else r

    def cleanup(self) -> None:
        self.results.close()
        self.results.join_thread()
        self.broker_q.close()


# -- rank-process side -------------------------------------------------------


class ProcTransport(Transport):
    """Child-side transport: one local mailbox fed by the rank's control
    rings, descriptor-record delivery out."""

    backend = "procs"

    def __init__(self, runtime: "ProcRuntime", abort, live: shm.Liveness):
        self._rt = runtime
        self._own = Mailbox(runtime.job_rank, abort, live,
                            inbox=runtime.inbox)
        self._me = runtime.endpoint
        self._bells = runtime.spec.doorbells
        self._send_lock = threading.Lock()
        #: next record seq of this endpoint's ring to each receiver
        self._next = [0] * runtime.spec.endpoints

    def mailbox(self, job_rank: int) -> Mailbox:
        if job_rank != self._rt.job_rank:
            raise CommunicatorError(
                f"procs backend: rank {self._rt.job_rank} cannot access "
                f"the mailbox of rank {job_rank} (different process)")
        return self._own

    def addresses(self, job_ranks: Sequence[int]) -> tuple[int, ...]:
        """A job's ranks are domain endpoints."""
        return tuple(self._rt.job_base + r for r in job_ranks)

    def kick(self, endpoint: int) -> None:
        """Post ``endpoint``'s doorbell; this rank's own wakes locally."""
        if endpoint == self._me:
            self._own.wake()
        else:
            self._bells[endpoint].release()

    def send(self, endpoint: int, context: int, source: int, tag: int,
             obj: Any) -> int:
        """Send ``obj`` to ``endpoint`` and return its envelope bytes:
        one record in the ring to it — the payload inline when tiny,
        else in a run of slots, else streamed as ring-width runs — or,
        to this rank's own endpoint, a mailbox delivery."""
        if endpoint == self._me:
            data, nbytes, live = _payload.wire_parts(obj)
            self._own.deliver(Envelope(context, source, tag, data, nbytes),
                              live)
            return nbytes
        kind, buf, nbytes = shm.encode_payload(obj)
        tally = TRANSPORT_STATS.shard()
        tally["ctl_ring_msgs"] += 1
        wire = 0 if buf is None else buf.nbytes
        if wire <= shm.INLINE_MAX:
            if buf is not None:
                tally["shm_inline_msgs"] += 1
                tally["shm_inline_bytes"] += wire
            with self._send_lock:
                self._publish(endpoint, context, source, tag, nbytes, kind,
                              buf)
            return nbytes
        tally["shm_slot_msgs"] += 1
        tally["shm_slot_bytes"] += wire
        pool = self._rt.pool
        if wire > pool.slot_bytes:
            pool.stats.add("oversize")
        ring = pool.slot_bytes * pool.slots_per_endpoint
        # one producer per ring, and a stream's records stay adjacent
        with self._send_lock:
            if wire <= ring:
                self._publish(endpoint, context, source, tag, nbytes, kind,
                              buf, buf)
                return nbytes
            # the receiver assembles the stream in a heap array; runs
            # are C-order byte ranges, so a lent strided view is packed
            # once (the stream's one staging copy)
            pool.stats.add("allocations")
            pool.stats.add("allocated_bytes", wire)
            buf = np.ascontiguousarray(buf)
            flat = buf.reshape(-1).view(np.uint8)
            for off in range(0, wire, ring):
                n = min(ring, wire - off)
                self._publish(endpoint, context, source, tag, nbytes, kind,
                              buf, flat[off:off + n], (off, n))
        return nbytes

    def _publish(self, dst: int, context: int, source: int, tag: int,
                 nbytes: int, kind: int, buf: Optional[np.ndarray],
                 part: Optional[np.ndarray] = None,
                 span: Optional[tuple[int, int]] = None) -> None:
        """Fill and publish the next record of this endpoint's ring to
        ``dst`` and post ``dst``'s doorbell.  ``part`` (the payload, or
        one run of a streamed one at ``span``) is copied into a run of
        slots; without it the payload rides in the record.  The caller
        holds the send lock."""
        rt = self._rt
        ctl, pool, me = rt.ctl, rt.pool, self._me
        seq = self._next[dst]
        if seq - ctl.head(dst, me) >= ctl.depth:
            self._wait_for_record(dst, seq)
        slot, width = shm.SLOT_INLINE, 0
        if part is not None:
            width = -(-part.nbytes // pool.slot_bytes)
            slot = pool.acquire(me, width)
            if slot is None:
                slot = self._wait_for_run(width)
            view = pool.slot_view(slot, part.nbytes)
            if kind == shm.ND and span is None:
                # one pass from any view, lent strided and n-D ones
                view.view(part.dtype).reshape(part.shape)[...] = part
            else:
                view[:] = part
        token = b""
        san = _san.ACTIVE
        if san is not None:
            # the record's token area carries the sender's vector clock,
            # the run's shadow generations and the record's own seq
            san.ring_publish(_ring_site(me, dst), seq, ctl.head(dst, me),
                             ctl.depth)
            gens, clock, site = san.slot_publish(pool, slot, width)
            token = pickle.dumps((seq, (gens, clock, site)))
            if len(token) > shm.CTL_TOKEN_MAX:
                # a clock too wide for the record: keep the checks, drop
                # the ordering context reports would carry
                token = pickle.dumps((seq, (gens, {}, site)))
        ctl.write(dst, me, seq, context, source, tag, nbytes, slot, kind,
                  buf, token, span)
        ctl.publish(dst, me, seq)
        self._next[dst] = seq + 1
        self._bells[dst].release()

    def _wait_for_record(self, dst: int, seq: int) -> None:
        """Block until ``dst`` has consumed room for record ``seq`` in
        this endpoint's ring to it; a ``dst`` that has returned never
        will, so that raises at once rather than wait for the watchdog."""
        rt = self._rt
        ctl, me, state = rt.ctl, self._me, rt.spec.state
        desc = f"ctl_ring(endpoint={me} -> {dst}, depth={ctl.depth})"
        TRANSPORT_STATS.add("ctl_ring_full")

        def room():
            if seq - ctl.head(dst, me) < ctl.depth:
                return True
            if state.finished(dst):
                raise DeadlockError(
                    f"rank {rt.job_rank} blocked in {desc}: endpoint "
                    f"{dst} returned with {ctl.depth} message(s) from this "
                    f"rank unreceived", blocked={rt.job_rank: desc})
            return None

        self._own.wait_until(room, desc, poll=RING_POLL)

    def _wait_for_run(self, width: int) -> int:
        """Block until the receivers of this endpoint's messages release
        a run of ``width`` slots (a receiver gone for good leaves this
        rank blocked for the watchdog), then claim it: this rank is its
        ring's only claimant, so the claim cannot miss."""
        pool, ep = self._rt.pool, self._me
        self._own.wait_until(
            lambda: pool.find_run(ep, width),
            f"slot_ring(endpoint={ep}, run of {width} slot(s))",
            poll=RING_POLL)
        return pool.acquire(ep, width)


def _ring_site(src: int, dst: int) -> str:
    return f"ctl_ring({src}->{dst})"


class ControlInbox:
    """Receiver side of one endpoint's control plane: its incoming
    descriptor rings, its doorbell, and one partly assembled streamed
    payload per sender.  :class:`~repro.simmpi.matching.Mailbox` calls
    :meth:`drain` (lock held) at every entry point and :meth:`park`
    when a wait finds nothing."""

    def __init__(self, runtime: "ProcRuntime"):
        spec = runtime.spec
        self._rt = runtime
        self._ctl = spec.ctl
        self._pool = spec.pool
        self._me = runtime.endpoint
        self._bell = spec.doorbells[runtime.endpoint]
        self._state = spec.state
        self._heads = [0] * spec.endpoints
        #: per sender: the heap array its streamed payload lands in
        self._partial: list[Optional[np.ndarray]] = [None] * spec.endpoints

    def kick(self) -> None:
        """Post this endpoint's doorbell (wake a parked waiter)."""
        self._bell.release()

    def park(self, timeout: float | None) -> None:
        """Sleep on the doorbell until a post (or ``timeout``); absorb
        the posts of records a drain has already consumed.  A domain
        abort posts every doorbell after raising the shared flag, so a
        waiter learns of it here."""
        bell = self._bell
        if bell.acquire(True, timeout):
            while bell.acquire(False):
                pass
        if self._state.aborted():
            self._rt.adopt_abort()

    def drain(self, mailbox: Mailbox,
              want: Optional[tuple[int, int, int]] = None
              ) -> Optional[Envelope]:
        """Consume every published record of every incoming ring, in
        ring order, into ``mailbox``'s matching (arrays as lent views of
        the shared run or record), then hand the records back; return
        the first matching ``want``, the draining receive's ``(context,
        source, tag)`` (:meth:`Mailbox._deliver_locked`)."""
        ctl, pool, me, heads = self._ctl, self._pool, self._me, self._heads
        found = None
        for src, tail in enumerate(ctl.tails(me)):
            head = heads[src]
            if head == tail:
                continue
            for seq in range(head, tail):
                (context, source, tag, nbytes, wire, slot, kind, dtype,
                 shape, raw, span) = ctl.read(me, src, seq)
                if slot >= 0:
                    raw = pool.slot_view(slot, wire, None if span else dtype)
                san = _san.ACTIVE
                if san is not None and ctl.tsan:
                    # the record's seq stamp, then the join with the
                    # sender and the run's slot-reuse generation check
                    token = ctl.token(me, src, seq)
                    stamp, slot_token = (pickle.loads(token) if token
                                         else (-1, None))
                    san.ring_consume(_ring_site(src, me), seq, stamp)
                    san.slot_consume(pool, slot, slot_token)
                if span is None:
                    value = shm.decode_payload(kind, raw, dtype, shape)
                    # an array is a lent view of the shared run or
                    # record: an armed prepost sink scatters straight
                    # out of shared memory
                    live = value if isinstance(value, np.ndarray) else None
                    got = mailbox._deliver_locked(
                        Envelope(context, source, tag,
                                 None if live is not None else value,
                                 nbytes),
                        live, want)
                else:
                    got = self._assemble(mailbox, src, context, source, tag,
                                         nbytes, wire, kind, dtype, shape,
                                         raw, span, want)
                if slot >= 0:
                    pool.release(slot, -(-wire // pool.slot_bytes))
                if got is not None:
                    found, want = got, None
            heads[src] = tail
            ctl.set_head(me, src, tail)
        return found

    def _assemble(self, mailbox: Mailbox, src: int, context: int,
                  source: int, tag: int, nbytes: int, wire: int, kind: int,
                  dtype, shape, raw, span, want) -> Optional[Envelope]:
        """Copy one run of ``src``'s streamed payload into its own heap
        array; the last run delivers the array as the envelope's payload
        (an unmatched message needs no snapshot copy)."""
        offset, total = span
        if offset == 0:
            self._partial[src] = (np.empty(shape, dtype) if kind == shm.ND
                                  else np.empty(total, np.uint8))
        whole = self._partial[src]
        whole.reshape(-1).view(np.uint8)[offset:offset + wire] = raw
        if offset + wire < total:
            return None
        self._partial[src] = None
        return mailbox._deliver_locked(
            Envelope(context, source, tag,
                     whole if kind == shm.ND
                     else shm.decode_payload(kind, whole), nbytes),
            None, want)


class ProcRuntime:
    """Per-rank-process runtime handle (``transport.current_runtime()``)."""

    def __init__(self, spec: DomainSpec, endpoint: int, job_index: int):
        self.spec = spec
        self.endpoint = endpoint
        self.jobspec = spec.jobs[job_index]
        self.job_base = self.jobspec.base
        self.job_rank = endpoint - self.job_base
        self.pool = spec.pool
        self.ctl = spec.ctl
        self.inbox = ControlInbox(self)
        self.job = None          # set by _child_main
        self.transport: Optional[ProcTransport] = None

    # -- wiring ------------------------------------------------------------

    def make_transport(self, n: int, abort, live: shm.Liveness
                       ) -> ProcTransport:
        self.transport = ProcTransport(self, abort, live)
        return self.transport

    def adopt_abort(self) -> None:
        """Raise this rank's abort flag from the domain's shared abort
        record (reason, and the watchdog's blocked dump keyed like the
        supervisor's failure map)."""
        abort = self.job.abort
        if not abort.is_set():
            spec = self.spec
            reason, dump = spec.state.abort_record()
            qualified = len(spec.jobs) > 1
            abort.set(reason, {spec.label(ep, qualified=qualified): desc
                               for ep, desc in dump.items()})

    # -- rendezvous (NameService over the parent broker) -------------------

    def rendezvous(self, mode: str, name: str, comm, timeout: float):
        info = None
        if comm.rank == 0:
            state, ep = self.spec.state, self.endpoint
            seen = state.rdv_count(ep)
            self.spec.broker_q.put(
                (mode, name, [self.job_base + r for r in comm.job_ranks], ep))
            # Deliberately *not* watched: like the threads NameService, a
            # rank waiting for its coupling peer must not trip the
            # deadlock watchdog — the rendezvous timeout is the failure
            # path for a peer that never shows up.  The broker posts this
            # endpoint's doorbell with the reply, as does an abort.
            desc = f"rendezvous({name!r})"
            try:
                info = self.transport.mailbox(self.job_rank).wait_until(
                    lambda: state.rdv_reply(ep, seen), desc, poll=0.1,
                    timeout=timeout if timeout and timeout > 0 else 3600.0,
                    watched=False)
            except TimeoutError:
                raise TimeoutError(f"{desc} timed out") from None
        status, recv_ctx, send_ctx, remote_eps = comm.bcast(info, root=0)
        if status == shm.RDV_BUSY:
            raise CommunicatorError(f"service {name!r} is already accepting")
        from repro.simmpi.intercomm import Intercommunicator
        return Intercommunicator(comm, recv_ctx, send_ctx, self.transport,
                                 tuple(remote_eps))


def _safe_dumps(obj: Any) -> bytes:
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - degraded but informative
        return pickle.dumps(RuntimeError(
            f"unpicklable rank result/exception {type(obj).__name__}: "
            f"{obj!r} ({exc})"))


def _safe_loads(blob: bytes) -> Any:
    try:
        return pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001
        return RuntimeError(f"could not unpickle rank payload: {exc}")


def _child_main(spec: DomainSpec, endpoint: int, job_index: int,
                fn: Callable[..., Any], args: tuple, kwargs: dict) -> None:
    """Entry point of one rank process (runs under fork)."""
    from repro.simmpi.runner import Job

    jobspec = spec.jobs[job_index]
    rt = ProcRuntime(spec, endpoint, job_index)
    # partition the context-id space so child-side dup/split can never
    # collide with another process's allocations or the broker's range
    _comm_mod._next_context = (endpoint + 1) << CHILD_CTX_SHIFT
    _transport.set_current_runtime(rt)
    shm.NAMED = True
    _san.register_actor(f"ep{endpoint}")
    job = Job(jobspec.n, name=jobspec.name,
              live=spec.state.rows(jobspec.base, jobspec.n),
              transport_factory=rt.make_transport)
    rt.job = job
    comm = job.world(rt.job_rank, jobspec.world_context)
    try:
        result = fn(comm, *args, **kwargs)
        san = _san.ACTIVE
        if san is not None and san.race_reports:
            # a rank that finished cleanly but accumulated sanitizer
            # reports fails: the REPRO_TSAN=1 CI shard is thereby a
            # whole-suite zero-report proof
            reps = san.race_reports
            raise RuntimeError(
                f"race sanitizer recorded {len(reps)} report(s) in "
                f"rank {rt.job_rank}: " + " | ".join(
                    f"[{r.kind}] {r.site}: {r.detail}"
                    for r in reps[:3]))
        blob = _safe_dumps(result)
        spec.state.set_finished(endpoint)
        spec.results.put(("DONE", endpoint, blob))
    except BaseException as exc:  # noqa: BLE001 - reported via SpmdError
        spec.state.set_finished(endpoint)
        spec.results.put(("FAIL", endpoint, _safe_dumps(exc)))


# -- parent / supervisor side ------------------------------------------------


def _broker_loop(spec: DomainSpec) -> None:
    """Pair accept/connect rendezvous requests; allocate contexts.  A
    reply is a row of the shared reply table plus a doorbell post."""
    ctx_counter = itertools.count(BROKER_CTX_BASE)
    waiting: dict[str, tuple[str, list[int], int]] = {}

    def reply(ep: int, *answer) -> None:
        spec.state.rdv_post(ep, *answer)
        spec.doorbells[ep].release()

    while (msg := spec.broker_q.get()) is not None:
        mode, name, endpoints, reply_ep = msg
        other = waiting.get(name)
        if other is None or other[0] == mode:
            # mirror the threads NameService "already accepting" error
            # for double-accepts; double-connects just queue
            if other is not None and mode == "accept":
                reply(reply_ep, shm.RDV_BUSY)
                continue
            waiting[name] = (mode, list(endpoints), reply_ep)
            continue
        omode, oendpoints, oreply = waiting.pop(name)
        if mode == "accept":
            acc_eps, acc_reply = endpoints, reply_ep
            con_eps, con_reply = oendpoints, oreply
        else:
            acc_eps, acc_reply = oendpoints, oreply
            con_eps, con_reply = endpoints, reply_ep
        acc_ctx = next(ctx_counter)   # acceptor receives on this
        con_ctx = next(ctx_counter)   # connector receives on this
        reply(acc_reply, shm.RDV_OK, acc_ctx, con_ctx, con_eps)
        reply(con_reply, shm.RDV_OK, con_ctx, acc_ctx, acc_eps)


def _abort_all(spec: DomainSpec, pending: set[int], reason: str,
               dump: dict[int, str]) -> None:
    """Abort the domain: the shared abort record (``dump`` keyed by
    endpoint), then a post to every pending doorbell, so a parked rank
    reads the record at once."""
    spec.state.set_abort(reason, dump)
    for ep in pending:
        spec.doorbells[ep].release()


def _supervise_domain(spec: DomainSpec, procs: dict[int, Any],
                      deadlock_timeout: float, *, qualified: bool
                      ) -> tuple[dict[int, bytes], dict[int, bytes]]:
    """Collect DONE/FAIL reports, watch for deadlocks and dead processes.

    Returns ``(results, failures)`` keyed by endpoint (pickled blobs).
    """
    results: dict[int, bytes] = {}
    failures: dict[int, bytes] = {}
    pending = set(procs)
    aborted = False
    rule = shm.StallRule(spec.state, deadlock_timeout)

    while pending:
        try:
            verb, ep, blob = spec.results.get(timeout=rule.wait())
        except _queue.Empty:
            verb = None
        if verb is not None:
            pending.discard(ep)
            if verb == "DONE":
                results[ep] = blob
            else:
                failures[ep] = blob
                if not aborted:
                    aborted = True
                    exc = _safe_loads(blob)
                    key = spec.label(ep, qualified=qualified)
                    what = (key if qualified else f"rank {key}")
                    _abort_all(spec, pending,
                               f"{what} raised "
                               f"{type(exc).__name__}: {exc}", {})
            continue
        # dead-process check (after draining the results queue)
        dead = [ep for ep in pending if not procs[ep].is_alive()]
        if dead and spec.results.empty():
            for ep in dead:
                pending.discard(ep)
                code = procs[ep].exitcode
                failures[ep] = _safe_dumps(RuntimeError(
                    f"rank process exited without reporting "
                    f"(exit code {code})"))
            if not aborted:
                aborted = True
                keys = [spec.label(ep, qualified=qualified) for ep in dead]
                _abort_all(spec, pending,
                           f"rank process(es) {keys} died", {})
            continue
        dump = rule.check()
        if dump is not None and not aborted:
            aborted = True
            _abort_all(spec, pending, "deadlock detected by watchdog", dump)
    return results, failures


def _launch(jobs: Sequence[tuple[str, int, Callable[..., Any], tuple, dict]],
            *, deadlock_timeout: float, opts: Optional[dict]
            ) -> tuple[DomainSpec, dict[int, bytes], dict[int, bytes]]:
    """Fork one process per rank of every job; supervise to completion."""
    opts = dict(opts or {})
    slot_bytes = int(opts.pop("slot_bytes", 1 << 18))
    slots_per_endpoint = int(opts.pop("slots_per_endpoint", 8))
    if opts:
        raise ValueError(f"unknown transport_opts: {sorted(opts)}")
    ctx = _fork_context()
    specs = []
    base = 0
    from repro.simmpi.communicator import allocate_context
    for name, n, _fn, _args, _kwargs in jobs:
        if n < 1:
            raise ValueError(f"job {name!r} needs at least 1 rank, got {n}")
        specs.append(JobSpec(name=name, n=n, base=base,
                             world_context=allocate_context()))
        base += n
    spec = DomainSpec(ctx, specs, slot_bytes=slot_bytes,
                      slots_per_endpoint=slots_per_endpoint)
    broker = threading.Thread(target=_broker_loop, args=(spec,),
                              daemon=True, name="procs-broker")
    broker.start()
    procs: dict[int, Any] = {}
    try:
        for ji, (name, n, fn, args, kwargs) in enumerate(jobs):
            for r in range(n):
                ep = specs[ji].base + r
                p = ctx.Process(
                    target=_child_main, args=(spec, ep, ji, fn, args, kwargs),
                    name=f"{name}-rank{r}", daemon=True)
                procs[ep] = p
        for p in procs.values():
            p.start()
        results, failures = _supervise_domain(
            spec, procs, deadlock_timeout, qualified=len(specs) > 1)
        for p in procs.values():
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover - stuck rank teardown
                p.terminate()
                p.join(timeout=1.0)
        return spec, results, failures
    finally:
        spec.broker_q.put(None)
        broker.join(timeout=2.0)
        for p in procs.values():
            if p.is_alive():  # pragma: no cover
                p.terminate()
        spec.cleanup()
        # the storage a rank held at exit: nobody else would unlink it
        for p in procs.values():
            if p.pid is not None:
                shm.reclaim(p.pid)


def run_spmd_procs(n: int, fn: Callable[..., Any], args: tuple, kwargs: dict,
                   *, name: str = "job", deadlock_timeout: float = 5.0,
                   opts: Optional[dict] = None) -> list[Any]:
    """Procs-backend implementation of :func:`repro.simmpi.run_spmd`."""
    spec, results, failures = _launch(
        [(name, n, fn, args, kwargs)],
        deadlock_timeout=deadlock_timeout, opts=opts)
    if failures:
        raise SpmdError({ep: _safe_loads(blob)
                         for ep, blob in failures.items()})
    return [_safe_loads(results[r]) for r in range(n)]


def run_coupled_procs(jobs, *, deadlock_timeout: float = 10.0,
                      opts: Optional[dict] = None) -> dict[str, list[Any]]:
    """Procs-backend implementation of :func:`repro.simmpi.run_coupled`."""
    launch = [(name, n, fn, tuple(args), {}) for name, n, fn, args in jobs]
    spec, results, failures = _launch(
        launch, deadlock_timeout=deadlock_timeout, opts=opts)
    if failures:
        raise SpmdError({spec.label(ep, qualified=True): _safe_loads(blob)
                         for ep, blob in failures.items()})
    out: dict[str, list[Any]] = {}
    for js in spec.jobs:
        out[js.name] = [
            _safe_loads(results[js.base + r]) if js.base + r in results
            else None
            for r in range(js.n)]
    return out


def slot_stats() -> dict[str, int]:
    """This rank process's segment-pool counters (procs backend only)."""
    rt = _transport.current_runtime()
    if rt is None:
        return {}
    snap = rt.pool.stats.snapshot()
    snap.setdefault("allocations", 0)
    return snap
