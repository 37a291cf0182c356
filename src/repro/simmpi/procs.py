"""The ``procs`` execution backend: ranks as real processes.

Every rank of a :func:`~repro.simmpi.runner.run_spmd` job (or of every
job of a :func:`~repro.simmpi.runner.run_coupled` launch — one shared
*domain*) runs in its own forked process, so packing, protocol work and
scatters execute on separate GILs and a redistribution's copy phase
scales with cores instead of serializing in one interpreter.

Messages: a send writes one fixed-size descriptor record into the
(sender, receiver) ring of the domain's
:class:`~repro.simmpi.shm.ControlSegment`, stores the ring's ``tail``
and posts the receiver's doorbell semaphore.  Payload bytes go in the
record itself when tiny, else in a run of adjacent slots of the
:class:`~repro.simmpi.shm.SegmentPool` (a sender whose slot ring or
control ring is full waits — abort-aware, visible to the watchdog —
while draining its own incoming rings).  Nothing on this path is
pickled or crosses a pipe.

Receives: every entry point of the rank's
:class:`~repro.simmpi.matching.Mailbox` first *drains* the rank's
incoming rings (:class:`ControlInbox`) into ordinary matching, in ring
order, handing array payloads over as lent views of the shared run or
record — so a preposted recv-into-destination sink scatters **straight
out of shared memory** into the destination array, in the waiting
thread, and the run is released the moment it is consumed.  A wait
with nothing to match parks on the doorbell only once the rings are
empty; a publish after the drain posts it, so no wakeup is lost.

The endpoint's ``multiprocessing`` queue and its *pump thread* remain
for what no ring carries: payloads wider than the whole slot ring
(their placeholder record holds their place in send order until the
pump has stashed the bytes), rendezvous replies, and ``ABORT``.

Supervision: the parent process supervises.  A
:class:`~repro.simmpi.shm.SharedState` struct carries each endpoint's
progress counter and blocked-state record (written by the rank's
mailbox callbacks); the supervisor applies the same stall rule as the
threads watchdog and aborts a deadlocked domain by raising the shared
abort flag, posting an ``ABORT`` message to every endpoint's queue —
which the pump turns into the event-driven
:meth:`~repro.simmpi.matching.AbortFlag.set` wake-up — and ringing
every doorbell, so a parked rank raises at once.  Rank crashes
propagate the same way: the failing rank reports to the supervisor,
which aborts every peer so nobody waits for messages that will never
come.

Rendezvous: ``NameService.accept/connect`` inside a procs rank routes
to the parent's *broker thread* (shared in-memory conditions cannot
cross processes).  The broker pairs accepts with connects, allocates
intercommunicator contexts from a reserved range, and replies with the
peer's endpoint list — picklable ints, no ``Raw`` job handles.  Context
ranges are partitioned so child-side ``dup``/``split`` allocations can
never collide across processes.

Limitations (documented, enforced with clear errors where possible):
``payload.Raw`` process-local handles cannot cross a process boundary,
and the ``fork`` start method is required (``fn`` and its closures are
inherited, not pickled — results and exceptions are pickled back).
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import queue as _queue
import threading
import time
from collections import deque
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
from repro.simmpi.transport import EndpointRemoteGroup, Transport
from repro.util.counters import TRANSPORT_STATS

__all__ = ["run_spmd_procs", "run_coupled_procs", "ProcRuntime",
           "ControlInbox"]

#: Child-side context allocators are rebased to ``(endpoint+1) << 20``
#: after fork; the broker hands out intercomm contexts from ``1 << 40``.
#: Pre-fork (parent) allocations stay far below either range.
CHILD_CTX_SHIFT = 20
BROKER_CTX_BASE = 1 << 40

_SUPERVISE_TICK = 0.05

#: Backoff between flag scans while a sender waits for a free run (or a
#: free control record).  A release lands within one scatter of the
#: wait starting.  Measured on ``stream_default`` (2-core guest): 5 and
#: 20 µs polls are indistinguishable (timer slack makes either a
#: ~60-80 µs sleep), while RMA's 200 µs poll costs ~7 % of a step.
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
        self.queues = [ctx.Queue() for _ in range(self.endpoints)]
        #: one doorbell per endpoint, posted after every record publish
        self.doorbells = [ctx.Semaphore(0) for _ in range(self.endpoints)]
        self.results = ctx.Queue()
        self.broker_q = ctx.Queue()
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
        for q in self.queues + [self.results, self.broker_q]:
            q.close()
            q.join_thread()
        self.pool.close()
        self.pool.unlink()
        self.state.close()
        self.state.unlink()
        self.ctl.close()
        self.ctl.unlink()


# -- rank-process side -------------------------------------------------------


class ProcTransport(Transport):
    """Child-side transport: one local mailbox fed by the rank's control
    rings, descriptor-record delivery out."""

    backend = "procs"
    isolating = False
    rma_capable = True

    def __init__(self, runtime: "ProcRuntime", abort,
                 progress: Callable[[], None],
                 block_state: Callable[[int, str | None], None]):
        self._rt = runtime
        self._own = Mailbox(runtime.job_rank, abort,
                            progress=progress, block_state=block_state,
                            inbox=runtime.inbox)
        self._send_lock = threading.Lock()
        #: next record seq of this endpoint's ring to each receiver
        self._next = [0] * runtime.spec.endpoints

    def mailbox(self, job_rank: int) -> Mailbox:
        if job_rank != self._rt.job_rank:
            raise CommunicatorError(
                f"procs backend: rank {self._rt.job_rank} cannot access "
                f"the mailbox of rank {job_rank} (different process)")
        return self._own

    def deliver(self, job_rank: int, env: Envelope, live=None) -> None:
        self.deliver_endpoint(self._rt.job_base + job_rank, env, live=live)

    def deliver_endpoint(self, endpoint: int, env: Envelope,
                         live=None) -> None:
        rt = self._rt
        if endpoint == rt.endpoint:
            if isinstance(env.payload, _payload.PickledWire):
                # self-delivery of a generic object: the blob *is* the
                # isolation copy; rehydrate so the receiver sees a value
                env.payload = pickle.loads(env.payload.blob)
            elif isinstance(env.payload, _payload.Raw):
                env.payload = env.payload.value
            self._own.deliver(env, live=live)
            return
        obj = live if live is not None else env.payload
        if isinstance(obj, _payload.Raw):
            raise CommunicatorError(
                "payload.Raw wraps a process-local handle; it cannot be "
                "sent to another process (procs backend)")
        if isinstance(obj, _payload.PickledWire):
            kind, buf = shm.PICKLE, np.frombuffer(obj.blob, dtype=np.uint8)
        else:
            kind, buf = shm.encode_payload(obj)
        with self._send_lock:
            self._send(endpoint, env, kind, buf)
        rt.spec.doorbells[endpoint].release()
        rt.bump_progress()

    def _send(self, dst: int, env: Envelope, kind: int,
              buf: Optional[np.ndarray]) -> None:
        """Place the payload, then fill and publish the next record of
        this endpoint's ring to ``dst`` (caller holds the send lock:
        one producer per ring)."""
        rt = self._rt
        ctl, pool, me = rt.ctl, rt.pool, rt.endpoint
        seq = self._next[dst]
        if seq - ctl.head(dst, me) >= ctl.depth:
            self._wait_for_record(dst, seq)
        slot, width = shm.SLOT_INLINE, 0
        if buf is not None:
            nbytes = buf.nbytes
            width = -(-nbytes // pool.slot_bytes)
            if width > 1:
                pool.stats.add("oversize")
            fits = kind != shm.ND or shm.record_fits(buf)
            if fits and nbytes <= shm.INLINE_MAX:
                TRANSPORT_STATS.add("shm_inline_msgs")
                TRANSPORT_STATS.add("shm_inline_bytes", nbytes)
            elif fits and width <= pool.slots_per_endpoint:
                slot = pool.acquire(me, width)
                if slot is None:
                    slot = self._wait_for_run(width)
                view = pool.slot_view(
                    slot, nbytes, dtype=buf.dtype if kind == shm.ND else None)
                if kind == shm.ND:
                    np.copyto(view.view(buf.dtype).reshape(buf.shape), buf)
                else:
                    view[:] = buf
                TRANSPORT_STATS.add("shm_slot_msgs")
                TRANSPORT_STATS.add("shm_slot_bytes", nbytes)
            else:
                # wider than the whole slot ring (or an array no record
                # can describe): the bytes ride the receiver's queue and
                # a placeholder record keeps their place in send order
                # (tobytes() emits C order from any view, lent strided
                # and n-D ones included, in one pass)
                slot = shm.SLOT_QUEUE
                meta = (buf.dtype, buf.shape) if kind == shm.ND else None
                rt.spec.queues[dst].put((shm.MSG, me, meta, buf.tobytes()))
                if nbytes > shm.INLINE_MAX:
                    pool.stats.add("allocations")
                    pool.stats.add("allocated_bytes", nbytes)
                TRANSPORT_STATS.add("ctl_queue_msgs")
                TRANSPORT_STATS.add("shm_inline_msgs")
                TRANSPORT_STATS.add("shm_inline_bytes", nbytes)
        if slot != shm.SLOT_QUEUE:
            TRANSPORT_STATS.add("ctl_ring_msgs")
        if env.release is not None:
            # the wire (record, slot run or queue blob) now owns the
            # bytes: the sender's pooled buffer is free to be reused
            env.release()
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
        ctl.write(dst, me, seq, env.context, env.source, env.tag,
                  env.nbytes, slot, kind, buf, token)
        ctl.publish(dst, me, seq)
        self._next[dst] = seq + 1

    def _wait_for_record(self, dst: int, seq: int) -> None:
        """Block until ``dst`` has consumed enough of this endpoint's
        ring to it for record ``seq`` to fit.  ``dst`` drains whenever
        it touches its mailbox, so the wait ends unless ``dst`` has
        returned — then it raises at once rather than wait for the
        watchdog."""
        rt = self._rt
        ctl, me, state = rt.ctl, rt.endpoint, rt.spec.state
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
        a run of ``width`` slots, then claim it.  Each receiver frees its
        run as it drains the record, whenever it touches its mailbox, so
        the wait ends unless a receiver is gone — then the watchdog sees
        this rank blocked on the ring and aborts the domain.  This rank
        is its ring's only claimant, so the claim cannot miss."""
        pool, ep = self._rt.pool, self._rt.endpoint
        self._own.wait_until(
            lambda: pool.find_run(ep, width),
            f"slot_ring(endpoint={ep}, run of {width} slot(s))",
            poll=RING_POLL)
        return pool.acquire(ep, width)


def _ring_site(src: int, dst: int) -> str:
    return f"ctl_ring({src}->{dst})"


class ControlInbox:
    """Receiver side of one endpoint's control plane: its incoming
    descriptor rings, its doorbell, and the payloads the pump stashed
    for placeholder records.  :class:`~repro.simmpi.matching.Mailbox`
    calls :meth:`drain` (lock held) at every entry point and
    :meth:`park` when a wait finds nothing."""

    def __init__(self, runtime: "ProcRuntime"):
        spec = runtime.spec
        self._ctl = spec.ctl
        self._pool = spec.pool
        self._me = runtime.endpoint
        self._bell = spec.doorbells[runtime.endpoint]
        self._heads = [0] * spec.endpoints
        #: per sender: (meta, blob) of placeholder records, in send order
        self._wide = [deque() for _ in range(spec.endpoints)]

    def kick(self) -> None:
        """Post this endpoint's doorbell (wake a parked waiter)."""
        self._bell.release()

    def park(self, timeout: float | None) -> None:
        """Sleep on the doorbell until a post (or ``timeout``); absorb
        the posts of records a drain has already consumed."""
        bell = self._bell
        if bell.acquire(True, timeout):
            while bell.acquire(False):
                pass

    def stash(self, src: int, meta: Any, blob: bytes) -> None:
        """Pump side: the queued payload of ``src``'s next placeholder."""
        self._wide[src].append((meta, blob))
        self.kick()

    def drain(self, mailbox: Mailbox) -> None:
        """Deliver every published record of every incoming ring into
        ``mailbox``, in ring order, then hand the records back."""
        ctl, me, heads = self._ctl, self._me, self._heads
        for src, tail in enumerate(ctl.tails(me)):
            head = start = heads[src]
            while head < tail and self._consume(mailbox, src, head):
                head += 1
            if head != start:
                heads[src] = head
                ctl.set_head(me, src, head)

    def _consume(self, mailbox: Mailbox, src: int, seq: int) -> bool:
        ctl, pool = self._ctl, self._pool
        (context, source, tag, nbytes, wire, slot, kind, dtype, shape,
         raw) = ctl.read(self._me, src, seq)
        if slot == shm.SLOT_QUEUE:
            wide = self._wide[src]
            if not wide:
                return False         # the pump has not stashed it yet
            meta, blob = wide.popleft()
            if meta is not None:
                dtype, shape = meta
            raw = np.frombuffer(blob, dtype=np.uint8)
        elif slot >= 0:
            raw = pool.slot_view(
                slot, wire, dtype=dtype if kind == shm.ND else None)
        san = _san.ACTIVE
        if san is not None and ctl.tsan:
            # the record's seq stamp, then the happens-before join with
            # the sender plus the generation check that catches reuse of
            # any slot of the run in flight
            token = ctl.token(self._me, src, seq)
            stamp, slot_token = pickle.loads(token) if token else (-1, None)
            san.ring_consume(_ring_site(src, self._me), seq, stamp)
            san.slot_consume(pool, slot, slot_token)
        value = shm.decode_payload(kind, raw, dtype, shape)
        env = Envelope(context, source, tag, None, nbytes)
        if isinstance(value, np.ndarray):
            # lent view of the shared run or record: an armed prepost
            # sink scatters straight out of shared memory
            mailbox._deliver_locked(env, live=value)
        else:
            env.payload = value
            mailbox._deliver_locked(env)
        if slot >= 0:
            pool.release(slot, -(-wire // pool.slot_bytes))
        return True


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
        self.rdv: _queue.Queue = _queue.Queue()
        self.job = None          # set by _child_main
        self.transport: Optional[ProcTransport] = None

    # -- wiring ------------------------------------------------------------

    def make_transport(self, n: int, abort, progress, block_state
                       ) -> ProcTransport:
        def prog():
            progress()
            self.bump_progress()

        def blocked(rank: int, desc: str | None):
            block_state(rank, desc)
            self.spec.state.set_blocked(self.endpoint, desc)

        self.transport = ProcTransport(self, abort, prog, blocked)
        return self.transport

    def bump_progress(self) -> None:
        self.spec.state.bump(self.endpoint)

    # -- rendezvous (NameService over the parent broker) -------------------

    def rendezvous(self, mode: str, name: str, comm, timeout: float):
        if comm.rank == 0:
            endpoints = [self.job_base + r for r in comm.job_ranks]
            self.spec.broker_q.put(("RDV", mode, name, endpoints,
                                    self.endpoint))
            info = self._wait_rdv(name, timeout)
        else:
            info = None
        info = comm.bcast(info, root=0)
        if info[0] == "ERR":
            raise CommunicatorError(info[1])
        recv_ctx, send_ctx, remote_eps = info
        from repro.simmpi.intercomm import Intercommunicator
        group = EndpointRemoteGroup(self.transport, remote_eps)
        return Intercommunicator(comm, recv_ctx, send_ctx, group,
                                 tuple(range(len(remote_eps))))

    def _wait_rdv(self, name: str, timeout: float):
        # Deliberately *not* registered as blocked: like the threads
        # NameService, a rank waiting for its coupling peer must not
        # trip the deadlock watchdog — the rendezvous timeout below is
        # the failure path for a peer that never shows up.
        from repro.errors import DeadlockError
        desc = f"rendezvous({name!r})"
        deadline = time.monotonic() + (timeout if timeout and timeout > 0
                                       else 3600.0)
        while True:
            if self.job is not None and self.job.abort.is_set():
                raise DeadlockError(
                    f"rank {self.job_rank} aborted while blocked in "
                    f"{desc}: {self.job.abort.reason}",
                    blocked=self.job.abort.blocked_dump)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"{desc} timed out")
            try:
                return self.rdv.get(timeout=min(0.1, remaining))
            except _queue.Empty:
                continue

    # -- pump --------------------------------------------------------------

    def start_pump(self) -> None:
        t = threading.Thread(target=self._pump_loop, daemon=True,
                             name=f"pump-ep{self.endpoint}")
        t.start()

    def _pump_loop(self) -> None:
        q = self.spec.queues[self.endpoint]
        _san.register_actor(f"ep{self.endpoint}.pump")
        while True:
            msg = q.get()
            verb = msg[0]
            if verb == shm.STOP:
                return
            if verb == shm.ABORT:
                _, reason, dump = msg
                self.job.abort.set(reason, dump)
                continue
            if verb == shm.RDV_REPLY:
                self.rdv.put(msg[1])
                continue
            _, src, meta, blob = msg
            self.inbox.stash(src, meta, blob)


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
    _san.register_actor(f"ep{endpoint}")
    job = Job(jobspec.n, name=jobspec.name,
              transport_factory=rt.make_transport)
    rt.job = job
    rt.start_pump()
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
    """Pair accept/connect rendezvous requests; allocate contexts."""
    ctx_counter = itertools.count(BROKER_CTX_BASE)
    waiting: dict[str, tuple[str, list[int], int]] = {}
    while True:
        msg = spec.broker_q.get()
        if msg[0] == shm.STOP:
            return
        _, mode, name, endpoints, reply_ep = msg
        other = waiting.get(name)
        if other is None or other[0] == mode:
            if other is not None and other[0] == mode:
                # mirror the threads NameService "already accepting"
                # error for double-accepts; double-connects just queue
                if mode == "accept":
                    spec.queues[reply_ep].put(
                        (shm.RDV_REPLY,
                         ("ERR", f"service {name!r} is already accepting")))
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
        spec.queues[acc_reply].put(
            (shm.RDV_REPLY, (acc_ctx, con_ctx, con_eps)))
        spec.queues[con_reply].put(
            (shm.RDV_REPLY, (con_ctx, acc_ctx, acc_eps)))


def _abort_all(spec: DomainSpec, pending: set[int], reason: str,
               dump: dict) -> None:
    spec.state.set_abort(reason)
    for ep in pending:
        spec.queues[ep].put((shm.ABORT, reason, dump))
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
    stall_deadline: Optional[float] = None
    stall_progress = -1

    def labeled(dump: dict[int, str]) -> dict:
        return {spec.label(ep, qualified=qualified): desc
                for ep, desc in dump.items()}

    while pending:
        try:
            verb, ep, blob = spec.results.get(timeout=_SUPERVISE_TICK)
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
        # watchdog: every unfinished endpoint blocked + no progress
        progress = spec.state.total_progress()
        dump = spec.state.stalled()
        if dump:
            if stall_deadline is None or progress != stall_progress:
                stall_progress = progress
                stall_deadline = time.monotonic() + deadlock_timeout
            elif time.monotonic() >= stall_deadline and not aborted:
                aborted = True
                _abort_all(spec, pending,
                           "deadlock detected by watchdog", labeled(dump))
        else:
            stall_deadline = None
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
        spec.broker_q.put((shm.STOP,))
        broker.join(timeout=2.0)
        for p in procs.values():
            if p.is_alive():  # pragma: no cover
                p.terminate()
        spec.cleanup()


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
