"""High-throughput PRMI serving: event-driven loop, batching, pipelining.

The base endpoints (:mod:`repro.prmi.endpoint`) run lockstep: the callee
cohort calls ``serve_one``/``serve_independent`` knowing what arrives
next, and every invocation pays one message each way (an independent
one a request frame of one entry and its reply frame) plus a blocked
caller.  This module adds the serving tier the ROADMAP's
production-scale north star needs:

* :class:`ServerLoop` — the callee side blocks in **one**
  ``wait_any`` across every ingress stream (request frames, collective
  fragments, subset announcements, shutdown tokens) and dispatches
  whatever arrives, instead of committing to one protocol per call
  site.
* :class:`InvocationPipeline` — the caller side coalesces independent
  invocations into batch frames (:mod:`repro.prmi.frames`), returns
  :class:`InvocationFuture`\\ s instead of blocking per call, and
  enforces backpressure with a bounded in-flight window.  Transmission
  policy (:mod:`repro.prmi.policy`) is chosen per port, orthogonal to
  the method implementation.

Wire protocol
-------------

The streams are the framed rows of :mod:`repro.prmi.endpoint`'s tag
table, in the tag band ``[FRAME_TAG_BASE, INTERNAL_TAG_BASE)``
(:func:`repro.simmpi.constants.frame_tag`), so they can never collide
with application tags or the per-message PRMI tags 100–106.  A request
frame holds ``(seq, method, kwargs)`` entries; ``seq == NOREPLY_SEQ``
flags fire-and-forget entries the server must not answer.  Each request
frame with at least one reply-expecting entry produces exactly **one**
reply frame of ``(seq, status, value)`` entries, status ``"ok"`` /
``"err"`` (value is the raised exception) / ``"overload"`` (admission
control refused the request) — :meth:`CalleeEndpoint.answer_frame
<repro.prmi.endpoint.CalleeEndpoint.answer_frame>`, the same code a
lockstep ``serve_independent`` runs.  Because a ``(source, tag)``
stream is FIFO, sequence numbers arrive in submission order and the
caller resolves futures by popping its per-callee queue.

Deadlock freedom: the flush deadline (``delay_us``) bounds how long a
request can sit unsent, and the serve loop drains request frames ahead
of committing to a collective gather — see the ``prmi_*`` models in
:mod:`repro.verify.commgraph` for the checked argument.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, NamedTuple

from repro import config
from repro.errors import PRMIError, ServerOverloaded
from repro.prmi.endpoint import (
    CONTROL_STREAM,
    INVOKE_TAG,
    NOREPLY_SEQ,
    REPLY_STREAM,
    REQUEST_STREAM,
    SUBSET_TAG,
    CalleeEndpoint,
    CallerEndpoint,
    reply_error,
)
from repro.prmi.frames import decode_frame, encode_frame
from repro.prmi.policy import Batched, PolicyTable
from repro.simmpi.constants import ANY_SOURCE, frame_tag
from repro.util.counters import PRMI_LATENCY, PRMI_STATS

__all__ = [
    "ServerLoop",
    "InvocationPipeline",
    "InvocationFuture",
    "REQUEST_STREAM",
    "REPLY_STREAM",
    "CONTROL_STREAM",
    "NOREPLY_SEQ",
]

#: The caller's in-flight window and the :class:`ServerLoop`'s ingress
#: queue depth.
INFLIGHT_MAX = 1024


class InvocationFuture:
    """A pipelined invocation's eventual result.

    Futures resolve lazily: :meth:`result` drains reply traffic (FIFO
    per source stream) until this future settles — there is no
    background thread.  ``resolve`` is the owning pipeline's bound
    resolver, called with the future; ``source`` is the rank whose
    stream answers it.  Latency from submission to settlement is
    recorded in :data:`~repro.util.counters.PRMI_LATENCY`.
    """

    __slots__ = ("method", "seq", "_resolve", "_t0", "_done",
                 "_value", "_error", "_source", "_sent")

    def __init__(self, method: str, seq: int, resolve=None,
                 source: int = -1, t0: float | None = None):
        self.method = method
        self.seq = seq
        self._resolve = resolve
        self._t0 = time.perf_counter() if t0 is None else t0
        self._done = False
        self._value: Any = None
        self._error: BaseException | None = None
        self._source = source
        #: Whether the request has left its pending batch for the wire.
        self._sent = False

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        """Block until the reply arrives; return the value or raise the
        error the server shipped (:class:`ServerOverloaded` when
        admission control refused the request)."""
        if not self._done:
            if self._resolve is None:  # pragma: no cover - guard
                raise PRMIError(
                    f"future for {self.method!r} has no resolver")
            self._resolve(self)
            if not self._done:  # pragma: no cover - protocol guard
                raise PRMIError(
                    f"reply stream drained without settling "
                    f"{self.method!r} seq {self.seq}")
        if self._error is not None:
            raise self._error
        return self._value

    def _settle(self, value: Any = None,
                error: BaseException | None = None) -> None:
        self._done = True
        self._value = value
        self._error = error
        PRMI_LATENCY.record(time.perf_counter() - self._t0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ("error" if self._error is not None else
                 "done" if self._done else "pending")
        return f"InvocationFuture({self.method!r}, seq={self.seq}, {state})"


class _Route(NamedTuple):
    """How one method's requests travel through a pipeline, resolved on
    the method's first submit: whether a reply comes back, and the
    port's :class:`~repro.prmi.policy.Batched` policy (its flush
    limits), or ``None``: a request flushes on submit."""

    expects_reply: bool
    batched: Batched | None


class ServerLoop:
    """Event-driven callee serving: one blocked wait, every stream.

    Every callee rank runs :meth:`serve_forever` together.  The loop
    exits once a shutdown token has arrived from every remote rank
    (each caller's :meth:`InvocationPipeline.close` sends one to every
    callee).  ``queue_max`` bounds the ingress queue: when one greedy
    drain of the request stream uncovers more requests than the cap,
    the excess are refused with ``"overload"`` replies (fire-and-forget
    excess is dropped) — the admission-control half of backpressure.
    """

    def __init__(self, callee: CalleeEndpoint, *,
                 queue_max: int = INFLIGHT_MAX):
        self.queue_max = config.at_least("queue_max", queue_max, 1,
                                         PRMIError)
        self.callee = callee
        self.inter = callee.inter
        self._stopped: set[int] = set()
        #: Dispatch tallies, returned by :meth:`serve_forever`.
        self.served = {"collective": 0, "frames": 0, "requests": 0,
                       "overloads": 0, "errors": 0, "subsets": 0}

    # -- ingress specs -------------------------------------------------------

    def _specs(self) -> list[tuple[int, int, int]]:
        """Match specs for one wait, in priority order: ``wait_any``
        scans them first-to-last each wake, so request frames drain
        ahead of collective fragments (a caller blocked on a batched
        reply can never stall another caller's collective gather), and
        shutdown tokens rank last so no work is abandoned."""
        ictx = self.inter.recv_context
        me = self.callee.local_comm.rank
        specs = [(ictx, ANY_SOURCE, frame_tag(REQUEST_STREAM))]
        if me == 0:
            # Subset announcements enter the cohort at rank 0 and fan
            # out over the local binomial tree (_install_subset).
            specs.append((ictx, 0, SUBSET_TAG))
        else:
            parent = me - (me & -me)
            specs.append((self.callee.local_comm.context, parent,
                          SUBSET_TAG))
        specs.extend((ictx, mm, INVOKE_TAG)
                     for mm in self.callee._expected_callers())
        specs.append((ictx, ANY_SOURCE, frame_tag(CONTROL_STREAM)))
        return specs

    # -- loop ----------------------------------------------------------------

    def serve_forever(self) -> dict[str, int]:
        """Serve until every remote rank has sent its shutdown token;
        returns the dispatch tallies."""
        want = self.inter.remote_size
        while len(self._stopped) < want:
            env = self.inter.wait_any(self._specs())
            self._handle(env)
        return dict(self.served)

    def _handle(self, env) -> None:
        tag = env.tag
        if tag == frame_tag(REQUEST_STREAM):
            self._on_request_frames(env)
        elif tag == SUBSET_TAG:
            self.callee._install_subset(env.payload)
            self.served["subsets"] += 1
        elif tag == INVOKE_TAG:
            self._on_collective(env)
        elif tag == frame_tag(CONTROL_STREAM):
            self._stopped.add(env.source)
        else:  # pragma: no cover - spec list and handlers in lockstep
            raise PRMIError(f"serve loop matched unexpected tag {tag}")

    def _on_collective(self, env) -> None:
        """One fragment arrived; gather the rest of the collective
        invocation (its callers are committed by the collective
        contract) and dispatch."""
        invocations = [env.payload if mm == env.source
                       else self.inter.recv(source=mm, tag=INVOKE_TAG)
                       for mm in self.callee._expected_callers()]
        self.callee._dispatch_collective(invocations)
        self.served["collective"] += 1

    def _on_request_frames(self, env) -> None:
        """Decode and execute batch frames; one reply frame per ingress
        frame that expects any reply.

        All frames already queued are drained greedily so the admission
        decision sees the true ingress depth; requests beyond
        ``queue_max`` are refused with ``"overload"`` status.
        """
        frames = [(env.source, decode_frame(env.payload))]
        while True:
            st = self.inter.iprobe(tag=frame_tag(REQUEST_STREAM))
            if st is None:
                break
            buf = self.inter.recv(source=st.source,
                                  tag=frame_tag(REQUEST_STREAM))
            frames.append((st.source, decode_frame(buf)))
        depth = sum(len(entries) for _, entries in frames)
        PRMI_STATS.gauge_add("queue_depth", depth)
        try:
            budget = self.queue_max
            for source, entries in frames:
                errors, overloads = self.callee.answer_frame(
                    source, entries, budget)
                budget = max(0, budget - len(entries))
                self.served["requests"] += len(entries)
                self.served["errors"] += errors
                self.served["overloads"] += overloads
                self.served["frames"] += 1
        finally:
            PRMI_STATS.gauge_add("queue_depth", -depth)


class InvocationPipeline:
    """Caller-side batching, pipelining, and backpressure.

    Wraps a :class:`CallerEndpoint` whose callee cohort runs a
    :class:`ServerLoop`.  :meth:`submit` routes an independent
    invocation through the port's transmission policy; batched
    requests coalesce into one frame per (caller, callee) flush.
    Collective calls go through the wrapped endpoint's
    :meth:`~repro.prmi.endpoint.CallerEndpoint.invoke` (:attr:`caller`);
    the loop serves them amid the frames.  ``inflight_max`` bounds
    submitted-but-unresolved invocations: at the cap, ``overflow="block"``
    resolves the oldest future to make room and ``overflow="raise"``
    raises :class:`ServerOverloaded` at the call site.

    The policy table is read once, here: its default is every
    method's batching.  A method's route (spec checks, reply
    expectation) is resolved on its first submit and kept.  The
    ``inflight`` gauge of :data:`~repro.util.counters.PRMI_STATS` is
    posted once per frame, increments before decrements, so its peak
    stays exact.
    """

    def __init__(self, caller: CallerEndpoint, *,
                 policies: PolicyTable | None = None,
                 inflight_max: int = INFLIGHT_MAX,
                 overflow: str = "block"):
        if overflow not in ("block", "raise"):
            raise PRMIError(
                f"overflow policy must be 'block' or 'raise', "
                f"got {overflow!r}")
        self.inflight_max = config.at_least("inflight_max", inflight_max,
                                            1, PRMIError)
        self.caller = caller
        self.inter = caller.inter
        self._batched = policies.default if policies is not None else None
        self._routes: dict[str, _Route] = {}
        self.overflow = overflow
        #: callee -> [(seq, method, kwargs, future-or-None)], unsent.
        self._pending: dict[int, list] = {}
        #: callee -> perf_counter() when its oldest pending was queued.
        self._pending_t0: dict[int, float] = {}
        #: callee -> futures awaiting reply-frame entries, FIFO.
        self._awaiting: dict[int, deque] = {}
        self._seq = 0
        self._inflight = 0
        #: in-flight increments not yet posted to the gauge.
        self._unposted = 0
        self._closed = False

    # -- bookkeeping ---------------------------------------------------------

    def _post_inflight(self, settled: int = 0) -> None:
        """Post the unposted increments to the ``inflight`` gauge, then
        ``settled`` decrements: this pipeline's level only falls after
        every rise is on the gauge, so the peak it records is exact."""
        if self._unposted:
            PRMI_STATS.gauge_add("inflight", self._unposted)
            self._unposted = 0
        if settled:
            self._inflight -= settled
            PRMI_STATS.gauge_add("inflight", -settled)

    def _admit(self) -> None:
        while self._inflight >= self.inflight_max:
            if self.overflow == "raise":
                PRMI_STATS.add("overloads")
                raise ServerOverloaded(
                    f"{self._inflight} invocations in flight >= "
                    f"inflight_max {self.inflight_max}")
            self._resolve_oldest()

    def _resolve_oldest(self) -> None:
        """Make room under the in-flight cap by settling the oldest
        outstanding future (errors stay in the future for its owner)."""
        for callee, queue in self._awaiting.items():
            if queue:
                self._drain_replies(callee, queue[0])
                return
        if any(self._pending.values()):
            # Nothing awaits yet — ship the pending batches first; their
            # no-reply entries leave the window at flush time.
            self.flush()
            return
        raise PRMIError(  # pragma: no cover - accounting guard
            "in-flight window full but nothing pending or awaited")

    # -- submission ----------------------------------------------------------

    def submit(self, method: str, callee_rank: int,
               **kwargs: Any) -> InvocationFuture | None:
        """Route one independent invocation through the port's
        transmission policy.  Returns an :class:`InvocationFuture`
        (already settled when the table has no :class:`~repro.prmi.
        policy.Batched` default), or ``None`` when no reply will travel
        (one-way methods)."""
        if self._closed:
            raise PRMIError("pipeline is closed")
        route = self._routes.get(method) or self._route(method)
        if self._inflight >= self.inflight_max:
            self._admit()
        PRMI_STATS.add("invocations")
        self.caller.stats.calls += 1
        now = time.perf_counter()
        if route.expects_reply:
            fut = InvocationFuture(method, self._seq, self._resolve_reply,
                                   callee_rank, now)
            seq = self._seq
            self._seq += 1
        else:
            fut = None
            seq = NOREPLY_SEQ
        pend = self._pending.get(callee_rank)
        if not pend:
            if pend is None:
                pend = self._pending[callee_rank] = []
            self._pending_t0[callee_rank] = now
        pend.append((seq, method, kwargs, fut))
        self._inflight += 1
        self._unposted += 1
        batched = route.batched
        if batched is None:
            self._flush_callee(callee_rank, "flush_forced")
            if fut is not None:
                # Unbatched contract: the reply is awaited before submit
                # returns (the future comes back settled).
                self._drain_replies(callee_rank, fut)
        elif len(pend) >= batched.batch_max:
            self._flush_callee(callee_rank, "flush_full")
        elif (now - self._pending_t0[callee_rank]) * 1e6 >= batched.delay_us:
            self._flush_callee(callee_rank, "flush_deadline")
        return fut

    def _route(self, method: str) -> _Route:
        spec = self.caller.port_type.method(method)
        if spec.invocation != "independent":
            raise PRMIError(
                f"method {method!r} is declared collective; use "
                f"caller.invoke")
        if spec.parallel_params:
            raise PRMIError(
                "pipelined independent invocations cannot carry "
                "parallel arguments")
        route = _Route(expects_reply=not spec.oneway, batched=self._batched)
        self._routes[method] = route
        return route

    # -- flushing ------------------------------------------------------------

    def flush(self) -> None:
        """Force-ship every pending batch.  Flush triggers are otherwise
        evaluated at submit time (there is no background flusher
        thread)."""
        for callee in [c for c, p in self._pending.items() if p]:
            self._flush_callee(callee, "flush_forced")

    def _flush_callee(self, callee: int, reason: str) -> None:
        pend = self._pending.get(callee)
        if not pend:
            return
        self._pending[callee] = []
        self._pending_t0.pop(callee, None)
        frame = encode_frame([(seq, method, kwargs)
                              for seq, method, kwargs, _fut in pend])
        PRMI_STATS.add("frames_sent")
        PRMI_STATS.add("frame_requests", len(pend))
        PRMI_STATS.add("frame_bytes", frame.nbytes)
        PRMI_STATS.add(reason)
        self.inter.send(frame, dest=callee, tag=frame_tag(REQUEST_STREAM))
        queue = self._awaiting.get(callee)
        if queue is None:
            queue = self._awaiting[callee] = deque()
        # Fire-and-forget entries leave the in-flight window when the
        # request hits the wire.
        noreply = 0
        for _seq, _method, _kwargs, fut in pend:
            if fut is None:
                noreply += 1
            else:
                fut._sent = True
                queue.append(fut)
        self._post_inflight(noreply)

    # -- resolution ----------------------------------------------------------

    def _resolve_reply(self, target: InvocationFuture) -> None:
        if not target._sent:
            self._flush_callee(target._source, "flush_forced")
        self._drain_replies(target._source, target)

    def _drain_replies(self, callee: int,
                       target: InvocationFuture | None = None) -> None:
        """Receive reply frames from ``callee``, settling futures FIFO,
        until ``target`` settles (or, with no target, until nothing is
        awaited from that callee)."""
        queue = self._awaiting.get(callee)
        if queue is None:
            return
        while queue and (target is None or not target._done):
            buf = self.inter.recv(source=callee,
                                  tag=frame_tag(REPLY_STREAM))
            entries = decode_frame(buf)
            for seq, status, value in entries:
                if not queue:  # pragma: no cover - protocol guard
                    raise PRMIError(
                        f"reply frame entry seq {seq} with no future "
                        f"awaiting callee {callee}")
                fut = queue.popleft()
                if fut.seq != seq:  # pragma: no cover - protocol guard
                    raise PRMIError(
                        f"reply stream out of order: expected seq "
                        f"{fut.seq}, got {seq}")
                if status == "ok":
                    fut._settle(value=value)
                else:
                    fut._settle(error=reply_error(status, value))
            self._post_inflight(len(entries))

    def drain(self) -> None:
        """Flush and settle everything outstanding.  Errors are kept in
        their futures (raised when their owners call ``result()``)."""
        self.flush()
        for callee in list(self._awaiting):
            self._drain_replies(callee)

    # -- lifecycle -----------------------------------------------------------

    def engage_subset(self, ranks: list[int]) -> CallerEndpoint:
        """Drain the pipeline, then engage the sub-setting mechanism
        (collective over the full caller cohort); the pipeline continues
        on the new endpoint.  The callee's :class:`ServerLoop` picks up
        the announcement event-driven — no serve-side call needed."""
        self.drain()
        self.caller = self.caller.engage_subset(ranks)
        return self.caller

    def close(self) -> None:
        """Drain, then send one shutdown token to every callee rank
        (the :class:`ServerLoop` exits once every caller has closed)."""
        if self._closed:
            return
        self.drain()
        for callee in range(self.inter.remote_size):
            self.inter.send("stop", dest=callee,
                            tag=frame_tag(CONTROL_STREAM))
        self._closed = True

    def __enter__(self) -> "InvocationPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
