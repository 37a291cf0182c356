"""Per-rank mailboxes with MPI-style (context, source, tag) matching.

Each rank of each job owns one :class:`Mailbox`.  Matching is FIFO *per
(context, source, tag)* — the MPI non-overtaking rule: two messages from
the same source with matching tags are received in send order.  A
delivery completes the oldest armed preposted slot it matches, else
queues the envelope.

Receiving is one drain-and-match loop, :meth:`Mailbox._wait`: under the
lock a receive checks the queue and then (procs) drains the rank's
*inbox* — its incoming shared-memory control rings — which hands the
first matching record straight to the receive and queues or
sink-delivers the rest in ring order.  Only when that misses does the
wait write what it is waiting for into its rank's row of the job's
:class:`~repro.simmpi.shm.Liveness` table (the watchdog's input) and
park: on the inbox doorbell on procs, only once the rings are empty, so
no wakeup is lost; on the condition on threads, which is notified only
while a thread waits on it.  :meth:`AbortFlag.set` wakes every
subscribed mailbox, so a blocked receive raises at once.

The zero-copy hook lives here.  :meth:`Mailbox.prepost` arms a
**preposted receive** (``MPI_Recv_init`` / rendezvous-RDMA analogue): a
destination *sink* registered before the message exists, which a
matching delivery writes straight through — in the sender's thread on
threads, straight out of shared memory on procs.  A lent
(:class:`~repro.simmpi.payload.Borrowed`) view is consumed
synchronously inside the delivery: written through an armed sink or
snapshotted, so no alias to the sender's storage survives.

FIFO safety: ``prepost`` first takes the oldest matching *queued*
envelope, and a delivery only completes a slot when no queued envelope
matches it, so a preposted receive can never overtake an earlier send.
"""


from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import DeadlockError
from repro.simmpi import payload
from repro.simmpi import sanitize as _san
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simmpi.shm import Liveness
from repro.util.counters import TRANSPORT_STATS


@dataclass(slots=True)
class Envelope:
    """One in-flight message."""

    context: int
    source: int
    tag: int
    payload: Any
    nbytes: int
    #: Sender's vector clock under ``REPRO_TSAN=1`` (the mailbox
    #: handoff happens-before edge); ``None`` — and never touched —
    #: when the sanitizer is off.
    clock: Optional[dict] = None


class AbortFlag:
    """Shared job-wide abort signal set by the deadlock watchdog.

    Mailboxes subscribe a wake-up callback; :meth:`set` calls all of
    them so blocked receivers wake and raise immediately.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._waiters: list[Callable[[], None]] = []
        #: the flag itself (set once, under the lock; a plain read)
        self.raised = False
        self.reason: str = ""
        self.blocked_dump: dict[int, str] = {}

    def subscribe(self, wake: Callable[[], None]) -> None:
        """Register a callback to run when the flag is set."""
        with self._lock:
            self._waiters.append(wake)

    def set(self, reason: str, blocked: dict[int, str]) -> None:
        with self._lock:
            # First cause wins: a rank that crashes *because* the abort
            # already fired (e.g. re-raising DeadlockError out of a
            # blocked recv) must not clobber the watchdog's blocked-rank
            # dump with its secondary report.
            if not self.raised:
                self.reason = reason
                self.blocked_dump = blocked
                self.raised = True
            waiters = list(self._waiters)
        for wake in waiters:
            wake()

    def is_set(self) -> bool:
        return self.raised


class PrepostSlot:
    """One armed preposted receive (recv-into-destination).

    ``sink(values)`` consumes the matching payload — typically a
    compiled pair plan's scatter writing straight into the destination
    array's consolidated ``flat_local()`` base — and returns the element
    count.  It runs in whichever thread completes the slot (the sender's
    on direct delivery), under the mailbox lock.
    """

    __slots__ = ("context", "source", "tag", "sink", "done", "result",
                 "clock", "_mailbox")

    def __init__(self, mailbox: "Mailbox", context: int, source: int,
                 tag: int, sink: Callable[[Any], int]):
        self.context = context
        self.source = source
        self.tag = tag
        self.sink = sink
        self.done = False
        self.result: int = 0
        self.clock: Optional[dict] = None   # sender clock (REPRO_TSAN)
        self._mailbox = mailbox

    def matches(self, env: Envelope) -> bool:
        return _matches(self.context, self.source, self.tag, env)

    def _complete(self, values: Any) -> None:
        # caller holds the mailbox lock
        self.result = int(self.sink(values))
        self.done = True

    def wait(self, timeout: float | None = None) -> int:
        """Block until the slot's message has been consumed; returns the
        sink's element count."""
        return self._mailbox._wait_slot(self, timeout)


class Mailbox:
    """Thread-safe message store for one rank.

    ``inbox`` (procs backend) is the rank's incoming control rings:
    every entry point drains it into ordinary matching before it
    checks, and a blocked wait parks on its doorbell — only while the
    rings are empty — instead of the condition variable.  One waiting
    thread parks at a time; any other waits on the condition and is
    handed the doorbell when the parker leaves.  The condition is
    notified only while a thread waits on it.
    """

    def __init__(self, rank: int, abort: AbortFlag,
                 live: Optional[Liveness] = None, inbox: Any = None):
        self.rank = rank
        #: the job's liveness table; this mailbox writes row ``rank``
        self._live = live if live is not None else Liveness(rank + 1)
        self._abort = abort
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._messages: list[Envelope] = []
        self._slots: list[PrepostSlot] = []
        self._inbox = inbox
        self._parked = False
        #: threads waiting on the condition (lock held to change it)
        self._waiting = 0
        abort.subscribe(self.wake)

    def wake(self) -> None:
        """Wake this rank's blocked waits to re-check what they wait
        for — an abort, or a peer's store into shared state (a kick)."""
        with self._lock:
            if self._waiting:
                self._cond.notify_all()
        if self._inbox is not None:
            self._inbox.kick()

    # -- the one blocking-wait loop ----------------------------------------

    def _wait(self, find: Callable[[], Any], describe: Callable[[], str],
              timeout: float | None, *, poll: float | None = None,
              watched: bool = True, receive: bool = True,
              drain: bool = True) -> Any:
        """Drain the inbox (procs; a ``find`` that drains itself passes
        ``drain`` false), then call ``find()`` under the lock until it
        returns something other than ``None``; return that.

        Only after the first check misses does the wait write its
        blocked state to its liveness row (unless not ``watched``) and,
        for a ``receive``, count a ``rendezvous_waits``; leaving it, by
        any exit, marks the row running and counts one progress.
        Between checks it parks on the inbox doorbell (the condition on
        threads), for at most ``poll`` seconds when given.  An abort
        raises :class:`DeadlockError`; an explicit ``timeout`` raises
        :class:`TimeoutError` (``timeout <= 0`` means no limit)."""
        inbox = self._inbox if drain else None
        with self._lock:
            if inbox is not None:
                inbox.drain(self)
            got = find()
        if got is not None:
            return got
        desc = describe()
        limit = None if timeout is None else (
            threading.TIMEOUT_MAX if timeout <= 0 else timeout)
        start = time.monotonic()
        if receive:
            # the message is not here yet: this receive pays a real
            # rendezvous wait (two-sided overhead the one-sided tier is
            # designed to remove)
            TRANSPORT_STATS.add("rendezvous_waits")
        if watched:
            self._live.set_blocked(self.rank, desc)
        try:
            with self._lock:
                while True:
                    if inbox is not None:
                        inbox.drain(self)
                    got = find()
                    if got is not None:
                        return got
                    if self._abort.raised:
                        raise DeadlockError(
                            f"rank {self.rank} aborted while blocked in "
                            f"{desc}: {self._abort.reason}",
                            blocked=self._abort.blocked_dump)
                    step = poll
                    if limit is not None:
                        waited = time.monotonic() - start
                        if waited >= limit:
                            raise TimeoutError(
                                f"rank {self.rank}: no match for {desc} "
                                f"after {waited:.2f}s")
                        step = limit - waited if step is None \
                            else min(step, limit - waited)
                    self._park(step)
        finally:
            if watched:
                self._live.set_blocked(self.rank, None)

    def _park(self, timeout: float | None) -> None:
        # caller holds the lock, has drained and found nothing
        inbox = self._inbox
        if inbox is None or self._parked:
            self._waiting += 1
            try:
                self._cond.wait(timeout)
            finally:
                self._waiting -= 1
            return
        self._parked = True
        self._lock.release()
        try:
            inbox.park(timeout)
        finally:
            self._lock.acquire()
            self._parked = False
            if self._waiting:
                self._cond.notify_all()      # hand the doorbell on

    # -- non-mailbox waits (RMA epochs, a full slot or control ring) -------

    def wait_until(self, ready: Callable[[], Any], desc: str, *,
                   poll: float | None = None, timeout: float | None = None,
                   watched: bool = True) -> Any:
        """Check ``ready()`` until it returns something other than
        ``None`` and return that value.

        The wait for shared state no delivery changes (a peer's epoch or
        done counter, a free run of slots, room in a control ring, a
        rendezvous reply): it is recorded as this rank's blocked state
        unless ``watched`` is false, so the watchdog sees it like a
        mailbox wait, and it keeps draining the inbox between checks,
        so incoming messages — and the slots and ring records they hold
        — never wait on it.  It re-checks every ``poll`` seconds, or,
        with no ``poll``, only when woken: the peer whose store ends the
        wait must :meth:`wake` this mailbox after the store (a link's
        ``kick``)."""
        return self._wait(ready, lambda: desc, timeout, poll=poll,
                          watched=watched, receive=False)

    # -- sending ----------------------------------------------------------

    def deliver(self, env: Envelope, live=None) -> None:
        """Called from the *sender's* thread: complete a preposted slot
        directly, else enqueue, and wake receivers.

        ``live`` is a lent (borrowed) view consumed synchronously: it is
        written through an armed slot's sink right here, or snapshotted
        into ``env.payload`` before enqueueing — no alias to the
        sender's storage survives this call either way.
        """
        with self._lock:
            self._deliver_locked(env, live)
            if self._parked:
                self._inbox.kick()

    def _deliver_locked(self, env: Envelope, live=None,
                        want: Optional[tuple[int, int, int]] = None
                        ) -> Optional[Envelope]:
        """:meth:`deliver` with the lock held — also the inbox drain's
        delivery step, whose ``want`` is the draining receive's
        ``(context, source, tag)``: an envelope matching it that no armed
        slot takes is returned, matched, instead of queued."""
        san = _san.ACTIVE
        if san is not None:
            san.env_stamp(env)
        slot = self._match_slot(env) if self._slots else None
        if slot is not None:
            self._slots.remove(slot)
            slot.clock = env.clock
            slot._complete(live if live is not None else env.payload)
            tally = TRANSPORT_STATS.shard()
            tally["direct_deliveries"] += 1
            tally["direct_bytes"] += env.nbytes
            tally["messages_matched"] += 1
        else:
            if live is not None:
                env.payload = payload.snapshot(live)
            if want is not None and _matches(*want, env):
                TRANSPORT_STATS.add("messages_matched")
                if san is not None:
                    san.env_join(env.clock)
                return env
            self._messages.append(env)
            # queued (unconsumed) bytes are resident transfer memory —
            # the O(pairs) term the collective planner exists to bound.
            TRANSPORT_STATS.gauge_add("resident_bytes", env.nbytes)
        if self._waiting:
            self._cond.notify_all()
        return None

    def _match_slot(self, env: Envelope) -> Optional[PrepostSlot]:
        """Oldest armed slot matching ``env`` — but only if no *queued*
        envelope also matches that slot (FIFO: queued messages from the
        same (context, source, tag) stream must complete it first).
        Slot arming drains the queue (see :meth:`prepost`), so in
        practice a matching queued envelope cannot exist; the check
        keeps the invariant local and obvious."""
        for slot in self._slots:
            if slot.matches(env):
                if self._messages and any(
                        slot.matches(m) for m in self._messages):
                    return None
                return slot
        return None

    # -- receiving --------------------------------------------------------

    def _find(self, context: int, source: int, tag: int) -> Optional[int]:
        for i, env in enumerate(self._messages):
            if _matches(context, source, tag, env):
                return i
        return None

    def _take(self, idx: int) -> Envelope:
        # caller holds the lock
        env = self._messages.pop(idx)
        TRANSPORT_STATS.gauge_add("resident_bytes", -env.nbytes)
        TRANSPORT_STATS.add("messages_matched")
        san = _san.ACTIVE
        if san is not None:
            san.env_join(env.clock)
        return env

    def prepost(self, context: int, source: int, tag: int,
                sink: Callable[[Any], int]) -> PrepostSlot:
        """Arm a preposted receive: subsequent matching sends write
        straight through ``sink`` with no staging buffer.

        A message that was already queued when the slot is armed is
        consumed immediately (preserving per-stream FIFO order); the
        returned slot may then already be ``done``.  Complete the slot
        with :meth:`PrepostSlot.wait`.  Arming does not drain the
        inbox: a message still in a control ring completes the slot
        straight out of shared memory on the wait's drain.
        """
        slot = PrepostSlot(self, context, source, tag, sink)
        with self._lock:
            idx = self._find(context, source, tag) if self._messages \
                else None
            if idx is not None:
                slot._complete(self._take(idx).payload)
            else:
                self._slots.append(slot)
        return slot

    def _wait_slot(self, slot: PrepostSlot, timeout: float | None) -> int:
        def find():
            if not slot.done:
                return None
            san = _san.ACTIVE
            if san is not None:
                san.env_join(slot.clock)
            return slot.result

        return self._wait(find, lambda: (
            f"prepost_recv(context={slot.context}, "
            f"source={_spec(slot.source, ANY_SOURCE)}, "
            f"tag={_spec(slot.tag, ANY_TAG)})"), timeout)

    def wait_match(self, context: int, source: int, tag: int,
                   *, timeout: float | None = None) -> Envelope:
        """Block until a matching envelope arrives, then remove and return it.

        One drain-and-match loop: the queue first, then (procs) the
        inbox drain, which hands the first matching record straight to
        this receive.  Raises :class:`DeadlockError` if the job's
        watchdog aborts, or :class:`TimeoutError` if an explicit
        ``timeout`` expires first.  Wakeups are purely event-driven
        (delivery or abort notification).
        """
        inbox, want = self._inbox, (context, source, tag)

        def find():
            if self._messages:
                idx = self._find(context, source, tag)
                if idx is not None:
                    return self._take(idx)
            return inbox.drain(self, want) if inbox is not None else None

        return self._wait(find, lambda: _recv_desc(context, source, tag),
                          timeout, drain=False)

    def wait_match_any(self, specs: "list[tuple[int, int, int]]",
                       *, timeout: float | None = None) -> Envelope:
        """Block until an envelope matches *any* ``(context, source,
        tag)`` spec, then remove and return it (earliest spec wins when
        several match, FIFO within a spec).

        The event-driven serve-loop primitive: one blocked wait covers
        every ingress stream a server drains (collective invocations
        from its expected callers, batch frames from any source, control
        traffic), instead of one lockstep ``recv`` per stream.  Raises
        :class:`DeadlockError` on watchdog abort exactly like
        :meth:`wait_match`.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("wait_match_any needs at least one spec")

        def find():
            for context, source, tag in specs:
                idx = self._find(context, source, tag)
                if idx is not None:
                    return self._take(idx)
            return None

        return self._wait(find, lambda: "recv_any(" + ", ".join(
            _recv_desc(c, s, t)[len("recv"):] for c, s, t in specs) + ")",
            timeout)

    def probe(self, context: int, source: int, tag: int) -> Optional[Envelope]:
        """Non-destructive match test (MPI_Iprobe analogue)."""
        with self._lock:
            if self._inbox is not None:
                self._inbox.drain(self)
            idx = self._find(context, source, tag)
            return self._messages[idx] if idx is not None else None


def _matches(context: int, source: int, tag: int, env: Envelope) -> bool:
    """Does ``env`` match the receive spec ``(context, source, tag)``?"""
    return (env.context == context
            and (source == ANY_SOURCE or env.source == source)
            and (tag == ANY_TAG or env.tag == tag))


def _spec(value: int, wildcard: int) -> Any:
    return "ANY" if value == wildcard else value


def _recv_desc(context: int, source: int, tag: int) -> str:
    return (f"recv(context={context}, "
            f"source={'ANY' if source == ANY_SOURCE else source}, "
            f"tag={'ANY' if tag == ANY_TAG else tag})")
