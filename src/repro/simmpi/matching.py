"""Per-rank mailboxes with MPI-style (context, source, tag) matching.

Each rank of each job owns one :class:`Mailbox`.  Senders append
:class:`Envelope` objects; receivers block until a matching envelope is
present.  Matching is FIFO *per (context, source, tag)* — the MPI
non-overtaking rule: two messages from the same source with matching
tags are received in send order.

Blocking receivers write what they are waiting for — once their first
check has missed — into their rank's row of the job's
:class:`~repro.simmpi.shm.Liveness` table, so the watchdog can produce
a rank-state dump on deadlock.  Abort is fully event-driven:
:meth:`AbortFlag.set` wakes every subscribed mailbox, so a blocked
receive raises immediately instead of noticing the flag on the next
poll tick.

On the procs backend a mailbox also owns the rank's *inbox*, its
incoming shared-memory control rings: every entry point drains them
into ordinary matching before it checks, and a blocked wait parks on
the inbox doorbell instead of the condition — only once the rings are
empty, so no wakeup is lost.

The zero-copy transport hook lives here.  :meth:`Mailbox.prepost`
arms a **preposted receive** (``MPI_Recv_init`` / rendezvous-RDMA
analogue): the receiver registers a destination *sink* before the
message exists, and a matching send writes its bytes straight through
the sink — in the sender's thread, with no staging buffer and no queue
traversal on receipt.  Borrowed (lent-view) payloads hit their fast
path here: the view is consumed synchronously inside ``deliver``, so
no alias to the sender's storage ever survives, and when no slot is
armed the view degrades to a snapshot — value semantics either way.

FIFO safety: ``prepost`` first drains the oldest matching *queued*
envelope, and ``deliver`` only completes a slot when no queued envelope
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
    seq: int = 0
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
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._waiters: list[Callable[[], None]] = []
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
            if not self._event.is_set():
                self.reason = reason
                self.blocked_dump = blocked
                self._event.set()
            waiters = list(self._waiters)
        for wake in waiters:
            wake()

    def is_set(self) -> bool:
        return self._event.is_set()


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
        if env.context != self.context:
            return False
        if self.source != ANY_SOURCE and env.source != self.source:
            return False
        return self.tag == ANY_TAG or env.tag == self.tag

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
    handed the doorbell when the parker leaves.
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
        self._seq = 0
        self._inbox = inbox
        self._parked = False
        abort.subscribe(self._wake)

    def _wake(self) -> None:
        with self._cond:
            self._cond.notify_all()
        if self._inbox is not None:
            self._inbox.kick()

    def _drain(self) -> None:
        # caller holds the lock
        if self._inbox is not None:
            self._inbox.drain(self)

    # -- the one blocking-wait loop ----------------------------------------

    def _wait(self, find: Callable[[], Any], describe: Callable[[], str],
              timeout: float | None, *, poll: float | None = None,
              watched: bool = True) -> Any:
        """Drain, then call ``find()`` under the lock until it returns
        something other than ``None``; return that.

        Only after the first check misses does the wait record this
        rank's blocked state in its liveness row (the watchdog input)
        and count a ``rendezvous_waits`` (receives only: ``poll`` waits
        are for shared state no delivery changes); leaving the wait, by
        any exit, marks the row running and counts one progress.
        Between checks it parks on the inbox doorbell — the condition
        on the threads backend — for at most ``poll`` seconds when
        given.  An unwatched wait writes nothing to the row.  An abort raises
        :class:`DeadlockError`; an explicit ``timeout`` raises
        :class:`TimeoutError` (``timeout <= 0`` means no limit)."""
        with self._cond:
            self._drain()
            got = find()
        if got is None:
            got = self._wait_blocked(find, describe(), timeout, poll,
                                     watched)
        return got

    def _wait_blocked(self, find, desc: str, timeout, poll,
                      watched: bool) -> Any:
        limit = None if timeout is None else (
            threading.TIMEOUT_MAX if timeout <= 0 else timeout)
        start = time.monotonic()
        if poll is None:
            # the message is not here yet: this receive pays a real
            # rendezvous wait (two-sided overhead the one-sided tier is
            # designed to remove)
            TRANSPORT_STATS.add("rendezvous_waits")
        if watched:
            self._live.set_blocked(self.rank, desc)
        try:
            with self._cond:
                while True:
                    self._drain()
                    got = find()
                    if got is not None:
                        return got
                    if self._abort.is_set():
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
                self._live.bump(self.rank)

    def _park(self, timeout: float | None) -> None:
        # caller holds the lock, has drained and found nothing
        inbox = self._inbox
        if inbox is None or self._parked:
            self._cond.wait(timeout)
            return
        self._parked = True
        self._cond.release()
        try:
            inbox.park(timeout)
        finally:
            self._cond.acquire()
            self._parked = False
            self._cond.notify_all()      # hand the doorbell on

    # -- non-mailbox waits (RMA epochs, a full slot or control ring) -------

    def wait_until(self, ready: Callable[[], Any], desc: str, *,
                   poll: float, timeout: float | None = None,
                   watched: bool = True) -> Any:
        """Poll ``ready()`` until it returns something other than
        ``None`` and return that value.

        The wait for shared-memory state no condition variable spans (a
        peer's epoch or done counter, a free run of slots, room in a
        control ring, a rendezvous reply): it is recorded as this rank's
        blocked state unless ``watched`` is false, so the watchdog sees
        it like a mailbox wait, and it keeps draining the inbox between
        polls, so incoming messages — and the slots and ring records
        they hold — never wait on it."""
        return self._wait(ready, lambda: desc, timeout, poll=poll,
                          watched=watched)

    # -- sending ----------------------------------------------------------

    def deliver(self, env: Envelope, live=None) -> None:
        """Called from the *sender's* thread: complete a preposted slot
        directly, else enqueue, and wake receivers.

        ``live`` is a lent (borrowed) view consumed synchronously: it is
        written through an armed slot's sink right here, or snapshotted
        into ``env.payload`` before enqueueing — no alias to the
        sender's storage survives this call either way.
        """
        with self._cond:
            self._deliver_locked(env, live)
            if self._parked:
                self._inbox.kick()

    def _deliver_locked(self, env: Envelope, live=None) -> None:
        """:meth:`deliver` with the lock held — also the inbox drain's
        delivery step."""
        san = _san.ACTIVE
        if san is not None:
            san.env_stamp(env)
        slot = self._match_slot(env)
        if slot is not None:
            self._slots.remove(slot)
            slot.clock = env.clock
            slot._complete(live if live is not None else env.payload)
            TRANSPORT_STATS.add("direct_deliveries")
            TRANSPORT_STATS.add("direct_bytes", env.nbytes)
            TRANSPORT_STATS.add("messages_matched")
        else:
            if live is not None:
                env.payload = payload.snapshot(live)
            self._seq += 1
            env.seq = self._seq
            self._messages.append(env)
            # queued (unconsumed) bytes are resident transfer memory —
            # the O(pairs) term the collective planner exists to bound.
            TRANSPORT_STATS.gauge_add("resident_bytes", env.nbytes)
        self._cond.notify_all()

    def _match_slot(self, env: Envelope) -> Optional[PrepostSlot]:
        """Oldest armed slot matching ``env`` — but only if no *queued*
        envelope also matches that slot (FIFO: queued messages from the
        same (context, source, tag) stream must complete it first).
        Slot arming drains the queue (see :meth:`prepost`), so in
        practice a matching queued envelope cannot exist; the check
        keeps the invariant local and obvious."""
        for slot in self._slots:
            if slot.matches(env):
                if any(slot.matches(m) for m in self._messages):
                    return None
                return slot
        return None

    # -- receiving --------------------------------------------------------

    def _find(self, context: int, source: int, tag: int) -> Optional[int]:
        for i, env in enumerate(self._messages):
            if env.context != context:
                continue
            if source != ANY_SOURCE and env.source != source:
                continue
            if tag != ANY_TAG and env.tag != tag:
                continue
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
        with self._cond:
            idx = self._find(context, source, tag)
            if idx is not None:
                env = self._messages.pop(idx)
                TRANSPORT_STATS.gauge_add("resident_bytes", -env.nbytes)
                san = _san.ACTIVE
                if san is not None:
                    san.env_join(env.clock)
                slot._complete(env.payload)
                TRANSPORT_STATS.add("messages_matched")
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

        Raises :class:`DeadlockError` if the job's watchdog aborts, or
        :class:`TimeoutError` if an explicit ``timeout`` expires first.
        Wakeups are purely event-driven (delivery or abort notification).
        """
        def find():
            idx = self._find(context, source, tag)
            return None if idx is None else self._take(idx)

        return self._wait(find, lambda: _recv_desc(context, source, tag),
                          timeout)

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
        with self._cond:
            self._drain()
            idx = self._find(context, source, tag)
            return self._messages[idx] if idx is not None else None

    def pending_count(self) -> int:
        with self._cond:
            self._drain()
            return len(self._messages)


def _spec(value: int, wildcard: int) -> Any:
    return "ANY" if value == wildcard else value


def _recv_desc(context: int, source: int, tag: int) -> str:
    return (f"recv(context={context}, source={_spec(source, ANY_SOURCE)}, "
            f"tag={_spec(tag, ANY_TAG)})")
