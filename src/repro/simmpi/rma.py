"""One-sided RMA verbs: the *put* pairs of persistent channels (procs
backend).

An eager pair pays the mailbox on every replayed step: slot acquire,
envelope match, prepost scatter — and two copies of its bytes (into the
slot, out of it).  But a compiled
:class:`~repro.schedule.indexplan.PairPlan` already tells each sender
*exactly where in the receiver's flat buffer* its bytes land — so once
the receiver exposes that buffer as an RMA *window*
(:class:`~repro.simmpi.shm.WindowSegment`), the sender can execute the
receiver's scatter plan **directly into remote memory**: a box pair is
a single cross-process copy, the sender's strided box straight into the
receiver's, with no slot ring, no envelope, and no per-message matching.
Per-epoch fences replace rendezvous, so one fence amortizes over all
put pairs in a step.

Both point-to-point tiers of :mod:`repro.schedule.executor` use these
verbs, through the same two halves: the ``rma`` tier for every pair, the
``two_sided`` tier for pairs above
:data:`~repro.schedule.executor.EAGER_MAX` wire bytes (MPI's
eager/rendezvous split; the pairs below stay eager messages, and a
transport with no windows opens the pairs above with a ready token
instead).

Protocol (MPI post-start-complete-wait flavour, one window per
receiving rank with put pairs):

* **Bootstrap** (once, over the ordinary two-sided channel): the
  receiver creates its window, moves its destination array's storage
  into the window payload, and ships each put peer a
  :class:`WindowHandle` — segment name, geometry, the sender's
  ``done``-counter slot, and the receiver-side scatter plan for that
  pair.
* **epoch_open** (receiver, per step): store ``epoch = k``.  This is
  the exposure epoch — remote writes are now licensed.
* **wait_open + put + commit** (sender, per step): spin until
  ``epoch >= k`` (abort-aware, watchdog-visible), scatter the pair's
  bytes straight into the window payload, then store ``done[i] = k``
  to publish them.
* **fence** (receiver, per step, after its eager sinks have fired):
  spin until ``min(done) >= k``.  The destination array *is* the window
  payload, so after the fence the step's data is simply there.

Seqlock-style torn-read safety: the receiver only reads its array
between ``fence(k)`` and ``epoch_open(k+1)``, and no sender writes in
that span (each is spinning on ``epoch >= k+1``) — so a reader
observes generation ``k`` in full, never a mix.

The spin waits have no cross-process condition variable to sleep on;
they poll through :meth:`~repro.simmpi.matching.Mailbox.wait_until`,
which backs off on the job's abort flag (waking immediately on abort)
and registers a blocked-state description so the deadlock watchdog
sees RMA waits exactly like mailbox waits.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConnectionError_, ScheduleError
from repro.schedule.indexplan import PairPlan
from repro.simmpi import sanitize as _san
from repro.simmpi.matching import Mailbox
from repro.simmpi.shm import WindowSegment
from repro.util.counters import TRANSPORT_STATS

__all__ = ["WindowHandle", "ExposedWindow", "RemoteWindow"]

#: Backoff between shared-counter polls in epoch waits.  Short enough
#: that a steady-state step never stalls measurably, long enough that a
#: blocked rank does not burn a core.
RMA_POLL = 0.0002


@dataclass(frozen=True)
class WindowHandle:
    """Picklable bootstrap ticket: everything one sender needs to attach
    a receiver's window and write its pair directly.

    Shipped receiver -> sender exactly once over the ordinary two-sided
    channel when the persistent halves are bound; after that the pair's
    data plane never touches the mailbox again.
    """

    name: str          #: shared-memory segment name
    nbytes: int        #: payload size (the receiver's flat buffer)
    dtype: str         #: element dtype (numpy dtype string)
    nwriters: int      #: total writers on this window
    writer: int        #: this sender's done-counter slot
    plan: PairPlan     #: receiver-side scatter plan for this pair


def _close_owner(seg: WindowSegment) -> None:
    seg.close()
    seg.unlink()


def _close_writer(seg: WindowSegment) -> None:
    seg.close()


class ExposedWindow:
    """Receiver side: one rank's destination buffer exposed for remote
    writes, plus the epoch verbs that sequence them."""

    def __init__(self, nbytes: int, dtype, nwriters: int,
                 mailbox: Mailbox):
        self._seg = WindowSegment(nbytes, nwriters)
        #: Typed flat view of the window payload — the new home of the
        #: destination array's consolidated base buffer.
        self.buffer = self._seg.data.view(np.dtype(dtype))
        self._mailbox = mailbox
        self._epoch = 0
        self._finalizer = weakref.finalize(self, _close_owner, self._seg)

    @property
    def name(self) -> str:
        return self._seg.name

    @property
    def epoch(self) -> int:
        return self._epoch

    def handle(self, writer: int, plan: PairPlan) -> WindowHandle:
        """The bootstrap ticket for writer slot ``writer``."""
        return WindowHandle(self._seg.name, self._seg.nbytes,
                            np.dtype(self.buffer.dtype).str,
                            self._seg.nwriters, writer, plan)

    def epoch_open(self) -> int:
        """Open the next exposure epoch: remote writes are licensed
        until the matching :meth:`fence` completes."""
        self._epoch += 1
        san = _san.ACTIVE
        if san is not None:
            san.win_open(self._seg, self._epoch)
        self._seg.set_epoch(self._epoch)
        return self._epoch

    def fence(self, *, timeout: float | None = None) -> None:
        """Block until every writer has committed the current epoch.

        After this returns the window payload holds generation
        ``epoch`` in full; the receiver may read it until the next
        :meth:`epoch_open`.
        """
        k = self._epoch
        seg = self._seg
        if seg.min_done() < k:
            self._mailbox.wait_until(
                lambda: seg.min_done() >= k or None,
                f"rma_fence(window={seg.name}, epoch={k})",
                poll=RMA_POLL, timeout=timeout)
        san = _san.ACTIVE
        if san is not None:
            san.win_fence(seg, k)
        TRANSPORT_STATS.add("rma_fences")

    def check_read(self) -> None:
        """``REPRO_TSAN`` read-site hook: record a torn-seqlock-read
        report if the payload is read while an exposure epoch is still
        open (between ``epoch_open`` and the matching ``fence``).
        No-op when the sanitizer is off."""
        san = _san.ACTIVE
        if san is not None:
            san.win_read(self._seg)

    def close(self) -> None:
        """Tear the window down (close + unlink; owner side)."""
        self._finalizer()


class RemoteWindow:
    """Sender side: an attached peer window plus the put/commit verbs
    that execute the receiver's scatter plan into it."""

    def __init__(self, handle: WindowHandle, mailbox: Mailbox):
        try:
            self._seg = WindowSegment.attach(handle.name, handle.nbytes,
                                             handle.nwriters)
        except FileNotFoundError:
            raise ConnectionError_(
                f"window {handle.name} is gone: the receiving side closed "
                f"its transfer before this side bound") from None
        self.buffer = self._seg.data.view(np.dtype(handle.dtype))
        self._plan = handle.plan
        self._writer = handle.writer
        self._mailbox = mailbox
        self._finalizer = weakref.finalize(self, _close_writer, self._seg)

    @property
    def plan(self) -> PairPlan:
        return self._plan

    def wait_open(self, epoch: int, *, timeout: float | None = None) -> None:
        """Spin until the owner has opened exposure epoch ``epoch``."""
        seg = self._seg
        if seg.epoch() < epoch:
            TRANSPORT_STATS.add("rma_epoch_waits")
            self._mailbox.wait_until(
                lambda: seg.epoch() >= epoch or None,
                f"rma_put(window={seg.name}, epoch={epoch})",
                poll=RMA_POLL, timeout=timeout)
        san = _san.ACTIVE
        if san is not None:
            san.win_wait_open(seg, epoch)

    def put(self, values: np.ndarray, *, loan=None) -> int:
        """Scatter one pair's elements — a packed buffer, or the
        sender's lent strided view, copied box to box — straight into
        the remote window via the receiver's compiled plan (``loan`` as
        in :meth:`~repro.schedule.indexplan.PairPlan.scatter`).
        Returns the element count.  Must only run inside an open
        exposure epoch (:meth:`wait_open`)."""
        san = _san.ACTIVE
        if san is not None:
            san.win_put(self._seg, self._writer)
        n = self._plan.scatter(self.buffer, values, loan=loan)
        TRANSPORT_STATS.add("rma_puts")
        TRANSPORT_STATS.add("rma_put_bytes", n * self.buffer.itemsize)
        return n

    def commit(self, epoch: int) -> None:
        """Publish this writer's puts for ``epoch`` (store the done
        counter the owner's fence spins on)."""
        san = _san.ACTIVE
        if san is not None:
            san.win_commit(self._seg, self._writer, epoch)
        self._seg.set_done(self._writer, epoch)

    def close(self) -> None:
        """Detach from the window (close only; the owner unlinks)."""
        self._finalizer()


def check_handle(handle: WindowHandle, expected_size: int) -> WindowHandle:
    """Validate a bootstrap ticket against the sender's own pair plan:
    both sides compiled the same schedule, so the element counts must
    agree — a mismatch means the jobs disagree on mode or schedule."""
    if not isinstance(handle, WindowHandle):
        raise ScheduleError(
            f"RMA bootstrap expected a WindowHandle, got "
            f"{type(handle).__name__} — peer is not in one-sided mode?")
    if handle.plan.size != expected_size:
        raise ScheduleError(
            f"RMA bootstrap plan covers {handle.plan.size} elements, "
            f"sender's pair expects {expected_size} — schedule mismatch")
    return handle
