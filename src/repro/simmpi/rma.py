"""One-sided RMA verbs: the *put* pairs of both point-to-point tiers,
on both backends.

An eager pair pays the mailbox on every replayed step: slot acquire,
envelope match, prepost scatter — and, on procs, two copies of its
bytes.  But a compiled :class:`~repro.schedule.indexplan.PairPlan`
already tells each sender *exactly where in the receiver's flat buffer*
its bytes land — so once the receiver exposes that buffer as an RMA
*window*, the sender executes the receiver's scatter plan **directly
into it**: a box pair is one copy, box to box, with no envelope and no
matching.  One fence per step amortizes over all put pairs.

A put is the only rendezvous of :mod:`repro.schedule.executor`: the
``rma`` tier puts every pair, ``two_sided`` the pairs above its eager
limit (MPI's eager/rendezvous split).  The window
(:class:`~repro.simmpi.shm.Window`) is an epoch header over the
destination array's own storage, which :func:`~repro.simmpi.shm.alloc`
made where a peer can reach it: the handle carries the window itself on
threads, and on procs the storage references a writer maps.

Protocol (MPI post-start-complete-wait flavour, one window per
receiving rank with put pairs):

* **Bootstrap** (once, over the ordinary two-sided channel): the
  receiver exposes its window and ships each put peer a
  :class:`WindowHandle` — the window, its dtype, the sender's
  ``done``-counter slot and the receiver-side scatter plan of the pair.
* **epoch_open** (receiver, per step): store ``epoch = k``, then kick
  every writer — remote writes are now licensed.
* **wait_open + put + commit** (sender, per step): park until an
  owner's ``epoch >= k`` — owners are served in the order they open —
  scatter the pair straight into its window, store ``done[i] = k`` and
  kick the owner.
* **fence** (receiver, per step, after its eager sinks have fired):
  park until ``min(done) >= k``; the destination array *is* the window
  payload, so the step's data is simply there.

Seqlock-style torn-read safety: the receiver only reads its array
between ``fence(k)`` and ``epoch_open(k+1)``, and no sender writes in
that span (each is parked on ``epoch >= k+1``).

Waits park and never poll.  A kick (the link's ``kick``) is no message:
it wakes the peer's mailbox — its condition on threads, its doorbell on
procs — and the woken wait re-checks the counter.  Every store precedes
its kick and a wait re-checks under its mailbox lock (threads) or after
absorbing a doorbell post (procs), so no wakeup is lost (``verify
race``'s epoch model).  An abort wakes a parked wait the same way, and
the wait's blocked-state text names the peers it waits on.

Nothing is torn down: a window is storage, and each mapping of it lives
as long as its views (:func:`~repro.simmpi.shm.alloc`), so a closed
transfer just drops its windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.errors import ConnectionError_, ScheduleError
from repro.schedule.indexplan import PairPlan
from repro.simmpi import payload
from repro.simmpi import sanitize as _san
from repro.simmpi.shm import Window
from repro.util.counters import TRANSPORT_STATS

__all__ = ["WindowHandle", "ExposedWindow", "RemoteWindow", "wait_open"]


@dataclass(frozen=True)
class WindowHandle:
    """Bootstrap ticket: everything one sender needs to reach a
    receiver's window and write its pair directly, shipped receiver ->
    sender once when the halves are bound."""

    window: Any        #: the window itself, or its storage references
    dtype: str         #: element dtype (numpy dtype string)
    writer: int        #: this sender's done-counter slot
    plan: PairPlan     #: receiver-side scatter plan for this pair


class ExposedWindow:
    """Receiver side: one rank's destination buffer ``flat`` exposed for
    remote writes by the link ranks ``writers``, plus the epoch verbs
    that sequence them."""

    def __init__(self, link, flat: np.ndarray, writers: Sequence[int]):
        self._win = Window.expose(flat, len(writers))
        self._dtype = flat.dtype.str
        self._link = link
        self._writers = list(writers)
        self._epoch = 0

    def handle(self, writer: int, plan: PairPlan):
        """Writer slot ``writer``'s ticket, ready to send: the storage
        references, or the window itself (never copied) where there are
        none."""
        refs = self._win.refs
        ticket = WindowHandle(refs or self._win, self._dtype, writer, plan)
        return ticket if refs else payload.Raw(ticket)

    def epoch_open(self) -> int:
        """Open the next exposure epoch: remote writes are licensed
        until the matching :meth:`fence` completes."""
        self._epoch += 1
        san = _san.ACTIVE
        if san is not None:
            san.win_open(self._win, self._epoch)
        self._win.set_epoch(self._epoch)
        for peer in self._writers:
            self._link.kick(peer)
        return self._epoch

    def fence(self, *, timeout: float | None = None) -> None:
        """Block until every writer has committed the current epoch; the
        payload then holds that generation in full until the next
        :meth:`epoch_open`."""
        k = self._epoch
        win = self._win
        if win.min_done() < k:
            behind = [peer for i, peer in enumerate(self._writers)
                      if win.done(i) < k]
            self._link._my_mailbox().wait_until(
                lambda: win.min_done() >= k or None,
                f"rma_fence(epoch={k}, writers={behind})", timeout=timeout)
        san = _san.ACTIVE
        if san is not None:
            san.win_fence(win, k)
        TRANSPORT_STATS.add("rma_fences")

    def check_read(self) -> None:
        """``REPRO_TSAN`` read-site hook: record a torn-seqlock-read
        report if the payload is read while an exposure epoch is still
        open (between ``epoch_open`` and the matching ``fence``).
        No-op when the sanitizer is off."""
        san = _san.ACTIVE
        if san is not None:
            san.win_read(self._win)


class RemoteWindow:
    """Sender side: the window of link rank ``owner`` for a pair of
    ``size`` elements, plus the put/commit verbs that execute the
    receiver's scatter plan into it.  The ticket must match the pair:
    both sides compiled the same schedule, or the jobs disagree on tier
    or schedule."""

    def __init__(self, handle: WindowHandle, link, owner: int, size: int):
        if not isinstance(handle, WindowHandle):
            raise ScheduleError(
                f"RMA bootstrap expected a WindowHandle, got "
                f"{type(handle).__name__} — peer is not in one-sided mode?")
        if handle.plan.size != size:
            raise ScheduleError(
                f"RMA bootstrap plan covers {handle.plan.size} elements, "
                f"sender's pair expects {size} — schedule mismatch")
        win = handle.window
        if not isinstance(win, Window):
            try:
                win = Window.attach(win)
            except FileNotFoundError:
                raise ConnectionError_(
                    f"window {win[0][0]} is gone: the receiving side "
                    f"closed its transfer before this side bound") from None
        self._win = win
        self.buffer = win.data.view(np.dtype(handle.dtype))
        self._plan = handle.plan
        self._writer = handle.writer
        self._link = link
        self.owner = owner

    def put(self, values: np.ndarray, *, loan=None) -> int:
        """Scatter one pair's elements — a packed buffer, or the
        sender's lent strided view, copied box to box — straight into
        the remote window via the receiver's compiled plan (``loan`` as
        in :meth:`~repro.schedule.indexplan.PairPlan.scatter`).
        Returns the element count.  Must only run inside an open
        exposure epoch (:func:`wait_open`)."""
        san = _san.ACTIVE
        if san is not None:
            san.win_put(self._win, self._writer)
        n = self._plan.scatter(self.buffer, values, loan=loan)
        TRANSPORT_STATS.add("rma_puts")
        TRANSPORT_STATS.add("rma_put_bytes", n * self.buffer.itemsize)
        return n

    def commit(self, epoch: int) -> None:
        """Publish this writer's puts for ``epoch``: store the done
        counter the owner's fence waits on, then kick the owner."""
        san = _san.ACTIVE
        if san is not None:
            san.win_commit(self._win, self._writer, epoch)
        self._win.set_done(self._writer, epoch)
        self._link.kick(self.owner)


def wait_open(puts: Sequence[tuple[Any, RemoteWindow]], epoch: int, *,
              tag: int) -> Iterator[tuple[Any, RemoteWindow]]:
    """Yield each ``(pair, window)`` of ``puts`` once the window's owner
    has opened exposure epoch ``epoch``, in the order the owners open
    it.  While none of the rest is open the writer parks — one
    ``rma_epoch_waits`` — until an owner's kick; ``tag`` is the data
    tag its watchdog text names."""
    pending = list(puts)

    def opened():
        for i, (_, rwin) in enumerate(pending):
            if rwin._win.epoch() >= epoch:
                return i
        return None

    while pending:
        i = opened()
        if i is None:
            TRANSPORT_STATS.add("rma_epoch_waits")
            owners = [rwin.owner for _, rwin in pending]
            i = pending[0][1]._link._my_mailbox().wait_until(
                opened, f"rma_put(owners={owners}, tag={tag}, epoch={epoch})")
        item = pending.pop(i)
        san = _san.ACTIVE
        if san is not None:
            san.win_wait_open(item[1]._win, epoch)
        yield item
