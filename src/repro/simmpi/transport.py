"""Pluggable execution backends: how a job's ranks exchange bytes.

The runtime supports two backends, selected per job at launch time
(``run_spmd(..., backend=...)`` / ``run_coupled(..., backend=...)`` or
the ``REPRO_BACKEND`` environment variable):

* ``"threads"`` — the historical backend: every rank is a thread of one
  process and a send is an in-process object handoff into the
  destination rank's :class:`~repro.simmpi.matching.Mailbox`.  Cheap to
  launch and fully deterministic, but packing, protocol work and
  scatters all serialize on the GIL.
* ``"procs"`` — every rank is a real ``multiprocessing`` process and
  message payloads travel through ``multiprocessing.shared_memory``
  slot rings (:mod:`repro.simmpi.shm` / :mod:`repro.simmpi.procs`), so
  the copy phases of a redistribution run truly concurrently.

Both backends implement the small :class:`Transport` contract this
module defines.  Everything above it — communicators, collectives,
intercommunicators, the persistent engines, :mod:`repro.highlevel` —
is backend-agnostic: it delivers through ``job.transport`` and never
touches mailboxes of other ranks directly.

The matching semantics (per-``(context, source, tag)`` FIFO, preposted
recv-into-destination slots, event-driven abort) live in
:class:`~repro.simmpi.matching.Mailbox` and are shared by both
backends: the procs backend runs one local mailbox per rank process
that drains the rank's incoming shared-memory control rings at every
entry point.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.simmpi.matching import AbortFlag, Envelope, Mailbox
from repro.simmpi.shm import HeapWindow, Liveness

__all__ = [
    "Transport",
    "ThreadTransport",
    "current_runtime",
    "set_current_runtime",
]

class Transport:
    """Backend contract: deliver to any rank, receive on the local one.

    ``isolating`` tells :meth:`repro.simmpi.payload.wire_parts` whether
    plain array payloads need a defensive copy at send time.  The
    threads backend does (the handed-off object *is* the wire); the
    procs backend does not — writing the bytes into a shared slot is
    itself the isolating copy, so the defensive copy would be pure
    waste.
    """

    backend = "?"
    #: Whether plain payloads must be isolated before :meth:`deliver`.
    isolating = True
    #: The RMA window a rank exposes (:mod:`repro.simmpi.rma`): ranks
    #: sharing an address space expose the destination array itself.
    window = HeapWindow

    def mailbox(self, job_rank: int) -> Mailbox:
        """The local mailbox of ``job_rank`` (receive side).

        Backends may only support the calling rank's own mailbox (the
        procs backend has no in-process view of its peers).
        """
        raise NotImplementedError

    def deliver(self, job_rank: int, env: Envelope, live=None) -> None:
        """Send ``env`` (with optional lent view ``live``) to a rank of
        this job.  Must consume ``live`` synchronously — no alias to the
        sender's storage may survive the call."""
        raise NotImplementedError

    def kick(self, job_rank: int) -> None:
        """Wake a rank of this job parked on shared state this rank
        just stored — no message, nothing to match."""
        raise NotImplementedError


class ThreadTransport(Transport):
    """The threads backend: one in-process mailbox per rank."""

    backend = "threads"
    isolating = True

    def __init__(self, n: int, abort: AbortFlag, live: Liveness):
        self.mailboxes = [Mailbox(r, abort, live) for r in range(n)]

    def mailbox(self, job_rank: int) -> Mailbox:
        return self.mailboxes[job_rank]

    def deliver(self, job_rank: int, env: Envelope, live=None) -> None:
        self.mailboxes[job_rank].deliver(env, live=live)

    def kick(self, job_rank: int) -> None:
        self.mailboxes[job_rank].wake()


# -- procs-backend rank runtime registry -------------------------------------
#
# When a process is a rank of a procs-backend domain, the module-global
# runtime handle lets backend-aware code (NameService rendezvous, the
# benchmarks' stats collection) discover the domain without threading it
# through every call signature.  ``None`` everywhere else — including in
# the parent/supervisor process and in all threads-backend runs.

_current_runtime: Any = None


def current_runtime():
    """The :class:`repro.simmpi.procs.ProcRuntime` of this process, or
    ``None`` when this process is not a procs-backend rank."""
    return _current_runtime


def set_current_runtime(runtime) -> None:
    global _current_runtime
    _current_runtime = runtime


def current_endpoint():
    """Endpoint id of this rank process's runtime, or ``None`` outside
    one (threads backend, supervisor process).  The race sanitizer's
    single-writer attribution hook: :class:`~repro.simmpi.shm.
    SharedState` watchdog fields must only be written by the process
    owning the endpoint, and this is the identity that claim is checked
    against."""
    rt = _current_runtime
    return getattr(rt, "endpoint", None) if rt is not None else None


class JobRemoteGroup:
    """Delivery handle for ranks of a job through its transport: a
    communicator's own ranks on either backend, an intercommunicator's
    remote job on threads."""

    def __init__(self, job, job_ranks: Sequence[int]):
        self.job = job
        self.job_ranks = tuple(job_ranks)

    def deliver(self, idx: int, env: Envelope, live=None) -> None:
        self.job.transport.deliver(self.job_ranks[idx], env, live=live)

    def kick(self, idx: int) -> None:
        self.job.transport.kick(self.job_ranks[idx])

    @property
    def size(self) -> int:
        return len(self.job_ranks)


class EndpointRemoteGroup:
    """The procs twin of :class:`JobRemoteGroup`: the remote ranks are
    global domain endpoints."""

    def __init__(self, transport, endpoints: Sequence[int]):
        self._transport = transport
        self.endpoints = tuple(endpoints)

    def deliver(self, idx: int, env: Envelope, live=None) -> None:
        self._transport.deliver_endpoint(self.endpoints[idx], env, live=live)

    def kick(self, idx: int) -> None:
        self._transport.kick_endpoint(self.endpoints[idx])

    @property
    def size(self) -> int:
        return len(self.endpoints)
