"""Pluggable execution backends: how a job's ranks exchange bytes.

Two backends, selected per job at launch (``run_spmd(...,
backend=...)`` / ``run_coupled(..., backend=...)`` or the
``REPRO_BACKEND`` knob):

* ``"threads"`` — every rank is a thread of one process; a send is an
  in-process hand-off into the destination rank's
  :class:`~repro.simmpi.matching.Mailbox`.  Cheap to launch and
  deterministic, but packing and scatters serialize on the GIL.
* ``"procs"`` — every rank is a process; a send is one descriptor
  record (and slot run) in shared memory (:mod:`repro.simmpi.shm` /
  :mod:`repro.simmpi.procs`), so copy phases run truly concurrently.

Both implement the small :class:`Transport` contract.  A link
(:class:`~repro.simmpi.communicator._Link`) resolves its remote ranks'
addresses once, so every send is one ``transport.send`` call; everything
above it is backend-agnostic.  Receiving is the shared
:class:`~repro.simmpi.matching.Mailbox`, which on procs drains the
rank's incoming control rings itself.
"""


from __future__ import annotations

from typing import Any, Sequence

from repro.simmpi import payload
from repro.simmpi.matching import AbortFlag, Envelope, Mailbox
from repro.simmpi.shm import HeapWindow, Liveness

__all__ = [
    "Transport",
    "ThreadTransport",
    "current_runtime",
    "set_current_runtime",
]

class Transport:
    """Backend contract: send to any rank, receive on the local one.

    * ``mailbox(job_rank)`` — the local mailbox of ``job_rank`` (receive
      side); a backend may support only the calling rank's own (procs
      has no in-process view of its peers).
    * ``addresses(job_ranks)`` — what ``send`` and ``kick`` take for
      ranks of this transport's job: a job rank on threads, a domain
      endpoint on procs.  A link resolves its remote group's addresses
      once, so a send is one call.
    * ``send(addr, context, source, tag, obj)`` — send ``obj`` and
      return its wire byte count.  Plain payloads go by value and a
      :class:`~repro.simmpi.payload.Borrowed` lend is consumed before
      the call returns: no alias to the sender's storage survives.
    * ``kick(addr)`` — wake the rank at ``addr`` parked on shared state
      this rank just stored: no message, nothing to match.
    """

    backend = "?"
    #: The RMA window a rank exposes (:mod:`repro.simmpi.rma`): ranks
    #: sharing an address space expose the destination array itself.
    window = HeapWindow


class ThreadTransport(Transport):
    """The threads backend: one in-process mailbox per rank, addressed
    by job rank."""

    backend = "threads"

    def __init__(self, n: int, abort: AbortFlag, live: Liveness):
        self.mailboxes = [Mailbox(r, abort, live) for r in range(n)]

    def mailbox(self, job_rank: int) -> Mailbox:
        return self.mailboxes[job_rank]

    def addresses(self, job_ranks: Sequence[int]) -> tuple[int, ...]:
        return tuple(job_ranks)

    def send(self, addr: int, context: int, source: int, tag: int,
             obj: Any) -> int:
        # the handed-off object *is* the wire: plain payloads are copied
        data, nbytes, live = payload.wire_parts(obj)
        self.mailboxes[addr].deliver(
            Envelope(context, source, tag, data, nbytes), live)
        return nbytes

    def kick(self, addr: int) -> None:
        self.mailboxes[addr].wake()


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
