"""Intercommunicators and the name service (MPI Connect/Accept analogue).

Two independently launched SPMD jobs couple by rendezvousing on a
service name: one side calls :meth:`NameService.accept`, the other
:meth:`NameService.connect`.  Each side gets an
:class:`Intercommunicator` whose point-to-point operations address the
*remote* group's ranks — exactly the transport the paper's paired M×N
components (Fig. 3) and distributed frameworks need.

Context ids for the two directions are allocated by the accepting side
and shipped through the rendezvous slot, so intercomm traffic can never
collide with either job's intra-communicators.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.errors import CommunicatorError
from repro.simmpi import payload
from repro.simmpi import transport as _transport
from repro.simmpi.communicator import Communicator, allocate_context
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simmpi.matching import Envelope, Mailbox
from repro.simmpi.request import Request
from repro.simmpi.status import Status
from repro.simmpi.transport import JobRemoteGroup, RemoteGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.runner import Job


@dataclass
class _Endpoint:
    """One side's contribution to a rendezvous."""

    job: "Job"
    job_ranks: tuple[int, ...]
    recv_context: int  # context this side matches on


class NameService:
    """In-memory rendezvous registry pairing accept/connect calls.

    A single instance is shared by all jobs of a coupled run (pass it to
    both ``fn``s, or use the module-level :data:`default_nameservice`).
    Multiple sequential connections may reuse the same name.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._conds: dict[str, threading.Condition] = {}
        self._accepting: dict[str, _Endpoint] = {}
        self._reply: dict[str, _Endpoint] = {}

    def _cond(self, name: str) -> threading.Condition:
        with self._lock:
            if name not in self._conds:
                self._conds[name] = threading.Condition()
            return self._conds[name]

    def accept(self, name: str, comm: Communicator,
               *, timeout: float = 30.0) -> "Intercommunicator":
        """Collective over ``comm``: publish ``name`` and wait for a
        connector.  Returns the intercommunicator on every rank."""
        runtime = _transport.current_runtime()
        if runtime is not None:
            # procs backend: shared in-process conditions cannot cross
            # ranks — rendezvous through the supervisor's broker thread
            return runtime.rendezvous("accept", name, comm, timeout)
        cond = self._cond(name)
        if comm.rank == 0:
            here = _Endpoint(comm.job, comm.job_ranks, allocate_context())
            peer_ctx = allocate_context()
            with cond:
                if name in self._accepting:
                    raise CommunicatorError(
                        f"service {name!r} is already accepting")
                self._accepting[name] = here
                # Stash the context the connecting side will receive on.
                self._reply[name + ".peer_ctx"] = _Endpoint(
                    comm.job, comm.job_ranks, peer_ctx)
                cond.notify_all()
                ok = cond.wait_for(lambda: name in self._reply, timeout=timeout)
                if not ok:
                    self._accepting.pop(name, None)
                    self._reply.pop(name + ".peer_ctx", None)
                    raise TimeoutError(f"accept({name!r}) timed out")
                remote = self._reply.pop(name)
                self._accepting.pop(name, None)
            info = (here.recv_context, peer_ctx, remote.job, remote.job_ranks)
        else:
            info = None
        recv_ctx, send_ctx, remote_job, remote_ranks = _bcast_handle(comm, info)
        return Intercommunicator(comm, recv_ctx, send_ctx,
                                 remote_job, remote_ranks)

    def connect(self, name: str, comm: Communicator,
                *, timeout: float = 30.0) -> "Intercommunicator":
        """Collective over ``comm``: join the acceptor waiting on ``name``."""
        runtime = _transport.current_runtime()
        if runtime is not None:
            return runtime.rendezvous("connect", name, comm, timeout)
        cond = self._cond(name)
        if comm.rank == 0:
            with cond:
                ok = cond.wait_for(lambda: name in self._accepting,
                                   timeout=timeout)
                if not ok:
                    raise TimeoutError(f"connect({name!r}) timed out")
                remote = self._accepting[name]
                peer = self._reply.pop(name + ".peer_ctx")
                # Hand the acceptor our endpoint; our recv context was
                # allocated by the acceptor (peer.recv_context).
                self._reply[name] = _Endpoint(
                    comm.job, comm.job_ranks, peer.recv_context)
                cond.notify_all()
            info = (peer.recv_context, remote.recv_context,
                    remote.job, remote.job_ranks)
        else:
            info = None
        recv_ctx, send_ctx, remote_job, remote_ranks = _bcast_handle(comm, info)
        return Intercommunicator(comm, recv_ctx, send_ctx,
                                 remote_job, remote_ranks)


def _bcast_handle(comm: Communicator, info: Any) -> Any:
    """Broadcast a tuple containing process-local handles (Job objects)
    without the copy/pickle path."""
    wrapped = payload.Raw(info) if info is not None else None
    got = comm.bcast(wrapped, root=0)
    return got.value if isinstance(got, payload.Raw) else got


#: Process-wide default rendezvous registry.
default_nameservice = NameService()


class Intercommunicator:
    """Point-to-point channel between two jobs' rank groups.

    ``send(obj, dest)`` addresses rank ``dest`` of the *remote* group;
    ``recv(source)`` matches messages from remote rank ``source``.  The
    local intra-communicator remains available as :attr:`local_comm`.
    """

    def __init__(self, local_comm: Communicator, recv_context: int,
                 send_context: int, remote: Any,
                 remote_job_ranks: tuple[int, ...] = ()):
        self.local_comm = local_comm
        self._recv_context = recv_context
        self._send_context = send_context
        if isinstance(remote, RemoteGroup):
            self._remote = remote
        else:
            # historical signature: (remote_job, remote_job_ranks)
            self._remote = JobRemoteGroup(remote, tuple(remote_job_ranks))

    # -- identity ---------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank in the local group."""
        return self.local_comm.rank

    @property
    def local_size(self) -> int:
        return self.local_comm.size

    @property
    def remote_size(self) -> int:
        return self._remote.size

    @property
    def recv_context(self) -> int:
        """The context id this side matches incoming traffic on —
        public so multi-stream receivers (the PRMI serve loop) can
        compose :meth:`wait_any` specs mixing this intercommunicator
        with intra-communicator contexts."""
        return self._recv_context

    def _my_mailbox(self) -> Mailbox:
        job_rank = self.local_comm.job_ranks[self.local_comm.rank]
        return self.local_comm.job.transport.mailbox(job_rank)

    # -- point-to-point -----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not (0 <= dest < self.remote_size):
            raise CommunicatorError(
                f"remote rank {dest} out of range (remote size "
                f"{self.remote_size})")
        data, nbytes, live = payload.wire_parts(
            obj, isolate=self.local_comm.job.transport.isolating)
        self.local_comm.job.counters.add("inter_msgs")
        self.local_comm.job.counters.add("inter_bytes", nbytes)
        self._remote.deliver(
            dest,
            Envelope(self._send_context, self.local_comm.rank, tag,
                     data, nbytes),
            live=live)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             *, timeout: float | None = None,
             return_status: bool = False) -> Any:
        env = self._my_mailbox().wait_match(
            self._recv_context, source, tag, timeout=timeout)
        if return_status:
            return env.payload, Status(env.source, env.tag, env.nbytes)
        return env.payload

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request(value=None)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        def completer(timeout: float | None) -> tuple[Any, Status]:
            env = self._my_mailbox().wait_match(
                self._recv_context, source, tag, timeout=timeout)
            return env.payload, Status(env.source, env.tag, env.nbytes)
        return Request(completer)

    def wait_any(self, specs, *, timeout: float | None = None) -> Envelope:
        """Block until a message matches any ``(context, source, tag)``
        spec and return its :class:`~repro.simmpi.matching.Envelope`.

        Contexts may name this intercommunicator's :attr:`recv_context`
        or any intra-communicator context of the same rank — one blocked
        wait drains every ingress stream an event-driven server watches
        (see :class:`repro.prmi.serving.ServerLoop`).
        """
        return self._my_mailbox().wait_match_any(specs, timeout=timeout)

    def iprobe(self, source: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Optional[Status]:
        env = self._my_mailbox().probe(self._recv_context, source, tag)
        if env is None:
            return None
        return Status(env.source, env.tag, env.nbytes)

    def prepost_recv(self, sink, source: int = ANY_SOURCE,
                     tag: int = ANY_TAG):
        """Arm a preposted receive from remote rank ``source``: a
        matching send writes its payload straight through ``sink`` (no
        staging buffer).  Returns the
        :class:`~repro.simmpi.matching.PrepostSlot`."""
        if source != ANY_SOURCE and not (0 <= source < self.remote_size):
            raise CommunicatorError(
                f"remote rank {source} out of range (remote size "
                f"{self.remote_size})")
        return self._my_mailbox().prepost(
            self._recv_context, source, tag, sink)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Intercommunicator(local {self.rank}/{self.local_size}, "
                f"remote size {self.remote_size})")


def couple_jobs(src_job: "Job", dst_job: "Job",
                ) -> tuple[list[Intercommunicator], list[Intercommunicator]]:
    """Directly construct paired intercommunicators between two jobs.

    The name-service rendezvous needs every rank running on its own
    thread; deterministic single-threaded harnesses (transport tests,
    the A7 steady-state benchmark) instead build the endpoints by hand.
    Returns one intercommunicator per rank of each job
    (``src_inters[i]`` talks to ``dst_inters[j]`` and vice versa) with
    properly isolated contexts — messaging semantics are identical to a
    rendezvous-built pair.
    """
    ctx_src = allocate_context()   # src ranks' local comms
    ctx_dst = allocate_context()   # dst ranks' local comms
    ctx_fwd = allocate_context()   # src -> dst traffic
    ctx_bwd = allocate_context()   # dst -> src traffic
    src_ranks = tuple(range(src_job.n))
    dst_ranks = tuple(range(dst_job.n))
    src_inters = [
        Intercommunicator(Communicator(src_job, ctx_src, r, src_ranks),
                          ctx_bwd, ctx_fwd, dst_job, dst_ranks)
        for r in range(src_job.n)]
    dst_inters = [
        Intercommunicator(Communicator(dst_job, ctx_dst, r, dst_ranks),
                          ctx_fwd, ctx_bwd, src_job, src_ranks)
        for r in range(dst_job.n)]
    return src_inters, dst_inters
