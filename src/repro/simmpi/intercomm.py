"""Intercommunicators and the name service (MPI Connect/Accept analogue).

Two independently launched SPMD jobs couple by rendezvousing on a
service name: one side calls :meth:`NameService.accept`, the other
:meth:`NameService.connect`.  Each side gets an
:class:`Intercommunicator` whose point-to-point operations address the
*remote* group's ranks — exactly the transport the paper's paired M×N
components (Fig. 3) and distributed frameworks need.

Context ids for the two directions are allocated by the accepting side
and shipped through the rendezvous slot, so intercomm traffic can never
collide with either job's intra-communicators.  The point-to-point
verbs are the intra-communicator's own core
(:class:`~repro.simmpi.communicator._Link`); only the remote group, the
two contexts and the counter keys (``inter_msgs``/``inter_bytes``)
differ.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from repro.errors import CommunicatorError
from repro.simmpi import payload
from repro.simmpi import transport as _transport
from repro.simmpi.communicator import Communicator, _Link, allocate_context

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
                                 remote_job.transport,
                                 remote_job.transport.addresses(remote_ranks))

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
                                 remote_job.transport,
                                 remote_job.transport.addresses(remote_ranks))


def _bcast_handle(comm: Communicator, info: Any) -> Any:
    """Broadcast a tuple containing process-local handles (Job objects)
    without the copy/pickle path."""
    wrapped = payload.Raw(info) if info is not None else None
    got = comm.bcast(wrapped, root=0)
    return got.value if isinstance(got, payload.Raw) else got


#: Process-wide default rendezvous registry.
default_nameservice = NameService()


class Intercommunicator(_Link):
    """Point-to-point channel between two jobs' rank groups.

    ``send(obj, dest)`` addresses rank ``dest`` of the *remote* group;
    ``recv(source)`` matches messages from remote rank ``source``.  The
    local intra-communicator remains available as :attr:`local_comm`.
    The verbs are :class:`~repro.simmpi.communicator.Communicator`'s
    own core; a send counts ``inter_msgs`` and ``inter_bytes``.
    """

    def __init__(self, local_comm: Communicator, recv_context: int,
                 send_context: int, transport: Any, addrs: tuple):
        self.local_comm = local_comm
        self._recv_context = recv_context
        self._send_context = send_context
        #: the transport reaching the remote ranks (the remote job's on
        #: threads, this rank's own on procs) and their addresses
        self._transport = transport
        self._addrs = addrs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Intercommunicator(local {self.rank}/"
                f"{self.local_comm.size}, remote size {self.remote_size})")


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
                          ctx_bwd, ctx_fwd, dst_job.transport,
                          dst_job.transport.addresses(dst_ranks))
        for r in range(src_job.n)]
    dst_inters = [
        Intercommunicator(Communicator(dst_job, ctx_dst, r, dst_ranks),
                          ctx_fwd, ctx_bwd, src_job.transport,
                          src_job.transport.addresses(src_ranks))
        for r in range(dst_job.n)]
    return src_inters, dst_inters
