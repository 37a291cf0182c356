"""Intra-job communicators: tagged point-to-point plus collectives.

A :class:`Communicator` spans a subset of a job's ranks.  Messages are
matched on a per-communicator context id, so overlapping communicators
(e.g. those produced by :meth:`Communicator.split`) never interfere —
the property DCA relies on to scope process participation (paper §4.3).

Collectives are implemented over point-to-point with internal tags.  A
per-rank collective sequence counter keeps internal tags aligned, which
is sound under the usual MPI rule that all ranks of a communicator call
collectives in the same order.

``barrier``/``bcast``/``gather`` (and through them ``allgather``,
``reduce``, ``allreduce``, ``scan``, ``dup``, ``split``) run binomial
log-P tree algorithms by default: the total message count is identical
to the historical flat loops (P-1 per rooted collective, 2(P-1) per
barrier), but the critical path shrinks from O(P) serialized sends at
the root to O(log P) levels, which is what the coupling benchmarks and
the DCA engine sit on top of.  Set :attr:`Communicator.coll_algo` to
``"flat"`` (consistently on every rank) to restore the flat loops —
kept for the tree-vs-flat equivalence tests.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi import payload
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, INTERNAL_TAG_BASE
from repro.simmpi.matching import Envelope, Mailbox
from repro.simmpi.ops import resolve_op
from repro.simmpi.request import Request
from repro.simmpi.status import Status

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simmpi.runner import Job

# Global context-id allocator: unique across all jobs in the process so
# intercommunicators bridging two jobs can never collide.
_context_lock = threading.Lock()
_next_context = 1


def allocate_context() -> int:
    global _next_context
    with _context_lock:
        cid = _next_context
        _next_context += 1
        return cid


class _TreeRaw:
    """Marker carrying a ``payload.Raw`` value down the bcast tree.

    Lets intermediate ranks recognize that the value they are relaying
    is a process-local handle and must be re-wrapped in ``Raw`` (zero
    copy, never pickled) before forwarding to their children.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


class Communicator:
    """An ordered group of ranks with isolated message context."""

    #: Collective algorithm: "tree" (binomial, log-P critical path) or
    #: "flat" (the historical root-serialized loops).  Every rank of a
    #: communicator must use the same value.
    coll_algo = "tree"

    def __init__(self, job: "Job", context: int, rank: int,
                 job_ranks: Sequence[int]):
        self.job = job
        self.context = context
        self._rank = rank
        #: communicator rank -> job rank
        self.job_ranks = tuple(job_ranks)
        self._coll_seq = 0

    # -- identity -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self.job_ranks)

    @property
    def counters(self):
        """The owning job's instrumentation counters."""
        return self.job.counters

    def _mailbox(self, comm_rank: int) -> Mailbox:
        # receive-side only: backends may restrict this to the calling
        # rank's own mailbox (the procs backend has no in-process peers)
        return self.job.transport.mailbox(self.job_ranks[comm_rank])

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise CommunicatorError(
                f"{what} rank {r} out of range for size-{self.size} communicator")

    # -- point-to-point ------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send: isolates ``obj`` and returns immediately.

        Plain payloads are copied (value semantics) and
        :class:`~repro.simmpi.payload.Borrowed` lends; either way the
        caller may reuse its buffer once this returns — see
        :mod:`repro.simmpi.payload` for the ownership contract.
        """
        self._check_rank(dest, "destination")
        transport = self.job.transport
        data, nbytes, live = payload.wire_parts(
            obj, isolate=transport.isolating)
        # Collective-internal protocol traffic is counted separately so
        # benchmarks can report application data movement alone.
        kind = "internal_msgs" if tag >= INTERNAL_TAG_BASE else "msgs"
        self.job.counters.add(kind)
        self.job.counters.add("bytes", nbytes)
        self.job.counters.add(f"rank{self.job_ranks[dest]}.rx_bytes", nbytes)
        transport.deliver(
            self.job_ranks[dest],
            Envelope(self.context, self._rank, tag, data, nbytes),
            live=live)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             *, timeout: float | None = None,
             return_status: bool = False) -> Any:
        """Blocking receive; returns the payload (and optionally a Status)."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        env = self._mailbox(self._rank).wait_match(
            self.context, source, tag, timeout=timeout)
        if return_status:
            return env.payload, Status(env.source, env.tag, env.nbytes)
        return env.payload

    @property
    def recv_context(self) -> int:
        """The context id this communicator matches incoming traffic on
        — :attr:`context`; named as on an intercommunicator, so a
        :meth:`wait_any` spec is built the same way over either link."""
        return self.context

    def wait_any(self, specs, *, timeout: float | None = None) -> Envelope:
        """Block until a message matches any ``(context, source, tag)``
        spec and return its :class:`~repro.simmpi.matching.Envelope`
        (as :meth:`repro.simmpi.intercomm.Intercommunicator.wait_any`)."""
        return self._mailbox(self._rank).wait_match_any(specs,
                                                        timeout=timeout)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send (completes immediately: sends are buffered)."""
        self.send(obj, dest, tag)
        return Request(value=None, status=None)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; the match happens at ``wait`` time."""
        def completer(timeout: float | None) -> tuple[Any, Status]:
            env = self._mailbox(self._rank).wait_match(
                self.context, source, tag, timeout=timeout)
            return env.payload, Status(env.source, env.tag, env.nbytes)
        return Request(completer)

    def sendrecv(self, obj: Any, dest: int, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive (deadlock-free because sends buffer)."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Non-destructive test for a matching message."""
        env = self._mailbox(self._rank).probe(self.context, source, tag)
        if env is None:
            return None
        return Status(env.source, env.tag, env.nbytes)

    def prepost_recv(self, sink: Callable[[Any], int],
                     source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Arm a preposted receive (MPI_Recv_init analogue): a matching
        send writes its payload straight through ``sink`` with no
        staging buffer.  Returns the
        :class:`~repro.simmpi.matching.PrepostSlot`; complete it with
        ``slot.wait()``."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        return self._mailbox(self._rank).prepost(
            self.context, source, tag, sink)

    # -- collectives -----------------------------------------------------------

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return INTERNAL_TAG_BASE + (self._coll_seq & 0xFFFFF)

    def barrier(self) -> None:
        """Barrier: binomial reduce-to-0 then binomial release (log-P
        depth); "flat" mode gathers a token at rank 0 and releases."""
        tag = self._next_coll_tag()
        self.job.counters.add("barriers")
        if self.size == 1:
            return
        if self.coll_algo == "flat":
            if self._rank == 0:
                for _ in range(self.size - 1):
                    self.recv(ANY_SOURCE, tag)
                for r in range(1, self.size):
                    self.send(None, r, tag)
            else:
                self.send(None, 0, tag)
                self.recv(0, tag)
            return
        size, vrank = self.size, self._rank
        # Arrival phase: wait for each subtree, then notify the parent.
        mask = 1
        while mask < size:
            if vrank & mask:
                self.send(None, vrank - mask, tag)
                break
            child = vrank | mask
            if child < size:
                self.recv(child, tag)
            mask <<= 1
        # Release phase: the bcast tree in reverse direction.
        self._tree_bcast_value(None, 0, tag)

    def _tree_children(self, vrank: int, size: int) -> list[int]:
        """Children of ``vrank`` in a binomial tree over [0, size),
        highest subtree first (the order the bcast wave descends)."""
        mask = 1
        while mask < size and not (vrank & mask):
            mask <<= 1
        children = []
        mask >>= 1
        while mask:
            child = vrank | mask
            if child < size and child != vrank:
                children.append(child)
            mask >>= 1
        return children

    def _tree_bcast_value(self, obj: Any, root: int, tag: int) -> Any:
        """Binomial broadcast of ``obj`` from ``root`` using ``tag``;
        returns the value on every rank (the root's own object as-is).

        :class:`~repro.simmpi.payload.Raw`-wrapped payloads (process-
        local handles that must never be pickled) stay zero-copy across
        *every* hop: the value travels inside a :class:`_TreeRaw` marker
        that each intermediate rank re-wraps in ``Raw`` before
        forwarding, mirroring what the single-hop flat loop did.
        """
        size = self.size
        vrank = (self._rank - root) % size
        if vrank == 0:
            if isinstance(obj, payload.Raw):
                wire: Any = payload.Raw(_TreeRaw(obj.value))
            else:
                wire = obj
            value = obj
        else:
            # Parent: vrank with its lowest set bit cleared.
            parent_v = vrank - (vrank & -vrank)
            got = self.recv((parent_v + root) % size, tag)
            if isinstance(got, _TreeRaw):
                wire = payload.Raw(got)
                value = got.value
            else:
                wire = got
                value = got
        for child_v in self._tree_children(vrank, size):
            self.send(wire, (child_v + root) % size, tag)
        return value

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns the value."""
        self._check_rank(root, "root")
        tag = self._next_coll_tag()
        if self.size == 1:
            return obj
        if self.coll_algo == "flat":
            if self._rank == root:
                for r in range(self.size):
                    if r != root:
                        self.send(obj, r, tag)
                return obj
            return self.recv(root, tag)
        return self._tree_bcast_value(obj, root, tag)

    def scatter(self, seq: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter one element of ``seq`` (length ``size``, root only) to
        each rank."""
        self._check_rank(root, "root")
        tag = self._next_coll_tag()
        if self._rank == root:
            if seq is None or len(seq) != self.size:
                raise CommunicatorError(
                    f"scatter at root needs a length-{self.size} sequence")
            for r in range(self.size):
                if r != root:
                    self.send(seq[r], r, tag)
            mine, _ = payload.pack(seq[root])
            return mine
        return self.recv(root, tag)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank to ``root`` (others return None).

        Tree mode merges subtree contributions up a binomial tree: the
        same P-1 messages as the flat loop, but the root receives log P
        aggregated messages instead of P-1 serialized ones.
        """
        self._check_rank(root, "root")
        tag = self._next_coll_tag()
        if self.coll_algo == "flat":
            if self._rank == root:
                out: list[Any] = [None] * self.size
                mine, _ = payload.pack(obj)
                out[root] = mine
                for _ in range(self.size - 1):
                    val, st = self.recv(ANY_SOURCE, tag, return_status=True)
                    out[st.source] = val
                return out
            self.send(obj, root, tag)
            return None
        size = self.size
        vrank = (self._rank - root) % size
        mine, _ = payload.pack(obj)
        acc: dict[int, Any] = {vrank: mine}
        mask = 1
        while mask < size:
            if vrank & mask:
                # Hand the whole subtree to the parent and stop.
                self.send(acc, ((vrank - mask) + root) % size, tag)
                return None
            child = vrank | mask
            if child < size:
                acc.update(self.recv((child + root) % size, tag))
            mask <<= 1
        return [acc[(r - root) % size] for r in range(size)]

    def allgather(self, obj: Any) -> list[Any]:
        """Gather then broadcast: every rank returns the full list."""
        rooted = self.gather(obj, root=0)
        return self.bcast(rooted, root=0)

    def alltoall(self, seq: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: rank i sends ``seq[j]`` to rank j."""
        if len(seq) != self.size:
            raise CommunicatorError(
                f"alltoall needs a length-{self.size} sequence per rank")
        tag = self._next_coll_tag()
        for r in range(self.size):
            if r != self._rank:
                self.send(seq[r], r, tag)
        out: list[Any] = [None] * self.size
        out[self._rank], _ = payload.pack(seq[self._rank])
        for _ in range(self.size - 1):
            val, st = self.recv(ANY_SOURCE, tag, return_status=True)
            out[st.source] = val
        return out

    def alltoallv(self, sendbuf: np.ndarray, sendcounts: Sequence[int],
                  sdispls: Sequence[int] | None = None,
                  recvcounts: Sequence[int] | None = None) -> np.ndarray:
        """MPI_Alltoallv over a 1-D NumPy buffer.

        ``sendbuf[sdispls[j]:sdispls[j]+sendcounts[j]]`` goes to rank j.
        When ``recvcounts`` is None the counts are exchanged first (an
        extra alltoall), mirroring how DCA's stubs operate (paper §4.3);
        supplying statically known counts skips that exchange entirely.
        Returns the concatenated
        received buffer, ordered by source rank.

        Zero-count segments exchange **no message** in either direction
        (MPI semantics: an empty segment is not a transfer), so sparse
        communication patterns cost messages proportional to their
        nonzero pairs, and a 1-rank world moves no messages at all.
        ``sendbuf`` may be any 1-D view — non-contiguous (strided)
        segments are canonicalized before hitting the wire.
        """
        sendbuf = np.asarray(sendbuf)
        if sendbuf.ndim != 1:
            raise CommunicatorError("alltoallv sendbuf must be 1-D")
        if len(sendcounts) != self.size:
            raise CommunicatorError(
                f"alltoallv needs {self.size} sendcounts, got {len(sendcounts)}")
        if any(c < 0 for c in sendcounts):
            raise CommunicatorError("alltoallv sendcounts must be >= 0")
        if sdispls is None:
            sdispls = np.concatenate(([0], np.cumsum(sendcounts)[:-1])).tolist()
        elif len(sdispls) != self.size:
            raise CommunicatorError(
                f"alltoallv needs {self.size} sdispls, got {len(sdispls)}")
        for r in range(self.size):
            if sdispls[r] + sendcounts[r] > sendbuf.shape[0]:
                raise CommunicatorError(
                    f"alltoallv: segment for rank {r} "
                    f"([{sdispls[r]}, {sdispls[r] + sendcounts[r]})) "
                    f"overruns sendbuf of size {sendbuf.shape[0]}")
        if recvcounts is None:
            recvcounts = self.alltoall(list(sendcounts))
        elif len(recvcounts) != self.size:
            raise CommunicatorError(
                f"alltoallv needs {self.size} recvcounts, got {len(recvcounts)}")
        tag = self._next_coll_tag()
        for r in range(self.size):
            if r != self._rank and sendcounts[r]:
                chunk = sendbuf[sdispls[r]:sdispls[r] + sendcounts[r]]
                # Canonicalize strided views: the wire carries (and the
                # receiver concatenates) contiguous buffers.
                self.send(np.ascontiguousarray(chunk), r, tag)
        empty = sendbuf[:0].copy()
        parts: list[np.ndarray] = [empty] * self.size
        own = sendbuf[sdispls[self._rank]:
                      sdispls[self._rank] + sendcounts[self._rank]]
        if own.shape[0]:
            parts[self._rank] = own.copy()
        for r in range(self.size):
            if r != self._rank and recvcounts[r]:
                parts[r] = np.asarray(self.recv(r, tag))
        for r, (p, c) in enumerate(zip(parts, recvcounts)):
            if p.shape[0] != c:
                raise CommunicatorError(
                    f"alltoallv: expected {c} items from rank {r}, got {p.shape[0]}")
        return np.concatenate(parts) if parts else empty

    def reduce(self, obj: Any, op: str | Callable[[Any, Any], Any] = "sum",
               root: int = 0) -> Any:
        """Reduce values to ``root`` (others return None)."""
        fn = resolve_op(op)
        vals = self.gather(obj, root=root)
        if self._rank != root:
            return None
        assert vals is not None
        acc = vals[0]
        for v in vals[1:]:
            acc = fn(acc, v)
        return acc

    def allreduce(self, obj: Any, op: str | Callable[[Any, Any], Any] = "sum") -> Any:
        """Reduce then broadcast."""
        res = self.reduce(obj, op=op, root=0)
        return self.bcast(res, root=0)

    def scan(self, obj: Any, op: str | Callable[[Any, Any], Any] = "sum") -> Any:
        """Inclusive prefix reduction: rank i returns op over ranks 0..i."""
        fn = resolve_op(op)
        vals = self.allgather(obj)
        acc = vals[0]
        for v in vals[1:self._rank + 1]:
            acc = fn(acc, v)
        return acc

    # -- communicator construction --------------------------------------------

    def dup(self) -> "Communicator":
        """A new communicator over the same ranks with a fresh context."""
        ctx = self.bcast(allocate_context() if self._rank == 0 else None, root=0)
        return Communicator(self.job, ctx, self._rank, self.job_ranks)

    def split(self, color: int, key: int = 0) -> "Communicator | None":
        """MPI_Comm_split: group ranks by ``color``, order by ``key``.

        ``color < 0`` means "not participating" (returns None).
        """
        info = self.allgather((color, key, self._rank))
        if self._rank == 0:
            colors = sorted({c for c, _, _ in info if c >= 0})
            contexts = {c: allocate_context() for c in colors}
        else:
            contexts = None
        contexts = self.bcast(contexts, root=0)
        if color < 0:
            return None
        members = sorted(
            ((k, r) for c, k, r in info if c == color),
            key=lambda t: (t[0], t[1]),
        )
        new_ranks = [r for _, r in members]
        my_new_rank = new_ranks.index(self._rank)
        job_ranks = [self.job_ranks[r] for r in new_ranks]
        return Communicator(self.job, contexts[color], my_new_rank, job_ranks)

    def create_subcomm(self, ranks: Sequence[int]) -> "Communicator | None":
        """Collective: build a communicator over ``ranks`` of this one.

        Every rank of the parent must call it with the same ``ranks``;
        ranks outside the list get None.
        """
        ranks = list(ranks)
        in_group = self._rank in ranks
        return self.split(0 if in_group else -1,
                          key=ranks.index(self._rank) if in_group else 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Communicator(rank={self._rank}/{self.size}, "
                f"context={self.context})")
