"""Intra-job communicators: tagged point-to-point plus collectives.

A :class:`Communicator` spans a subset of a job's ranks.  Messages are
matched on a per-communicator context id, so overlapping communicators
(e.g. those produced by :meth:`Communicator.split`) never interfere —
the property DCA relies on to scope process participation (paper §4.3).

Point-to-point is one core, :class:`_Link`, which an
:class:`~repro.simmpi.intercomm.Intercommunicator` shares: a
communicator is the link whose remote group is its own job ranks, with
one context for sending and receiving.  The two kinds differ only in
the counters a send adds to — ``msgs`` (``internal_msgs`` on an
internal tag), ``bytes`` and ``rank{r}.rx_bytes`` here, ``inter_msgs``
and ``inter_bytes`` across jobs.

Collectives are implemented over point-to-point with internal tags.  A
per-rank collective sequence counter keeps internal tags aligned, which
is sound under the usual MPI rule that all ranks of a communicator call
collectives in the same order.

``barrier``/``bcast``/``gather`` (and through them ``allgather``,
``reduce``, ``allreduce`` and ``split``) run binomial trees: P-1
messages per rooted collective and 2(P-1) per barrier, over a critical
path of O(log P) levels rather than O(P) serialized sends at the root.
``alltoall`` is the one personalized exchange (P-1 sends per rank).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence, TYPE_CHECKING

from repro.errors import CommunicatorError
from repro.simmpi import payload
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, INTERNAL_TAG_BASE
from repro.simmpi.matching import Envelope, Mailbox
from repro.simmpi.ops import resolve_op
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


class _Link:
    """The point-to-point core both communicator kinds share.

    A link sends on ``_send_context`` to rank ``dest`` of its remote
    group — ``_transport.send`` to address ``_addrs[dest]``, resolved
    once by :meth:`~repro.simmpi.transport.Transport.addresses` — and
    matches incoming traffic on ``_recv_context`` in the calling rank's
    own mailbox.  A :class:`Communicator` is the link whose remote group
    is its own job ranks, with one context both ways; an
    :class:`~repro.simmpi.intercomm.Intercommunicator` addresses another
    job's ranks.  Only the counter keys differ, and they are class
    attributes.
    """

    #: The counter a send adds one to, by tag band: (application tag,
    #: internal tag).
    _MSG_KEYS = ("inter_msgs", "inter_msgs")
    #: The counter a send adds its wire bytes to.
    _BYTES_KEY = "inter_bytes"
    #: Per remote rank, the received-bytes counter a send adds its wire
    #: bytes to, or ``None``.
    _rx_keys: tuple[str, ...] | None = None

    local_comm: "Communicator"
    _send_context: int
    _recv_context: int
    _transport: Any
    _addrs: tuple

    @property
    def rank(self) -> int:
        """This rank in the local group."""
        return self.local_comm._rank

    @property
    def remote_size(self) -> int:
        return len(self._addrs)

    @property
    def recv_context(self) -> int:
        """The context id this link matches incoming traffic on —
        public so multi-stream receivers (the PRMI serve loop) can
        compose :meth:`wait_any` specs mixing links."""
        return self._recv_context

    def _my_mailbox(self) -> Mailbox:
        # the calling rank's own mailbox: backends may support no other
        # (the procs backend has no in-process peers)
        return self.local_comm._mbox

    def _check_peer(self, r: int) -> None:
        if not (0 <= r < len(self._addrs)):
            raise CommunicatorError(
                f"remote rank {r} out of range (remote size "
                f"{len(self._addrs)})")

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send: isolates ``obj`` and returns immediately.

        Plain payloads are copied (value semantics) and
        :class:`~repro.simmpi.payload.Borrowed` lends; either way the
        caller may reuse its buffer once this returns — see
        :mod:`repro.simmpi.payload` for the ownership contract.
        """
        addrs = self._addrs
        if not 0 <= dest < len(addrs):
            self._check_peer(dest)
        local = self.local_comm
        nbytes = self._transport.send(addrs[dest], self._send_context,
                                      local._rank, tag, obj)
        # Collective-internal protocol traffic is counted separately so
        # benchmarks can report application data movement alone.
        tally = local.job.counters.shard()
        tally[self._MSG_KEYS[tag >= INTERNAL_TAG_BASE]] += 1
        tally[self._BYTES_KEY] += nbytes
        if self._rx_keys is not None:
            tally[self._rx_keys[dest]] += nbytes

    def kick(self, dest: int) -> None:
        """Wake rank ``dest`` if it is parked on shared state this rank
        has just stored (an RMA epoch or commit): not a message, so it
        matches nothing and counts nothing."""
        self._check_peer(dest)
        self._transport.kick(self._addrs[dest])

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             *, timeout: float | None = None,
             return_status: bool = False) -> Any:
        """Blocking receive; returns the payload (and optionally a Status)."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        env = self.local_comm._mbox.wait_match(
            self._recv_context, source, tag, timeout=timeout)
        if return_status:
            return env.payload, Status(env.source, env.tag, env.nbytes)
        return env.payload

    def wait_any(self, specs, *, timeout: float | None = None) -> Envelope:
        """Block until a message matches any ``(context, source, tag)``
        spec and return its :class:`~repro.simmpi.matching.Envelope`.

        Contexts may name any link's :attr:`recv_context` of the calling
        rank — one blocked wait drains every ingress stream an
        event-driven server watches (see
        :class:`repro.prmi.serving.ServerLoop`).
        """
        return self._my_mailbox().wait_match_any(specs, timeout=timeout)

    def iprobe(self, source: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Status | None:
        """Non-destructive test for a matching message."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        env = self._my_mailbox().probe(self._recv_context, source, tag)
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
            self._check_peer(source)
        return self.local_comm._mbox.prepost(
            self._recv_context, source, tag, sink)


class Communicator(_Link):
    """An ordered group of ranks with isolated message context."""

    _MSG_KEYS = ("msgs", "internal_msgs")
    _BYTES_KEY = "bytes"

    def __init__(self, job: "Job", context: int, rank: int,
                 job_ranks: Sequence[int]):
        self.job = job
        self.context = context
        self._rank = rank
        #: communicator rank -> job rank
        self.job_ranks = tuple(job_ranks)
        self._coll_seq = 0
        self.local_comm = self
        self._send_context = self._recv_context = context
        self._transport = job.transport
        self._addrs = job.transport.addresses(self.job_ranks)
        self._rx_keys = tuple(f"rank{r}.rx_bytes" for r in self.job_ranks)
        self._mbox = job.transport.mailbox(self.job_ranks[rank])

    # -- identity -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.job_ranks)

    @property
    def counters(self):
        """The owning job's instrumentation counters."""
        return self.job.counters

    # -- collectives -----------------------------------------------------------

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return INTERNAL_TAG_BASE + (self._coll_seq & 0xFFFFF)

    def barrier(self) -> None:
        """Barrier: binomial reduce-to-0 then binomial release (log-P
        depth)."""
        tag = self._next_coll_tag()
        self.job.counters.add("barriers")
        if self.size == 1:
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
        forwarding.
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
        self._check_peer(root)
        tag = self._next_coll_tag()
        if self.size == 1:
            return obj
        return self._tree_bcast_value(obj, root, tag)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank to ``root`` (others return None).

        Subtree contributions merge up a binomial tree: P-1 messages in
        all, of which the root receives log P aggregated ones.
        """
        self._check_peer(root)
        tag = self._next_coll_tag()
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

    # -- communicator construction --------------------------------------------

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
