"""Message payload handling: value and borrow semantics on send.

A real MPI transfer serializes the data onto a wire; sharing a mutable
object between sender and receiver would hide bugs that real deployments
hit.  The default path therefore keeps **value semantics**: NumPy arrays
take a C-level defensive copy (mirroring mpi4py's buffer protocol path)
and everything else is pickled, which both isolates the object graph and
yields an honest byte count.

The zero-copy transport adds one ownership marker that skips the
defensive copy where it is provably redundant:

* :class:`Borrowed` — **borrow semantics**, MPI's send contract: the
  caller may reuse its buffer once ``send`` returns.  The sender lends
  a live view (a contiguous or strided slice of its local storage, or
  a pooled staging buffer it gathered into) that the transport
  consumes *synchronously inside the send call*: either the bytes are
  written directly into a preposted destination buffer (see
  :meth:`repro.simmpi.matching.Mailbox.prepost`) or they are
  snapshotted into a fresh buffer before the send returns.  Either way
  no alias to the sender's storage survives the send, so value
  semantics are preserved while the common persistent-channel case
  collapses to a single copy per byte.

Every payload leaves its sender by value or by lend; no buffer changes
owner, so a loaned staging buffer returns to its pool right after the
send that lent it.  All paths account their work in
:data:`repro.util.counters.TRANSPORT_STATS` (``bytes_copied``,
``alloc_bytes``, ``borrow_snapshots``, ``direct_deliveries``, ...),
which is what the A7 steady-state benchmark and the CI copies-per-byte
gate read.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional

import numpy as np

from repro.util.counters import TRANSPORT_STATS


class Raw:
    """Marker wrapper: pass the value through without copy or pickling.

    Reserved for runtime-internal handles (e.g. the job references shipped
    during an intercommunicator handshake) that are process-local by
    design and must never cross a real wire.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


class PickledWire:
    """Internal wire marker: an object already serialized for transport.

    Produced by :func:`wire_parts` on non-isolating backends (procs),
    where pickling *is* the isolation step and the bytes go straight
    into a shared slot — deserializing in the sender process just to
    re-serialize in the queue would double the work.  Local deliveries
    rehydrate with one ``pickle.loads``.
    """

    __slots__ = ("blob",)

    def __init__(self, blob: bytes):
        self.blob = blob


class Borrowed:
    """Borrow-semantics marker: lend a live array view for one send.

    The transport reads ``value`` only during the send call itself —
    writing it straight into a preposted destination when one is armed,
    snapshotting it otherwise — so the sender may freely mutate the
    underlying storage afterwards.  Non-contiguous (e.g. strided) views
    are fine; that is the point.
    """

    __slots__ = ("value",)

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value)


def snapshot(arr: np.ndarray) -> np.ndarray:
    """Contiguous isolated copy of a borrowed view (counted)."""
    copy = np.array(arr, order="C", copy=True)
    TRANSPORT_STATS.add("bytes_copied", copy.nbytes)
    TRANSPORT_STATS.add("alloc_bytes", copy.nbytes)
    TRANSPORT_STATS.add("borrow_snapshots")
    return copy


def pack(obj: Any) -> tuple[Any, int]:
    """Return an isolated copy of ``obj`` and its size in bytes."""
    if isinstance(obj, Raw):
        return obj.value, 0
    if isinstance(obj, Borrowed):
        # pack() has no preposted destination to hand the view to, so a
        # borrow degrades gracefully to a snapshot here; the mailbox
        # transport (wire_parts + Mailbox.deliver) is the zero-copy path.
        copy = snapshot(obj.value)
        return copy, copy.nbytes
    if isinstance(obj, np.ndarray):
        copy = np.ascontiguousarray(obj)
        if copy is obj:
            copy = obj.copy()
        TRANSPORT_STATS.add("bytes_copied", copy.nbytes)
        TRANSPORT_STATS.add("alloc_bytes", copy.nbytes)
        return copy, copy.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return bytes(obj), len(obj)
    if obj is None or isinstance(obj, (bool, int, float, complex, str)):
        # Immutable scalars need no copy; charge a nominal header size.
        return obj, 8 if not isinstance(obj, str) else len(obj.encode())
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return pickle.loads(blob), len(blob)


def wire_parts(obj: Any, *, isolate: bool = True
               ) -> tuple[Any, int, Optional[np.ndarray]]:
    """Decompose ``obj`` for the mailbox transport.

    Returns ``(data, nbytes, live)``:

    * plain objects — ``data`` is the isolated :func:`pack` copy;
    * :class:`Borrowed` — ``data`` is ``None`` and ``live`` the lent
      view; the mailbox must consume ``live`` synchronously (direct
      write into a preposted destination, else snapshot) before the
      send returns.

    ``isolate=False`` is for backends whose delivery step is itself an
    isolating copy (``Transport.isolating == False``, i.e. the procs
    backend writing bytes into a shared slot): plain arrays are handed
    over as lent ``live`` views with no defensive copy, and generic
    objects are pickled exactly once into a :class:`PickledWire`.
    """
    if isinstance(obj, Borrowed):
        return None, obj.value.nbytes, obj.value
    if not isolate:
        if isinstance(obj, np.ndarray):
            # the transport's slot write is the isolation copy
            return None, obj.nbytes, np.asarray(obj)
        if isinstance(obj, Raw):
            return obj, 0, None
        if isinstance(obj, (bytes, bytearray)):
            return bytes(obj), len(obj), None
        if obj is None or isinstance(obj, (bool, int, float, complex, str)):
            nbytes = 8 if not isinstance(obj, str) else len(obj.encode())
            return obj, nbytes, None
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return PickledWire(blob), len(blob), None
    data, nbytes = pack(obj)
    return data, nbytes, None
