"""Shared-memory primitives of the procs backend.

Three fixed-layout anonymous shared mappings per domain (a domain = all
ranks of a ``run_spmd`` job, or all ranks of every job of a
``run_coupled`` launch), made by the supervisor and inherited over
``fork``, so none has a name:

* :class:`ControlSegment` — the control plane.  One single-producer /
  single-consumer ring of :data:`CTL_DEPTH` fixed-size descriptor
  records per (sender, receiver) endpoint pair.  A record carries the
  envelope (context, source, tag, nbytes), the payload kind, where the
  payload bytes are (first slot of a run, or the record's own inline
  area of :data:`INLINE_MAX` bytes), the ND dtype and shape, and —
  under ``REPRO_TSAN`` only — the sanitizer's wire token.  The sender
  writes the record, then stores ``tail``; the receiver reads every
  record below ``tail``, then stores ``head``: each counter has
  exactly one writer.  ND, bytes and scalar payloads are raw bytes in a
  record or a slot; only objects with no raw-byte form, and arrays no
  header describes, are pickled.  Each endpoint owns one fork-inherited
  semaphore, its *doorbell*, which a sender posts after every publish;
  a receiver with nothing to match parks on it only once its rings are
  empty.  The rings are the only way a rank receives anything.

* :class:`SegmentPool` — the payload plane.  One mapping holds
  ``endpoints * slots_per_endpoint`` fixed-size slots plus a one-byte
  ownership flag per slot.  Slots are **statically partitioned by
  sending endpoint**, and each endpoint's ring is one contiguous byte
  range, so a **message is a run** of ``k = ceil(nbytes / slot_bytes)``
  adjacent slots: one contiguous payload, filled by one copy and
  scattered out of by one read.  Allocation is a lock-free first-fit
  scan of the sender's own ring: the sender flips the run's flags
  ``FREE -> BUSY`` before writing payload bytes into it, the receiver
  flips them back after consuming.  The descriptor record announcing
  the run carries its first slot and byte length, and its ``tail``
  store orders the flag/payload writes before the receiver's reads.  A
  ring with no free run of width ``k`` **blocks the sender** until a
  receiver releases one (abort-aware and visible to the watchdog;
  ``ring_full`` counts each acquire that had to wait).  Payloads of at
  most :data:`INLINE_MAX` bytes ride in the record itself.  A payload
  wider than the whole ring **streams**: consecutive records of its
  pair's ring each carry one run of at most the whole ring plus the
  run's byte offset, and the receiver copies each run into the
  payload's own heap array and releases it at once.  The accounting
  mirrors :class:`repro.schedule.bufpool.BufferPool`: ``loans`` /
  ``reuses`` (run grants) vs ``allocations`` (streamed payloads — the
  only path that allocates per message); ``oversize`` counts messages
  wider than one slot.

* :class:`SharedState` — the watchdog plane: the domain's
  :class:`Liveness` table (per endpoint a progress counter, a run-state
  byte — running / blocked / finished — and a short blocked-on
  description), plus a domain-wide abort record (flag, reason, blocked
  dump) and one rendezvous reply row per endpoint.  Each liveness row
  has exactly one writer (the owning rank process); the abort record
  and the reply rows are written by the supervisor only.  The
  supervisor applies :class:`StallRule`, the rule the threads launcher
  applies to its heap-allocated table.

Rank-local storage — every :class:`~repro.dad.darray.DistributedArray`
buffer and every :class:`Window` header — comes from :func:`alloc`: the
heap, except in a procs rank process, where each allocation is a named
segment of its own that a peer rank can map (:func:`locate`,
:func:`attach`).  Only those segments have names.
"""

from __future__ import annotations

import itertools
import mmap
import os
import pickle
import struct
import time
import weakref
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import CommunicatorError, StorageError
from repro.simmpi import sanitize as _san
from repro.simmpi.payload import Borrowed, Raw
from repro.util.counters import Counters, TRANSPORT_STATS

__all__ = ["ControlSegment", "Liveness", "SegmentPool", "SharedState",
           "StallRule", "Window", "alloc", "attach", "locate",
           "encode_payload", "decode_payload"]

# payload kinds (one byte of a descriptor record)
ND = 1
BYTES = 2
PICKLE = 3
STR = 4
NONE = 5
BOOL = 6
INT = 7
FLOAT = 8
COMPLEX = 9


#: Payloads at most this many bytes ride in the descriptor record's
#: inline area even when a slot is free — a record write beats a slot
#: round-trip for tiny protocol traffic (barrier tokens, handshakes,
#: scalar reduces).
INLINE_MAX = 2048

_FREE = 0
_BUSY = 1

#: Every segment this module creates is named ``SEGMENT_PREFIX`` +
#: ``"<creating pid>_<serial>"``.  The prefix is fixed at import in the
#: launching process and inherited by forked ranks, so one session's
#: segments — and one process's — are told apart from any other's.
SEGMENT_PREFIX = f"repro{os.getpid()}_"
_serials = itertools.count()
_SHM_DIR = "/dev/shm"


def segments(pid: Optional[int] = None) -> set[str]:
    """The live segments of this session, or of process ``pid`` only
    (none where the platform keeps no shared-memory directory)."""
    prefix = SEGMENT_PREFIX if pid is None else f"{SEGMENT_PREFIX}{pid}_"
    try:
        return {e for e in os.listdir(_SHM_DIR) if e.startswith(prefix)}
    except OSError:
        return set()


def reclaim(pid: int) -> None:
    """Unlink every segment the exited process ``pid`` left behind: the
    storage a rank still held when it exited or was killed."""
    for name in segments(pid):
        os.unlink(os.path.join(_SHM_DIR, name))


# -- rank-local storage --------------------------------------------------------

#: Set in a procs rank process after ``fork``: its storage is then named
#: segments a peer rank can map.  The heap everywhere else.
NAMED = False


class _Segment(mmap.mmap):
    """A named mapping made by :func:`alloc` (``name`` set after)."""


def alloc(n: int, dtype: Any, *, zeroed: bool = True) -> np.ndarray:
    """``n`` elements of ``dtype`` of rank-local storage: the heap, or
    under :data:`NAMED` a segment of its own, mapped and wrapped by
    NumPy, which holds the mapping exactly as long as the last view of
    it.  Dropping the mapping unlinks the name; a rank that exits still
    holding storage leaves it to its launcher's :func:`reclaim`.  A
    fresh segment reads as zeros, so ``zeroed`` costs it nothing."""
    dt = np.dtype(dtype)
    if not NAMED or not n:
        return (np.zeros if zeroed else np.empty)(n, dt)
    name = f"{SEGMENT_PREFIX}{os.getpid()}_{next(_serials)}"
    path = os.path.join(_SHM_DIR, name)
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
    try:
        os.ftruncate(fd, n * dt.itemsize)
        seg = _Segment(fd, n * dt.itemsize)
    finally:
        os.close(fd)
    seg.name = name
    weakref.finalize(seg, os.unlink, path)
    return np.frombuffer(seg, dt)


def locate(arr: np.ndarray) -> Optional[tuple[str, int, int]]:
    """``(segment, offset, nbytes)`` of ``arr`` inside a segment
    :func:`alloc` made, or ``None`` for any other storage."""
    root = arr
    while isinstance(root.base, np.ndarray):
        root = root.base
    seg = getattr(root.base, "obj", None)
    if type(seg) is not _Segment:
        return None
    offset = (arr.__array_interface__["data"][0]
              - root.__array_interface__["data"][0])
    return seg.name, offset, arr.nbytes


def attach(ref: tuple[str, int, int]) -> np.ndarray:
    """Map a peer rank's storage ``ref`` (from :func:`locate`) as uint8
    bytes, for as long as the returned view lives."""
    name, offset, nbytes = ref
    fd = os.open(os.path.join(_SHM_DIR, name), os.O_RDWR)
    try:
        size = os.fstat(fd).st_size
        if offset + nbytes > size:
            raise ValueError(f"segment {name!r} is {size} bytes, need "
                             f"{offset + nbytes} — geometry mismatch")
        return np.frombuffer(mmap.mmap(fd, size), np.uint8, nbytes, offset)
    finally:
        os.close(fd)


class SegmentPool:
    """Fixed-size payload slots in one shared mapping, partitioned by
    sending endpoint.

    Created once in the supervisor process; rank processes inherit the
    mapping across ``fork``.
    """

    def __init__(self, endpoints: int, *, slot_bytes: int = 1 << 18,
                 slots_per_endpoint: int = 8):
        if slot_bytes <= 0 or slots_per_endpoint <= 0:
            raise ValueError("slot_bytes and slots_per_endpoint must be > 0")
        self.endpoints = endpoints
        # round slots up to 64 bytes so every slot start is aligned for
        # any dtype view the receiver reinterprets it as
        self.slot_bytes = (int(slot_bytes) + 63) & ~63
        self.slots_per_endpoint = int(slots_per_endpoint)
        self.nslots = endpoints * self.slots_per_endpoint
        # flags live at the front, 64-byte aligned payload area after;
        # under REPRO_TSAN a shadow plane (per-slot holder token +
        # generation counter) rides at the tail of the same mapping so
        # forked peers share one copy of the sanitizer's slot state.
        self._data_off = (self.nslots + 63) & ~63
        self._tsan_off = self._data_off + self.nslots * self.slot_bytes
        shadow = 8 * self.nslots if _san.enabled() else 0
        # a fresh mapping reads as zeros: every flag FREE, shadow clear
        buf = mmap.mmap(-1, self._tsan_off + shadow)
        self._flags = np.ndarray(self.nslots, dtype=np.uint8, buffer=buf)
        if shadow:
            self._tsan_holder = np.ndarray(
                self.nslots, dtype=np.int32, buffer=buf,
                offset=self._tsan_off)
            self._tsan_gen = np.ndarray(
                self.nslots, dtype=np.uint32, buffer=buf,
                offset=self._tsan_off + 4 * self.nslots)
        else:
            self._tsan_holder = self._tsan_gen = None
        #: per slot, a uint8 view from its start to the end of its
        #: sender's ring: a run's bytes are a prefix of it
        ring = self.slots_per_endpoint * self.slot_bytes
        self._runs = [
            np.ndarray(ring - s % self.slots_per_endpoint * self.slot_bytes,
                       dtype=np.uint8, buffer=buf,
                       offset=self._data_off + s * self.slot_bytes)
            for s in range(self.nslots)]
        #: per-process slot accounting (bufpool-style names)
        self.stats = Counters()
        #: bytes of each ring this process last charged to its
        #: ``slot_bytes`` / ``resident_bytes`` gauges (process-local)
        self._charged = [0] * endpoints

    # -- sender side -------------------------------------------------------

    def find_run(self, endpoint: int, nslots: int = 1) -> Optional[int]:
        """First slot of the lowest run of ``nslots`` adjacent FREE slots
        in ``endpoint``'s ring, or ``None``.  Claims nothing: this is the
        predicate a sender polls while its ring is full (on a snapshot of
        the flags: only the owner flips FREE -> BUSY)."""
        lo = endpoint * self.slots_per_endpoint
        ring = self._flags[lo:lo + self.slots_per_endpoint].tobytes()
        i = ring.find(bytes(nslots))
        return None if i < 0 else lo + i

    def acquire(self, endpoint: int, nslots: int = 1) -> Optional[int]:
        """First fit: the lowest run of ``nslots`` adjacent FREE slots
        owned by ``endpoint``, flagged BUSY; returns its first slot — or
        ``None`` (counted as ``ring_full``) when no such run is free."""
        lo = endpoint * self.slots_per_endpoint
        ring = self._flags[lo:lo + self.slots_per_endpoint].tobytes()
        stats = self.stats.shard()
        stats["loans"] += 1
        i = ring.find(bytes(nslots))
        busy = ring.count(_BUSY)
        if i < 0:
            self._charge(endpoint, busy)
            stats["ring_full"] += 1
            return None
        s = lo + i
        if nslots == 1:
            self._flags[s] = _BUSY
        else:
            self._flags[s:s + nslots] = _BUSY
        san = _san.ACTIVE
        if san is not None and self._tsan_holder is not None:
            for t in range(s, s + nslots):
                san.slot_acquired(self, t)
        stats["reuses"] += 1
        self._charge(endpoint, busy + nslots)
        return s

    def _charge(self, endpoint: int, busy: int) -> None:
        """Set this process's slot gauges to ``busy`` slots of
        ``endpoint``'s ring.  The sender reads every flag of its ring on
        each acquire, so it alone charges *and* credits its slots: no
        gauge drifts, and the peak is the ring's high-water mark."""
        delta = busy * self.slot_bytes - self._charged[endpoint]
        if delta:
            self._charged[endpoint] += delta
            TRANSPORT_STATS.gauge_add(("slot_bytes", "resident_bytes"), delta)

    def release(self, slot: int, nslots: int = 1) -> None:
        """Receiver side: mark the run of ``nslots`` slots starting at
        ``slot`` consumed (reusable by its owner)."""
        san = _san.ACTIVE
        if san is not None and self._tsan_holder is not None:
            # shadow holders must clear before the flags flip, so a
            # racing acquire of a half-released run sees it held
            for t in range(slot, slot + nslots):
                san.slot_released(self, t)
        if nslots == 1:
            self._flags[slot] = _FREE
        else:
            self._flags[slot:slot + nslots] = _FREE
        self.stats.add("releases")

    def slot_view(self, slot: int, nbytes: int,
                  dtype: Any = None) -> np.ndarray:
        """A uint8 view of the first ``nbytes`` of the run starting at
        ``slot``.  A run may span consecutive slots up to the end of its
        sender's ring, never into the next endpoint's.  Every slot
        starts 64-byte aligned, so any ``dtype`` the caller will view
        the bytes as is aligned; passing it checks that they are a whole
        number of its elements (else the two sides' dtypes differ)."""
        dt = None if dtype is None else np.dtype(dtype)
        if dt is not None and dt.itemsize and nbytes % dt.itemsize:
            raise ValueError(
                f"slot {slot}: payload of {nbytes} bytes is not a whole "
                f"number of {dt} elements — sender/receiver dtype mismatch")
        run = self._runs[slot]
        if nbytes > run.size:
            left = self.slots_per_endpoint - slot % self.slots_per_endpoint
            raise ValueError(
                f"payload of {nbytes} bytes does not fit in the {left} "
                f"{self.slot_bytes}-byte slot(s) from slot {slot} to the "
                f"end of its ring — raise slot_bytes or ship the payload "
                f"inline")
        return run[:nbytes]

    def close(self) -> None:
        """Drop this object's views; the anonymous mapping goes with the
        last of them.  It has no name, so ``unlink`` is the same call
        (kept for ``bench/probes.py``, which pairs the two)."""
        self._flags = self._runs = None
        self._tsan_holder = self._tsan_gen = None

    unlink = close


# -- one-sided RMA windows ---------------------------------------------------


class Window:
    """One rank's RMA window: an epoch header from :func:`alloc` over
    the owner's own flat destination buffer, which therefore never
    moves.

    Header (``u64``)::

        epoch    # generation counter, owner-written
        done     # [nwriters] per-writer commit counters

    Seqlock-style protocol: the owner opens exposure epoch ``k`` by
    storing ``epoch = k``; writer ``i`` waits until ``epoch >= k``,
    scatters its bytes straight into the payload, then stores
    ``done[i] = k``; the owner's fence waits until ``min(done) >= k``.
    Every field has exactly one writer (epoch: owner; ``done[i]``:
    writer ``i``), all counters are aligned 8-byte stores, and the GIL's
    acquire/release semantics plus x86-TSO ordering make the payload
    writes visible before the ``done`` store that publishes them — the
    same single-writer discipline as :class:`SharedState`.

    Writers reach it through :attr:`refs`: ``None`` where ranks share
    an address space (the window object itself travels), else the
    ``(segment, offset, nbytes)`` of the header and of the payload,
    which :meth:`attach` maps.  Nothing is closed: each mapping lives as
    long as its views (:func:`alloc`).
    """

    _names = itertools.count(1)

    def __init__(self, header: np.ndarray, data: np.ndarray, name: str,
                 refs: Optional[tuple] = None):
        self._epoch, self._done = header[:1], header[1:]
        self.nwriters = len(self._done)
        self.data = data
        self.name = name
        self.refs = refs

    @classmethod
    def expose(cls, flat: np.ndarray, nwriters: int) -> "Window":
        """The owner's window over ``flat`` for ``nwriters`` writers.  In
        a procs rank ``flat`` must be storage :func:`alloc` made there,
        or no peer could map it: :class:`~repro.errors.StorageError`."""
        header = alloc(1 + nwriters, np.uint64)
        if not NAMED:
            return cls(header, flat.view(np.uint8),
                       f"window-{next(cls._names)}")
        refs = locate(header), locate(flat)
        if refs[1] is None:
            raise StorageError(
                "a procs put destination must be storage its rank "
                "allocated (an array built before fork is not): make the "
                "array inside the rank")
        return cls(header, flat.view(np.uint8), refs[0][0], refs)

    @classmethod
    def attach(cls, refs: tuple) -> "Window":
        """A writer's view of a peer's window, mapped from its
        :attr:`refs`."""
        return cls(attach(refs[0]).view(np.uint64), attach(refs[1]),
                   refs[0][0])

    # -- epoch header (single writer per field) ------------------------------

    def epoch(self) -> int:
        return int(self._epoch[0])

    def set_epoch(self, value: int) -> None:
        self._epoch[0] = np.uint64(value)

    def done(self, writer: int) -> int:
        return int(self._done[writer])

    def set_done(self, writer: int, value: int) -> None:
        self._done[writer] = np.uint64(value)

    def min_done(self) -> int:
        return int(self._done.min())


# -- watchdog state ----------------------------------------------------------

STATE_RUNNING = 0
STATE_BLOCKED = 1
STATE_FINISHED = 2

_DESC_BYTES = 120
_REASON_BYTES = 480

#: Rendezvous reply row: reply counter, status, recv context, send
#: context, peer count, then the peer endpoints.
_RDV_HDR = 5
RDV_OK = 0
RDV_BUSY = 1            # the service already has an acceptor


def _put_text(row: np.ndarray, text: str) -> None:
    width = len(row)
    memoryview(row)[:] = text.encode("utf-8", "replace")[:width].ljust(
        width, b"\0")


def _text(row: np.ndarray) -> str:
    return bytes(row).split(b"\0", 1)[0].decode("utf-8", "replace")


class Liveness:
    """The liveness table both supervisors read: one row per rank — a
    progress count, a RUNNING / BLOCKED / FINISHED byte and a short
    blocked-on description.

    A rank writes only its own row, so no write takes a lock.  (Two
    threads of one rank waiting at once can lose a progress increment;
    the count still changes, and a change is all :class:`StallRule`
    reads.)  A threads launch keeps the table on the heap; on procs the
    rows live in the domain's :class:`SharedState` mapping.
    :meth:`rows` is a view of a contiguous run of rows (one job of a
    launch): its row ``r`` is the table's row ``base + r``, the
    endpoint the sanitizer's single-writer claim is checked against.
    Progress counts the blocked waits a rank has left, so a rank that
    was blocked and moved on shows up even between two supervisor
    samples.  The writer mirrors its rows' counts and texts locally: a
    wait stores one integer, and re-encodes its text only on a change.
    """

    base = 0

    def __init__(self, n: int):
        self.progress = np.zeros(n, np.uint64)
        self.state = np.zeros(n, np.uint8)
        self._descs = np.zeros((n, _DESC_BYTES), np.uint8)
        self._mirror(n)

    def _mirror(self, n: int) -> None:
        #: per row: its progress count and the text it holds
        self._count = [0] * n
        self._shown = [""] * n

    def rows(self, first: int, n: int) -> "Liveness":
        view = Liveness.__new__(Liveness)
        view.progress = self.progress[first:first + n]
        view.state = self.state[first:first + n]
        view._descs = self._descs[first:first + n]
        view.base = self.base + first
        view._mirror(n)
        return view

    # -- rank side (single writer per row) ---------------------------------

    def bump(self, rank: int) -> None:
        san = _san.ACTIVE
        if san is not None:
            endpoint = self.base + rank
            san.state_write(endpoint, f"state.bump(endpoint={endpoint})")
        self._count[rank] += 1
        self.progress[rank] = self._count[rank]

    def set_blocked(self, rank: int, desc: Optional[str]) -> None:
        """Mark ``rank`` blocked on ``desc``; ``None`` leaves the blocked
        state: the row runs again and counts one progress."""
        san = _san.ACTIVE
        if san is not None:
            endpoint = self.base + rank
            san.state_write(endpoint,
                            f"state.set_blocked(endpoint={endpoint})")
        if desc is None:
            self._count[rank] += 1
            self.progress[rank] = self._count[rank]
            if self.state[rank] != STATE_FINISHED:
                self.state[rank] = STATE_RUNNING
            return
        if self.state[rank] == STATE_FINISHED:
            return
        if desc != self._shown[rank]:
            self._shown[rank] = desc
            _put_text(self._descs[rank], desc)
        self.state[rank] = STATE_BLOCKED

    def set_finished(self, rank: int) -> None:
        san = _san.ACTIVE
        if san is not None:
            endpoint = self.base + rank
            san.state_write(endpoint,
                            f"state.set_finished(endpoint={endpoint})")
        self.state[rank] = STATE_FINISHED

    def finished(self, rank: int) -> bool:
        """Has ``rank`` returned (it will never receive again)?"""
        return bool(self.state[rank] == STATE_FINISHED)

    # -- supervisor side ---------------------------------------------------

    def total_progress(self) -> int:
        return int(self.progress.sum())

    def stalled(self) -> Optional[dict[int, str]]:
        """``{row: blocked-on}`` of every unfinished rank if none of
        them is runnable (empty once all finished), else ``None``."""
        state = self.state.copy()
        unfinished = np.flatnonzero(state != STATE_FINISHED)
        if np.all(state[unfinished] == STATE_BLOCKED):
            return {int(r): _text(self._descs[r]) or "?"
                    for r in unfinished}
        return None


#: Supervisor sampling period: a finish or abort never waits for it,
#: only a stall's detection does.
SUPERVISE_TICK = 0.05


class StallRule:
    """The deadlock rule, for both backends' supervisors: a launch is
    deadlocked once every unfinished rank of ``live`` has been blocked,
    with total progress unchanged, for ``timeout`` seconds.

    The supervisor calls :meth:`check` at least once per :attr:`tick`
    (:data:`SUPERVISE_TICK`, shortened to a twentieth of short
    timeouts), sleeping :meth:`wait` in between, so a stall trips
    within one tick of ``timeout`` after it began; ``clock`` is
    injectable for tests.
    """

    def __init__(self, live: Liveness, timeout: float,
                 clock: Callable[[], float] = time.monotonic):
        self.live = live
        self.timeout = timeout
        self.tick = min(SUPERVISE_TICK, timeout / 20)
        self._clock = clock
        self._since: Optional[float] = None
        self._progress = -1

    def check(self) -> Optional[dict[int, str]]:
        """The blocked dump (row -> blocked-on) once the stall has lasted
        ``timeout``, else ``None``."""
        dump = self.live.stalled()
        if not dump:
            self._since = None
            return None
        progress, now = self.live.total_progress(), self._clock()
        if self._since is None or progress != self._progress:
            self._since, self._progress = now, progress
            return None
        if now - self._since < self.timeout:
            return None
        # a stall that outlives its abort trips again only after another
        # full timeout, and the supervisor's waits stay a tick long
        self._since = None
        return dump

    def wait(self) -> float:
        """How long the supervisor may sleep before the next
        :meth:`check`: a tick, or less when a stall's deadline is
        nearer."""
        if self._since is None:
            return self.tick
        left = self._since + self.timeout - self._clock()
        return max(0.0, min(self.tick, left))


class SharedState(Liveness):
    """The procs domain's cross-process state: its :class:`Liveness`
    table (one row per endpoint), the domain abort record, and the
    rendezvous reply table.

    Layout: ``progress u64[E] | state u8[E] | desc char[E][120] | abort
    u8 | reason char[480] | dump char[E][120] | rdv i64[E][5 + E]``.
    ``dump`` rows hold the blocked dump of a watchdog abort (an empty
    row: the endpoint is not in it).
    """

    def __init__(self, endpoints: int):
        self.endpoints = e = endpoints
        # in order, each aligned to its item size, the per-message fields
        # first; a fresh mapping reads as zeros: no progress, every
        # endpoint RUNNING, no abort, no reply posted
        layout = (("progress", np.uint64, (e,)),
                  ("state", np.uint8, (e,)),
                  ("_descs", np.uint8, (e, _DESC_BYTES)),
                  ("_abort", np.uint8, (1,)),
                  ("_reason", np.uint8, (_REASON_BYTES,)),
                  ("_dump", np.uint8, (e, _DESC_BYTES)),
                  ("_rdv", np.int64, (e, _RDV_HDR + e)))
        offsets, off = [], 0
        for _, dt, shape in layout:
            size = np.dtype(dt).itemsize
            off = -(-off // size) * size
            offsets.append(off)
            off += size * int(np.prod(shape))
        buf = mmap.mmap(-1, off)
        for (name, dt, shape), off in zip(layout, offsets):
            setattr(self, name, np.ndarray(shape, dtype=dt, offset=off,
                                           buffer=buf))
        self._mirror(e)

    def aborted(self) -> bool:
        return bool(self._abort[0])

    def abort_record(self) -> tuple[str, dict[int, str]]:
        """The raised abort's reason and blocked dump (endpoint ->
        what it was blocked on)."""
        return _text(self._reason), {
            ep: _text(row) for ep, row in enumerate(self._dump) if row[0]}

    def rdv_count(self, endpoint: int) -> int:
        """Replies the broker has posted to ``endpoint`` so far."""
        return int(self._rdv[endpoint, 0])

    def rdv_reply(self, endpoint: int, seen: int) -> Optional[tuple]:
        """``(status, recv_ctx, send_ctx, peer endpoints)`` once the
        broker has posted reply ``seen + 1`` to ``endpoint``, else
        ``None``."""
        row = self._rdv[endpoint]
        if int(row[0]) == seen:
            return None
        status, recv_ctx, send_ctx, n = row[1:_RDV_HDR].tolist()
        return (status, recv_ctx, send_ctx,
                row[_RDV_HDR:_RDV_HDR + n].tolist())

    # -- supervisor side ---------------------------------------------------

    def set_abort(self, reason: str,
                  dump: Optional[dict[int, str]] = None) -> None:
        """Raise the domain abort: the blocked dump and the reason
        first, then the flag byte ranks read when they wake."""
        san = _san.ACTIVE
        if san is not None:
            san.state_write(None, "state.set_abort")
        for ep, desc in (dump or {}).items():
            _put_text(self._dump[ep], desc)
        _put_text(self._reason, reason)
        self._abort[0] = 1

    def rdv_post(self, endpoint: int, status: int, recv_ctx: int = 0,
                 send_ctx: int = 0, peers: Sequence[int] = ()) -> None:
        """Broker: answer ``endpoint``'s rendezvous — the fields first,
        then the row's reply counter."""
        san = _san.ACTIVE
        if san is not None:
            san.state_write(None, "state.rdv_post")
        row = self._rdv[endpoint]
        row[1:_RDV_HDR] = (status, recv_ctx, send_ctx, len(peers))
        row[_RDV_HDR:_RDV_HDR + len(peers)] = peers
        row[0] += 1


# -- control plane: per-pair descriptor rings --------------------------------

#: Descriptor records per (sender, receiver) ring.  A sender that finds
#: its ring to a peer full waits (``ctl_ring(...)`` in watchdog dumps)
#: while draining its own incoming rings, so two ranks flooding each
#: other cannot deadlock.
CTL_DEPTH = 64

#: ``first slot`` of a record whose payload is in its inline area.
SLOT_INLINE = -1

#: Record header: context, source, tag, envelope nbytes, wire bytes,
#: first slot, kind, ndim, flags, <pad>, then (``ND`` only, packed per
#: ndim) the dtype string and the shape — 128 bytes, so the inline area
#: after it starts 64-byte aligned.
_CTL_HDR = struct.Struct("<6q3Bx")
CTL_MAX_NDIM = 8
_ND_HDR = [struct.Struct(f"<12s{n}q") for n in range(CTL_MAX_NDIM + 1)]
#: ``flags`` bit of a record carrying one run of a streamed payload: its
#: inline area holds the run's byte offset into the payload and the
#: payload's total wire bytes (:data:`_SPAN`).
_STREAMED = 1
_SPAN = struct.Struct("<2q")
_CTL_DTYPE_BYTES = 12
#: Sanitizer token area appended to every record under ``REPRO_TSAN``
#: (a length word, then the pickled token of at most CTL_TOKEN_MAX).
_CTL_TSAN_BYTES = 2048
_TOKEN_LEN = struct.Struct("<I")
CTL_TOKEN_MAX = _CTL_TSAN_BYTES - _TOKEN_LEN.size

_DTYPES: dict[bytes, np.dtype] = {}
#: dtype -> its record code (the dtype string), ``None`` when no record
#: header can describe it
_CODES: dict[np.dtype, Optional[bytes]] = {}


def _dtype_code(dt: np.dtype) -> Optional[bytes]:
    code = _CODES.get(dt, b"")
    if code == b"":
        code = _CODES[dt] = (
            dt.str.encode() if dt.fields is None and dt.subdtype is None
            and len(dt.str) <= _CTL_DTYPE_BYTES else None)
    return code


class ControlSegment:
    """Per-pair single-producer/single-consumer descriptor rings.

    Layout (``E`` endpoints, counters indexed ``receiver * E + sender``
    so a receiver's incoming counters are one contiguous row)::

        tail    u64[E*E]          # sender-written: records published
        head    u64[E*E]          # receiver-written: records consumed
        records [E*E][CTL_DEPTH]  # fixed-size, 64-byte aligned

    Record ``seq`` of a pair lives at index ``seq % CTL_DEPTH``.  The
    sender may fill it only while ``seq - head < CTL_DEPTH`` and stores
    ``tail = seq + 1`` after the fill; the receiver reads every record
    below ``tail`` and then stores ``head``.  Aligned 8-byte counter
    stores plus x86-TSO order the record bytes before the counter that
    publishes them — the discipline of :class:`Window`.

    Created in the supervisor, inherited over ``fork``; the mapping is
    never written at creation (a fresh mapping reads as zeros), so only
    rings a rank actually uses cost resident pages.
    """

    def __init__(self, endpoints: int):
        self.endpoints = e = int(endpoints)
        self.depth = CTL_DEPTH
        self.tsan = _san.enabled()
        self._inline_off = _CTL_HDR.size + _ND_HDR[CTL_MAX_NDIM].size
        self._token_off = self._inline_off + INLINE_MAX
        self.rec_bytes = self._token_off + (_CTL_TSAN_BYTES if self.tsan
                                            else 0)
        ctr = (8 * e * e + 63) & ~63
        self._rec_off = 2 * ctr
        self._buf = memoryview(mmap.mmap(
            -1, self._rec_off + e * e * CTL_DEPTH * self.rec_bytes))
        self._tail = np.ndarray(e * e, dtype=np.uint64, buffer=self._buf)
        self._head = np.ndarray(e * e, dtype=np.uint64, buffer=self._buf,
                                offset=ctr)
        #: per receiver, its incoming rings' tails; the mapping's bytes
        self._tails = [self._tail[d * e:(d + 1) * e] for d in range(e)]
        self._bytes = np.ndarray(len(self._buf), np.uint8, buffer=self._buf)

    def _record(self, dst: int, src: int, seq: int) -> int:
        return self._rec_off + (
            (dst * self.endpoints + src) * CTL_DEPTH + seq % CTL_DEPTH
        ) * self.rec_bytes

    # -- sender side (tail writer) -------------------------------------------

    def head(self, dst: int, src: int) -> int:
        """Records of the ``src -> dst`` ring its receiver has consumed."""
        return int(self._head[dst * self.endpoints + src])

    def write(self, dst: int, src: int, seq: int, context: int,
              source: int, tag: int, nbytes: int, slot: int, kind: int,
              buf: Optional[np.ndarray], token: bytes = b"",
              span: Optional[tuple[int, int]] = None) -> None:
        """Fill record ``seq`` of the ``src -> dst`` ring (not yet
        visible: :meth:`publish` makes it so).  ``buf`` is the payload
        (``None`` for ``NONE``); its bytes are copied into the inline
        area when ``slot`` is :data:`SLOT_INLINE`.  ``span = (offset,
        nbytes)`` marks a record whose slot run carries only bytes
        ``offset .. offset + nbytes`` of a streamed ``buf``."""
        off = self._record(dst, src, seq)
        wire = 0 if buf is None else buf.nbytes
        flags = 0
        if span is not None:
            _SPAN.pack_into(self._buf, off + self._inline_off, span[0], wire)
            wire, flags = span[1], _STREAMED
        ndim = buf.ndim if kind == ND else 0
        _CTL_HDR.pack_into(self._buf, off, context, source, tag, nbytes,
                           wire, slot, kind, ndim, flags)
        if kind == ND:
            _ND_HDR[ndim].pack_into(self._buf, off + _CTL_HDR.size,
                                    _dtype_code(buf.dtype), *buf.shape)
        if slot == SLOT_INLINE and wire:
            lo = off + self._inline_off
            self._buf[lo:lo + wire] = buf.tobytes()
        if self.tsan:
            if len(token) > CTL_TOKEN_MAX:
                raise ValueError(f"sanitizer token of {len(token)} bytes "
                                 f"exceeds the record's {CTL_TOKEN_MAX}")
            lo = off + self._token_off
            _TOKEN_LEN.pack_into(self._buf, lo, len(token))
            lo += _TOKEN_LEN.size
            self._buf[lo:lo + len(token)] = token

    def publish(self, dst: int, src: int, seq: int) -> None:
        """Make record ``seq`` visible: store ``tail = seq + 1``."""
        self._tail[dst * self.endpoints + src] = seq + 1

    # -- receiver side (head writer) -----------------------------------------

    def tails(self, dst: int) -> list[int]:
        """Published-record counts of every ring into ``dst``, indexed
        by sender."""
        return self._tails[dst].tolist()

    def read(self, dst: int, src: int, seq: int) -> tuple:
        """Record ``seq`` of the ``src -> dst`` ring: ``(context, source,
        tag, nbytes, wire, slot, kind, dtype, shape, inline, span)``
        where ``inline`` is a uint8 view of the inline payload bytes
        (valid until :meth:`set_head` passes ``seq``) or ``None``, and
        ``span`` is ``(offset, total wire bytes)`` of a streamed
        payload's run, else ``None``."""
        off = self._record(dst, src, seq)
        (context, source, tag, nbytes, wire, slot, kind, ndim,
         flags) = _CTL_HDR.unpack_from(self._buf, off)
        dtype, shape = None, ()
        if kind == ND:
            nd = _ND_HDR[ndim].unpack_from(self._buf, off + _CTL_HDR.size)
            dtype, shape = _DTYPES.get(nd[0]), nd[1:]
            if dtype is None:
                dtype = _DTYPES[nd[0]] = np.dtype(
                    nd[0].rstrip(b"\0").decode())
        inline = span = None
        if flags:
            span = _SPAN.unpack_from(self._buf, off + self._inline_off)
        elif slot == SLOT_INLINE and wire:
            lo = off + self._inline_off
            inline = self._bytes[lo:lo + wire]
        return (context, source, tag, nbytes, wire, slot, kind, dtype,
                shape, inline, span)

    def token(self, dst: int, src: int, seq: int) -> bytes:
        """The sanitizer token of record ``seq`` (``b""`` when the
        mapping was built without a token area)."""
        if not self.tsan:
            return b""
        lo = self._record(dst, src, seq) + self._token_off
        (n,) = _TOKEN_LEN.unpack_from(self._buf, lo)
        lo += _TOKEN_LEN.size
        return bytes(self._buf[lo:lo + n])

    def set_head(self, dst: int, src: int, value: int) -> None:
        """Release every record of the ``src -> dst`` ring below
        ``value`` back to its sender."""
        self._head[dst * self.endpoints + src] = value


# -- payload encode/decode ---------------------------------------------------

_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_COMPLEX = struct.Struct("<dd")
_INT_MIN, _INT_MAX = -(1 << 63), (1 << 63) - 1


def _raw(b: bytes) -> np.ndarray:
    return np.frombuffer(b, dtype=np.uint8)


def encode_payload(obj: Any) -> tuple[int, Optional[np.ndarray], int]:
    """Classify one wire payload for the procs transport: ``(kind,
    buf, nbytes)``.  ``buf`` is what goes in a record's inline area or
    a slot run — the array itself (or a ``Borrowed`` lend's view) for
    ``ND``, uint8 bytes otherwise, ``None`` for ``NONE`` — and
    ``nbytes`` the envelope's bytes (an array's, 8 for a scalar, else
    the encoded length).  Only objects with no raw-byte form and arrays
    no record describes are pickled; a ``Raw`` handle raises."""
    if obj is None:
        return NONE, None, 8
    cls = type(obj)
    if cls is Borrowed:
        obj = obj.value
    elif cls is not np.ndarray and isinstance(obj, np.ndarray):
        obj = np.asarray(obj)
    if isinstance(obj, np.ndarray):
        if (obj.ndim <= CTL_MAX_NDIM and not obj.dtype.hasobject
                and _dtype_code(obj.dtype) is not None):
            return ND, obj, obj.nbytes
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return PICKLE, _raw(blob), obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return BYTES, _raw(bytes(obj)), len(obj)
    if isinstance(obj, bool):
        return BOOL, _raw(b"\1" if obj else b"\0"), 8
    if isinstance(obj, int):
        if _INT_MIN <= obj <= _INT_MAX:
            return INT, _raw(_INT.pack(obj)), 8
        return PICKLE, _raw(pickle.dumps(
            obj, protocol=pickle.HIGHEST_PROTOCOL)), 8
    if isinstance(obj, float):
        return FLOAT, _raw(_FLOAT.pack(obj)), 8
    if isinstance(obj, complex):
        return COMPLEX, _raw(_COMPLEX.pack(obj.real, obj.imag)), 8
    if isinstance(obj, str):
        raw = _raw(obj.encode("utf-8", "surrogatepass"))
        return STR, raw, raw.nbytes
    if isinstance(obj, Raw):
        raise CommunicatorError(
            "payload.Raw wraps a process-local handle; it cannot be "
            "sent to another process (procs backend)")
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return PICKLE, _raw(blob), len(blob)


def decode_payload(kind: int, raw: Optional[np.ndarray], dtype: Any = None,
                   shape: tuple = ()) -> Any:
    """Rebuild the receiver-side payload from its uint8 bytes ``raw``.

    For ``ND`` the result is a (possibly read-only) view over ``raw`` —
    the mailbox consumes it synchronously as a lent view, so scattering
    straight out of a shared slot or record needs no staging copy.
    """
    if kind == ND:
        if raw is None:
            return np.empty(shape, dtype=dtype)
        return raw.view(dtype).reshape(shape)
    if kind == NONE:
        return None
    if raw is None:
        raw = _raw(b"")
    if kind == BYTES:
        return raw.tobytes()
    if kind == INT:
        return _INT.unpack_from(raw)[0]
    if kind == FLOAT:
        return _FLOAT.unpack_from(raw)[0]
    if kind == STR:
        return raw.tobytes().decode("utf-8", "surrogatepass")
    if kind == BOOL:
        return bool(raw[0])
    if kind == COMPLEX:
        return complex(*_COMPLEX.unpack_from(raw))
    if kind == PICKLE:
        return pickle.loads(raw.tobytes())
    raise ValueError(f"unknown payload kind {kind!r}")
