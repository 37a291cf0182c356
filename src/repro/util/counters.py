"""Instrumentation counters.

Every communicator carries a :class:`Counters` instance so benchmarks can
report deterministic *shape* metrics — messages, bytes, barriers — beside
wall-clock time (which on a thread-simulated runtime is only indicative).

Increments take no lock: each thread adds into its own *shard*,
registered on its first increment, and reads sum the shards under the
lock.  Counts stay exact — a shard has one writer, and a reader copies
it in one step — and a finished thread's shard is folded into the base
on the next read, so the shard list is bounded by the live threads.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import defaultdict


class _Sharded:
    """The shard registry :class:`Counters` and :class:`Histogram`
    share: one accumulator per thread, looked up through a
    ``threading.local`` on the increment path, and a lock taken only to
    register a shard, read, or reset."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._shards: list[tuple[threading.Thread, object]] = []

    def _new_shard(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _fold(self, shard) -> None:  # pragma: no cover - abstract
        """Add a finished thread's ``shard`` into the base (lock held)."""
        raise NotImplementedError

    def _register(self):
        shard = self._new_shard()
        with self._lock:
            self._local.shard = shard
            self._shards.append((threading.current_thread(), shard))
        return shard

    def _live_shards(self) -> list:
        """The live threads' shards, after folding the finished
        threads' shards into the base (lock held).  A reader takes each
        one whole with ``.copy()`` or ``.get()`` — a single step under
        the GIL, so it never sees a half-made increment."""
        live = []
        for thread, shard in self._shards:
            if thread.is_alive():
                live.append((thread, shard))
            else:
                self._fold(shard)
        self._shards = live
        return [shard for _thread, shard in live]

    def _drop_shards(self) -> None:
        """Forget every shard (lock held).  A thread keeps adding into
        its old shard only for an increment already under way, which
        then lands before the reset; nothing is revived after it."""
        self._local = threading.local()
        self._shards = []


class Counters(_Sharded):
    """Named integer counters, exact under any number of threads.

    :meth:`add` takes no lock: it increments the calling thread's shard.
    :meth:`get` and :meth:`snapshot` sum the base and every shard under
    the lock, and :meth:`reset` clears both.  Gauges
    (:meth:`gauge_add`) keep the lock: a peak needs the level in one
    place.
    """

    def __init__(self) -> None:
        super().__init__()
        self._data: dict[str, int] = defaultdict(int)

    def _new_shard(self) -> dict[str, int]:
        return defaultdict(int)

    def _fold(self, shard: dict[str, int]) -> None:
        for name, value in shard.items():
            self._data[name] += value

    def shard(self) -> dict[str, int]:
        """The calling thread's shard, for a path that adds several
        counts at once (one message's tally).  Add ints only."""
        try:
            return self._local.shard
        except AttributeError:
            return self._register()

    def add(self, name: str, amount: int = 1) -> None:
        self.shard()[name] += int(amount)

    def gauge_add(self, names: str | tuple[str, ...], delta: int) -> None:
        """Move a *level* gauge — or each of a tuple of gauges — by
        ``delta`` and maintain its high-water mark: ``name`` tracks the
        current level, ``peak_<name>`` the maximum level ever observed
        (under one lock, so concurrent moves never record a stale peak).
        Resetting the counters zeroes both, as with plain counters."""
        data = self._data
        with self._lock:
            for name in (names,) if type(names) is str else names:
                level = data[name] = data[name] + delta
                if level > data["peak_" + name]:
                    data["peak_" + name] = level

    def get(self, name: str) -> int:
        with self._lock:
            live = self._live_shards()      # folds finished threads first
            return self._data.get(name, 0) + sum(
                shard.get(name, 0) for shard in live)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            live = self._live_shards()      # folds finished threads first
            out = dict(self._data)
            for shard in live:
                for name, value in shard.copy().items():
                    out[name] = out.get(name, 0) + value
            return out

    def reset(self) -> None:
        with self._lock:
            self._data.clear()
            self._drop_shards()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counters({self.snapshot()!r})"


#: Process-wide transport accounting (bytes copied, borrow snapshots,
#: direct recv-into-destination deliveries, ...).  Lives here rather
#: than in :mod:`repro.simmpi.payload` users' modules to avoid import
#: cycles between the payload, matching and schedule layers; reset it
#: around a measured section to get per-section deltas.
#:
#: Two-sided matching cost (:mod:`repro.simmpi.matching`):
#: ``messages_matched`` counts every envelope consumed by a receiver
#: (queue match, prepost drain, or direct slot completion) and
#: ``rendezvous_waits`` every receive that actually blocked waiting for
#: its sender.  One-sided cost (:mod:`repro.simmpi.rma`, on both
#: backends): ``rma_puts`` / ``rma_put_bytes`` count remote-window
#: writes, ``rma_fences`` completed exposure epochs, and
#: ``rma_epoch_waits`` the put side's parks while none of its pending
#: windows had opened the epoch (a parked epoch wait counts no
#: ``rendezvous_waits``, and the kick that ends it is no message).  A
#: persistent channel in RMA mode should show zero matched messages per
#: steady-state step — that delta is the A9 benchmark's headline metric.
#:
#: Memory gauges (maintained with :meth:`Counters.gauge_add`, each with
#: a ``peak_``-prefixed high-water twin): ``pool_bytes`` — bytes on
#: loan from :class:`~repro.schedule.bufpool.BufferPool`\ s,
#: ``slot_bytes`` — shared-memory slots held BUSY in a
#: :class:`~repro.simmpi.shm.SegmentPool` (the sending process charges
#: and credits its own ring's occupancy, read at every acquire), and
#: ``resident_bytes`` —
#: the sum of both plus every envelope queued in a mailbox awaiting its
#: receiver.  ``peak_resident_bytes`` is therefore the process-wide
#: transfer-buffer footprint high-water mark (per process: the threads
#: backend sums all rank threads, the procs backend counts each rank's
#: own process).  A loan
#: is released before its send returns and a queued envelope holds its
#: own snapshot, so no byte is counted twice.
TRANSPORT_STATS = Counters()


class Histogram(_Sharded):
    """Log-spaced latency histogram (microsecond domain), exact under
    any number of threads.

    Buckets grow geometrically from 1 µs to ~17 s (×2 per bucket), which
    keeps recording O(log n) and percentile error under a factor of two
    — plenty for p50/p99 serving-latency floors whose regressions are
    order-of-magnitude events.  ``record`` takes seconds (what
    ``time.perf_counter`` subtraction yields); ``percentile`` returns
    microseconds (the upper edge of the bucket holding the quantile).
    Like :class:`Counters`, :meth:`record` takes no lock: it adds into
    the calling thread's shard (the bucket counts, then the µs sum), and
    every read sums the shards under the lock.
    """

    #: Bucket upper edges in microseconds: 1, 2, 4, ... 2**24.
    EDGES = tuple(float(1 << i) for i in range(25))
    #: A shard's (and the base's) slots: one per bucket, then the µs sum.
    _SLOTS = len(EDGES) + 2

    def __init__(self) -> None:
        super().__init__()
        self._base = self._new_shard()

    def _new_shard(self) -> list:
        shard = [0] * self._SLOTS
        shard[-1] = 0.0
        return shard

    def _fold(self, shard: list) -> None:
        self._base = [a + b for a, b in zip(self._base, shard)]

    def record(self, seconds: float) -> None:
        us = seconds * 1e6
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._register()
        shard[bisect_left(self.EDGES, us)] += 1
        shard[-1] += us

    def _totals(self) -> list:
        with self._lock:
            live = self._live_shards()      # folds finished threads first
            totals = self._base
            for shard in live:
                totals = [a + b for a, b in zip(totals, shard.copy())]
            return totals

    @property
    def count(self) -> int:
        return sum(self._totals()[:-1])

    def mean_us(self) -> float:
        totals = self._totals()
        count = sum(totals[:-1])
        return totals[-1] / count if count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bucket edge (µs) at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        buckets = self._totals()[:-1]
        count = sum(buckets)
        if count == 0:
            return 0.0
        target = q * count
        seen = 0
        for i, c in enumerate(buckets):
            seen += c
            if seen >= target and c:
                return (self.EDGES[i] if i < len(self.EDGES)
                        else self.EDGES[-1] * 2)
        return self.EDGES[-1] * 2

    def snapshot(self) -> dict[str, float]:
        return {"count": self.count, "mean_us": self.mean_us(),
                "p50_us": self.percentile(0.50),
                "p99_us": self.percentile(0.99)}

    def reset(self) -> None:
        with self._lock:
            self._base = self._new_shard()
            self._drop_shards()


#: Process-wide PRMI serving accounting (:mod:`repro.prmi.serving`).
#:
#: Counters: ``invocations`` — requests admitted by a pipeline (batched,
#: unbatched and one-way alike), ``frames_sent`` / ``frame_requests`` —
#: coalesced frames and the requests they carry (their ratio is the
#: batch occupancy the A11 benchmark reports), ``frame_bytes`` —
#: encoded frame payload bytes, ``flush_full`` / ``flush_deadline`` /
#: ``flush_forced`` — why each flush fired (batch cap,
#: ``Batched.delay_us`` deadline, or an unbatched submit or an explicit
#: ``flush()``/``result()``), ``overloads`` — admissions refused by
#: backpressure (caller-side credit or the server's bounded queue).
#:
#: Gauge (via :meth:`Counters.gauge_add`): ``inflight`` — submitted-but-
#: unresolved requests across pipelines, posted once per frame (a batch
#: not yet shipped is not on it); ``peak_inflight`` is the queue depth
#: high-water mark the serving benchmark records, exact because a
#: pipeline posts its increments before any decrement.
PRMI_STATS = Counters()

#: Caller-observed request latency (submit → resolved), µs buckets.
PRMI_LATENCY = Histogram()

#: Process-wide race-sanitizer accounting (:mod:`repro.simmpi.sanitize`,
#: enabled with ``REPRO_TSAN=1``).  ``sync_ops`` counts vector-clock
#: events at shared-memory synchronization sites (slot acquire /
#: publish / consume / release, window epoch open / commit / fence,
#: SharedState field writes, mailbox envelope handoffs) and ``reports``
#: the :class:`~repro.simmpi.sanitize.RaceReport`\ s raised, with one
#: kind-specific twin each: ``reports_unsynchronized_write``,
#: ``reports_torn_seqlock_read``, ``reports_slot_reuse``.  Every name
#: stays exactly zero while the sanitizer is disabled — the A2 ablation
#: benchmark gates on that (the hooks are a single module-global
#: ``None`` test when off).
RACE_STATS = Counters()

#: Process-wide elastic-redistribution accounting
#: (:func:`repro.highlevel.reconfigure`): ``migrated_bytes`` — bytes
#: whose owner actually changed and therefore crossed the wire during a
#: ``reconfigure``, ``kept_bytes`` — bytes that stayed on their rank and
#: were repacked locally (or left in place on identity ranks),
#: ``identity_ranks`` — ranks whose ownership was completely unchanged
#: and skipped even the local repack.  ``resizes`` counts completed live resizes and
#: ``resize_wall_us`` accumulates their rank-0 wall time; reset around
#: a measured section for per-section deltas, as with TRANSPORT_STATS.
REDIST_STATS = Counters()
