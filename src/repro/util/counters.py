"""Instrumentation counters.

Every communicator carries a :class:`Counters` instance so benchmarks can
report deterministic *shape* metrics — messages, bytes, barriers — beside
wall-clock time (which on a thread-simulated runtime is only indicative).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import defaultdict


class Counters:
    """Thread-safe named integer counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._data[name] += int(amount)

    def gauge_add(self, name: str, delta: int) -> None:
        """Move a *level* gauge by ``delta`` and maintain its high-water
        mark: ``name`` tracks the current level, ``peak_<name>`` the
        maximum level ever observed (both under one lock, so concurrent
        acquire/release races can never record a stale peak).  Resetting
        the counters zeroes both — reset around a measured section, as
        with plain counters."""
        with self._lock:
            level = self._data[name] + int(delta)
            self._data[name] = level
            peak = "peak_" + name
            if level > self._data[peak]:
                self._data[peak] = level

    def get(self, name: str) -> int:
        with self._lock:
            return self._data.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._data)

    def reset(self) -> None:
        with self._lock:
            self._data.clear()

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
#: its sender.  One-sided cost (:mod:`repro.simmpi.rma`): ``rma_puts`` /
#: ``rma_put_bytes`` count remote-window writes, ``rma_fences``
#: completed exposure epochs, and ``rma_epoch_waits`` put-side spins on
#: a not-yet-open epoch.  A persistent channel in RMA mode should show
#: zero matched messages per steady-state step — that delta is the A9
#: benchmark's headline metric.
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
#: transfer-buffer footprint high-water mark the A10 memory-ceiling
#: benchmark gates on (per process: the threads backend sums all rank
#: threads, the procs backend counts each rank's own process).  A loan
#: is released before its send returns and a queued envelope holds its
#: own snapshot, so no byte is counted twice.
TRANSPORT_STATS = Counters()


class Histogram:
    """Thread-safe log-spaced latency histogram (microsecond domain).

    Buckets grow geometrically from 1 µs to ~17 s (×2 per bucket), which
    keeps recording O(log n) and percentile error under a factor of two
    — plenty for p50/p99 serving-latency floors whose regressions are
    order-of-magnitude events.  ``record`` takes seconds (what
    ``time.perf_counter`` subtraction yields); ``percentile`` returns
    microseconds (the upper edge of the bucket holding the quantile).
    """

    #: Bucket upper edges in microseconds: 1, 2, 4, ... 2**24.
    EDGES = tuple(float(1 << i) for i in range(25))

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets = [0] * (len(self.EDGES) + 1)
        self._count = 0
        self._sum_us = 0.0

    def record(self, seconds: float) -> None:
        us = seconds * 1e6
        idx = bisect_left(self.EDGES, us)
        with self._lock:
            self._buckets[idx] += 1
            self._count += 1
            self._sum_us += us

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def mean_us(self) -> float:
        with self._lock:
            return self._sum_us / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bucket edge (µs) at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q * self._count
            seen = 0
            for i, c in enumerate(self._buckets):
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
            self._buckets = [0] * (len(self.EDGES) + 1)
            self._count = 0
            self._sum_us = 0.0


#: Process-wide PRMI serving accounting (:mod:`repro.prmi.serving`).
#:
#: Counters: ``invocations`` — requests admitted by a pipeline (batched,
#: sync, one-way and pipelined-collective alike), ``frames_sent`` /
#: ``frame_requests`` — coalesced frames and the requests they carry
#: (their ratio is the batch occupancy the A11 benchmark reports),
#: ``frame_bytes`` — encoded frame payload bytes, ``flush_full`` /
#: ``flush_deadline`` / ``flush_forced`` — why each flush fired (batch
#: cap, ``REPRO_BATCH_DELAY_US`` deadline, or an explicit
#: ``flush()``/``result()``), ``pipelined_calls`` — collective
#: invocations whose RETURN wait was deferred to a future,
#: ``cached_read_hits`` — invocations answered from a CachedRead policy
#: without touching the wire, ``overloads`` — admissions refused by
#: backpressure (caller-side credit or the server's bounded queue).
#:
#: Gauge (via :meth:`Counters.gauge_add`): ``inflight`` — submitted-but-
#: unresolved requests across pipelines; ``peak_inflight`` is the queue
#: depth high-water mark the serving benchmark records.
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
