"""Pooled transfer buffers for persistent-channel steady state.

A persistent schedule sends the same pair plans every step, so the pack
buffers it needs have the same sizes every step — allocating them anew
per step (and leaving the old ones to the garbage collector) is pure
overhead.  A :class:`BufferPool` recycles them: a buffer is *loaned*
against a key identifying its pair plan, gathered into, lent to one
send (:class:`~repro.simmpi.payload.Borrowed`, consumed before the
send returns), and released by the same code right after — so the
transport never calls back into a pool.  Every loan is therefore
released before the next step needs it, and in steady state the pool
performs **zero allocations**, which ``stats["allocations"]`` lets
tests and the CI regression gate assert.  A loan whose key has no idle
buffer (the first step, or a caller that has not released yet) simply
allocates a fresh one.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable

import numpy as np

from repro.util.counters import Counters, TRANSPORT_STATS

__all__ = ["BufferPool"]

#: The memory gauges a loan moves.
_GAUGES = ("pool_bytes", "resident_bytes")


class BufferPool:
    """Thread-safe free-lists of staging buffers, keyed by pair plan.

    ``stats`` counters:

    * ``loans`` — total loan calls,
    * ``reuses`` — loans satisfied from a free-list,
    * ``allocations`` / ``allocated_bytes`` — fresh buffers created,
    * ``releases`` — buffers returned by their borrower,
    * ``mismatch_discards`` — pooled buffers dropped because their
      shape/dtype no longer matched the key's request (only possible if
      a key is reused across differently-shaped plans).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: dict[Hashable, list[np.ndarray]] = {}
        self.stats = Counters()

    def loan(self, key: Hashable, size: int, dtype,
             ) -> tuple[np.ndarray, Callable[[], None]]:
        """A 1-D buffer of ``size`` elements and its release callback.

        The caller fills the buffer, lends it to a send as
        :class:`~repro.simmpi.payload.Borrowed` and calls the release
        exactly once when that send has returned.
        """
        dtype = np.dtype(dtype)
        stats = self.stats.shard()
        stats["loans"] += 1
        buf = None
        with self._lock:
            free = self._free.get(key)
            while free:
                cand = free.pop()
                if cand.size == size and cand.dtype == dtype:
                    buf = cand
                    break
                stats["mismatch_discards"] += 1
        if buf is None:
            buf = np.empty(size, dtype)
            stats["allocations"] += 1
            stats["allocated_bytes"] += buf.nbytes
        else:
            stats["reuses"] += 1
        TRANSPORT_STATS.gauge_add(_GAUGES, buf.nbytes)

        def release(buf=buf, key=key):
            TRANSPORT_STATS.gauge_add(_GAUGES, -buf.nbytes)
            with self._lock:
                self._free.setdefault(key, []).append(buf)
            self.stats.add("releases")

        return buf, release

    def pooled_buffers(self) -> int:
        """Buffers currently sitting in free-lists (idle, reusable)."""
        with self._lock:
            return sum(len(v) for v in self._free.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BufferPool({self.pooled_buffers()} pooled, "
                f"stats={self.stats.snapshot()!r})")
