"""The one place the benchmark reads ``repro``'s public stat objects.

``TRANSPORT_STATS``, ``PLAN_STATS``, ``PRMI_STATS``, ``slot_stats()`` and
``Channel.pool_stats`` are per process, so every rank takes a
:func:`snapshot` before and after its timed phase and carries both out in
its return value; the parent sums the deltas across ranks.  A source that
cannot be read (moved, renamed, replaced by a registry) reads as ``None``
and every metric derived from it is reported as ``null`` — the benchmark
keeps running, and following such a change is an edit to this file only.
A *key* that a live source never incremented is a true zero.
"""

from __future__ import annotations

from typing import Callable


def _transport():
    from repro.util.counters import TRANSPORT_STATS
    return TRANSPORT_STATS.snapshot()


def _plan():
    from repro.schedule.indexplan import PLAN_STATS
    return PLAN_STATS.snapshot()


def _prmi():
    from repro.util.counters import PRMI_STATS
    return PRMI_STATS.snapshot()


def _slots():
    from repro.simmpi.procs import slot_stats
    return slot_stats()


_SOURCES: dict[str, Callable[[], dict]] = {
    "transport": _transport, "plan": _plan, "prmi": _prmi, "slots": _slots}


def snapshot(channel=None) -> dict[str, dict | None]:
    """Every stat source of this process as ``{source: counters | None}``;
    ``channel`` adds its buffer-pool counters as source ``bufpool``."""
    readers = dict(_SOURCES)
    if channel is not None:
        readers["bufpool"] = lambda: channel.pool_stats
    snap: dict[str, dict | None] = {}
    for source, read in readers.items():
        try:
            snap[source] = dict(read())
        except (ImportError, AttributeError):
            snap[source] = None
    return snap


def delta(before: dict, after: dict) -> dict[str, dict | None]:
    """``after - before`` per source and key (``None`` stays ``None``)."""
    out: dict[str, dict | None] = {}
    for source, b in after.items():
        a = before.get(source)
        out[source] = (None if a is None or b is None else
                       {k: b.get(k, 0) - a.get(k, 0) for k in set(a) | set(b)})
    return out


def total(per_rank: list[dict], source: str, key: str) -> int | None:
    """Sum of one counter over every rank's delta; ``None`` when any rank
    could not read the source."""
    values = [d.get(source) for d in per_rank]
    if not values or any(v is None for v in values):
        return None
    return sum(v.get(key, 0) for v in values)


def peak(per_rank: list[dict], source: str, key: str) -> int | None:
    """Largest value of a high-water gauge over every rank's snapshot."""
    values = [d.get(source) for d in per_rank]
    if not values or any(v is None for v in values):
        return None
    return max(v.get(key, 0) for v in values)


def per_op(per_rank: list[dict], source: str, key: str,
           ops: int) -> float | None:
    """:func:`total` divided by the number of timed operations."""
    n = total(per_rank, source, key)
    return None if n is None else n / ops
