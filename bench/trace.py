"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around its calls into
``repro``; nothing inside ``src/`` knows about them.  A rank program
takes ``time.perf_counter`` stamps around a call whether or not tracing
is on (the untraced run needs the same stamps for its medians) and, when
it holds a :class:`Tracer`, hands them over afterwards — so the only
cost tracing adds to the timed path is a tuple append.

``perf_counter`` is CLOCK_MONOTONIC on Linux: one system-wide clock, so
stamps taken in different rank processes share a timeline.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

#: A rank stops recording past this many spans (``prmi_batched`` would
#: otherwise ship hundreds of thousands of tuples back through a pickle).
MAX_SPANS_PER_RANK = 60_000


class Tracer:
    """One rank's span list: ``(name, rank, t_start, t_end, parent, op_id)``.

    ``rank`` is a label such as ``"prod0"``; ``parent`` is the name of the
    enclosing span on the same rank and ``op_id`` the step or request
    index, which is the same number on every rank that works on it.
    """

    def __init__(self, rank: str):
        self.rank = rank
        self.spans: list[tuple] = []
        self.dropped = 0

    def add(self, name: str, t0: float, t1: float,
            parent: str | None = None, op: int | None = None) -> None:
        if len(self.spans) < MAX_SPANS_PER_RANK:
            self.spans.append((name, self.rank, t0, t1, parent, op))
        else:
            self.dropped += 1


def durations_ms(spans, name: str, rank: str | None = None) -> list[float]:
    """Durations of every span called ``name`` (optionally on one rank)."""
    return [(t1 - t0) * 1e3 for n, r, t0, t1, _p, _o in spans
            if n == name and (rank is None or r == rank)]


def median_ms(spans, name: str, rank: str | None = None) -> float:
    """Median duration of ``name`` spans in ms; 0.0 when none were recorded
    (the layer did no work on this workload)."""
    ds = durations_ms(spans, name, rank)
    return statistics.median(ds) if ds else 0.0


def self_times_ms(spans) -> dict[str, float]:
    """Total self time per span name: a span's duration minus the part of
    it that its child spans (same rank, same op, ``parent`` = its name)
    cover."""
    child_cover: dict[tuple, float] = defaultdict(float)
    for _name, rank, t0, t1, parent, op in spans:
        if parent is not None:
            child_cover[(parent, rank, op)] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for name, rank, t0, t1, _parent, op in spans:
        out[name] += ((t1 - t0) - child_cover.get((name, rank, op), 0.0)) * 1e3
    return dict(out)


def write_chrome_trace(path, spans) -> None:
    """Write ``spans`` as Chrome-trace JSON (load in ``chrome://tracing``
    or https://ui.perfetto.dev): one complete (``"X"``) event per span,
    one track per rank, timestamps in microseconds from the first span."""
    origin = min((s[2] for s in spans), default=0.0)
    tids = {rank: i for i, rank in enumerate(sorted({s[1] for s in spans}))}
    events = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
               "args": {"name": rank}} for rank, tid in tids.items()]
    events.extend(
        {"name": name, "ph": "X", "pid": 0, "tid": tids[rank],
         "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
         "args": {"parent": parent, "op_id": op}}
        for name, rank, t0, t1, parent, op in spans)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
