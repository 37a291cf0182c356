"""Pieces every workload shares: the outcome record, seeded ground truth,
the per-snapshot mutation both sides mirror, and the leak checks."""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.dad import DistArrayDescriptor, DistributedArray

now = time.perf_counter


@dataclass
class Outcome:
    """What one launch of a workload hands back to ``run.py``."""

    op: str                              # what one operation is
    setup_s: float                       # launch -> end of first operation
    samples_ms: list[float]              # untraced time of each timed op
    start: float                         # clock at the start of the timed phase
    ends: list[float]                    # clock at the end of each timed op
    attempted: int                       # operations and checks evaluated
    failures: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)    # per-layer metrics
    spans: list = field(default_factory=list)     # traced run only
    notes: dict = field(default_factory=dict)     # printed, not gated


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float | None:
    """The ``q`` quantile, or ``None`` unless at least ten samples lie
    beyond it (a tail read off fewer is noise)."""
    if not values or len(values) * (1.0 - q) < 10:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def timed_ops(seconds: float, warm_samples: list[float], floor: int) -> int:
    """How many operations fill ``seconds``, from the warm-up's operation
    times.  Every rank of a lockstep workload must agree on the count
    before the timed phase starts, so it is fixed here, once, instead of
    each rank watching its own clock.  The estimate is the warm-up's lower
    quartile: first-touch page faults make some warm-up operations several
    times slower than the steady state, never faster."""
    est = sorted(warm_samples)[len(warm_samples) // 4]
    return max(floor, int(round(seconds / est)))


def settle_allocator() -> None:
    """Put glibc malloc in the state every long-lived NumPy process reaches.

    glibc serves a request above its *mmap threshold* with mmap/munmap —
    fresh zero pages and page faults every time — and raises that
    threshold to the size of the largest mmapped block freed so far,
    32 MiB at most.  The threshold starts at 128 KiB, so a process that
    has not yet freed anything big maps and unmaps every temporary the
    transport makes: ``stream_default``'s 1 MiB pickle blobs cost 10.5 ms
    a step +-10 % in that state and 8.1 ms +-2 % once one big block has
    been freed.  Which state the rank processes were forked in used to
    depend on whether the harness happened to free an array between two
    launches; freeing one block just under the cap up front pins it."""
    block = np.empty(24 << 20, dtype=np.uint8)
    block[::4096] = 1
    del block


# -- seeded ground truth ------------------------------------------------------

def make_truth(seed: int, shape, samples: int = 2048):
    """The seeded global array and the mask of its *bump positions*.

    The producing side adds 1.0 at the bump positions after every
    operation, so no two snapshots are equal and a stale or misrouted
    buffer cannot pass; the consuming side mirrors the same additions on
    its expectation, so the comparison stays bit-exact."""
    truth = np.random.default_rng(seed).random(shape)
    bump = np.zeros(shape, dtype=np.uint8)
    bump.reshape(-1)[::max(1, truth.size // samples)] = 1
    return truth, bump


def bump_selection(desc: DistArrayDescriptor, rank: int,
                   bump: np.ndarray) -> np.ndarray:
    """Flat local indices of ``rank``'s bump positions under ``desc``."""
    mask_desc = DistArrayDescriptor(desc.template, np.uint8)
    local = DistributedArray.from_global(mask_desc, rank, bump).flat_local()
    return np.flatnonzero(local)


class Expectation:
    """The consuming side's bit-exact expectation of its local array."""

    def __init__(self, desc: DistArrayDescriptor, rank: int,
                 truth: np.ndarray, bump: np.ndarray):
        self.full = DistributedArray.from_global(
            desc, rank, truth).flat_local()
        self.sel = bump_selection(desc, rank, bump)
        self.at_sel = self.full[self.sel].copy()

    def check(self, flat: np.ndarray, *, full: bool = False) -> bool:
        """Compare one received snapshot — its bump positions, or with
        ``full`` every byte — then advance to the next snapshot."""
        if full:
            self.full[self.sel] = self.at_sel
            ok = bool(np.array_equal(flat, self.full))
        else:
            ok = bool(np.array_equal(flat[self.sel], self.at_sel))
        self.at_sel += 1.0
        return ok


# -- what a workload may not leave behind -------------------------------------

def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def child_pids() -> set[int]:
    """Live children of this process (forked rank processes that were
    never joined would show up here)."""
    path = Path(f"/proc/self/task/{os.getpid()}/children")
    try:
        return {int(p) for p in path.read_text().split()}
    except OSError:
        return {p.pid for p in multiprocessing.active_children()}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited
    for — on the procs backend the rank processes, whose high-water mark
    the kernel folds into RUSAGE_CHILDREN when they exit."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0
