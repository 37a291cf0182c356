"""Single-process layer probes and host rooflines for the traced run.

Each probe times calls into one public layer of ``repro`` over the
workload's own descriptors, plans and buffers, so its number can be set
beside the workload's median operation time: the budget line is built
from these.  The host rooflines are measured in the same invocation so
that every layer number has its ceiling next to it.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from bench import counters
from bench.common import median, now
from repro.dad import DistributedArray
from repro.schedule import build_region_schedule
from repro.schedule.bufpool import BufferPool
from repro.schedule.builder import ScheduleCache
from repro.simmpi import run_coupled, run_spmd
from repro.simmpi.shm import INLINE_MAX, SegmentPool

_FORK = multiprocessing.get_context("fork")


# -- host ---------------------------------------------------------------------

def host_fingerprint() -> dict:
    """What the numbers were measured on; stored in every record."""
    l3 = "unknown"
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size"
                  ).read_text().strip()
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, cwd=Path(__file__).parent, timeout=5,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "l3": l3, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit}


def memcpy_gbps(nbytes: int = 256 << 20, reps: int = 7) -> float:
    """``np.copyto`` bandwidth on an array several times the last-level
    cache — the roofline of every copy the data plane makes."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)                        # warm-up: first touch
    times = []
    for _ in range(reps):
        t0 = now()
        np.copyto(dst, src)
        times.append(now() - t0)
    return nbytes / median(times) / 1e9


def _echo(inbox, outbox, count):
    for _ in range(count):
        outbox.put(inbox.get())


def queue_rtt_us(count: int = 1500) -> float:
    """Round trip of a nine-field control tuple over two ``mp.Queue``\\ s
    between two processes: the procs control plane with nothing on it."""
    ping, pong = _FORK.Queue(), _FORK.Queue()
    child = _FORK.Process(target=_echo, args=(ping, pong, count), daemon=True)
    child.start()
    msg = ("MSG", 1 << 40, 0, 7, 8, "nd", ("<f8", (1,)), -1, b"\0" * 8)
    times = []
    try:
        for _ in range(count):
            t0 = now()
            ping.put(msg)
            pong.get()
            times.append(now() - t0)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join()
        for q in (ping, pong):
            q.close()
            q.join_thread()
    return median(times[count // 10:]) * 1e6


def _noop(*_args):
    return None


def fork_ms(reps: int = 9) -> float:
    times = []
    for _ in range(reps):
        t0 = now()
        child = _FORK.Process(target=_noop)
        child.start()
        child.join()
        times.append(now() - t0)
    return median(times) * 1e3


def launch_ms(jobs: list[tuple[str, int]], backend: str,
              reps: int = 3) -> float:
    """``run_coupled`` of ranks that return at once, at the workload's rank
    counts: what a launch costs before the workload does anything."""
    times = []
    for _ in range(reps):
        t0 = now()
        run_coupled([(name, n, _noop, ()) for name, n in jobs],
                    backend=backend)
        times.append(now() - t0)
    return median(times) * 1e3


# -- message round trips ------------------------------------------------------

def _pingpong(comm, sizes, count):
    out = []
    for size in sizes:
        msg = np.zeros(size)
        times = []
        for _ in range(count):
            if comm.rank == 0:
                t0 = now()
                comm.send(msg, 1, tag=3)
                comm.recv(1, tag=3)
                times.append(now() - t0)
            else:
                comm.send(comm.recv(0, tag=3), 0, tag=3)
        out.append(median(times[count // 10:]) * 1e6 if times else 0.0)
    return out


def msg_rtt_us(backend: str, count: int = 1000) -> tuple[float, float]:
    """Two-rank ping-pong round trips on ``backend``: a one-element array
    (rides inline) and one just above ``INLINE_MAX`` (on procs, through
    the shared-memory slot ring)."""
    sizes = (1, INLINE_MAX // 8 + 1)
    inline, slot = run_spmd(2, _pingpong, sizes, count, backend=backend)[0]
    return inline, slot


# -- schedule layers over the workload's own descriptors ----------------------

def bufpool_loan_us(reps: int = 2000) -> float:
    pool = BufferPool()
    _buf, release = pool.loan("probe", 1024, np.float64)
    release()
    t0 = now()
    for _ in range(reps):
        _buf, release = pool.loan("probe", 1024, np.float64)
        release()
    return (now() - t0) / reps * 1e6


def cache_hit_us(src_desc, dst_desc, reps: int = 2000) -> float:
    cache = ScheduleCache()
    cache.get(src_desc, dst_desc)
    t0 = now()
    for _ in range(reps):
        cache.get(src_desc, dst_desc)
    return (now() - t0) / reps * 1e6


def add_pipeline(out, src_desc, dst_desc, truth: np.ndarray, *,
                 slot_bytes: int | None) -> None:
    """Run :func:`pipeline` into a traced workload's outcome: its layer
    times, and its byte-identity as one more checked operation."""
    layers, identical = pipeline(src_desc, dst_desc, truth,
                                 slot_bytes=slot_bytes)
    out.layers.update(layers)
    out.attempted += 1
    if not identical:
        out.failures.append("pipeline probe: reassembled array differs")


def pipeline(src_desc, dst_desc, truth: np.ndarray, *,
             slot_bytes: int | None, reps: int = 3) -> tuple[dict, bool]:
    """One snapshot's data path in one process, layer by layer: scatter the
    seeded global array onto the source ranks, build and compile the
    schedule, then per pair message gather -> slot copy -> scatter, and
    reassemble.  ``slot_bytes`` is the workload's slot size, or ``None``
    when its messages do not ride the slot ring (threads backend, RMA,
    oversize).  Returns the layer times (each summed over all ranks and
    pairs of one snapshot) and whether the reassembled array is
    byte-identical to ``truth``."""
    out: dict[str, float] = {}
    t0 = now()
    srcs = [DistributedArray.from_global(src_desc, r, truth)
            for r in range(src_desc.nranks)]
    out["dad.from_global_ms"] = (now() - t0) * 1e3 / src_desc.nranks

    t0 = now()
    sched = build_region_schedule(src_desc, dst_desc)
    build_s = now() - t0
    out["schedule.builder.build_ms.workload"] = build_s * 1e3
    out["schedule.builder.us_per_item"] = build_s * 1e6 / len(sched.items)

    before = counters.snapshot()
    t0 = now()
    sends = [sched.send_plan(r, src_desc.local_regions(r))
             for r in range(src_desc.nranks)]
    recvs = [sched.recv_plan(r, dst_desc.local_regions(r))
             for r in range(dst_desc.nranks)]
    out["schedule.indexplan.compile_ms"] = (now() - t0) * 1e3
    out["schedule.indexplan.pair_plans"] = counters.total(
        [counters.delta(before, counters.snapshot())], "plan", "pair_plans")

    dsts = [DistributedArray.allocate(dst_desc, r)
            for r in range(dst_desc.nranks)]
    recv_of = {(pp.peer, d): pp for d, plan in enumerate(recvs)
               for pp in plan.pairs}
    stage = {(s, pp.peer): np.empty(pp.size, truth.dtype)
             for s, plan in enumerate(sends) for pp in plan.pairs
             if pp.idx is not None}
    pool = (SegmentPool(1, slot_bytes=slot_bytes, slots_per_endpoint=1)
            if slot_bytes else None)
    gather, copy, scatter = [], [], []
    try:
        for _ in range(reps):
            g = c = sc = 0.0
            for s, plan in enumerate(sends):
                flat = srcs[s].flat_local()
                for pp in plan.pairs:
                    t0 = now()
                    buf = (pp.gather(flat) if pp.idx is None else
                           pp.gather_into(flat, stage[(s, pp.peer)]))
                    t1 = now()
                    if pool is not None:
                        slot = pool.acquire(0)
                        wire = pool.slot_view(slot, buf.nbytes, buf.dtype
                                              ).view(buf.dtype)
                        np.copyto(wire, buf)
                    else:
                        wire = buf
                    t2 = now()
                    recv_of[(s, pp.peer)].scatter(
                        dsts[pp.peer].flat_local(), wire)
                    t3 = now()
                    if pool is not None:
                        del wire
                        pool.release(slot)
                    g, c, sc = g + t1 - t0, c + t2 - t1, sc + t3 - t2
            gather.append(g)
            copy.append(c)
            scatter.append(sc)
    finally:
        if pool is not None:
            pool.close()
            pool.unlink()
    out["schedule.indexplan.gather_ms"] = median(gather) * 1e3
    out["simmpi.shm.slot_copy_ms"] = median(copy) * 1e3 if pool else 0.0
    out["schedule.indexplan.scatter_ms"] = median(scatter) * 1e3

    t0 = now()
    whole = DistributedArray.assemble(dsts)
    out["dad.assemble_ms"] = (now() - t0) * 1e3
    out["schedule.cache.hit_us"] = cache_hit_us(src_desc, dst_desc)
    return out, bool(np.array_equal(whole, truth))
