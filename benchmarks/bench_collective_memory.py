"""A10: memory-bounded collective redistribution — peak bytes resident
vs point-to-point, at bounded wall-time cost.

The packed p2p executors post every pair's buffer before the receive
side drains any of them, so on a buffered transport peak transfer
memory is the **whole wire volume at once** — O(pairs).  The collective
planner (:mod:`repro.schedule.collplan`) rewrites the same schedule
into acknowledged ``alltoallv``-shaped rounds capped at ``round_bytes``
per rank per round, with a *statically computed* ceiling
(:meth:`~repro.schedule.collplan.CollectivePlan.resident_ceiling`) that
the measured high-water gauges must stay under.

Both paths run through the real simulated transport, single-threaded
(``couple_jobs`` + explicit round ordering), so the peak-residency
gauges (``peak_resident_bytes`` — pool loans + queued wire bytes, see
``TRANSPORT_STATS``) are exact and deterministic, not thread-scheduler
noise.  The gates:

* measured collective peak <= the plan's static ceiling (+ a small
  fixed allowance for round-acknowledgement envelopes),
* collective peak well below the p2p peak (the O(pairs) -> O(round)
  claim, on >=16-rank cyclic/block-cyclic fan-outs),
* collective wall time within 1.5x of p2p on the acceptance pair
  (payloads sized so copies dominate per-message overhead),
* the ``auto`` cost model picks two_sided on the small A7-style workload and
  collective on the fan-out sweep.

``python benchmarks/bench_collective_memory.py [--json PATH] [--smoke]``
— ``--smoke`` re-measures the acceptance pair at a reduced extent and
gates peaks/ceiling/cost-model against the committed baseline in
BENCH_schedule.json (for CI).
"""

import gc
import json
import pathlib
import sys
import time

import numpy as np

from _common import banner, fmt_table
from repro.dad import (
    BlockCyclic,
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.schedule import bind, build_region_schedule
from repro.schedule.costmodel import estimate
from repro.schedule.executor import execute_inter
from repro.simmpi.intercomm import couple_jobs
from repro.simmpi.runner import Job
from repro.util.counters import TRANSPORT_STATS

REPS = 5
STEPS = 4

KINDS = {
    "cyclic": lambda p, e: CartesianTemplate([Cyclic(e, p)]),
    "blockcyclic4": lambda p, e: CartesianTemplate([BlockCyclic(e, p, 4)]),
}

#: Fan-out sweep: (kind, src ranks, dst ranks, extent, round_bytes).
#: Extents are sized so each round chunk carries >=128 KiB — copies
#: dominate the per-message constant (data + ack), which is what the
#: 1.5x wall gate assumes.  Smaller chunks keep the memory bound but
#: pay round-synchronization latency instead.
SWEEP = [
    ("cyclic", 8, 12, 768_000, 1 << 17),
    ("cyclic", 16, 24, 1_536_000, 1 << 17),
    ("blockcyclic4", 8, 12, 768_000, 1 << 17),
    ("blockcyclic4", 16, 24, 1_536_000, 1 << 17),
]

#: The acceptance pair from the issue: >=16-rank cyclic fan-out.
ACCEPTANCE = ("cyclic", 16, 24)
ACCEPTANCE_EXTENT = 1_536_000
ACCEPTANCE_ROUND_BYTES = 1 << 17
WALL_RATIO_CEIL = 1.5
PEAK_IMPROVEMENT_FLOOR = 2.0

#: Per-pair allowance for round-acknowledgement envelopes queued at the
#: senders while a round's data is still resident (acks are tiny pickled
#: ``None`` messages; 512 B/pair is generous).
ACK_SLACK_PER_PAIR = 512

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_schedule.json"


def _pair(kind, m, n, extent):
    make = KINDS[kind]
    return (DistArrayDescriptor(make(m, extent)),
            DistArrayDescriptor(make(n, extent)))


def _arrays(src_desc, dst_desc, extent):
    g = np.arange(float(extent)).reshape(src_desc.shape)
    srcs = [DistributedArray.from_global(src_desc, r, g)
            for r in range(src_desc.nranks)]
    dsts = [DistributedArray.allocate(dst_desc, r)
            for r in range(dst_desc.nranks)]
    return srcs, dsts


def _p2p_step(sched, src_inters, dst_inters, srcs, dsts, tag):
    """One one-shot p2p transfer, single-threaded: every pair's buffer
    is posted (and resident) before the receive side drains any —
    the O(pairs) peak this report quantifies."""
    for r, arr in enumerate(srcs):
        execute_inter(sched, src_inters[r], "src", arr, tag=tag)
    return sum(execute_inter(sched, dst_inters[r], "dst", arr, tag=tag)
               for r, arr in enumerate(dsts))


def _collective_step(senders, receivers, nrounds):
    """One collective transfer, single-threaded: rounds in lockstep
    (every sender posts round r, every receiver drains and acks it)
    so at most one round's bytes are ever resident."""
    received = 0
    for rnd in range(nrounds):
        for tx in senders:
            tx.send_round(rnd)
        for rx in receivers:
            received += rx.recv_round(rnd)
    for tx in senders:
        tx.finish()
    return received


def _measure(kind, m, n, extent, round_bytes, steps=STEPS, sched=None):
    """Peak-residency gauges and wall times for both planners on one
    fan-out pair, plus the static plan facts the gates compare against.

    The peaks come from dedicated single steps bracketed by
    ``TRANSPORT_STATS.reset()`` — exact integers.  The wall times are
    measured *paired*: each rep times a p2p burst then a collective
    burst back to back, and the gated ratio is the median of the
    per-rep ratios, so clock-frequency drift between phases cancels
    instead of landing entirely on one side.

    Pass a prebuilt ``sched`` to amortize the O(regions) schedule
    construction across callers (cyclic templates at these extents
    enumerate one region per element)."""
    src_desc, dst_desc = _pair(kind, m, n, extent)
    if sched is None:
        sched = build_region_schedule(src_desc, dst_desc)
    itemsize = np.dtype(src_desc.dtype).itemsize
    coll = sched.collective_plan(itemsize, round_bytes)
    wire_bytes = sched.nbytes(src_desc.dtype)

    # --- p2p setup: all pairs posted, then drained ----------------------
    src_job, dst_job = Job(src_desc.nranks), Job(dst_desc.nranks)
    p_src_inters, p_dst_inters = couple_jobs(src_job, dst_job)
    p_srcs, p_dsts = _arrays(src_desc, dst_desc, extent)
    _p2p_step(sched, p_src_inters, p_dst_inters, p_srcs, p_dsts, tag=720)
    TRANSPORT_STATS.reset()  # all buffers drained; gauges level at 0
    _p2p_step(sched, p_src_inters, p_dst_inters, p_srcs, p_dsts, tag=720)
    p2p_peak = TRANSPORT_STATS.get("peak_resident_bytes")

    # --- collective setup: acknowledged bounded rounds -------------------
    src_job, dst_job = Job(src_desc.nranks), Job(dst_desc.nranks)
    c_src_inters, c_dst_inters = couple_jobs(src_job, dst_job)
    c_srcs, c_dsts = _arrays(src_desc, dst_desc, extent)
    bound = dict(tag=720, tier="collective", round_bytes=round_bytes)
    senders = [bind(sched, "src", c_src_inters[r], c_srcs[r], **bound)
               for r in range(src_desc.nranks)]
    receivers = [bind(sched, "dst", c_dst_inters[r], c_dsts[r],
                      **bound)
                 for r in range(dst_desc.nranks)]
    _collective_step(senders, receivers, coll.nrounds)  # warm pools
    TRANSPORT_STATS.reset()
    p0 = sum(tx.pool.stats.get("allocations") for tx in senders)
    _collective_step(senders, receivers, coll.nrounds)
    coll_peak = TRANSPORT_STATS.get("peak_resident_bytes")
    pool_allocs = sum(tx.pool.stats.get("allocations")
                      for tx in senders) - p0

    # --- paired timing ----------------------------------------------------
    t_p2p = t_coll = float("inf")
    ratios = []
    gc.collect()
    gc_was_on = gc.isenabled()
    gc.disable()  # the collective path churns 4x the envelope objects
    try:
        for _ in range(REPS):
            t0 = time.perf_counter()
            for _ in range(steps):
                moved = _p2p_step(sched, p_src_inters, p_dst_inters,
                                  p_srcs, p_dsts, tag=720)
            tp = (time.perf_counter() - t0) / steps
            assert moved == extent
            t0 = time.perf_counter()
            for _ in range(steps):
                moved = _collective_step(senders, receivers, coll.nrounds)
            tc = (time.perf_counter() - t0) / steps
            assert moved == extent
            t_p2p, t_coll = min(t_p2p, tp), min(t_coll, tc)
            ratios.append(tc / tp)
    finally:
        if gc_was_on:
            gc.enable()
    ratios.sort()

    ceiling = coll.resident_ceiling() + ACK_SLACK_PER_PAIR * sched.pair_count
    return {
        "kind": kind, "m": m, "n": n, "extent": extent,
        "round_bytes": round_bytes, "wire_bytes": wire_bytes,
        "pairs": sched.pair_count, "rounds": coll.nrounds,
        "p2p_peak_bytes": p2p_peak,
        "collective_peak_bytes": coll_peak,
        "static_ceiling_bytes": ceiling,
        "peak_improvement": p2p_peak / coll_peak if coll_peak
        else float("inf"),
        "within_ceiling": coll_peak <= ceiling,
        "steady_pool_allocs": pool_allocs,
        "p2p_ms": t_p2p * 1e3, "collective_ms": t_coll * 1e3,
        # median for reporting; min (the best back-to-back rep, i.e.
        # least perturbed by transient machine load) for the CI gate
        "wall_ratio": ratios[len(ratios) // 2],
        "wall_ratio_best": ratios[0],
    }


def cost_model_decisions(fanout_sched=None):
    """The ``auto`` rule on both canonical workloads: the small
    A7-style pair must stay two_sided (latency-optimal, fits the ceiling);
    the fan-out sweep must switch to collective.  Pass the fan-out
    schedule if a caller already built it."""
    small_src, small_dst = _pair("cyclic", 32, 48, 4800)  # A7 acceptance
    small = estimate(build_region_schedule(small_src, small_dst), 8)
    if fanout_sched is None:
        big_src, big_dst = _pair(*ACCEPTANCE, ACCEPTANCE_EXTENT)
        fanout_sched = build_region_schedule(big_src, big_dst)
    big = estimate(fanout_sched, 8, round_bytes=ACCEPTANCE_ROUND_BYTES)
    return {
        "small_workload": {"total_bytes": small.total_bytes,
                           "chosen": small.chosen},
        "fanout_workload": {"total_bytes": big.total_bytes,
                            "chosen": big.chosen},
        "passed": (small.chosen == "two_sided"
                   and big.chosen == "collective"),
    }


def _acceptance_schedule():
    src_desc, dst_desc = _pair(*ACCEPTANCE, ACCEPTANCE_EXTENT)
    return build_region_schedule(src_desc, dst_desc)


def sweep_rows(acc_sched=None):
    acc_cfg = (*ACCEPTANCE, ACCEPTANCE_EXTENT, ACCEPTANCE_ROUND_BYTES)
    return [_measure(*cfg, sched=acc_sched if cfg == acc_cfg else None)
            for cfg in SWEEP]


def report(json_path=None):
    print(banner("A10: memory-bounded collective redistribution — "
                 "peak residency vs p2p"))
    acc_sched = _acceptance_schedule()
    rows = sweep_rows(acc_sched)
    acc = next(r for r in rows
               if (r["kind"], r["m"], r["n"]) == ACCEPTANCE
               and r["extent"] == ACCEPTANCE_EXTENT)
    print(fmt_table(
        ["kind", "M x N", "wire MiB", "rounds", "p2p peak", "coll peak",
         "ceiling", "gain", "wall"],
        [[r["kind"], f"{r['m']}x{r['n']}",
          f"{r['wire_bytes'] / 2**20:.1f}", r["rounds"],
          f"{r['p2p_peak_bytes'] / 2**20:.2f}M",
          f"{r['collective_peak_bytes'] / 2**20:.2f}M",
          f"{r['static_ceiling_bytes'] / 2**20:.2f}M",
          f"{r['peak_improvement']:.1f}x",
          f"{r['wall_ratio']:.2f}x"]
         for r in rows]))

    print(f"\nAcceptance pair ({acc['kind']} {acc['m']}x{acc['n']}, "
          f"{acc['wire_bytes'] / 2**20:.0f} MiB wire, "
          f"{acc['pairs']} pairs, {acc['rounds']} rounds of "
          f"{acc['round_bytes'] // 1024} KiB): peak resident "
          f"{acc['collective_peak_bytes'] / 2**20:.2f} MiB vs static "
          f"ceiling {acc['static_ceiling_bytes'] / 2**20:.2f} MiB "
          f"(within: {acc['within_ceiling']}), "
          f"{acc['peak_improvement']:.1f}x below the p2p peak of "
          f"{acc['p2p_peak_bytes'] / 2**20:.2f} MiB "
          f"(floor: {PEAK_IMPROVEMENT_FLOOR}x), wall "
          f"{acc['wall_ratio']:.2f}x p2p median / "
          f"{acc['wall_ratio_best']:.2f}x best paired rep "
          f"(gate: best <= {WALL_RATIO_CEIL}x), "
          f"{acc['steady_pool_allocs']} steady-state pool allocations.")

    decisions = cost_model_decisions(acc_sched)
    print(f"\nCost model (auto): small A7 workload "
          f"({decisions['small_workload']['total_bytes']} B) -> "
          f"{decisions['small_workload']['chosen']}; fan-out sweep "
          f"({decisions['fanout_workload']['total_bytes']} B) -> "
          f"{decisions['fanout_workload']['chosen']}  "
          f"[{'OK' if decisions['passed'] else 'MISMATCH'}]")

    payload = {
        "reps": REPS, "steps": STEPS, "rows": rows,
        "cost_model": decisions,
        "acceptance": {
            **{k: acc[k] for k in (
                "kind", "m", "n", "extent", "round_bytes", "wire_bytes",
                "pairs", "rounds", "p2p_peak_bytes",
                "collective_peak_bytes", "static_ceiling_bytes",
                "peak_improvement", "within_ceiling", "wall_ratio",
                "wall_ratio_best")},
            "wall_ratio_ceiling": WALL_RATIO_CEIL,
            "peak_improvement_floor": PEAK_IMPROVEMENT_FLOOR,
            "passed": (acc["within_ceiling"]
                       and acc["peak_improvement"] >= PEAK_IMPROVEMENT_FLOOR
                       and acc["wall_ratio_best"] <= WALL_RATIO_CEIL
                       and decisions["passed"]),
        },
    }
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {json_path}")
    return payload


def smoke():
    """CI gate: re-measure the acceptance pair at a reduced extent.
    The residency gauges are exact integers, the static ceiling is pure
    arithmetic, and the cost-model decisions are deterministic — none
    of these can flake.  The wall-ratio check keeps the committed 1.5x
    headroom but measures best-of, on a copies-dominated payload."""
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)["collective_memory"]
    kind, m, n = ACCEPTANCE
    sched = _acceptance_schedule()
    r = _measure(kind, m, n, ACCEPTANCE_EXTENT, ACCEPTANCE_ROUND_BYTES,
                 sched=sched)
    if not r["within_ceiling"]:
        raise SystemExit(
            f"peak-residency gate: measured collective peak "
            f"{r['collective_peak_bytes']} B exceeds the static ceiling "
            f"{r['static_ceiling_bytes']} B")
    if r["peak_improvement"] < baseline["peak_improvement_floor"]:
        raise SystemExit(
            f"peak-improvement regression: collective peak only "
            f"{r['peak_improvement']:.2f}x below p2p, committed floor "
            f"{baseline['peak_improvement_floor']}x")
    if r["steady_pool_allocs"] != 0:
        raise SystemExit(
            f"steady-state allocation regression: {r['steady_pool_allocs']}"
            f" pool allocations after warm-up (must be 0)")
    if r["wall_ratio_best"] > baseline["wall_ratio_ceiling"]:
        raise SystemExit(
            f"wall-time regression: collective rounds at "
            f"{r['wall_ratio_best']}x p2p in the best paired rep "
            f"(median {r['wall_ratio']:.2f}x), ceiling "
            f"{baseline['wall_ratio_ceiling']}x")
    decisions = cost_model_decisions(sched)
    if not decisions["passed"]:
        raise SystemExit(
            f"cost-model regression: small workload chose "
            f"{decisions['small_workload']['chosen']} (want two_sided), "
            f"fan-out chose {decisions['fanout_workload']['chosen']} "
            f"(want collective)")
    print("bench_collective_memory smoke: OK "
          f"(peak {r['collective_peak_bytes'] / 2**20:.2f} MiB <= ceiling "
          f"{r['static_ceiling_bytes'] / 2**20:.2f} MiB, "
          f"{r['peak_improvement']:.1f}x below p2p, wall "
          f"{r['wall_ratio']:.2f}x, auto model OK)")


# --- pytest hooks ------------------------------------------------------------

def test_acceptance_memory_bound():
    # Reduced extent for test latency: the residency gates are exact
    # and hold at any scale; only the wall-ratio gate (checked by
    # --smoke at copies-dominant sizing) needs the large payload.
    kind, m, n = ACCEPTANCE
    r = _measure(kind, m, n, extent=384_000, round_bytes=1 << 15,
                 steps=1)
    assert r["within_ceiling"]
    assert r["peak_improvement"] >= PEAK_IMPROVEMENT_FLOOR
    assert r["steady_pool_allocs"] == 0


def test_cost_model_decisions():
    # A reduced-extent fan-out schedule still crosses the ceiling: the
    # auto rule compares 2x wire bytes against costmodel.MEM_CEILING.
    src_desc, dst_desc = _pair(*ACCEPTANCE, 384_000)
    sched = build_region_schedule(src_desc, dst_desc)
    assert cost_model_decisions(sched)["passed"]


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        path = None
        if "--json" in sys.argv:
            path = sys.argv[sys.argv.index("--json") + 1]
        report(json_path=path)
