"""A5 (ablation): schedule-engine scaling — sweep/structured vs all-pairs.

The seed builder intersected every source region with every destination
region: O(Rs·Rd) even when almost no pairs overlap.  Cyclic templates
are the worst case — a 1-D Cyclic axis over E elements owns E unit
regions, so an M→N cyclic redistribution costs Rs·Rd = E² candidate
intersections while only O(E) transfers exist.  The rewritten engine
dispatches to a closed-form structured enumerator (block / cyclic /
block-cyclic / generalized-block) or, for irregular ownership, to an
output-sensitive sweep-line join, so build cost tracks the transfer
count.

This report sweeps M×N and template kinds and prints, per pair:

* build time of the retained all-pairs baseline vs the dispatcher,
* schedule shape (messages, communicating rank pairs, elements), and
* executed message/byte counters of the packed engine vs the
  per-region baseline (:mod:`repro.baselines.per_region`).

``python benchmarks/bench_schedule_scaling.py [--json PATH] [--smoke]``
emits the same numbers as machine-readable JSON (default: stdout summary
only); ``--smoke`` instead runs the CI gate: builder items equal to the
all-pairs oracle's on every kind up to 16 x 24 ranks plus the acceptance
pair, which must also build at least 5x faster than the oracle.
"""

import json
import sys
from functools import partial

import numpy as np
import pytest

from _common import banner, fmt_table, timed
from repro.dad import (
    BlockCyclic,
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.baselines import redistribute_per_region
from repro.dad.template import block_template
from repro.schedule import build_region_schedule, execute_intra
from repro.verify.schedule import build_allpairs_schedule
from repro.simmpi import run_spmd

EXTENT = 960
SIZES = [(4, 6), (8, 12), (16, 24), (32, 48)]

KINDS = {
    "block": lambda p: block_template((EXTENT,), (p,)),
    "cyclic": lambda p: CartesianTemplate([Cyclic(EXTENT, p)]),
    "blockcyclic4": lambda p: CartesianTemplate([BlockCyclic(EXTENT, p, 4)]),
}

# the acceptance pair from the issue: cyclic 32 -> 48 ranks
ACCEPTANCE = ("cyclic", 32, 48)


def _pair(kind, m, n):
    make = KINDS[kind]
    return (DistArrayDescriptor(make(m)), DistArrayDescriptor(make(n)))


def _region_counts(desc):
    return sum(len(list(desc.local_regions(r))) for r in range(desc.nranks))


def build_rows():
    rows = []
    for kind in KINDS:
        for m, n in SIZES:
            src, dst = _pair(kind, m, n)
            t_fast, s_fast = timed(lambda: build_region_schedule(src, dst))
            t_all, s_all = timed(lambda: build_allpairs_schedule(src, dst))
            assert s_fast.items == s_all.items
            rows.append({
                "kind": kind, "m": m, "n": n,
                "src_regions": _region_counts(src),
                "dst_regions": _region_counts(dst),
                "messages": s_fast.message_count,
                "pairs": s_fast.pair_count,
                "elements": s_fast.element_count,
                "fast_ms": t_fast * 1e3,
                "allpairs_ms": t_all * 1e3,
                "speedup": t_all / t_fast if t_fast > 0 else float("inf"),
            })
    return rows


def _execute_counters(src_desc, dst_desc, *, packed):
    sched = build_region_schedule(src_desc, dst_desc)
    g = np.arange(float(np.prod(src_desc.shape))).reshape(src_desc.shape)
    n = max(src_desc.nranks, dst_desc.nranks)

    def main(comm):
        src = (DistributedArray.from_global(src_desc, comm.rank, g)
               if comm.rank < src_desc.nranks else None)
        dst = (DistributedArray.allocate(dst_desc, comm.rank)
               if comm.rank < dst_desc.nranks else None)
        run = execute_intra if packed else redistribute_per_region
        run(sched, comm, src_array=src, dst_array=dst,
            src_ranks=range(src_desc.nranks),
            dst_ranks=range(dst_desc.nranks))
        return comm.counters  # shared per job; read after all threads join

    counters = run_spmd(n, main)[0]
    return {"msgs": counters.get("msgs"), "bytes": counters.get("bytes"),
            "schedule_messages": sched.message_count,
            "schedule_pairs": sched.pair_count}


def exec_rows():
    rows = []
    for kind in KINDS:
        m, n = 4, 6  # thread-simulated ranks: keep the world small
        src, dst = _pair(kind, m, n)
        for packed in (True, False):
            c = _execute_counters(src, dst, packed=packed)
            rows.append({"kind": kind, "m": m, "n": n,
                         "mode": "packed" if packed else "per-region", **c})
    return rows


def report(json_path=None):
    print(banner("A5 (ablation): schedule-engine scaling and coalescing"))
    build = build_rows()
    print(fmt_table(
        ["kind", "M x N", "Rs", "Rd", "msgs", "pairs",
         "fast ms", "all-pairs ms", "speedup"],
        [[r["kind"], f"{r['m']}x{r['n']}", r["src_regions"],
          r["dst_regions"], r["messages"], r["pairs"],
          f"{r['fast_ms']:.2f}", f"{r['allpairs_ms']:.2f}",
          f"{r['speedup']:.1f}x"] for r in build]))

    execu = exec_rows()
    print()
    print(fmt_table(
        ["kind", "M x N", "mode", "msgs", "bytes", "sched msgs", "pairs"],
        [[r["kind"], f"{r['m']}x{r['n']}", r["mode"], r["msgs"],
          r["bytes"], r["schedule_messages"], r["schedule_pairs"]]
         for r in execu]))

    kind, m, n = ACCEPTANCE
    acc = next(r for r in build if (r["kind"], r["m"], r["n"]) == (kind, m, n))
    print(f"\nAcceptance pair ({kind} {m}x{n}): {acc['speedup']:.0f}x build"
          f" speedup over all-pairs (floor: 5x); packed execution sends"
          f"\nexactly one message per communicating rank pair"
          f" (sched msgs -> pairs column above).")

    payload = {"extent": EXTENT, "build": build, "execution": execu}
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {json_path}")
    return payload


def smoke():
    """CI gate: the builders (structured, and the sweep on the same
    pairs) agree item for item with the oracle, in wire order."""
    for kind in KINDS:
        for m, n in SIZES:
            if (m > 16 or n > 24) and (kind, m, n) != ACCEPTANCE:
                continue
            src, dst = _pair(kind, m, n)
            t_fast, s_fast = timed(partial(build_region_schedule, src, dst))
            t_all, s_all = timed(partial(build_allpairs_schedule, src, dst))
            s_sweep = build_region_schedule(src, dst, force_general=True)
            if not s_fast.items == s_sweep.items == s_all.items:
                raise SystemExit(f"{kind} {m}x{n}: builder items differ "
                                 f"from the all-pairs oracle")
            if (kind, m, n) == ACCEPTANCE and t_all < 5 * t_fast:
                raise SystemExit(f"acceptance pair {kind} {m}x{n}: "
                                 f"{t_all / t_fast:.1f}x build speed-up, "
                                 f"floor is 5x")
    print("bench_schedule_scaling smoke: OK")


# --- pytest-benchmark hooks -------------------------------------------------

def _acc_pair():
    kind, m, n = ACCEPTANCE
    return _pair(kind, m, n)


def test_build_dispatch(benchmark):
    src, dst = _acc_pair()
    benchmark(lambda: build_region_schedule(src, dst))


def test_build_allpairs_baseline(benchmark):
    # a quarter-extent pair: the full 960-element cyclic baseline costs
    # seconds per round, too slow for a benchmark loop
    src = DistArrayDescriptor(CartesianTemplate([Cyclic(240, 8)]))
    dst = DistArrayDescriptor(CartesianTemplate([Cyclic(240, 12)]))
    benchmark(lambda: build_allpairs_schedule(src, dst))


def test_acceptance_speedup():
    src, dst = _acc_pair()
    t_fast, s_fast = timed(lambda: build_region_schedule(src, dst))
    t_all, s_all = timed(lambda: build_allpairs_schedule(src, dst))
    assert s_fast.items == s_all.items
    assert t_all >= 5 * t_fast


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        path = None
        if "--json" in sys.argv:
            path = sys.argv[sys.argv.index("--json") + 1]
        report(json_path=path)
