"""A6 (ablation): packed-copy throughput — compiled copy plans vs the
region-loop pack/unpack path.

The packed executor's copy phase used to walk every region of every
(src, dst) rank pair in Python (``pack_regions``/``unpack_regions``),
touching one region per iteration.  The compiled-plan path folds each
pair at first use into a strided box ``(lo, shape, strides)`` — one
range when the pair's regions chain, a strided range for cyclic pairs,
``(nruns, run_len)`` for block-cyclic ones — so the copy phase is one
strided ``np.copyto`` per pair regardless of region count, and no
regular pair stores an element index.  Cyclic templates are the stress
case: every owned element is its own region, so the loop path pays one
Python iteration per element while the plan path stays a single
vectorized copy.

This report sweeps template kinds and M×N rank pairs and times both copy
paths directly (single-threaded, per source/destination rank in turn —
no simulated runtime in the loop, so the numbers are deterministic
copy-phase costs, not thread-scheduler noise).

``python benchmarks/bench_pack_throughput.py [--json PATH] [--smoke]``
— ``--smoke`` runs a fast correctness + fast-path-detection check (for
CI) instead of the timing sweep.
"""

import json
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
from repro.dad.template import block_template
from repro.schedule import (
    build_region_schedule,
    pack_regions,
    region_offsets,
    unpack_regions,
)

EXTENT = 4800
SIZES = [(4, 6), (8, 12), (16, 24), (32, 48)]
REPS = 3

KINDS = {
    "block": lambda p, e: block_template((e,), (p,)),
    "cyclic": lambda p, e: CartesianTemplate([Cyclic(e, p)]),
    "blockcyclic4": lambda p, e: CartesianTemplate([BlockCyclic(e, p, 4)]),
    "blockcyclic64": lambda p, e: CartesianTemplate([BlockCyclic(e, p, 64)]),
}

# the acceptance pair from the issue: cyclic 32 -> 48 ranks
ACCEPTANCE = ("cyclic", 32, 48)


def _pair(kind, m, n, extent=EXTENT):
    make = KINDS[kind]
    return (DistArrayDescriptor(make(m, extent)),
            DistArrayDescriptor(make(n, extent)))


def _setup(src_desc, dst_desc):
    """Schedule, per-src-rank arrays, and per-dst-rank arrays."""
    sched = build_region_schedule(src_desc, dst_desc)
    g = np.arange(float(np.prod(src_desc.shape))).reshape(src_desc.shape)
    srcs = [DistributedArray.from_global(src_desc, r, g)
            for r in range(src_desc.nranks)]
    dsts = [DistributedArray.allocate(dst_desc, r)
            for r in range(dst_desc.nranks)]
    return sched, srcs, dsts


def _loop_copy_phase(sched, src_desc, dst_desc, srcs, dsts):
    """The PR 1 copy phase: region-loop pack on every source rank, then
    region-loop unpack on every destination rank."""
    wires = {}
    for s, arr in enumerate(srcs):
        for d, regions, offsets in sched.send_groups(s):
            wires[s, d] = pack_regions(arr, regions, offsets)
    moved = 0
    for d, arr in enumerate(dsts):
        for s, regions, offsets in sched.recv_groups(d):
            moved += unpack_regions(arr, regions, wires[s, d], offsets)
    return moved


def _plan_copy_phase(sched, src_desc, dst_desc, srcs, dsts):
    """The compiled copy phase: one gather / one scatter per pair."""
    wires = {}
    for s, arr in enumerate(srcs):
        flat = arr.flat_local()
        plan = sched.send_plan(s, src_desc.local_regions(s))
        for pp in plan.pairs:
            wires[s, pp.peer] = pp.gather(flat)
    moved = 0
    for d, arr in enumerate(dsts):
        flat = arr.flat_local()
        plan = sched.recv_plan(d, dst_desc.local_regions(d))
        for pp in plan.pairs:
            moved += pp.scatter(flat, wires[pp.peer, d])
    return moved


def _time_phase(fn, *args, reps=REPS):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _plan_shape(sched, src_desc, dst_desc):
    """(pairs, contiguous pairs, pairs holding an index array)."""
    pairs = contiguous = indexed = 0
    for side, desc in (("send", src_desc), ("recv", dst_desc)):
        for r in range(desc.nranks):
            plan = (sched.send_plan(r, desc.local_regions(r)) if side == "send"
                    else sched.recv_plan(r, desc.local_regions(r)))
            pairs += len(plan.pairs)
            contiguous += plan.contiguous_pairs
            indexed += sum(p.idx is not None for p in plan.pairs)
    return pairs, contiguous, indexed


def sweep_rows(extent=EXTENT):
    rows = []
    for kind in KINDS:
        for m, n in SIZES:
            src_desc, dst_desc = _pair(kind, m, n, extent)
            sched, srcs, dsts = _setup(src_desc, dst_desc)
            # compile plans outside the timed region
            moved = _plan_copy_phase(sched, src_desc, dst_desc, srcs, dsts)
            assert moved == extent
            t_plan = _time_phase(_plan_copy_phase, sched, src_desc,
                                 dst_desc, srcs, dsts)
            # the region loop costs seconds per rep on cyclic pairs:
            # time it once (variance is dwarfed by the gap anyway)
            t_loop = _time_phase(_loop_copy_phase, sched, src_desc,
                                 dst_desc, srcs, dsts, reps=1)
            pairs, contiguous, indexed = _plan_shape(sched, src_desc,
                                                     dst_desc)
            rows.append({
                "kind": kind, "m": m, "n": n,
                "pairs": pairs, "contiguous_pairs": contiguous,
                "indexed_pairs": indexed,
                "elements": extent,
                "loop_ms": t_loop * 1e3, "plan_ms": t_plan * 1e3,
                "speedup": t_loop / t_plan if t_plan > 0 else float("inf"),
            })
    return rows


def report(json_path=None):
    print(banner("A6 (ablation): packed-copy throughput — "
                 "compiled plans vs region loop"))
    rows = sweep_rows()
    print(fmt_table(
        ["kind", "M x N", "pairs", "contig", "indexed", "loop ms",
         "plan ms", "speedup"],
        [[r["kind"], f"{r['m']}x{r['n']}", r["pairs"],
          r["contiguous_pairs"], r["indexed_pairs"], f"{r['loop_ms']:.2f}",
          f"{r['plan_ms']:.2f}", f"{r['speedup']:.1f}x"] for r in rows]))

    kind, m, n = ACCEPTANCE
    acc = next(r for r in rows if (r["kind"], r["m"], r["n"]) == (kind, m, n))
    print(f"\nAcceptance pair ({kind} {m}x{n}, extent {EXTENT}): "
          f"{acc['speedup']:.0f}x copy-phase speedup over the region "
          f"loop (floor: 5x).\nBlock rows compile entirely to one range "
          f"(contig == pairs): the send-side gather is a zero-copy view; "
          f"no row holds an element index (indexed == 0).")

    payload = {"extent": EXTENT, "reps": REPS, "rows": rows,
               "acceptance": {"kind": kind, "m": m, "n": n,
                              "speedup": acc["speedup"],
                              "floor": 5.0,
                              "passed": acc["speedup"] >= 5.0}}
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {json_path}")
    return payload


def smoke():
    """CI gate: plan/loop equivalence and fast-path detection on a small
    extent — correctness, not timing, so it cannot flake."""
    # three kinds 4 -> 6, plus the stream workloads' 2 -> 3 geometry
    # with a ragged last block (1000 is no multiple of 64)
    cases = [(kind, 4, 6, 240) for kind in ("block", "cyclic",
                                            "blockcyclic4")]
    cases.append(("blockcyclic64", 2, 3, 1000))
    for kind, m, n, extent in cases:
        src_desc, dst_desc = _pair(kind, m, n, extent)
        sched, srcs, dsts_plan = _setup(src_desc, dst_desc)
        _, _, dsts_loop = _setup(src_desc, dst_desc)
        assert _plan_copy_phase(sched, src_desc, dst_desc,
                                srcs, dsts_plan) == extent
        assert _loop_copy_phase(sched, src_desc, dst_desc,
                                srcs, dsts_loop) == extent
        for a, b in zip(dsts_plan, dsts_loop):
            if a.flat_local().tobytes() != b.flat_local().tobytes():
                raise SystemExit(f"plan/loop mismatch for {kind}")
        pairs, contiguous, indexed = _plan_shape(sched, src_desc, dst_desc)
        if indexed:
            raise SystemExit(f"{kind} {m}x{n}: {indexed} of {pairs} pairs "
                             f"hold an index array, must be boxes")
        if kind == "block" and contiguous != pairs:
            raise SystemExit("block pairs did not compile to one range")
        if kind != "block" and contiguous == pairs:
            raise SystemExit(f"{kind} pairs unexpectedly all contiguous")
    # offsets stay int64 cumsum arrays
    regions = list(_pair("cyclic", 4, 6, 240)[0].local_regions(0))
    offs = region_offsets(regions)
    assert offs.dtype == np.int64 and offs[-1] == \
        sum(r.volume for r in regions)
    print("bench_pack_throughput smoke: OK")


# --- pytest-benchmark hooks -------------------------------------------------

def _acc_setup():
    kind, m, n = ACCEPTANCE
    src_desc, dst_desc = _pair(kind, m, n)
    sched, srcs, dsts = _setup(src_desc, dst_desc)
    _plan_copy_phase(sched, src_desc, dst_desc, srcs, dsts)  # compile
    return sched, src_desc, dst_desc, srcs, dsts


def test_plan_copy_phase(benchmark):
    args = _acc_setup()
    benchmark(lambda: _plan_copy_phase(*args))


def test_loop_copy_phase_baseline(benchmark):
    args = _acc_setup()
    benchmark(lambda: _loop_copy_phase(*args))


def test_acceptance_speedup():
    sched, src_desc, dst_desc, srcs, dsts = _acc_setup()
    t_plan = _time_phase(_plan_copy_phase, sched, src_desc, dst_desc,
                         srcs, dsts)
    t_loop = _time_phase(_loop_copy_phase, sched, src_desc, dst_desc,
                         srcs, dsts)
    assert t_loop >= 5 * t_plan


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        path = None
        if "--json" in sys.argv:
            path = sys.argv[sys.argv.index("--json") + 1]
        report(json_path=path)
