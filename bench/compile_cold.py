"""``compile_cold``: schedule construction and index-plan compilation with
no cache and no transport, in one process.

An operation is one sweep: for four template kinds and four M -> N sizes,
fresh descriptors -> ``build_region_schedule`` -> ``send_plan`` /
``recv_plan`` for every rank.  The same cost sits inside ``setup_s`` of
every other workload and inside every call of ``prmi_parallel_arg``.
"""

from __future__ import annotations

import numpy as np

from bench import counters, probes
from bench.common import Outcome, median, now
from bench.trace import Tracer, durations_ms
from repro.dad import (BlockCyclic, CartesianTemplate, Cyclic,
                       DistArrayDescriptor, DistributedArray)
from repro.dad.template import block_template
from repro.schedule import build_region_schedule

EXTENT, SIDE = 4800, 480
ITEMS = 24_240                  # schedule items one sweep builds, exactly
SIZES = [(4, 6), (8, 12), (16, 24), (32, 48)]
_GRID = {4: (2, 2), 6: (2, 3), 8: (2, 4), 12: (3, 4), 16: (4, 4),
         24: (4, 6), 32: (4, 8), 48: (6, 8)}
KINDS = {
    "block1d": lambda p: block_template((EXTENT,), (p,)),
    "cyclic": lambda p: CartesianTemplate([Cyclic(EXTENT, p)]),
    "blockcyclic4": lambda p: CartesianTemplate([BlockCyclic(EXTENT, p, 4)]),
    "block2d": lambda p: block_template((SIDE, SIDE), _GRID[p]),
}


def sweep(tr: Tracer | None = None, op: int | None = None,
          check_against: dict | None = None) -> dict:
    """One operation.  Returns the schedule item count, and with
    ``check_against`` (kind -> seeded global array) whether moving that
    array through each case's compiled plans reproduces it byte for byte."""
    items, ok = 0, True
    start = now()
    for kind, make in KINDS.items():
        for m, n in SIZES:
            src = DistArrayDescriptor(make(m))
            dst = DistArrayDescriptor(make(n))
            t0 = now()
            sched = build_region_schedule(src, dst)
            t1 = now()
            sends = [sched.send_plan(r, src.local_regions(r))
                     for r in range(m)]
            recvs = [sched.recv_plan(r, dst.local_regions(r))
                     for r in range(n)]
            t2 = now()
            items += len(sched.items)
            if tr is not None:
                tr.add(f"build.{kind}", t0, t1, "sweep", op)
                tr.add(f"plan.{kind}", t1, t2, "sweep", op)
            if check_against is not None:
                ok &= _moves_exactly(src, dst, sends, recvs,
                                     check_against[kind])
    if tr is not None:
        tr.add("sweep", start, now(), None, op)
    return {"items": items, "ok": ok}


def _moves_exactly(src, dst, sends, recvs, truth) -> bool:
    parts = [DistributedArray.from_global(src, r, truth)
             for r in range(src.nranks)]
    outs = [DistributedArray.allocate(dst, r) for r in range(dst.nranks)]
    wire = {(s, pp.peer): np.array(pp.gather(parts[s].flat_local()))
            for s, plan in enumerate(sends) for pp in plan.pairs}
    for d, plan in enumerate(recvs):
        for pp in plan.pairs:
            pp.scatter(outs[d].flat_local(), wire[(pp.peer, d)])
    return bool(np.array_equal(DistributedArray.assemble(outs), truth))


def run(name: str, seed: int, seconds: float, trace: bool,
        process_launched: float) -> Outcome:
    """Set-up is a fresh process, from the clock at which ``run.py`` started
    it, up to the end of its first, cold sweep."""
    sweep()
    setup_s = now() - process_launched
    rng = np.random.default_rng(seed)
    truths = {kind: rng.random((SIDE, SIDE) if kind == "block2d"
                               else (EXTENT,)) for kind in KINDS}
    failures = [] if sweep(check_against=truths)["ok"] else [
        "a compiled plan did not reproduce the seeded array"]

    tr = Tracer("main") if trace else None
    plain, traced, ends = [], [], []
    before = counters.snapshot()
    start = now()
    k = 0
    while k < 2 or now() < start + seconds:
        t0 = now()
        items = sweep(tr if k % 2 else None, k)["items"]
        ends.append(now())
        (traced if tr is not None and k % 2 else plain).append(ends[-1] - t0)
        if items != ITEMS:
            failures.append(f"sweep {k}: {items} schedule items, "
                            f"must be {ITEMS}")
        k += 1
    delta = counters.delta(before, counters.snapshot())
    out = Outcome(op="sweep", setup_s=setup_s,
                  samples_ms=[s * 1e3 for s in plain], start=start, ends=ends,
                  attempted=1 + k, failures=failures)
    if trace:
        out.spans = tr.spans
        layers = out.layers
        build_total = 0.0
        for kind in KINDS:
            per_sweep = _per_sweep_ms(tr.spans, f"build.{kind}")
            layers[f"schedule.builder.build_ms.{kind}"] = per_sweep
            build_total += per_sweep
        layers["schedule.builder.us_per_item"] = build_total * 1e3 / ITEMS
        layers["schedule.indexplan.compile_ms"] = sum(
            _per_sweep_ms(tr.spans, f"plan.{kind}") for kind in KINDS)
        layers["schedule.indexplan.pair_plans"] = counters.per_op(
            [delta], "plan", "pair_plans", k)
        m, n = SIZES[-1]
        layers["schedule.cache.hit_us"] = probes.cache_hit_us(
            DistArrayDescriptor(KINDS["cyclic"](m)),
            DistArrayDescriptor(KINDS["cyclic"](n)))
        layers["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    return out


def _per_sweep_ms(spans, name: str) -> float:
    """Median over traced sweeps of the time all ``name`` spans of one
    sweep add up to (one span per size)."""
    ds = durations_ms(spans, name)
    per = len(SIZES)
    return median([sum(ds[i:i + per]) for i in range(0, len(ds), per)])
