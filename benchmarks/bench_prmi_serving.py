"""A11 (ablation): high-throughput PRMI serving — batched pipeline vs
request-at-a-time invocations.

The classic independent-invocation path (E10/E11 era) pays one framed
transport message and one blocking round trip per call: the caller
pickles a header, sends, and sleeps until the reply lands.  The serving
tier amortizes all of that — an :class:`~repro.prmi.serving.
InvocationPipeline` coalesces up to ``batch_max`` invocations into one
frame (one header pickle + aligned packed arrays, the redistribution
packing idiom applied to RMI), keeps a window of ``inflight_max``
requests outstanding instead of stalling per call, and the callee-side
:class:`~repro.prmi.serving.ServerLoop` greedily drains whole frames per
wake.

This experiment drives the same request stream through both paths
against the same :class:`ServerLoop` cohort and compares sustained
invocations/sec, batch occupancy (requests per frame), the caller-side
latency distribution (p50/p99 from ``PRMI_LATENCY``), and the peak
in-flight window.

The >= 5x throughput acceptance holds where round trips are genuinely
expensive and cores exist to overlap caller and callee work; on fewer
than 4 cores the ratio is reported but not enforced (same convention as
A8/A9).  Result identity between the two paths is exact and enforced
everywhere, on both backends.

``python benchmarks/bench_prmi_serving.py [--json PATH] [--smoke]``
— ``--smoke`` replays a short stream on both backends, checks batched
vs unbatched result identity, zero overloads/errors, and the
throughput-floor / p99-ceiling baselines in BENCH_schedule.json.
"""

import json
import os
import pathlib
import sys
import time

import numpy as np

from _common import banner, fmt_table
from repro.cca.sidl import arg, method, port
from repro.prmi import (
    Batched,
    CalleeEndpoint,
    CallerEndpoint,
    InvocationPipeline,
    PolicyTable,
    ServerLoop,
)
from repro.simmpi import run_coupled
from repro.simmpi.intercomm import default_nameservice
from repro.util.counters import PRMI_LATENCY, PRMI_STATS

M, N = 2, 2                     # caller x callee ranks
REQUESTS = 2000                 # independent invocations per caller rank
SMOKE_REQUESTS = 250
VEC = 64                        # float64 elements per request payload
BATCH_MAX = 32
DELAY_US = 1000
INFLIGHT_MAX = 256
RATIO_FLOOR = 5.0
MIN_CORES = 4
P99_CEILING_US = 200_000.0      # per-request batched latency ceiling

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_schedule.json"

PORT = port(
    "ThroughputPort",
    method("work", arg("i"), arg("v"), invocation="independent"),
)


class _Impl:
    def __init__(self, comm):
        self.comm = comm

    def work(self, i, v):
        return float(v.sum()) + i


# -- rank programs (module level: fork-safe on the procs backend) ------------

def _callee(comm, service):
    inter = default_nameservice.accept(service, comm)
    ep = CalleeEndpoint(comm, inter, PORT, _Impl(comm))
    return ServerLoop(ep).serve_forever()


def _vec(rank):
    return np.arange(VEC, dtype=np.float64) + rank


def _baseline_caller(comm, service, n, requests):
    """Request-at-a-time: one message and one blocking round trip per
    invocation, through the same ServerLoop."""
    inter = default_nameservice.connect(service, comm)
    ep = CallerEndpoint(comm, inter, PORT)
    pipe = InvocationPipeline(ep)          # sync default policy + shutdown
    callee, v = comm.rank % n, _vec(comm.rank)
    results = [pipe.caller.invoke_independent("work", callee, i=i, v=v)
               for i in range(10)]                      # warm-up
    comm.barrier()
    t0 = time.perf_counter()
    for i in range(requests):
        results.append(
            pipe.caller.invoke_independent("work", callee, i=i, v=v))
    elapsed = time.perf_counter() - t0
    pipe.close()
    return {"elapsed": elapsed, "results": results[10:]}


def _pipelined_caller(comm, service, n, requests):
    """The serving tier: adaptive batching + pipelined futures."""
    table = PolicyTable(default=Batched(batch_max=BATCH_MAX,
                                        delay_us=DELAY_US))
    inter = default_nameservice.connect(service, comm)
    ep = CallerEndpoint(comm, inter, PORT)
    pipe = InvocationPipeline(ep, policies=table, inflight_max=INFLIGHT_MAX,
                              overflow="block")
    callee, v = comm.rank % n, _vec(comm.rank)
    warm = [pipe.submit("work", callee, i=i, v=v) for i in range(10)]
    warm = [f.result() for f in warm]
    PRMI_STATS.reset()
    PRMI_LATENCY.reset()
    comm.barrier()
    t0 = time.perf_counter()
    futs = [pipe.submit("work", callee, i=i, v=v) for i in range(requests)]
    results = [f.result() for f in futs]
    elapsed = time.perf_counter() - t0
    stats = PRMI_STATS.snapshot()
    lat = PRMI_LATENCY.snapshot()
    pipe.close()
    return {"elapsed": elapsed, "results": results, "stats": stats,
            "latency": lat}


# -- measurement -------------------------------------------------------------

def _measure(backend, requests):
    base = run_coupled(
        [("callee", N, _callee, ("prmi-serving-base",)),
         ("caller", M, _baseline_caller, ("prmi-serving-base", N, requests))],
        deadlock_timeout=180.0, backend=backend)
    piped = run_coupled(
        [("callee", N, _callee, ("prmi-serving-pipe",)),
         ("caller", M, _pipelined_caller, ("prmi-serving-pipe", N,
                                           requests))],
        deadlock_timeout=180.0, backend=backend)

    b_elapsed = max(r["elapsed"] for r in base["caller"])
    p_elapsed = max(r["elapsed"] for r in piped["caller"])
    stats = [r["stats"] for r in piped["caller"]]
    frames = sum(s.get("frames_sent", 0) for s in stats)
    framed = sum(s.get("frame_requests", 0) for s in stats)
    lat = piped["caller"][0]["latency"]
    row = {
        "backend": backend,
        "requests": requests * M,
        "base_ips": requests * M / b_elapsed,
        "piped_ips": requests * M / p_elapsed,
        "ratio": b_elapsed / p_elapsed if p_elapsed else 0.0,
        "frames": frames,
        "occupancy": framed / frames if frames else 0.0,
        "p50_us": lat.get("p50_us", 0.0),
        "p99_us": lat.get("p99_us", 0.0),
        "peak_inflight": max(s.get("peak_inflight", 0) for s in stats),
        "overloads": sum(s.get("overloads", 0) for s in stats),
        "errors": sum(t.get("errors", 0) for t in piped["callee"]),
        "identical": all(
            b["results"] == p["results"]
            for b, p in zip(base["caller"], piped["caller"])),
    }
    return row


def sweep(requests=REQUESTS):
    return [_measure(b, requests) for b in ("threads", "procs")]


def report(json_path=None):
    print(banner("A11 (ablation): PRMI serving throughput — batched "
                 "pipeline vs request-at-a-time"))
    cores = os.cpu_count() or 1
    rows = sweep()
    print(f"{M}x{N} independent invocations, {REQUESTS}/caller, "
          f"{VEC} float64 elements each, batch_max={BATCH_MAX}, "
          f"delay={DELAY_US} us, window={INFLIGHT_MAX}, {cores} core(s)\n")
    print(fmt_table(
        ["backend", "base inv/s", "piped inv/s", "ratio", "req/frame",
         "p50 us", "p99 us", "peak win", "identical"],
        [[r["backend"], f"{r['base_ips']:.0f}", f"{r['piped_ips']:.0f}",
          f"{r['ratio']:.2f}x", f"{r['occupancy']:.1f}",
          f"{r['p50_us']:.0f}", f"{r['p99_us']:.0f}", r["peak_inflight"],
          "yes" if r["identical"] else "NO"] for r in rows]))

    procs = rows[1]
    enforced = cores >= MIN_CORES
    passed = (all(r["identical"] and not r["overloads"] and not r["errors"]
                  for r in rows)
              and (not enforced or procs["ratio"] >= RATIO_FLOOR))
    print(f"\nprocs batched/unbatched invocation rate: {procs['ratio']:.2f}x "
          f"(floor {RATIO_FLOOR}x on >= {MIN_CORES} cores: "
          f"{'ENFORCED' if enforced else f'not enforced, {cores} core(s)'}); "
          f"occupancy {procs['occupancy']:.1f} requests/frame, "
          f"p99 {procs['p99_us']:.0f} us (ceiling {P99_CEILING_US:.0f}).")

    payload = {
        "m": M, "n": N, "requests": REQUESTS, "vec": VEC,
        "batch_max": BATCH_MAX, "delay_us": DELAY_US,
        "inflight_max": INFLIGHT_MAX, "cores": cores, "rows": rows,
        "ratio_floor": RATIO_FLOOR, "min_cores": MIN_CORES,
        "p99_ceiling_us": P99_CEILING_US,
        "ratio_enforced": enforced, "passed": passed,
    }
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {json_path}")
    return payload


def smoke():
    """CI gate: short stream, both backends.  Result identity between
    the batched pipeline and the request-at-a-time baseline, zero
    overloads/errors, and occupancy > 1 are exact and deterministic;
    the throughput floor and p99 ceiling are enforced only on hosts
    with enough cores for the comparison to be meaningful."""
    with open(BASELINE_PATH) as fh:
        base = json.load(fh)["prmi_serving"]
    cores = os.cpu_count() or 1
    for row in sweep(SMOKE_REQUESTS):
        b = row["backend"]
        if not row["identical"]:
            raise SystemExit(f"{b}: batched results differ from the "
                             f"request-at-a-time baseline")
        if row["overloads"] or row["errors"]:
            raise SystemExit(f"{b}: {row['overloads']} overloads / "
                             f"{row['errors']} errors on an uncontended run")
        if row["occupancy"] <= 1.0:
            raise SystemExit(f"{b}: batch occupancy {row['occupancy']:.2f} "
                             f"requests/frame — coalescing is not happening")
        if cores >= base["min_cores"]:
            if b == "procs" and row["ratio"] < base["ratio_floor"]:
                raise SystemExit(
                    f"throughput regression: batched/unbatched "
                    f"{row['ratio']:.2f}x < floor {base['ratio_floor']}x "
                    f"on {cores} cores")
            if row["p99_us"] > base["p99_ceiling_us"]:
                raise SystemExit(
                    f"{b}: batched p99 {row['p99_us']:.0f} us over the "
                    f"{base['p99_ceiling_us']:.0f} us ceiling")
        print(f"bench_prmi_serving smoke [{b}]: OK (identical results, "
              f"0 overloads, 0 errors, > 1 req/frame)")
        # timing-dependent counts on their own line, so the lines above
        # compare literally between two revisions
        print(f"timing [{b}]: {row['occupancy']:.1f} req/frame, ratio "
              f"{row['ratio']:.2f}x on {cores} core(s)")


# -- pytest hooks ------------------------------------------------------------

def test_acceptance_prmi_serving():
    rows = sweep(SMOKE_REQUESTS)
    for r in rows:
        assert r["identical"]
        assert r["overloads"] == 0 and r["errors"] == 0
        assert r["occupancy"] > 1.0
    if (os.cpu_count() or 1) >= MIN_CORES:
        assert rows[1]["ratio"] >= RATIO_FLOOR
        assert rows[1]["p99_us"] <= P99_CEILING_US


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        path = None
        if "--json" in sys.argv:
            path = sys.argv[sys.argv.index("--json") + 1]
        report(json_path=path)
