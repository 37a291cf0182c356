"""A8 (ablation): multicore scaling — procs backend vs threads.

The threads backend simulates ranks as Python threads, so the GIL
serializes every pack/unpack/copy no matter how many cores the host
has.  The procs backend forks each rank into a real process and moves
payloads through shared-memory slot rings, so the per-rank copy work
runs on real cores in parallel.  This experiment drives the same
persistent coupled-field channel (``Coupler.open`` + ``push``/``pull``)
over both backends and compares aggregate steady-state redistribution
throughput.

Configuration: cyclic 8 -> 12 redistribution (block-cyclic interleave,
4 KiB blocks — the same all-pairs communication structure as
element-cyclic, 24 cross pairs, but with schedule size independent of
the payload) of a >= 64 MiB float64 array.  Producers and consumers run
in lockstep via tiny ack tokens so the slot rings can never overfill:
zero steady-state slot-pool (and pack-pool) allocations is asserted, on
top of the throughput ratio.

The >= 2x throughput acceptance only holds where there are cores to
scale onto; on fewer than 4 cores the ratio is reported but not
enforced (process transport pays fork + queue overhead that only pays
off with real parallelism).

``python benchmarks/bench_multicore_scaling.py [--json PATH] [--smoke]``
— ``--smoke`` replays a small extent, checks byte-identity against the
ground truth on both backends and the zero-allocation counters against
the committed baseline in BENCH_schedule.json (for CI).
"""

import json
import os
import pathlib
import sys
import time

import numpy as np

from _common import banner, fmt_table
from repro.dad import (
    BlockCyclic,
    CartesianTemplate,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.highlevel import Coupler
from repro.schedule import GLOBAL_CACHE
from repro.simmpi import run_coupled
from repro.simmpi.intercomm import default_nameservice
from repro.simmpi.procs import slot_stats
from repro.util.counters import TRANSPORT_STATS

M, N = 8, 12                    # producer x consumer ranks (cyclic 8 -> 12)
BLOCK = 4096                    # interleave block (elements)
EXTENT = 8 * 1024 * 1024        # 64 MiB of float64 per snapshot
SMOKE_EXTENT = 96_000
#: Smoke case on default transport options: 20 blocks per pair make each
#: pair message 640 KiB, a run of 3 of the default 256 KiB slots (the
#: ring holds 8, so a producer's third message waits for a release).
RUNS_EXTENT = 20 * 24 * BLOCK
STEPS = 3
RATIO_FLOOR = 2.0
MIN_CORES = 4

_FIELD, _ACK, _ACK_TAG = "mcs-field", "mcs-ack", 7

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_schedule.json"

#: Ground-truth arrays, built once in the parent so forked procs-backend
#: ranks read them through copy-on-write instead of rebuilding 64 MiB each.
_GLOBALS: dict[int, np.ndarray] = {}


def _global(extent):
    if extent not in _GLOBALS:
        _GLOBALS[extent] = np.arange(float(extent))
    return _GLOBALS[extent]


def _descs(extent):
    return (DistArrayDescriptor(CartesianTemplate([BlockCyclic(extent, M,
                                                               BLOCK)])),
            DistArrayDescriptor(CartesianTemplate([BlockCyclic(extent, N,
                                                               BLOCK)])))


# -- rank programs (module level: fork-safe on the procs backend) ------------

def _sent(comm):
    """Messages this rank has sent: point-to-point, collective-internal
    and intercommunicator (on procs each rank's job counters are its
    own)."""
    c = comm.job.counters
    return c.get("msgs") + c.get("internal_msgs") + c.get("inter_msgs")


def _producer(comm, extent, steps, dst_of):
    src_desc, _ = _descs(extent)
    da = DistributedArray.from_global(src_desc, comm.rank, _global(extent))
    chan = Coupler(_FIELD, default_nameservice).open(comm, "source", da)
    ack = default_nameservice.accept(_ACK, comm)
    mine = dst_of.get(comm.rank, ())

    def step():
        chan.push()
        for d in mine:                     # lockstep: wait until every
            ack.recv(d, tag=_ACK_TAG)      # consumer of ours has pulled
    step()                                 # warm-up: pools fill here
    s0 = slot_stats()
    p0 = chan.pool_stats.get("allocations", 0)
    q0, n0 = TRANSPORT_STATS.get("ctl_ring_msgs"), _sent(comm)
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(steps):
        step()
    elapsed = time.perf_counter() - t0
    s1 = slot_stats()
    return {
        "elapsed": elapsed,
        "pool_allocs": chan.pool_stats.get("allocations", 0) - p0,
        "slot_allocs": s1.get("allocations", 0) - s0.get("allocations", 0),
        "ring_full": s1.get("ring_full", 0) - s0.get("ring_full", 0),
        "slot_loans": s1.get("loans", 0) - s0.get("loans", 0),
        "oversize": s1.get("oversize", 0) - s0.get("oversize", 0),
        "ring_msgs": TRANSPORT_STATS.get("ctl_ring_msgs") - q0,
        "sent": _sent(comm) - n0,
    }


def _consumer(comm, extent, steps, src_of, collect):
    _, dst_desc = _descs(extent)
    chan = Coupler(_FIELD, default_nameservice).open(
        comm, "destination", dst_desc)
    ack = default_nameservice.connect(_ACK, comm)
    mine = src_of.get(comm.rank, ())

    def step():
        out = chan.pull()
        for s in mine:
            ack.send(None, s, tag=_ACK_TAG)
        return out
    step()                                 # warm-up
    d0 = TRANSPORT_STATS.get("direct_deliveries")
    q0, n0 = TRANSPORT_STATS.get("ctl_ring_msgs"), _sent(comm)
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(steps):
        out = step()
    elapsed = time.perf_counter() - t0
    return {
        "elapsed": elapsed,
        "sum": sum(float(v.sum()) for v in out.patches.values()),
        "direct": TRANSPORT_STATS.get("direct_deliveries") - d0,
        "ring_msgs": TRANSPORT_STATS.get("ctl_ring_msgs") - q0,
        "sent": _sent(comm) - n0,
        "array": out if collect else None,
    }


# -- measurement -------------------------------------------------------------

def _measure(backend, extent=EXTENT, steps=STEPS, *, collect=False,
             transport_opts=None):
    """One backend's steady-state throughput plus the exact allocation
    counters, all from the same persistent-channel rank program."""
    src_desc, dst_desc = _descs(extent)
    # pre-warm: forked ranks inherit the cached schedule
    sched = GLOBAL_CACHE.get(src_desc, dst_desc)
    wire_bytes = sched.nbytes(np.float64)
    pairs = {(it.src, it.dst) for it in sched.items}
    dst_of = {r: sorted(d for s, d in pairs if s == r) for r in range(M)}
    src_of = {r: sorted(s for s, d in pairs if d == r) for r in range(N)}
    _global(extent)                          # ditto for the ground truth

    res = run_coupled(
        [("prod", M, _producer, (extent, steps, dst_of)),
         ("cons", N, _consumer, (extent, steps, src_of, collect))],
        deadlock_timeout=180.0, backend=backend,
        transport_opts=transport_opts)
    prods, cons = res["prod"], res["cons"]
    elapsed = max(r["elapsed"] for r in prods + cons)
    return {
        "backend": backend,
        "wire_bytes": wire_bytes,
        "pairs": len(pairs),
        "step_ms": elapsed / steps * 1e3,
        "gbps": wire_bytes * steps / elapsed / 1e9,
        "pool_allocs": sum(r["pool_allocs"] for r in prods),
        "slot_allocs": sum(r["slot_allocs"] for r in prods),
        "ring_full": sum(r["ring_full"] for r in prods),
        "slot_loans": sum(r["slot_loans"] for r in prods),
        "oversize": sum(r["oversize"] for r in prods),
        "direct": sum(r["direct"] for r in cons),
        "ring_msgs": sum(r["ring_msgs"] for r in prods + cons),
        "sent": sum(r["sent"] for r in prods + cons),
        "sum": sum(r["sum"] for r in cons),
        "parts": [r["array"] for r in cons] if collect else None,
    }


def _full_opts():
    """Slot geometry for the 64 MiB snapshot: the largest pair message is
    wire_bytes / 24 ~= 2.8 MiB, and lockstep keeps at most |dst_of| = 3
    messages in any sender's ring."""
    return {"slot_bytes": 4 << 20, "slots_per_endpoint": 6}


def sweep(extent=EXTENT, steps=STEPS, *, collect=False, opts=None):
    rows = [_measure(b, extent, steps, collect=collect,
                     transport_opts=opts if b == "procs" else None)
            for b in ("threads", "procs")]
    ratio = rows[1]["gbps"] / rows[0]["gbps"] if rows[0]["gbps"] else 0.0
    return rows, ratio


def report(json_path=None):
    print(banner("A8 (ablation): multicore scaling — procs (shared-memory "
                 "processes) vs threads"))
    cores = os.cpu_count() or 1
    rows, ratio = sweep(opts=_full_opts())
    mb = rows[0]["wire_bytes"] / 2 ** 20
    print(f"cyclic {M}x{N} (block-cyclic interleave, {BLOCK} el blocks), "
          f"{mb:.0f} MiB/snapshot, {STEPS} steps, {cores} core(s)\n")
    print(fmt_table(
        ["backend", "ms/step", "GB/s", "slot allocs", "ring full",
         "pool allocs", "direct dlv"],
        [[r["backend"], f"{r['step_ms']:.1f}", f"{r['gbps']:.3f}",
          r["slot_allocs"], r["ring_full"], r["pool_allocs"], r["direct"]]
         for r in rows]))

    enforced = cores >= MIN_CORES
    passed = (rows[1]["slot_allocs"] == 0 and rows[1]["pool_allocs"] == 0
              and (not enforced or ratio >= RATIO_FLOOR))
    print(f"\nprocs / threads aggregate throughput: {ratio:.2f}x "
          f"(floor {RATIO_FLOOR}x on >= {MIN_CORES} cores: "
          f"{'ENFORCED' if enforced else f'not enforced, {cores} core(s)'}); "
          f"{rows[1]['slot_allocs']} steady-state slot allocations "
          f"(floor: 0).")

    payload = {
        "kind": "blockcyclic", "block": BLOCK, "m": M, "n": N,
        "extent": EXTENT, "payload_mb": mb, "steps": STEPS, "cores": cores,
        "rows": [{k: v for k, v in r.items() if k not in ("parts",)}
                 for r in rows],
        "ratio": ratio, "ratio_floor": RATIO_FLOOR, "min_cores": MIN_CORES,
        "ratio_enforced": enforced, "passed": passed,
    }
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {json_path}")
    return payload


def smoke():
    """CI gate: small extent, both backends.  Byte-identity against the
    ground truth and the zero-allocation counters are exact and
    deterministic; the throughput ratio is only enforced on hosts with
    enough cores for the comparison to be meaningful."""
    with open(BASELINE_PATH) as fh:
        base = json.load(fh)["multicore_scaling"]
    rows, ratio = sweep(SMOKE_EXTENT, steps=3, collect=True)
    g = _global(SMOKE_EXTENT)
    for r in rows:
        got = DistributedArray.assemble([p for p in r["parts"] if p is not None])
        if not np.array_equal(got, g):
            raise SystemExit(f"{r['backend']}: reassembled snapshot is not "
                             f"byte-identical to the ground truth")
        if r["pool_allocs"] > base["pool_allocs_per_step"]:
            raise SystemExit(
                f"{r['backend']}: {r['pool_allocs']} pack-pool allocations "
                f"in steady state, baseline {base['pool_allocs_per_step']}")
    procs = rows[1]
    if procs["slot_allocs"] > base["slot_allocs_per_step"]:
        raise SystemExit(
            f"procs: {procs['slot_allocs']} slot-pool allocations in steady "
            f"state, baseline {base['slot_allocs_per_step']}")
    if procs["direct"] <= 0:
        raise SystemExit("procs: no direct deliveries — preposted receives "
                         "are not landing in destination memory")
    cores = os.cpu_count() or 1
    if cores >= base["min_cores"] and ratio < base["ratio_floor"]:
        raise SystemExit(f"throughput regression: procs/threads {ratio:.2f}x "
                         f"< floor {base['ratio_floor']}x on {cores} cores")
    runs = smoke_runs(base)
    print(f"bench_multicore_scaling smoke: OK (identical bytes on both "
          f"backends, 0 steady-state slot allocs; default options: "
          f"{runs['oversize']} multi-slot messages, 0 slot allocs, every "
          f"message on its pair's ring)")
    # timing-dependent counts on their own line, so the line above
    # compares literally between two revisions
    print(f"timing: ratio {ratio:.2f}x on {cores} core(s), "
          f"{runs['ring_full']} ring-full waits")


def smoke_runs(base):
    """CI gate for messages wider than one slot on default transport
    options: every pair message rides a run of slots — byte-identical,
    never an inline allocation — and every message sent rides its
    pair's control ring."""
    row = _measure("procs", RUNS_EXTENT, collect=True)
    got = DistributedArray.assemble([p for p in row["parts"] if p is not None])
    if not np.array_equal(got, _global(RUNS_EXTENT)):
        raise SystemExit("procs, default options: reassembled snapshot is "
                         "not byte-identical to the ground truth")
    if row["oversize"] != row["pairs"] * STEPS:
        raise SystemExit(
            f"procs, default options: {row['oversize']} multi-slot "
            f"messages, expected one per pair per step "
            f"({row['pairs'] * STEPS})")
    if row["slot_allocs"] > base["slot_allocs_per_step"]:
        raise SystemExit(
            f"procs, default options: {row['slot_allocs']} slot-pool "
            f"allocations for multi-slot messages, baseline "
            f"{base['slot_allocs_per_step']}")
    if row["ring_msgs"] != row["sent"] or not row["sent"]:
        raise SystemExit(
            f"procs, default options: {row['ring_msgs']} of {row['sent']} "
            f"messages sent rode their pair's control ring")
    return row


# -- pytest hooks ------------------------------------------------------------

def test_acceptance_multicore_scaling():
    rows, ratio = sweep(SMOKE_EXTENT, steps=3, collect=True)
    g = _global(SMOKE_EXTENT)
    for r in rows:
        np.testing.assert_array_equal(
            DistributedArray.assemble([p for p in r["parts"] if p is not None]), g)
        assert r["pool_allocs"] == 0
    assert rows[1]["slot_allocs"] == 0
    assert rows[1]["direct"] > 0
    if (os.cpu_count() or 1) >= MIN_CORES:
        assert ratio >= RATIO_FLOOR


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        path = None
        if "--json" in sys.argv:
            path = sys.argv[sys.argv.index("--json") + 1]
        report(json_path=path)
