"""A9 (ablation): one-sided RMA tier vs two-sided procs channels.

The two-sided persistent channel already has a zero-copy steady state,
but every step still pays per-message *transport* costs: each pair's
payload is packed, copied through a shared slot ring, matched in the
consumer's mailbox, and scattered — one envelope per pair per step,
plus ack tokens to keep producers and consumers in lockstep.  The
one-sided tier (``Coupler.open(..., tier="rma")``) deletes all of
it: the consumer's destination array lives inside a shared RMA window,
each producer executes the receiver's compiled scatter plan directly
into that window, and one epoch fence per step replaces per-message
rendezvous (which also makes the channel lockstep for free — no ack
side-channel at all).

This experiment drives the same persistent coupled-field channel as A8
(cyclic 8 -> 12 with block-cyclic interleave, 4 KiB blocks, >= 64 MiB
float64 snapshots) over the procs backend in both modes and compares:

* aggregate steady-state redistribution throughput,
* **messages matched per step** — the headline metric: two-sided
  matches one envelope per pair (+ acks) per step, one-sided matches
  *zero* after the bootstrap handshake,
* **bytes copied per step** — two-sided moves every payload byte of an
  eager pair at least twice (pack/slot-ring + scatter), one-sided
  exactly once (scatter straight into the window).  That holds because
  every pair here, full size (~0.7 MiB) or smoke, is below
  ``EAGER_MAX``: a persistent two-sided pair above it is put like a
  one-sided one and moves once too,
* steady-state allocations (must be zero in both modes).

``python benchmarks/bench_rma_steady_state.py [--json PATH] [--smoke]``
— ``--smoke`` replays a small extent, checks byte-identity on both
modes and the message/copy/allocation floors against the committed
baseline in BENCH_schedule.json (for CI); the throughput floor is
enforced only on hosts with enough cores for the comparison to mean
anything.
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
STEPS = 3
MIN_CORES = 4

_FIELD, _ACK, _ACK_TAG = "rma-field", "rma-ack", 9

#: Counters that together are "bytes moved by the data plane".
_COPY_KEYS = ("bytes_copied", "shm_slot_bytes", "shm_inline_bytes")

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_schedule.json"

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


def _deltas(snap0):
    snap1 = TRANSPORT_STATS.snapshot()
    return {k: snap1.get(k, 0) - snap0.get(k, 0)
            for k in set(snap0) | set(snap1)}


# -- rank programs (module level: fork-safe on the procs backend) ------------

def _producer(comm, extent, steps, dst_of, tier):
    src_desc, _ = _descs(extent)
    da = DistributedArray.from_global(src_desc, comm.rank, _global(extent))
    chan = Coupler(_FIELD, default_nameservice).open(
        comm, "source", da, tier=tier)
    # Two-sided needs an ack side-channel to stay in lockstep (slot
    # rings must not overfill); one-sided is lockstep by construction —
    # each put waits for the consumer's exposure epoch.
    ack = (default_nameservice.accept(_ACK, comm) if tier == "two_sided"
           else None)
    mine = dst_of.get(comm.rank, ())

    def step():
        chan.push()
        if ack is not None:
            for d in mine:
                ack.recv(d, tag=_ACK_TAG)
    step()                                 # warm-up: pools/windows settle
    s0 = slot_stats()
    p0 = chan.pool_stats.get("allocations", 0)
    comm.barrier()                         # intra-job sync traffic stays
    c0 = TRANSPORT_STATS.snapshot()        # out of the steady-state deltas
    t0 = time.perf_counter()
    for _ in range(steps):
        step()
    elapsed = time.perf_counter() - t0
    d = _deltas(c0)
    s1 = slot_stats()
    mode = chan.mode
    chan.close()
    return {
        "mode": mode,
        "elapsed": elapsed,
        "matched": d.get("messages_matched", 0),
        "copied": sum(d.get(k, 0) for k in _COPY_KEYS),
        "rma_puts": d.get("rma_puts", 0),
        "pool_allocs": chan.pool_stats.get("allocations", 0) - p0,
        "slot_allocs": s1.get("allocations", 0) - s0.get("allocations", 0),
    }


def _consumer(comm, extent, steps, src_of, collect, tier):
    _, dst_desc = _descs(extent)
    chan = Coupler(_FIELD, default_nameservice).open(
        comm, "destination", dst_desc, tier=tier)
    ack = (default_nameservice.connect(_ACK, comm) if tier == "two_sided"
           else None)
    mine = src_of.get(comm.rank, ())

    def step():
        out = chan.pull()
        if ack is not None:
            for s in mine:
                ack.send(None, s, tag=_ACK_TAG)
        return out
    step()                                 # warm-up
    comm.barrier()
    c0 = TRANSPORT_STATS.snapshot()
    t0 = time.perf_counter()
    for _ in range(steps):
        out = step()
    elapsed = time.perf_counter() - t0
    d = _deltas(c0)
    mode = chan.mode
    chan.close()                           # drops the window; the array stays
    return {
        "mode": mode,
        "elapsed": elapsed,
        "matched": d.get("messages_matched", 0),
        "copied": sum(d.get(k, 0) for k in _COPY_KEYS),
        "fences": d.get("rma_fences", 0),
        "array": out if collect else None,
    }


# -- measurement -------------------------------------------------------------

def _measure(tier, extent=EXTENT, steps=STEPS, *, collect=False,
             transport_opts=None):
    src_desc, dst_desc = _descs(extent)
    # pre-warm: forked ranks inherit the cached schedule
    sched = GLOBAL_CACHE.get(src_desc, dst_desc)
    wire_bytes = sched.nbytes(np.float64)
    pairs = {(it.src, it.dst) for it in sched.items}
    dst_of = {r: sorted(d for s, d in pairs if s == r) for r in range(M)}
    src_of = {r: sorted(s for s, d in pairs if d == r) for r in range(N)}
    _global(extent)

    res = run_coupled(
        [("prod", M, _producer, (extent, steps, dst_of, tier)),
         ("cons", N, _consumer, (extent, steps, src_of, collect, tier))],
        deadlock_timeout=180.0, backend="procs",
        transport_opts=transport_opts)
    prods, cons = res["prod"], res["cons"]
    elapsed = max(r["elapsed"] for r in prods + cons)
    modes = {r["mode"] for r in prods + cons}
    assert len(modes) == 1, f"mixed channel modes: {modes}"
    return {
        "mode": modes.pop(),
        "wire_bytes": wire_bytes,
        "pairs": len(pairs),
        "step_ms": elapsed / steps * 1e3,
        "gbps": wire_bytes * steps / elapsed / 1e9,
        "matched_per_step": sum(r["matched"] for r in prods + cons) / steps,
        "copied_per_byte": (sum(r["copied"] for r in prods + cons)
                            / (wire_bytes * steps)),
        "rma_puts": sum(r["rma_puts"] for r in prods),
        "pool_allocs": sum(r["pool_allocs"] for r in prods),
        "slot_allocs": sum(r["slot_allocs"] for r in prods),
        "parts": [r["array"] for r in cons] if collect else None,
    }


def _full_opts():
    """Two-sided slot geometry for the 64 MiB snapshot (as in A8); the
    one-sided run carries only tiny bootstrap traffic through the
    rings, so the same opts are safely shared."""
    return {"slot_bytes": 4 << 20, "slots_per_endpoint": 6}


def sweep(extent=EXTENT, steps=STEPS, *, collect=False, opts=None):
    two = _measure("two_sided", extent, steps, collect=collect,
                   transport_opts=opts)
    rma = _measure("rma", extent, steps, collect=collect,
                   transport_opts=opts)
    ratio = rma["gbps"] / two["gbps"] if two["gbps"] else 0.0
    return [two, rma], ratio


def report(json_path=None):
    print(banner("A9 (ablation): one-sided RMA execution tier vs "
                 "two-sided procs channels"))
    cores = os.cpu_count() or 1
    rows, ratio = sweep(opts=_full_opts())
    mb = rows[0]["wire_bytes"] / 2 ** 20
    print(f"cyclic {M}x{N} (block-cyclic interleave, {BLOCK} el blocks), "
          f"{mb:.0f} MiB/snapshot, {STEPS} steps, procs backend, "
          f"{cores} core(s)\n")
    print(fmt_table(
        ["mode", "ms/step", "GB/s", "msgs matched/step", "copies/byte",
         "rma puts", "allocs"],
        [[r["mode"], f"{r['step_ms']:.1f}", f"{r['gbps']:.3f}",
          f"{r['matched_per_step']:.1f}", f"{r['copied_per_byte']:.2f}",
          r["rma_puts"], r["pool_allocs"] + r["slot_allocs"]]
         for r in rows]))

    two, rma = rows
    enforced = cores >= MIN_CORES
    passed = (rma["matched_per_step"] == 0
              and rma["matched_per_step"] < two["matched_per_step"]
              and rma["copied_per_byte"] <= two["copied_per_byte"]
              and rma["pool_allocs"] == 0 and rma["slot_allocs"] == 0
              and (not enforced or ratio >= 1.0))
    print(f"\nrma / two-sided throughput: {ratio:.2f}x (floor 1.0x on "
          f">= {MIN_CORES} cores: "
          f"{'ENFORCED' if enforced else f'not enforced, {cores} core(s)'}); "
          f"matched messages per steady-state step: "
          f"{two['matched_per_step']:.0f} -> {rma['matched_per_step']:.0f}; "
          f"copies per wire byte: {two['copied_per_byte']:.2f} -> "
          f"{rma['copied_per_byte']:.2f}.")

    payload = {
        "kind": "blockcyclic", "block": BLOCK, "m": M, "n": N,
        "extent": EXTENT, "payload_mb": mb, "steps": STEPS, "cores": cores,
        "rows": [{k: v for k, v in r.items() if k != "parts"}
                 for r in rows],
        "ratio": ratio, "min_cores": MIN_CORES, "passed": passed,
    }
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {json_path}")
    return payload


def smoke():
    """CI gate: small extent, both modes.  Byte-identity, the zero
    matched-messages property, the copy advantage and the
    zero-allocation counters are exact and deterministic; the
    throughput floor needs real cores."""
    with open(BASELINE_PATH) as fh:
        base = json.load(fh)["rma_steady_state"]
    rows, ratio = sweep(SMOKE_EXTENT, steps=3, collect=True)
    g = _global(SMOKE_EXTENT)
    for r in rows:
        got = DistributedArray.assemble(
            [p for p in r["parts"] if p is not None])
        if not np.array_equal(got, g):
            raise SystemExit(f"{r['mode']}: reassembled snapshot is not "
                             f"byte-identical to the ground truth")
    two, rma = rows
    if rma["matched_per_step"] > base["rma_matched_per_step"]:
        raise SystemExit(
            f"rma: {rma['matched_per_step']:.1f} matched messages per "
            f"steady-state step, baseline {base['rma_matched_per_step']} — "
            f"the data plane is leaking through the mailbox")
    if rma["matched_per_step"] >= two["matched_per_step"]:
        raise SystemExit(
            f"rma matches as many messages as two-sided "
            f"({rma['matched_per_step']:.1f} vs "
            f"{two['matched_per_step']:.1f}) — no one-sided advantage")
    if rma["copied_per_byte"] > two["copied_per_byte"]:
        raise SystemExit(
            f"rma copies {rma['copied_per_byte']:.2f} bytes per wire byte, "
            f"two-sided {two['copied_per_byte']:.2f} — the direct-write "
            f"path is staging somewhere")
    if rma["copied_per_byte"] > base["rma_copies_per_byte"]:
        raise SystemExit(
            f"rma copies {rma['copied_per_byte']:.2f} per wire byte, "
            f"baseline {base['rma_copies_per_byte']}")
    if rma["pool_allocs"] > base["allocs_per_step"] or \
            rma["slot_allocs"] > base["allocs_per_step"]:
        raise SystemExit(
            f"rma steady state allocated (pool {rma['pool_allocs']}, "
            f"slots {rma['slot_allocs']}), baseline "
            f"{base['allocs_per_step']}")
    if rma["rma_puts"] <= 0:
        raise SystemExit("rma mode moved no data through puts")
    cores = os.cpu_count() or 1
    if cores >= base["min_cores"] and ratio < base["ratio_floor"]:
        raise SystemExit(f"throughput regression: rma/two-sided "
                         f"{ratio:.2f}x < floor {base['ratio_floor']}x "
                         f"on {cores} cores")
    print(f"bench_rma_steady_state smoke: OK (identical bytes in both "
          f"modes, {two['matched_per_step']:.0f} -> "
          f"{rma['matched_per_step']:.0f} matched msgs/step, "
          f"{two['copied_per_byte']:.2f} -> {rma['copied_per_byte']:.2f} "
          f"copies/byte, 0 steady-state allocs)")
    # the timing-dependent ratio on its own line, so the line above
    # compares literally between two revisions
    print(f"timing: ratio {ratio:.2f}x on {cores} core(s)")


# -- pytest hooks ------------------------------------------------------------

def test_acceptance_rma_steady_state():
    rows, ratio = sweep(SMOKE_EXTENT, steps=3, collect=True)
    g = _global(SMOKE_EXTENT)
    for r in rows:
        np.testing.assert_array_equal(
            DistributedArray.assemble(
                [p for p in r["parts"] if p is not None]), g)
    two, rma = rows
    assert rma["matched_per_step"] == 0
    assert two["matched_per_step"] > 0
    assert rma["copied_per_byte"] <= two["copied_per_byte"]
    assert rma["pool_allocs"] == 0 and rma["slot_allocs"] == 0
    assert rma["rma_puts"] > 0
    if (os.cpu_count() or 1) >= MIN_CORES:
        assert ratio >= 1.0


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        path = None
        if "--json" in sys.argv:
            path = sys.argv[sys.argv.index("--json") + 1]
        report(json_path=path)
