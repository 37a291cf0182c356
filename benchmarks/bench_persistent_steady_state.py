"""A7 (ablation): zero-copy transport — persistent-channel steady state
vs one-shot transfers.

The one-shot executor pays two copies for every wire byte: the transport
snapshots each borrowed send-side view (value semantics for a sender
that may mutate right after ``send`` returns), and the receiver scatters
the queued wire buffer into its local array.  The persistent engines
remove the first copy and the steady-state allocations:

* the receiver preposts recv-into-destination slots, so a borrowed
  strided view is written straight into the destination's consolidated
  local base — one strided-to-strided copy per pair, no wire buffer;
* index-array pairs gather into buffers loaned from a per-engine
  :class:`~repro.schedule.bufpool.BufferPool` and move them with
  :class:`~repro.simmpi.payload.OwnedBuffer`; the loan is released on
  delivery, so after warm-up no step allocates anything.

This report drives both paths through the real simulated transport, but
single-threaded (``couple_jobs`` + explicit arm/send/complete ordering),
so the copy and allocation counters are exact and deterministic — not
thread-scheduler noise.  Copies and allocations come from
``TRANSPORT_STATS`` and the pool counters, normalized per wire byte and
per step.

``python benchmarks/bench_persistent_steady_state.py [--json PATH]
[--smoke]`` — ``--smoke`` checks the counters against the committed
baseline in BENCH_schedule.json (for CI) instead of the timing sweep.
"""

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
from repro.dad.template import block_template
from repro.schedule import bind, build_region_schedule, execute_inter
from repro.simmpi.intercomm import couple_jobs
from repro.simmpi.runner import Job
from repro.util.counters import TRANSPORT_STATS

EXTENT = 4800
SIZES = [(4, 6), (8, 12), (16, 24), (32, 48)]
REPS = 3
STEPS = 8

KINDS = {
    "block": lambda p, e: block_template((e,), (p,)),
    "cyclic": lambda p, e: CartesianTemplate([Cyclic(e, p)]),
    "blockcyclic4": lambda p, e: CartesianTemplate([BlockCyclic(e, p, 4)]),
}

# the acceptance pair from the issue: cyclic 32 -> 48 ranks
ACCEPTANCE = ("cyclic", 32, 48)
COPY_RATIO_FLOOR = 2.0

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_schedule.json"


def _pair(kind, m, n, extent=EXTENT):
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


def _oneshot_step(sched, src_inters, dst_inters, srcs, dsts, tag):
    """One one-shot transfer, single-threaded: buffered sends first,
    then the receive side drains the queued wire buffers."""
    for r, arr in enumerate(srcs):
        execute_inter(sched, src_inters[r], "src", arr, tag=tag)
    return sum(execute_inter(sched, dst_inters[r], "dst", arr, tag=tag)
               for r, arr in enumerate(dsts))


def _persistent_step(senders, receivers):
    """One armed steady-state step: prepost, send, complete."""
    for rx in receivers:
        rx.arm()
    for tx in senders:
        tx.step()
    return sum(rx.complete(timeout=60) for rx in receivers)


def _measure(kind, m, n, extent=EXTENT, steps=STEPS):
    """Exact per-byte copy and per-step allocation counts, plus best-of
    wall times, for both transfer styles on one template pair."""
    src_desc, dst_desc = _pair(kind, m, n, extent)
    sched = build_region_schedule(src_desc, dst_desc)
    wire_bytes = sched.nbytes(src_desc.dtype)

    # --- one-shot: fresh transfers, every step pays full freight -------
    src_job, dst_job = Job(src_desc.nranks), Job(dst_desc.nranks)
    src_inters, dst_inters = couple_jobs(src_job, dst_job)
    srcs, dsts = _arrays(src_desc, dst_desc, extent)
    _oneshot_step(sched, src_inters, dst_inters, srcs, dsts, tag=700)
    c0 = TRANSPORT_STATS.get("bytes_copied")
    a0 = TRANSPORT_STATS.get("alloc_bytes")
    t_one = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        for _ in range(steps):
            moved = _oneshot_step(sched, src_inters, dst_inters,
                                  srcs, dsts, tag=700)
        t_one = min(t_one, (time.perf_counter() - t0) / steps)
        assert moved == extent
    one_copies = (TRANSPORT_STATS.get("bytes_copied") - c0) / \
        (wire_bytes * steps * REPS)
    one_allocs = (TRANSPORT_STATS.get("alloc_bytes") - a0) / \
        (wire_bytes * steps * REPS)

    # --- persistent: warmed engines, pooled buffers, preposted recvs ---
    src_job, dst_job = Job(src_desc.nranks), Job(dst_desc.nranks)
    src_inters, dst_inters = couple_jobs(src_job, dst_job)
    srcs, dsts = _arrays(src_desc, dst_desc, extent)
    senders = [bind(sched, "src", src_inters[r], srcs[r])
               for r in range(src_desc.nranks)]
    receivers = [bind(sched, "dst", dst_inters[r], dsts[r])
                 for r in range(dst_desc.nranks)]
    _persistent_step(senders, receivers)  # warm-up: pools fill here
    c0 = TRANSPORT_STATS.get("bytes_copied")
    a0 = TRANSPORT_STATS.get("alloc_bytes")
    p0 = sum(tx.pool.stats.get("allocations") for tx in senders)
    t_per = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        for _ in range(steps):
            moved = _persistent_step(senders, receivers)
        t_per = min(t_per, (time.perf_counter() - t0) / steps)
        assert moved == extent
    per_copies = (TRANSPORT_STATS.get("bytes_copied") - c0) / \
        (wire_bytes * steps * REPS)
    per_allocs = (TRANSPORT_STATS.get("alloc_bytes") - a0) + \
        sum(tx.pool.stats.get("allocations") for tx in senders) - p0

    return {
        "kind": kind, "m": m, "n": n, "wire_bytes": wire_bytes,
        "oneshot_copies_per_byte": one_copies,
        "oneshot_allocs_per_byte": one_allocs,
        "persistent_copies_per_byte": per_copies,
        "persistent_allocs_per_step": per_allocs,
        "copy_ratio": one_copies / per_copies if per_copies else float("inf"),
        "oneshot_ms": t_one * 1e3, "persistent_ms": t_per * 1e3,
    }


def sweep_rows(extent=EXTENT, steps=STEPS):
    return [_measure(kind, m, n, extent, steps)
            for kind in KINDS for m, n in SIZES]


def verify_hook_guard(extent=480, steps=6):
    """Prove the ``REPRO_VERIFY`` assertion hook costs nothing in the
    steady state: disabled, it does no work anywhere; enabled, all
    verification happens at engine construction and a steady-state
    step performs zero hook calls.  Counter deltas are exact integers."""
    from repro.verify import hook as verify_hook

    kind, m, n = ACCEPTANCE
    src_desc, dst_desc = _pair(kind, m, n, extent)

    def build_engines(sched):
        src_job, dst_job = Job(src_desc.nranks), Job(dst_desc.nranks)
        src_inters, dst_inters = couple_jobs(src_job, dst_job)
        srcs, dsts = _arrays(src_desc, dst_desc, extent)
        senders = [bind(sched, "src", src_inters[r], srcs[r])
                   for r in range(src_desc.nranks)]
        receivers = [bind(sched, "dst", dst_inters[r], dsts[r])
                     for r in range(dst_desc.nranks)]
        return senders, receivers

    was_enabled = verify_hook.verify_enabled()
    try:
        # --- disabled (the default): the hook is one boolean test ------
        verify_hook.set_verify(False)
        verify_hook.VERIFY_STATS.reset()
        senders, receivers = build_engines(
            build_region_schedule(src_desc, dst_desc))
        for _ in range(steps):
            _persistent_step(senders, receivers)
        disabled_total = sum(verify_hook.VERIFY_STATS.snapshot().values())

        # --- enabled: proofs run once at construction, never in step ---
        verify_hook.set_verify(True)
        verify_hook.VERIFY_STATS.reset()
        senders, receivers = build_engines(
            build_region_schedule(src_desc, dst_desc))
        construction = verify_hook.VERIFY_STATS.snapshot()
        for _ in range(steps):
            _persistent_step(senders, receivers)
        after = verify_hook.VERIFY_STATS.snapshot()
        step_calls = (after.get("hook_calls", 0)
                      - construction.get("hook_calls", 0))
        step_checks = (after.get("rank_checks", 0)
                       - construction.get("rank_checks", 0))
    finally:
        verify_hook.set_verify(was_enabled)
        verify_hook.VERIFY_STATS.reset()

    return {
        "kind": kind, "m": m, "n": n, "steps": steps,
        "disabled_hook_work_total": disabled_total,
        "construction_rank_checks": construction.get("rank_checks", 0),
        "steady_hook_calls_per_step": step_calls / steps,
        "steady_verifications_per_step": step_checks / steps,
        "passed": (disabled_total == 0 and step_calls == 0
                   and step_checks == 0
                   and construction.get("rank_checks", 0) == m + n),
    }


def report(json_path=None):
    print(banner("A7 (ablation): zero-copy transport — persistent "
                 "steady state vs one-shot"))
    rows = sweep_rows()
    print(fmt_table(
        ["kind", "M x N", "1shot cp/B", "persist cp/B", "ratio",
         "allocs/step", "1shot ms", "persist ms"],
        [[r["kind"], f"{r['m']}x{r['n']}",
          f"{r['oneshot_copies_per_byte']:.2f}",
          f"{r['persistent_copies_per_byte']:.2f}",
          f"{r['copy_ratio']:.2f}x", r["persistent_allocs_per_step"],
          f"{r['oneshot_ms']:.2f}", f"{r['persistent_ms']:.2f}"]
         for r in rows]))

    kind, m, n = ACCEPTANCE
    acc = next(r for r in rows if (r["kind"], r["m"], r["n"]) == (kind, m, n))
    print(f"\nAcceptance pair ({kind} {m}x{n}, extent {EXTENT}): "
          f"{acc['copy_ratio']:.1f}x fewer bytes copied per steady-state "
          f"step than one-shot (floor: {COPY_RATIO_FLOOR}x), "
          f"{acc['persistent_allocs_per_step']} buffer allocations per "
          f"step (floor: 0).\nStrided pairs land via one direct "
          f"strided-to-strided write; index pairs gather into pooled "
          f"buffers and move them.")

    guard = verify_hook_guard()
    print(f"\nVerifier hook guard ({guard['kind']} {guard['m']}x"
          f"{guard['n']}): disabled hook work "
          f"{guard['disabled_hook_work_total']} (floor: 0); enabled, "
          f"{guard['construction_rank_checks']} rank proofs at engine "
          f"construction and {guard['steady_hook_calls_per_step']:.0f} "
          f"hook calls per steady-state step (floor: 0).")

    payload = {
        "extent": EXTENT, "reps": REPS, "steps": STEPS, "rows": rows,
        "verify_hook": guard,
        "acceptance": {
            "kind": kind, "m": m, "n": n,
            "copy_ratio": acc["copy_ratio"],
            "copy_ratio_floor": COPY_RATIO_FLOOR,
            "oneshot_copies_per_byte": acc["oneshot_copies_per_byte"],
            "persistent_copies_per_byte": acc["persistent_copies_per_byte"],
            "persistent_allocs_per_step": acc["persistent_allocs_per_step"],
            "passed": (acc["copy_ratio"] >= COPY_RATIO_FLOOR
                       and acc["persistent_allocs_per_step"] == 0),
        },
    }
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {json_path}")
    return payload


def smoke():
    """CI gate: re-measure the counters on a small extent and fail if
    copies-per-byte or allocations-per-step regress past the committed
    baseline.  Counter deltas are exact integers — this cannot flake."""
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)["persistent_steady_state"]
    kind, m, n = ACCEPTANCE
    r = _measure(kind, m, n, extent=480, steps=4)
    base_copies = baseline["persistent_copies_per_byte"]
    if r["persistent_copies_per_byte"] > base_copies + 1e-9:
        raise SystemExit(
            f"copies-per-byte regression: persistent steady state copies "
            f"{r['persistent_copies_per_byte']:.3f} B/B, committed "
            f"baseline {base_copies:.3f} B/B")
    if r["persistent_allocs_per_step"] > baseline["allocs_per_step"]:
        raise SystemExit(
            f"allocation regression: {r['persistent_allocs_per_step']} "
            f"buffer allocations per steady-state step, committed "
            f"baseline {baseline['allocs_per_step']}")
    if r["copy_ratio"] < baseline["copy_ratio_floor"]:
        raise SystemExit(
            f"copy-ratio regression: {r['copy_ratio']:.2f}x < floor "
            f"{baseline['copy_ratio_floor']}x")
    # index-array kinds must hold the zero-allocation property too
    r2 = _measure("blockcyclic4", 4, 6, extent=480, steps=4)
    if r2["persistent_allocs_per_step"] != 0:
        raise SystemExit(
            f"pooled path allocates: {r2['persistent_allocs_per_step']} "
            f"allocations per steady-state step on blockcyclic4")
    guard = verify_hook_guard()
    if not guard["passed"]:
        raise SystemExit(
            f"verify-hook overhead regression: disabled work "
            f"{guard['disabled_hook_work_total']}, "
            f"{guard['steady_hook_calls_per_step']} hook calls per "
            f"steady-state step (both must be 0, with "
            f"{guard['m'] + guard['n']} construction-time rank proofs)")
    print("bench_persistent_steady_state smoke: OK "
          f"(ratio {r['copy_ratio']:.1f}x, 0 allocs/step, "
          f"verify hook zero-cost)")


# --- pytest-benchmark hooks -------------------------------------------------

def test_acceptance_copy_ratio():
    kind, m, n = ACCEPTANCE
    r = _measure(kind, m, n, extent=480, steps=4)
    assert r["copy_ratio"] >= COPY_RATIO_FLOOR
    assert r["persistent_allocs_per_step"] == 0


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        path = None
        if "--json" in sys.argv:
            path = sys.argv[sys.argv.index("--json") + 1]
        report(json_path=path)
