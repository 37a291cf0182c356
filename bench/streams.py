"""The four ``stream_*`` workloads: a persistent ``Coupler`` channel from
2 producer ranks to 3 consumer ranks on the procs backend.

2 -> 3 is the smallest M != N geometry in which every producer talks to
every consumer (6 pairs); its 5 rank processes block rather than spin, so
on a 2-core host the number is the channel's and not the scheduler's.
The loop is closed: one snapshot in flight, each consumer acknowledging
each of its producers after ``pull`` (the one-sided tier is lockstep by
construction and sends no acknowledgement).  An operation is one step of
producer rank 0: ``push`` plus waiting for its acknowledgements.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from bench import counters, probes
from bench.common import (Expectation, Outcome, bump_selection, make_truth,
                          median, now, timed_ops)
from bench.trace import Tracer, median_ms
from repro.dad import (BlockCyclic, CartesianTemplate, DistArrayDescriptor,
                       DistributedArray)
from repro.highlevel import Coupler
from repro.simmpi import run_coupled
from repro.simmpi.intercomm import default_nameservice

M, N = 2, 3
_FIELD, _CTL = "bench-field", "bench-ctl"
_ACK_TAG, _COUNT_TAG = 7, 8
_DEFAULT_SLOT_BYTES = 1 << 18        # run_coupled's default slot size


@dataclass(frozen=True)
class Spec:
    extent: int                     # float64 elements per snapshot
    block: int                      # block-cyclic block, in elements
    warm: int                       # warm-up steps after the first
    transport_opts: dict | None = None
    one_sided: bool = False
    #: exact per-step counter values this workload's path must show
    require: tuple = ()


_FITTED = (("simmpi.shm.oversize_per_step", 0),
           ("simmpi.shm.ring_full_per_step", 0),
           ("simmpi.shm.slot_allocs_per_step", 0),
           ("schedule.bufpool.allocs_per_step", 0))
#: 42.7 MiB pair messages: a slot that holds one, three per producer
_LARGE_OPTS = {"slot_bytes": 44 << 20, "slots_per_endpoint": 3}

SPECS = {
    "stream_large": Spec(1 << 25, 4096, 4, _LARGE_OPTS, require=_FITTED),
    "stream_rma": Spec(1 << 25, 4096, 4, _LARGE_OPTS, one_sided=True,
                       require=(("simmpi.rma.fallbacks", 0),
                                ("simmpi.matched_per_step", 0))),
    "stream_small": Spec(6144, 64, 300, require=_FITTED),
    "stream_default": Spec(786432, 4096, 40,
                           require=(("simmpi.shm.oversize_per_step", 6),)),
}


def _descs(spec: Spec):
    return tuple(
        DistArrayDescriptor(CartesianTemplate(
            [BlockCyclic(spec.extent, p, spec.block)])) for p in (M, N))


# -- rank programs (module level: inherited over fork) -------------------------

def _producer(comm, cfg):
    spec, me = cfg["spec"], comm.rank
    tr = Tracer(f"prod{me}") if cfg["trace"] else None
    src_desc, _ = _descs(spec)
    t0 = now()
    da = DistributedArray.from_global(src_desc, me, cfg["truth"])
    t1 = now()
    chan = Coupler(_FIELD, default_nameservice).open(
        comm, "source", da, one_sided=spec.one_sided)
    t2 = now()
    ctl = default_nameservice.accept(_CTL, comm)
    t3 = now()
    acked = not spec.one_sided

    def step():
        a = now()
        chan.push()
        b = now()
        if acked:
            for d in range(N):
                ctl.recv(d, tag=_ACK_TAG)
        return a, b, now()

    _a, bound, first_done = step()      # engine bind, pool / window first touch
    setup = {"dad.from_global_ms": t1 - t0, "highlevel.open_ms": t2 - t1,
             "simmpi.intercomm.connect_ms": t3 - t2,
             "schedule.executor.bind_ms": bound - _a}
    flat = da.flat_local()
    sel = bump_selection(src_desc, me, cfg["bump"])
    flat[sel] += 1.0
    warm = []
    for _ in range(spec.warm):
        a, _b, c = step()
        flat[sel] += 1.0
        warm.append(c - a)
    n = timed_ops(cfg["seconds"], warm, floor=8) if me == 0 else None
    n = comm.bcast(n, root=0)
    if me == 0:
        for d in range(N):
            ctl.send(n, d, tag=_COUNT_TAG)

    block = max(1, n // 8)
    plain, traced, ends = [], [], []
    comm.barrier()                      # keep its messages out of the deltas
    before = counters.snapshot(chan)
    start = now()
    for k in range(n):
        a, b, c = step()
        flat[sel] += 1.0
        ends.append(now())
        if tr is not None and (k // block) % 2:
            traced.append(c - a)
            tr.add("step", a, c, None, k)
            tr.add("push", a, b, "step", k)
            if acked:
                tr.add("ack_wait", b, c, "step", k)
        else:
            plain.append(c - a)
    after = counters.snapshot(chan)
    mode = chan.mode
    chan.close()
    return {"first_done": first_done, "setup": setup, "start": start,
            "ends": ends, "plain": plain, "traced": traced, "mode": mode,
            "delta": counters.delta(before, after), "after": after,
            "spans": tr.spans if tr else [], "bad": [],
            "steps": 1 + spec.warm + n}


def _consumer(comm, cfg):
    spec, me = cfg["spec"], comm.rank
    tr = Tracer(f"cons{me}") if cfg["trace"] else None
    _, dst_desc = _descs(spec)
    t0 = now()
    chan = Coupler(_FIELD, default_nameservice).open(
        comm, "destination", dst_desc, one_sided=spec.one_sided)
    t1 = now()
    ctl = default_nameservice.connect(_CTL, comm)
    t2 = now()
    acked = not spec.one_sided

    def step():
        a = now()
        out = chan.pull()
        b = now()
        if acked:
            for s in range(M):
                ctl.send(None, s, tag=_ACK_TAG)
        # the array only changes inside pull(), so checking after the
        # acknowledgement keeps the check off the producers' timed path
        return a, b, now(), out.flat_local()

    _a, bound, first_done, flat = step()
    setup = {"highlevel.open_ms": t1 - t0,
             "simmpi.intercomm.connect_ms": t2 - t1,
             "schedule.executor.bind_ms": bound - _a}
    expect = Expectation(dst_desc, me, cfg["truth"], cfg["bump"])
    bad = [] if expect.check(flat) else [0]
    for w in range(spec.warm):
        *_, flat = step()
        if not expect.check(flat):
            bad.append(1 + w)
    n = ctl.recv(0, tag=_COUNT_TAG)

    block = max(1, n // 8)
    comm.barrier()
    before = counters.snapshot(chan)
    for k in range(n):
        a, b, c, flat = step()
        if tr is not None and (k // block) % 2:
            tr.add("step", a, c, None, k)
            tr.add("pull", a, b, "step", k)
            if acked:
                tr.add("ack_send", b, c, "step", k)
        # strided sample every step, every byte of the last snapshot
        if not expect.check(flat, full=k == n - 1):
            bad.append(1 + spec.warm + k)
    after = counters.snapshot(chan)
    mode = chan.mode
    chan.close()
    return {"first_done": first_done, "setup": setup, "mode": mode,
            "delta": counters.delta(before, after), "after": after,
            "spans": tr.spans if tr else [], "bad": bad}


# -- the workload ----------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool,
        _process_launched: float) -> Outcome:
    spec = SPECS[name]
    truth, bump = make_truth(seed, (spec.extent,))
    wire_bytes = spec.extent * 8    # every element changes owner process
    cfg = {"spec": spec, "truth": truth, "bump": bump, "trace": trace,
           "seconds": seconds}
    launched = now()
    res = run_coupled(
        [("prod", M, _producer, (cfg,)), ("cons", N, _consumer, (cfg,))],
        deadlock_timeout=60.0, backend="procs",
        transport_opts=spec.transport_opts)
    ranks = res["prod"] + res["cons"]
    lead = res["prod"][0]
    per_step = _per_step_counters(
        [r["delta"] for r in ranks], [r["after"] for r in ranks],
        len(lead["ends"]), wire_bytes)
    out = Outcome(
        op="step", setup_s=max(r["first_done"] for r in ranks) - launched,
        samples_ms=[s * 1e3 for s in lead["plain"]], start=lead["start"],
        ends=lead["ends"], attempted=lead["steps"] + len(spec.require) + 1,
        failures=_failures(spec, ranks, per_step),
        notes={"wire_bytes": wire_bytes, "mode": lead["mode"]})
    if trace:
        _layers(out, spec, res, per_step, truth, wire_bytes)
    return out


def _per_step_counters(deltas, afters, ops, wire_bytes) -> dict:
    def per(source, key):
        return counters.per_op(deltas, source, key, ops)

    moved = [counters.total(deltas, "transport", k)
             for k in ("bytes_copied", "shm_slot_bytes", "shm_inline_bytes")]
    return {
        "simmpi.matched_per_step": per("transport", "messages_matched"),
        "simmpi.direct_deliveries_per_step":
            per("transport", "direct_deliveries"),
        "simmpi.shm.copies_per_wire_byte":
            None if None in moved else sum(moved) / (wire_bytes * ops),
        "simmpi.shm.inline_msgs_per_step": per("transport", "shm_inline_msgs"),
        "simmpi.shm.oversize_per_step": per("slots", "oversize"),
        "simmpi.shm.ring_full_per_step": per("slots", "ring_full"),
        "simmpi.shm.slot_allocs_per_step": per("slots", "allocations"),
        "schedule.bufpool.allocs_per_step": per("bufpool", "allocations"),
        "simmpi.rma.puts_per_step": per("transport", "rma_puts"),
        "simmpi.rma.put_bytes_per_step": per("transport", "rma_put_bytes"),
        "simmpi.rma.fences_per_step": per("transport", "rma_fences"),
        "simmpi.rma.epoch_waits_per_step": per("transport", "rma_epoch_waits"),
        "simmpi.rma.fallbacks": counters.total(
            afters, "transport", "rma_fallbacks"),
    }


def _failures(spec: Spec, ranks, per_step) -> list[str]:
    """Wrong bytes, and path assertions: a workload that drifted onto
    another tier fails instead of reporting that tier's number."""
    failures = [f"step {k}: a consumer received wrong bytes"
                for k in sorted({k for r in ranks for k in r["bad"]})]
    for metric, want in spec.require:
        if per_step[metric] != want:
            failures.append(f"path assertion: {metric} is "
                            f"{per_step[metric]}, must be {want}")
    want_mode = "rma" if spec.one_sided else "two_sided"
    modes = {r["mode"] for r in ranks}
    if modes != {want_mode}:
        failures.append(f"path assertion: Channel.mode is {sorted(modes)}, "
                        f"must be {want_mode}")
    return failures


def _layers(out: Outcome, spec: Spec, res, per_step, truth,
            wire_bytes) -> None:
    src_desc, dst_desc = _descs(spec)
    ranks = res["prod"] + res["cons"]
    lead = res["prod"][0]
    out.spans = [s for r in ranks for s in r["spans"]]
    layers = out.layers
    layers.update(per_step)
    for key in ("highlevel.open_ms", "simmpi.intercomm.connect_ms",
                "schedule.executor.bind_ms"):
        layers[key] = max(r["setup"][key] for r in ranks) * 1e3
    layers["schedule.executor.push_ms"] = median_ms(out.spans, "push", "prod0")
    layers["schedule.executor.ack_wait_ms"] = \
        median_ms(out.spans, "ack_wait", "prod0")
    layers["schedule.executor.pull_ms"] = median_ms(out.spans, "pull")

    slot_bytes = (spec.transport_opts or {}).get("slot_bytes",
                                                 _DEFAULT_SLOT_BYTES)
    fits = wire_bytes / (M * N) * 1.01 <= slot_bytes and not spec.one_sided
    probes.add_pipeline(out, src_desc, dst_desc, truth,
                        slot_bytes=slot_bytes if fits else None)
    layers["dad.from_global_ms"] = lead["setup"]["dad.from_global_ms"] * 1e3
    layers["schedule.bufpool.loan_us"] = probes.bufpool_loan_us()
    layers["simmpi.runner.launch_ms"] = probes.launch_ms(
        [("prod", M), ("cons", N)], "procs")
    inline, slot = probes.msg_rtt_us("procs")
    layers["simmpi.procs.msg_rtt_us"] = inline
    layers["simmpi.shm.slot_msg_rtt_us"] = slot

    plain, traced = median(lead["plain"]), median(lead["traced"])
    layers["trace.overhead_frac"] = traced / plain - 1.0
    layers["wire_gbps"] = wire_bytes / plain / 1e9
    # Producer rank 0's critical path through one step, from the
    # single-process probes: the M producers gather and copy their shares
    # side by side and the N consumers scatter theirs, as far as the host
    # has cores for them; rank 0 itself sends or receives 1/M of the
    # step's messages, each half a round trip.
    step_ms = plain * 1e3
    cores = os.cpu_count() or 1
    messages = (per_step["simmpi.matched_per_step"] or 0) / M
    spent = ((layers["schedule.indexplan.gather_ms"]
              + layers["simmpi.shm.slot_copy_ms"]) / min(cores, M)
             + layers["schedule.indexplan.scatter_ms"] / min(cores, N)
             + messages * inline / 2e3)
    layers["budget.layers_ms"] = spent
    layers["budget.residual_ms"] = step_ms - spent
    out.notes["budget"] = (
        f"(gather {layers['schedule.indexplan.gather_ms']:.3f} + slot copy "
        f"{layers['simmpi.shm.slot_copy_ms']:.3f}) / {min(cores, M)} + "
        f"scatter {layers['schedule.indexplan.scatter_ms']:.3f} / "
        f"{min(cores, N)} + {messages:g} messages x {inline:.0f}/2 us = "
        f"{spent:.3f} ms of a {step_ms:.3f} ms step, "
        f"residual {step_ms - spent:.3f} ms")
