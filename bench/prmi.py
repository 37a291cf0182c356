"""The two PRMI workloads.

``prmi_batched`` — procs backend, one caller rank and one callee rank,
independent ``work(i, v)`` invocations through the batching pipeline and
one ``ServerLoop``.  Closed loop with 256 requests outstanding; an
operation is one invocation, timed from ``submit()`` to ``result()``
returning.  No schedule and no array data plane: it reads the procs
control plane through framed batches.  (2 x 2 ranks swung 52-65 k inv/s
from run to run on 2 cores; 1 x 1 repeats.)

``prmi_parallel_arg`` — threads backend, 2 callers -> 3 callees, a
collective ``norm(field)`` whose argument is a distributed 16 MiB array
redistributed on every call.  The paper's headline combination and the
only workload on the one-shot path (schedule built and executed per
call, nothing cached, bound or pooled); also the guard that a
procs-motivated transport change does not slow the threads backend.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from bench import counters, probes
from bench.common import (Expectation, Outcome, bump_selection, make_truth,
                          median, now, timed_ops)
from bench.trace import Tracer, median_ms
from repro.cca.sidl import arg, method, port
from repro.dad import DistArrayDescriptor, DistributedArray
from repro.dad.template import block_template
from repro.prmi import (Batched, CalleeEndpoint, CallerEndpoint,
                        InvocationPipeline, ParallelArg, PolicyTable,
                        ServerLoop, decode_frame, encode_frame)
from repro.simmpi import run_coupled
from repro.simmpi.intercomm import default_nameservice

_SERVICE = "bench-prmi"

# -- prmi_batched -----------------------------------------------------------------

VEC, VECS = 64, 8               # float64 per request; distinct seeded vectors
BATCH_MAX, DELAY_US, WINDOW = 32, 1000, 256
WARM_INVOCATIONS = 64
SYNC_CALLS = 2000
_TRACE_BLOCK = 4096             # invocations per traced / untraced block

_BATCH_PORT = port(
    "BatchPort", method("work", arg("i"), arg("v"), invocation="independent"))


class _Work:
    def work(self, i, v):
        return float(v.sum()) + i


def _batch_callee(comm, _cfg):
    inter = default_nameservice.accept(_SERVICE, comm)
    ep = CalleeEndpoint(comm, inter, _BATCH_PORT, _Work())
    return {"served": ServerLoop(ep).serve_forever()}


def _batch_caller(comm, cfg):
    tr = Tracer("caller0") if cfg["trace"] else None
    vecs = cfg["vecs"]
    sums = [float(v.sum()) for v in vecs]
    t0 = now()
    inter = default_nameservice.connect(_SERVICE, comm)
    t1 = now()
    pipe = InvocationPipeline(
        CallerEndpoint(comm, inter, _BATCH_PORT),
        policies=PolicyTable(default=Batched(batch_max=BATCH_MAX,
                                             delay_us=DELAY_US)),
        inflight_max=WINDOW, overflow="block")
    wrong, ends = [], []

    def settle(pending, sink):
        fut, i, submitted, is_traced = pending.popleft()
        a = now()
        value = fut.result()
        b = now()
        if value != sums[i % VECS] + i:      # closed form, per request
            wrong.append(i)
        if sink is not None:
            sink[is_traced].append(b - submitted)
            ends.append(b)
        if is_traced:
            tr.add("invocation", submitted, b, None, i)
            tr.add("result_wait", a, b, "invocation", i)

    pending = deque([(pipe.submit("work", 0, i=0, v=vecs[0]), 0, t1, False)])
    settle(pending, None)
    first_done = now()
    for i in range(1, 1 + WARM_INVOCATIONS):
        pending.append((pipe.submit("work", 0, i=i, v=vecs[i % VECS]),
                        i, now(), False))
    while pending:
        settle(pending, None)

    lat = {False: [], True: []}
    before = counters.snapshot()
    i = i0 = 1 + WARM_INVOCATIONS
    start = b = now()
    deadline = start + cfg["seconds"]
    while b < deadline:
        if len(pending) == WINDOW:
            settle(pending, lat)
        is_traced = tr is not None and ((i - i0) // _TRACE_BLOCK) % 2 == 1
        a = now()
        fut = pipe.submit("work", 0, i=i, v=vecs[i % VECS])
        b = now()
        pending.append((fut, i, a, is_traced))
        if is_traced:
            tr.add("submit", a, b, "invocation", i)
        i += 1
    while pending:
        settle(pending, lat)
    delta = counters.delta(before, counters.snapshot())

    sync_us = 0.0
    if tr is not None:
        # request-at-a-time through the same ServerLoop: the empty round
        # trip the batched rate is a multiple of
        times = []
        v = vecs[0]
        for k in range(SYNC_CALLS):
            a = now()
            value = pipe.caller.invoke_independent("work", 0, i=k, v=v)
            times.append(now() - a)
            if value != sums[0] + k:
                wrong.append(-k)
        sync_us = median(times) * 1e6
    pipe.close()
    return {"first_done": first_done, "connect": t1 - t0, "wrong": wrong,
            "start": start, "ends": ends, "plain": lat[False],
            "traced": lat[True], "delta": delta, "sync_us": sync_us,
            "after": counters.snapshot(),
            "spans": tr.spans if tr else [], "invocations": i}


def run_batched(name: str, seed: int, seconds: float, trace: bool,
                _process_launched: float) -> Outcome:
    vecs = list(np.random.default_rng(seed).random((VECS, VEC)))
    cfg = {"vecs": vecs, "seconds": seconds, "trace": trace}
    launched = now()
    res = run_coupled(
        [("callee", 1, _batch_callee, (cfg,)),
         ("caller", 1, _batch_caller, (cfg,))],
        deadlock_timeout=60.0, backend="procs")
    caller, callee = res["caller"][0], res["callee"][0]

    frames = counters.total([caller["delta"]], "prmi", "frames_sent")
    framed = counters.total([caller["delta"]], "prmi", "frame_requests")
    occupancy = framed / frames if frames else None
    refused = counters.total([caller["delta"]], "prmi", "overloads")
    overloads = (None if refused is None
                 else refused + callee["served"]["overloads"])
    failures = [f"invocation {i}: result differs from the closed form"
                for i in caller["wrong"][:20]]
    if callee["served"]["errors"]:
        failures.append(f"{callee['served']['errors']} typed errors served")
    # path assertions: the batching tier must be what ran
    if occupancy is None or not occupancy > 1:
        failures.append(f"path assertion: occupancy is {occupancy} requests "
                        f"per frame, must be > 1")
    if overloads != 0:
        failures.append(f"path assertion: {overloads} overload replies, "
                        f"must be 0")
    out = Outcome(
        op="invocation", setup_s=caller["first_done"] - launched,
        samples_ms=[s * 1e3 for s in caller["plain"]], start=caller["start"],
        ends=caller["ends"], attempted=caller["invocations"] + 2,
        failures=failures, notes={"occupancy": occupancy, "frames": frames})
    if trace:
        out.spans = caller["spans"]
        _batched_layers(out.layers, caller, occupancy, frames, overloads)
        out.layers.update(_frame_codec_us(vecs))
    return out


def _batched_layers(layers, caller, occupancy, frames, overloads) -> None:
    ops = len(caller["ends"])
    wall = caller["ends"][-1] - caller["start"]
    wire = counters.total([caller["delta"]], "prmi", "frame_bytes")
    inline, slot = probes.msg_rtt_us("procs")
    layers.update({
        "prmi.serving.submit_us": median_ms(caller["spans"], "submit") * 1e3,
        "prmi.serving.result_wait_us":
            median_ms(caller["spans"], "result_wait") * 1e3,
        "prmi.serving.occupancy": occupancy,
        "prmi.serving.frames_per_s": None if frames is None else frames / wall,
        "prmi.serving.peak_inflight": counters.peak(
            [caller["after"]], "prmi", "peak_inflight"),
        "prmi.serving.overloads": overloads,
        "prmi.endpoint.sync_rtt_us": caller["sync_us"],
        "prmi.batched_over_sync": ops / wall * caller["sync_us"] / 1e6,
        "simmpi.intercomm.connect_ms": caller["connect"] * 1e3,
        "simmpi.matched_per_step": counters.per_op(
            [caller["delta"]], "transport", "messages_matched", ops),
        "simmpi.runner.launch_ms": probes.launch_ms(
            [("callee", 1), ("caller", 1)], "procs"),
        "simmpi.procs.msg_rtt_us": inline,
        "simmpi.shm.slot_msg_rtt_us": slot,
        "wire_gbps": None if wire is None else wire / wall / 1e9,
        "trace.overhead_frac":
            median(caller["traced"]) / median(caller["plain"]) - 1.0,
    })


def _frame_codec_us(vecs, reps: int = 300) -> dict:
    """Encode and decode one full request frame of the workload's own
    arguments."""
    entries = [(i, "work", {"i": i, "v": vecs[i % VECS]})
               for i in range(BATCH_MAX)]
    frame = encode_frame(entries)
    t0 = now()
    for _ in range(reps):
        encode_frame(entries)
    t1 = now()
    for _ in range(reps):
        decode_frame(frame)
    t2 = now()
    return {"prmi.frames.encode_us": (t1 - t0) / reps * 1e6,
            "prmi.frames.decode_us": (t2 - t1) / reps * 1e6}


# -- prmi_parallel_arg ------------------------------------------------------------

CALLERS, CALLEES = 2, 3
SHAPE = (2048, 1024)            # float64: 16 MiB per call
WARM_CALLS = 3
_NORM_RTOL = 1e-9               # float64 sum of 2M squares, any order

_FIELD_PORT = port(
    "FieldPort",
    method("norm", arg("field", kind="parallel")),
    method("finish", arg("field", kind="parallel")))


def _layouts():
    return (DistArrayDescriptor(block_template(SHAPE, (CALLERS, 1))),
            DistArrayDescriptor(block_template(SHAPE, (1, CALLEES))))


class _Norm:
    """Callee implementation: checks the redistributed bytes it was handed
    (bump positions every call, every byte on ``finish``), then reduces."""

    def __init__(self, comm, expect: Expectation, tr: Tracer | None):
        self.comm, self.expect, self.tr = comm, expect, tr
        self.calls, self.bad = 0, []

    def _norm(self, field, full):
        flat = field.flat_local()
        if not self.expect.check(flat, full=full):
            self.bad.append(self.calls)
        self.calls += 1
        return float(np.sqrt(self.comm.allreduce(float(np.dot(flat, flat)))))

    def norm(self, field):
        return self._norm(field, False)

    def finish(self, field):
        return self._norm(field, True)


def _field_callee(comm, cfg):
    tr = Tracer(f"callee{comm.rank}") if cfg["trace"] else None
    _, layout = _layouts()
    inter = default_nameservice.accept(_SERVICE, comm)
    impl = _Norm(comm, Expectation(layout, comm.rank, cfg["truth"],
                                   cfg["bump"]), tr)
    ep = CalleeEndpoint(comm, inter, _FIELD_PORT, impl)
    for name in ("norm", "finish"):
        ep.set_param_layout(name, "field", layout)
    served = None
    while served != "finish":
        a = now()
        served = ep.serve_one()
        if tr is not None:
            tr.add("serve", a, now(), None, impl.calls - 1)
    return {"bad": impl.bad, "spans": tr.spans if tr else []}


def _field_caller(comm, cfg):
    me = comm.rank
    tr = Tracer(f"caller{me}") if cfg["trace"] else None
    layout, _ = _layouts()
    t0 = now()
    da = DistributedArray.from_global(layout, me, cfg["truth"])
    t1 = now()
    inter = default_nameservice.connect(_SERVICE, comm)
    t2 = now()
    ep = CallerEndpoint(comm, inter, _FIELD_PORT)
    field = ParallelArg(da)
    flat = da.flat_local()
    sel = None
    s2, sb, nb = cfg["norm_terms"]
    wrong = []
    calls = 0

    def call(name="norm"):
        nonlocal calls, sel
        a = now()
        value = ep.invoke(name, field=field)
        b = now()
        want = np.sqrt(s2 + 2.0 * calls * sb + calls * calls * nb)
        if abs(value - want) > _NORM_RTOL * want:   # closed form, per call
            wrong.append(calls)
        if sel is None:
            sel = bump_selection(layout, me, cfg["bump"])
        flat[sel] += 1.0
        calls += 1
        return a, b

    call()
    first_done = now()
    warm = []
    for _ in range(WARM_CALLS):
        a, b = call()
        warm.append(b - a)
    n = comm.bcast(timed_ops(cfg["seconds"], warm, floor=8)
                   if me == 0 else None, root=0)

    block = max(1, n // 8)
    plain, traced, ends = [], [], []
    comm.barrier()
    before = counters.snapshot()
    start = now()
    for k in range(n):
        a, b = call()
        ends.append(now())
        if tr is not None and (k // block) % 2:
            traced.append(b - a)
            tr.add("call", a, b, None, calls - 1)
        else:
            plain.append(b - a)
    delta = counters.delta(before, counters.snapshot())
    call("finish")
    return {"first_done": first_done, "wrong": wrong, "start": start,
            "ends": ends,
            "plain": plain, "traced": traced, "delta": delta, "calls": calls,
            "from_global": t1 - t0, "connect": t2 - t1,
            "spans": tr.spans if tr else []}


def run_parallel_arg(name: str, seed: int, seconds: float, trace: bool,
                     _process_launched: float) -> Outcome:
    truth, bump = make_truth(seed, SHAPE)
    bumped = truth[bump.astype(bool)]
    cfg = {"truth": truth, "bump": bump, "seconds": seconds, "trace": trace,
           "norm_terms": (float(np.dot(truth.ravel(), truth.ravel())),
                          float(bumped.sum()), float(bumped.size))}
    wire_bytes = truth.nbytes       # every element changes owner thread
    launched = now()
    res = run_coupled(
        [("callee", CALLEES, _field_callee, (cfg,)),
         ("caller", CALLERS, _field_caller, (cfg,))],
        deadlock_timeout=60.0, backend="threads")
    lead = res["caller"][0]
    failures = [f"call {k}: norm differs from the closed form" for k in
                sorted({k for r in res["caller"] for k in r["wrong"]})]
    failures += [f"call {k}: a callee received wrong bytes" for k in
                 sorted({k for r in res["callee"] for k in r["bad"]})]
    out = Outcome(
        op="call",
        setup_s=max(r["first_done"] for r in res["caller"]) - launched,
        samples_ms=[s * 1e3 for s in lead["plain"]], start=lead["start"],
        ends=lead["ends"], attempted=lead["calls"], failures=failures,
        notes={"wire_bytes": wire_bytes})
    if trace:
        out.spans = [s for r in res["caller"] + res["callee"]
                     for s in r["spans"]]
        probes.add_pipeline(out, *_layouts(), truth, slot_bytes=None)
        plain = median(lead["plain"])
        out.layers.update({
            "dad.from_global_ms": lead["from_global"] * 1e3,
            "simmpi.intercomm.connect_ms": lead["connect"] * 1e3,
            "simmpi.threads.msg_rtt_us": probes.msg_rtt_us("threads")[0],
            "simmpi.runner.launch_ms": probes.launch_ms(
                [("callee", CALLEES), ("caller", CALLERS)], "threads"),
            "simmpi.matched_per_step": counters.per_op(
                [lead["delta"]], "transport", "messages_matched",
                len(lead["ends"])),
            "simmpi.direct_deliveries_per_step": counters.per_op(
                [lead["delta"]], "transport", "direct_deliveries",
                len(lead["ends"])),
            "trace.overhead_frac": median(lead["traced"]) / plain - 1.0,
            "wire_gbps": wire_bytes / plain / 1e9,
        })
    return out
