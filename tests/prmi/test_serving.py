"""The high-throughput serving tier, end to end on both backends.

Rank functions are module-level (the procs backend pickles them), and
each scenario runs a real caller cohort with an
:class:`~repro.prmi.serving.InvocationPipeline` against a callee cohort
blocked in :class:`~repro.prmi.serving.ServerLoop`.
"""

import numpy as np
import pytest

from repro.cca.sidl import arg, method, port
from repro.errors import ServerOverloaded, SimpleArgumentMismatch
from repro.prmi import (
    Batched,
    CalleeEndpoint,
    CallerEndpoint,
    InvocationPipeline,
    PolicyTable,
    ServerLoop,
)
from repro.prmi.endpoint import _args_equal
from repro.prmi.serving import INFLIGHT_MAX
from repro.simmpi import run_coupled
from repro.simmpi.intercomm import default_nameservice
from repro.util.counters import PRMI_STATS

BACKENDS = ["threads", "procs"]

PORT = port(
    "ServePort",
    method("echo_m", arg("x")),
    method("add", arg("a"), arg("b"), invocation="independent"),
    method("scale", arg("v"), invocation="independent"),
    method("note", arg("msg"), oneway=True, returns=False,
           invocation="independent"),
)


class ServeImpl:
    def __init__(self, comm):
        self.comm = comm
        self.notes = []

    def echo_m(self, x):
        return x

    def add(self, a, b):
        return a + b

    def scale(self, v):
        return v * 2.0

    def note(self, msg):
        self.notes.append(msg)


def _callee(comm, service, queue_max=INFLIGHT_MAX):
    inter = default_nameservice.accept(service, comm)
    ep = CalleeEndpoint(comm, inter, PORT, ServeImpl(comm))
    loop = ServerLoop(ep, queue_max=queue_max)
    tallies = loop.serve_forever()
    tallies["subset_engagements"] = ep.stats.subset_engagements
    return tallies


def _pipeline(comm, service, **kw):
    inter = default_nameservice.connect(service, comm)
    ep = CallerEndpoint(comm, inter, PORT)
    return InvocationPipeline(ep, **kw)


# -- batched + one-way interleave, identity vs unbatched ---------------------

def _interleave_caller(comm, service, n):
    table = PolicyTable(default=Batched(batch_max=4, delay_us=10**7))
    pipe = _pipeline(comm, service, policies=table, inflight_max=256)
    callee = comm.rank % n
    futs = []
    for i in range(10):
        futs.append(pipe.submit("add", callee, a=i, b=comm.rank))
        if i % 3 == 0:
            pipe.submit("note", callee, msg=f"r{comm.rank}i{i}")
    vec = np.arange(6, dtype=np.float32)
    arr_fut = pipe.submit("scale", callee, v=vec)
    coll = pipe.caller.invoke("echo_m", x=7)
    batched = [f.result() for f in futs]
    batched_arr = arr_fut.result()
    # The same requests again through a separate unbatched pipeline
    # on the same endpoint (one frame per submit), and as lockstep
    # independent calls the loop also serves: all three executions
    # must agree exactly.
    pipe.drain()
    unbatched_pipe = InvocationPipeline(pipe.caller)
    sync_pipe_results = [
        unbatched_pipe.submit("add", callee, a=i, b=comm.rank).result()
        for i in range(10)]
    unbatched = [pipe.caller.invoke_independent("add", callee,
                                                a=i, b=comm.rank)
                 for i in range(10)]
    unbatched_arr = pipe.caller.invoke_independent("scale", callee, v=vec)
    pipe.close()
    return (batched, sync_pipe_results, unbatched, coll,
            _args_equal(batched_arr, unbatched_arr),
            batched_arr.dtype.str)


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_batched_oneway_interleave_matches_unbatched(backend):
    m = n = 2
    out = run_coupled([
        ("callee", n, _callee, ("serve-interleave",)),
        ("caller", m, _interleave_caller, ("serve-interleave", n)),
    ], backend=backend)
    for rank, (batched, sync_r, unbatched, coll, arr_eq, dt) in \
            enumerate(out["caller"]):
        expected = [i + rank for i in range(10)]
        assert batched == expected
        assert sync_r == expected
        assert unbatched == expected
        assert coll == 7
        assert arr_eq          # byte identity incl. dtype (float32 in)
        assert dt == np.dtype(np.float32).str
    for tallies in out["callee"]:
        assert tallies["overloads"] == 0
        assert tallies["errors"] == 0
        # one-way notes rode the frames: requests > replied invocations
        assert tallies["requests"] >= 11


# -- an unbatched pipeline ----------------------------------------------------

_SHIP = ("frames_sent", "flush_forced", "frame_requests")


def _unbatched_caller(comm, service):
    table = PolicyTable(default=Batched(batch_max=64, delay_us=10**7))
    pipe = _pipeline(comm, service, policies=table)
    batched = [pipe.submit("add", 0, a=i, b=0) for i in range(3)]
    batched = [f.result() for f in batched]
    # a second pipeline on the same endpoint, with no table: the table
    # is read once, at construction
    unbatched = InvocationPipeline(pipe.caller)
    shipped, synced = [], []
    for i in range(3):
        before = PRMI_STATS.snapshot()
        fut = unbatched.submit("add", 0, a=i, b=1)
        after = PRMI_STATS.snapshot()
        shipped.append(tuple(after.get(k, 0) - before.get(k, 0)
                             for k in _SHIP))
        synced.append((fut.done(), fut.result()))
    pipe.close()
    return batched, shipped, synced


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_unbatched_pipeline_ships_each_submit_as_its_own_frame(backend):
    """A pipeline whose table has no ``Batched`` default ships every
    submit as its own frame and hands back a settled future."""
    out = run_coupled([
        ("callee", 1, _callee, ("serve-unbatched",)),
        ("caller", 1, _unbatched_caller, ("serve-unbatched",)),
    ], backend=backend)
    batched, shipped, synced = out["caller"][0]
    assert batched == [0, 1, 2]
    assert shipped == [(1, 1, 1)] * 3
    assert synced == [(True, 1), (True, 2), (True, 3)]


# -- the flush deadline --------------------------------------------------------

def _deadline_caller(comm, service, delay_us):
    table = PolicyTable(default=Batched(batch_max=64, delay_us=delay_us))
    pipe = _pipeline(comm, service, policies=table)
    before = PRMI_STATS.get("flush_deadline")
    futs = [pipe.submit("add", 0, a=i, b=0) for i in range(5)]
    deadline = PRMI_STATS.get("flush_deadline") - before
    got = [f.result() for f in futs]
    pipe.close()
    return deadline, got


@pytest.mark.parametrize("delay_us, flushes", [(0, 5), (10**7, 0)])
def test_batched_flush_deadline_is_the_policys(delay_us, flushes):
    """A batched route flushes on its own ``Batched.delay_us``: at 0 every
    submit has waited long enough and ships as its own frame, at 10 s
    none does (the batch goes when the results are asked for)."""
    out = run_coupled([
        ("callee", 1, _callee, (f"serve-deadline-{delay_us}",)),
        ("caller", 1, _deadline_caller,
         (f"serve-deadline-{delay_us}", delay_us)),
    ])
    assert out["caller"][0] == (flushes, [0, 1, 2, 3, 4])


# -- the in-flight gauge ---------------------------------------------------------

def _gauge_caller(comm, service):
    table = PolicyTable(default=Batched(batch_max=4, delay_us=10**7))
    pipe = _pipeline(comm, service, policies=table, inflight_max=6,
                     overflow="block")
    PRMI_STATS.reset()
    futs = [pipe.submit("add", 0, a=i, b=0) for i in range(6)]
    full = PRMI_STATS.get("inflight")       # 2 requests still unposted
    futs += [pipe.submit("add", 0, a=i, b=0) for i in range(6, 20)]
    pipe.drain()
    got = ([f.result() for f in futs], full, PRMI_STATS.get("inflight"),
           PRMI_STATS.get("peak_inflight"))
    pipe.close()
    return got


def test_inflight_gauge_peak_is_exact_when_posted_per_frame():
    """The gauge is posted once per frame; the increments of a batch
    not yet shipped are posted before any decrement, so a pipeline
    that fills its window records exactly ``inflight_max``."""
    out = run_coupled([
        ("callee", 1, _callee, ("serve-gauge",)),
        ("caller", 1, _gauge_caller, ("serve-gauge",)),
    ])
    values, full, level, peak = out["caller"][0]
    assert values == list(range(20))
    assert full == 4
    assert level == 0
    assert peak == 6


# -- subset engagement mid-pipeline ------------------------------------------

def _subset_caller(comm, service, n):
    table = PolicyTable(default=Batched(batch_max=8, delay_us=10**7))
    pipe = _pipeline(comm, service, policies=table)
    before = pipe.caller.invoke("echo_m", x=1)
    futs = [pipe.submit("add", comm.rank % n, a=i, b=0) for i in range(4)]
    pipe.engage_subset([0, 2])
    after = pipe.caller.invoke("echo_m", x=2)
    late = [pipe.submit("add", comm.rank % n, a=i, b=10) for i in range(3)]
    got = ([f.result() for f in futs], before, after,
           [f.result() for f in late])
    pipe.close()
    return got


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_subset_engaged_mid_pipeline(backend):
    m, n = 3, 2
    out = run_coupled([
        ("callee", n, _callee, ("serve-subset",)),
        ("caller", m, _subset_caller, ("serve-subset", n)),
    ], backend=backend)
    for rank, (futs, before, after, late) in enumerate(out["caller"]):
        assert futs == [0, 1, 2, 3]
        assert before == 1
        # rank 1 is subset out: its post-subset collective is a no-op,
        # but independent submissions still flow.
        assert after == (2 if rank in (0, 2) else None)
        assert late == [10, 11, 12]
    for tallies in out["callee"]:
        assert tallies["subsets"] == 1
        assert tallies["subset_engagements"] == 1
        assert tallies["collective"] == 2


# -- queue-overflow admission control ----------------------------------------

def _overflow_caller(comm, service):
    table = PolicyTable(default=Batched(batch_max=64, delay_us=10**7))
    pipe = _pipeline(comm, service, policies=table)
    futs = [pipe.submit("add", 0, a=i, b=0) for i in range(8)]
    pipe.flush()
    ok, refused = [], 0
    for f in futs:
        try:
            ok.append(f.result())
        except ServerOverloaded:
            refused += 1
    pipe.close()
    return ok, refused


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_server_queue_overflow_refuses_excess(backend):
    out = run_coupled([
        ("callee", 1, _callee, ("serve-overflow", 3)),
        ("caller", 1, _overflow_caller, ("serve-overflow",)),
    ], backend=backend)
    ok, refused = out["caller"][0]
    # FIFO admission: the first queue_max requests succeed, the rest
    # are refused with ServerOverloaded — nothing is silently dropped.
    assert ok == [0, 1, 2]
    assert refused == 5
    assert out["callee"][0]["overloads"] == 5


# -- caller-side in-flight window --------------------------------------------

def _inflight_raise_caller(comm, service):
    table = PolicyTable(default=Batched(batch_max=64, delay_us=10**7))
    pipe = _pipeline(comm, service, policies=table, inflight_max=3,
                     overflow="raise")
    futs = [pipe.submit("add", 0, a=i, b=0) for i in range(3)]
    try:
        pipe.submit("add", 0, a=99, b=0)
        raised = False
    except ServerOverloaded:
        raised = True
    vals = [f.result() for f in futs]
    pipe.close()
    return raised, vals


def _inflight_block_caller(comm, service):
    table = PolicyTable(default=Batched(batch_max=2, delay_us=10**7))
    pipe = _pipeline(comm, service, policies=table, inflight_max=4,
                     overflow="block")
    futs = [pipe.submit("add", 0, a=i, b=0) for i in range(12)]
    vals = [f.result() for f in futs]
    pipe.close()
    return vals


def test_inflight_cap_raise_policy():
    out = run_coupled([
        ("callee", 1, _callee, ("serve-inflight-raise",)),
        ("caller", 1, _inflight_raise_caller, ("serve-inflight-raise",)),
    ])
    raised, vals = out["caller"][0]
    assert raised and vals == [0, 1, 2]


def test_inflight_cap_block_policy_makes_progress():
    out = run_coupled([
        ("callee", 1, _callee, ("serve-inflight-block",)),
        ("caller", 1, _inflight_block_caller, ("serve-inflight-block",)),
    ])
    assert out["caller"][0] == list(range(12))


# -- _args_equal dtype regression --------------------------------------------

def test_args_equal_is_dtype_strict():
    """np.array_equal alone calls float32/float64 twins equal; the
    cohorts would then build byte-incompatible schedules from
    'consistent' simple args."""
    a32 = np.arange(3, dtype=np.float32)
    a64 = np.arange(3, dtype=np.float64)
    assert bool(np.array_equal(a32, a64))     # why the check must exist
    assert not _args_equal(a32, a64)
    assert _args_equal(a32, a32.copy())
    assert not _args_equal({"x": a32}, {"x": a64})
    assert _args_equal([a64, 1], (a64, 1))


def _dtype_mismatch_caller(comm, service):
    inter = default_nameservice.connect(service, comm)
    ep = CallerEndpoint(comm, inter, PORT, verify_simple=True)
    dtype = np.float32 if comm.rank == 0 else np.float64
    try:
        ep.invoke("echo_m", x=np.arange(3, dtype=dtype))
        return "no error"
    except SimpleArgumentMismatch:
        return "mismatch"


def _dtype_mismatch_callee(comm, service):
    inter = default_nameservice.accept(service, comm)
    CalleeEndpoint(comm, inter, PORT, ServeImpl(comm))
    return "served"


def test_verify_simple_catches_dtype_divergence():
    out = run_coupled([
        ("callee", 1, _dtype_mismatch_callee, ("serve-dtype",)),
        ("caller", 2, _dtype_mismatch_caller, ("serve-dtype",)),
    ])
    assert set(out["caller"]) == {"mismatch"}


# -- one wire for independent calls ------------------------------------------

IND_PORT = port(
    "IndPort",
    method("boom", arg("x"), invocation="independent"),
    method("fire", arg("x"), oneway=True, returns=False,
           invocation="independent"),
    method("inc", arg("x"), invocation="independent"),
)


class IndImpl:
    def __init__(self):
        self.fired = []

    def boom(self, x):
        raise ValueError(f"boom {x}")

    def fire(self, x):
        self.fired.append(x)

    def inc(self, x):
        return x + 1


def _ind_callee(comm, service):
    inter = default_nameservice.accept(service, comm)
    impl = IndImpl()
    ep = CalleeEndpoint(comm, inter, IND_PORT, impl)
    sent = [comm.counters.get("inter_msgs")]
    for _ in range(3):          # boom, fire, inc
        ep.serve_independent()
        sent.append(comm.counters.get("inter_msgs"))
    return [b - a for a, b in zip(sent, sent[1:])], impl.fired


def _ind_caller(comm, service):
    inter = default_nameservice.connect(service, comm)
    ep = CallerEndpoint(comm, inter, IND_PORT)
    with pytest.raises(ValueError, match="boom 1"):
        ep.invoke_independent("boom", 0, x=1)
    fired = ep.invoke_independent("fire", 0, x=2)
    return fired, ep.invoke_independent("inc", 0, x=3)


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_independent_call_is_one_request_frame(backend):
    """A lockstep independent call travels the frame wire: the
    exception a callee method raises reaches the caller (the callee
    carries on), and a one-way call sends no reply frame."""
    out = run_coupled([
        ("callee", 1, _ind_callee, (f"ind-wire-{backend}",)),
        ("caller", 1, _ind_caller, (f"ind-wire-{backend}",)),
    ], backend=backend)
    assert out["caller"][0] == (None, 4)
    replies, fired = out["callee"][0]
    assert replies == [1, 0, 1]
    assert fired == [2]


def _ind_loop_callee(comm, service):
    inter = default_nameservice.accept(service, comm)
    impl = IndImpl()
    served = ServerLoop(CalleeEndpoint(comm, inter, IND_PORT,
                                       impl)).serve_forever()
    return served, impl.fired


def _ind_loop_caller(comm, service):
    inter = default_nameservice.connect(service, comm)
    with InvocationPipeline(CallerEndpoint(comm, inter, IND_PORT)) as pipe:
        try:
            pipe.caller.invoke_independent("boom", 0, x=1)
        except ValueError as exc:
            raised = str(exc)
        pipe.caller.invoke_independent("fire", 0, x=2)
        return raised, pipe.caller.invoke_independent("inc", 0, x=3)


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_serve_loop_answers_independent_calls_as_frames(backend):
    """The serve loop has no independent stream of its own: a direct
    independent call is one request frame, answered like a batch."""
    out = run_coupled([
        ("callee", 1, _ind_loop_callee, (f"ind-loop-{backend}",)),
        ("caller", 1, _ind_loop_caller, (f"ind-loop-{backend}",)),
    ], backend=backend)
    assert out["caller"][0] == ("boom 1", 4)
    served, fired = out["callee"][0]
    assert (served["frames"], served["requests"], served["errors"]) == (3, 3, 1)
    assert "independent" not in served
    assert fired == [2]
