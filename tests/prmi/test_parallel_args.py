"""Parallel-argument PRMI tests: both callee-layout strategies."""

import os

import numpy as np
import pytest

from repro.cca.sidl import arg, method, port
from repro.dad import DistArrayDescriptor, DistributedArray
from repro.dad.template import block_template
from repro.errors import SpmdError
from repro.prmi import CalleeEndpoint, CallerEndpoint, ParallelArg
from repro.prmi.serving import InvocationPipeline, ServerLoop
from repro.schedule import GLOBAL_CACHE, PLAN_STATS
from repro.simmpi import NameService, run_coupled

FIELD_PORT = port(
    "FieldPort",
    method("norm", arg("field", kind="parallel")),
    method("scale_info", arg("factor"), arg("field", kind="parallel")),
    method("two_fields", arg("a", kind="parallel"), arg("b", kind="parallel")),
)

SHAPE = (8, 6)
G = np.arange(48.0).reshape(SHAPE)


def coupled(m, n, caller_fn, callee_factory):
    ns = NameService()

    def caller(comm):
        inter = ns.connect("fp", comm)
        ep = CallerEndpoint(comm, inter, FIELD_PORT)
        src_desc = DistArrayDescriptor(block_template(SHAPE, (m, 1)), G.dtype)
        field = DistributedArray.from_global(src_desc, comm.rank, G)
        return caller_fn(ep, comm, field)

    def callee(comm):
        inter = ns.accept("fp", comm)
        impl, setup = callee_factory(comm)
        ep = CalleeEndpoint(comm, inter, FIELD_PORT, impl)
        setup(ep)
        ep.serve_one()
        return impl.result

    return run_coupled([("callee", n, callee, ()), ("caller", m, caller, ())])


def test_preregistered_layout_strategy():
    """Paper strategy 1: 'specify the layout using a special framework
    service before the call is received'."""
    n = 3
    layout = DistArrayDescriptor(block_template(SHAPE, (1, n)), G.dtype)

    class Impl:
        def __init__(self, comm):
            self.comm = comm
            self.result = None

        def norm(self, field):
            # field arrives as a ready DistributedArray in MY layout
            assert isinstance(field, DistributedArray)
            local = sum(float((a ** 2).sum())
                        for _, a in field.iter_patches())
            self.result = self.comm.allreduce(local, op="sum")
            return self.result

    def factory(comm):
        impl = Impl(comm)
        return impl, lambda ep: ep.set_param_layout("norm", "field", layout)

    out = coupled(2, n, lambda ep, comm, f: ep.invoke(
        "norm", field=ParallelArg(f)), factory)
    expected = float((G ** 2).sum())
    assert all(r == pytest.approx(expected) for r in out["caller"])
    assert all(r == pytest.approx(expected) for r in out["callee"])


def test_lazy_materialization_strategy():
    """Paper strategy 2: 'delay the actual transfer of data until the
    provides side has specified its layout'."""
    n = 2

    class Impl:
        def __init__(self, comm):
            self.comm = comm
            self.result = None

        def norm(self, field):
            from repro.prmi import LazyParallelArg
            assert isinstance(field, LazyParallelArg)
            layout = DistArrayDescriptor(
                block_template(SHAPE, (n, 1)), G.dtype)
            da = field.materialize(layout)
            local = sum(float(a.sum()) for _, a in da.iter_patches())
            self.result = self.comm.allreduce(local, op="sum")
            return self.result

    def factory(comm):
        return Impl(comm), lambda ep: None

    out = coupled(3, n, lambda ep, comm, f: ep.invoke(
        "norm", field=ParallelArg(f)), factory)
    assert all(r == pytest.approx(G.sum()) for r in out["caller"])


def test_mixed_simple_and_parallel_args():
    n = 2
    layout = DistArrayDescriptor(block_template(SHAPE, (1, n)), G.dtype)

    class Impl:
        def __init__(self, comm):
            self.comm = comm
            self.result = None

        def scale_info(self, factor, field):
            local = sum(float(a.sum()) for _, a in field.iter_patches())
            self.result = factor * self.comm.allreduce(local, op="sum")
            return self.result

    def factory(comm):
        impl = Impl(comm)
        return impl, lambda ep: ep.set_param_layout(
            "scale_info", "field", layout)

    out = coupled(2, n, lambda ep, comm, f: ep.invoke(
        "scale_info", factor=0.5, field=ParallelArg(f)), factory)
    assert all(r == pytest.approx(0.5 * G.sum()) for r in out["caller"])


def test_two_parallel_args_in_order():
    n = 2
    layout = DistArrayDescriptor(block_template(SHAPE, (n, 1)), G.dtype)

    class Impl:
        def __init__(self, comm):
            self.comm = comm
            self.result = None

        def two_fields(self, a, b):
            da = a.materialize(layout)
            db = b.materialize(layout)
            local = sum(float(x.sum()) for _, x in da.iter_patches())
            local += sum(float(x.sum()) for _, x in db.iter_patches())
            self.result = self.comm.allreduce(local, op="sum")
            return self.result

    def factory(comm):
        return Impl(comm), lambda ep: None

    out = coupled(2, n, lambda ep, comm, f: ep.invoke(
        "two_fields", a=ParallelArg(f), b=ParallelArg(f)), factory)
    assert all(r == pytest.approx(2 * G.sum()) for r in out["caller"])


def test_out_of_order_materialization_rejected():
    n = 1
    layout = DistArrayDescriptor(block_template(SHAPE, (1, 1)), G.dtype)

    class Impl:
        def __init__(self, comm):
            self.comm = comm
            self.result = None

        def two_fields(self, a, b):
            b.materialize(layout)  # wrong order: b before a

    def factory(comm):
        return Impl(comm), lambda ep: None

    with pytest.raises(SpmdError) as exc_info:
        coupled(1, n, lambda ep, comm, f: ep.invoke(
            "two_fields", a=ParallelArg(f), b=ParallelArg(f)), factory)
    from repro.errors import PRMIError
    assert any(isinstance(e, PRMIError)
               for e in exc_info.value.failures.values())


def test_unmaterialized_parallel_arg_rejected():
    class Impl:
        def __init__(self, comm):
            self.comm = comm
            self.result = None

        def norm(self, field):
            return 0.0  # never materializes -> protocol violation

    def factory(comm):
        return Impl(comm), lambda ep: None

    with pytest.raises(SpmdError):
        coupled(1, 1, lambda ep, comm, f: ep.invoke(
            "norm", field=ParallelArg(f)), factory)


def test_unwrapped_parallel_arg_rejected():
    ns = NameService()

    def caller(comm):
        inter = ns.connect("fp", comm)
        ep = CallerEndpoint(comm, inter, FIELD_PORT)
        from repro.errors import PRMIError
        with pytest.raises(PRMIError):
            ep.invoke("norm", field=np.zeros(4))  # not a ParallelArg
        return True

    def callee(comm):
        ns.accept("fp", comm)
        return True

    out = run_coupled([("callee", 1, callee, ()), ("caller", 1, caller, ())])
    assert out["caller"] == [True]


# -- schedule lifecycle: fetched once, compiled once, replayed per call ------

_CALLS = 4
_SYNC_TAG = 999


def _truth(call):
    return G + 1000.0 * call


def _compiles():
    return (GLOBAL_CACHE.stats()["misses"], PLAN_STATS.get("rank_plans"),
            PLAN_STATS.get("pair_plans"))


@pytest.mark.parametrize("cohort,subset,n,lazy", [
    (2, None, 3, False),        # pre-registered layout, M < N (ghost calls)
    (3, None, 2, True),         # LazyParallelArg layout
    (4, [0, 2], 3, False),      # engaged sub-set: rank= / peer_map= path
    (4, None, 2, False),        # M > N: merged invocations
], ids=["preregistered", "lazy", "subset", "merged"])
def test_parallel_arg_schedule_is_fetched_and_compiled_once(cohort, subset,
                                                            n, lazy):
    """Both cohorts take the M×N schedule from their process's cache:
    each address space builds it once, on the first call, and compiles
    only the plans of the sides its ranks are on; after the first call
    nothing is built or compiled, and every call still delivers exactly
    its own bytes.  On threads every rank shares one process; on procs
    each rank is its own."""
    m = len(subset) if subset else cohort
    src_desc = DistArrayDescriptor(block_template(SHAPE, (m, 1)), G.dtype)
    layout = DistArrayDescriptor(block_template(SHAPE, (1, n)), G.dtype)
    ns = NameService()

    class Impl:
        def __init__(self):
            self.seen = []

        def norm(self, field):
            if lazy:
                field = field.materialize(layout)
            self.seen.append(field.flat_local().copy())

    def caller(comm):
        inter = ns.connect("fp", comm)
        ep = CallerEndpoint(comm, inter, FIELD_PORT)
        if subset:
            # the callees' serve loop installs the subset; closing the
            # pipeline ends it, and the callees release the calls
            pipe = InvocationPipeline(ep)
            ep = pipe.engage_subset(subset)
            pipe.close()
            if comm.rank == 0:
                inter.recv(source=0, tag=_SYNC_TAG)
            comm.barrier()
        snaps = []
        for call in range(_CALLS):
            if ep.caller_rank is not None:
                field = DistributedArray.from_global(
                    src_desc, ep.caller_rank, _truth(call))
                ep.invoke("norm", field=ParallelArg(field))
            # every callee rank has finished this call, then every caller
            if comm.rank == 0:
                inter.recv(source=0, tag=_SYNC_TAG)
            comm.barrier()
            snaps.append(_compiles())
        return os.getpid(), ep.caller_rank is not None, snaps

    def callee(comm):
        inter = ns.accept("fp", comm)
        impl = Impl()
        ep = CalleeEndpoint(comm, inter, FIELD_PORT, impl)
        if not lazy:
            ep.set_param_layout("norm", "field", layout)
        if subset:
            ServerLoop(ep).serve_forever()
            comm.barrier()
            if comm.rank == 0:
                inter.send(None, 0, tag=_SYNC_TAG)
        snaps = []
        for _ in range(_CALLS):
            ep.serve_one()
            comm.barrier()
            snaps.append(_compiles())
            if comm.rank == 0:
                inter.send(None, 0, tag=_SYNC_TAG)
        return os.getpid(), impl.seen, snaps

    out = run_coupled([("callee", n, callee, ()),
                       ("caller", cohort, caller, ())])
    for call in range(_CALLS):
        parts = []
        for r, (_pid, seen, _snaps) in enumerate(out["callee"]):
            da = DistributedArray.allocate(layout, r)
            da.flat_local()[:] = seen[call]
            parts.append(da)
        assert (DistributedArray.assemble(parts).tobytes()
                == _truth(call).tobytes())
    # per address space: the sides its participating ranks are on
    ranks = ([(pid, "src" if engaged else None, snaps)
              for pid, engaged, snaps in out["caller"]]
             + [(pid, "dst", snaps) for pid, _seen, snaps in out["callee"]])
    sides: dict[int, set] = {}
    for pid, side, _snaps in ranks:
        sides.setdefault(pid, set()).update([side] if side else [])
    side_ranks = {"src": m, "dst": n}
    pairs = GLOBAL_CACHE.get(src_desc, layout).pair_count
    for pid, _side, snaps in ranks:
        mine = sides[pid]
        # one template pair: one build, and each of its sides compiles
        # every rank of that side in one pass
        assert snaps[0] == (int(bool(mine)),
                            sum(side_ranks[s] for s in mine),
                            len(mine) * pairs)
        assert snaps[1:] == [snaps[0]] * (_CALLS - 1)


# -- layouts by epoch: shipped once, re-registered between calls -------------

_EPOCH_PORT = port(
    "EpochPort",
    method("norm", arg("field", kind="parallel")),
    method("push", arg("field", kind="parallel"), returns=False,
           oneway=True))
_COLS = DistArrayDescriptor(block_template(SHAPE, (1, 3)), G.dtype)
_ROWS = DistArrayDescriptor(block_template(SHAPE, (3, 1)), G.dtype)


def _epoch_run(calls, *, name="norm", layouts=None, backend="threads",
               watch=False):
    """2 callers -> 3 callees, ``calls`` collective calls of ``name``.
    The callees hold ``layouts[k]`` for call ``k`` (registered before
    it whenever it changes; default: ``_COLS`` throughout) and reduce
    over their cohort like ``bench/``'s ``norm``.  With ``watch``, every
    caller records the tags it receives on the intercommunicator and
    its broadcasts, per call."""
    layouts = layouts or [_COLS] * calls
    src_desc = DistArrayDescriptor(block_template(SHAPE, (2, 1)), G.dtype)
    ns = NameService()

    class Impl:
        def __init__(self, comm):
            self.comm, self.seen = comm, []

        def norm(self, field):
            self.seen.append((field.descriptor.cache_key(),
                              field.flat_local().copy()))
            flat = field.flat_local()
            return self.comm.allreduce(float(np.dot(flat, flat)))

        def push(self, field):
            self.norm(field)

    def caller(comm):
        inter = ns.connect("epochs", comm)
        ep = CallerEndpoint(comm, inter, _EPOCH_PORT)
        log = []
        if watch:
            recv, bcast = inter.recv, ep._pcomm.bcast
            inter.recv = lambda *a, **k: log[-1].append(
                ("recv", k.get("tag"))) or recv(*a, **k)
            ep._pcomm.bcast = lambda *a, **k: log[-1].append(
                ("bcast",)) or bcast(*a, **k)
        for call in range(calls):
            log.append([])
            field = DistributedArray.from_global(src_desc, comm.rank,
                                                 _truth(call))
            ep.invoke(name, field=ParallelArg(field))
        return log

    def callee(comm):
        inter = ns.accept("epochs", comm)
        impl = Impl(comm)
        ep = CalleeEndpoint(comm, inter, _EPOCH_PORT, impl)
        for call, layout in enumerate(layouts):
            if call == 0 or layout is not layouts[call - 1]:
                ep.set_param_layout(name, "field", layout)
            ep.serve_one()
        return impl.seen

    return run_coupled([("callee", 3, callee, ()),
                        ("caller", 2, caller, ())], backend=backend)


def test_steady_state_call_makes_no_layout_round_trip(monkeypatch):
    """A pre-registered layout travels once: every call after the first
    matches two messages fewer on threads (no layout on ``PULL_TAG``, no
    broadcast of it over the callers) — 15 per call with this geometry,
    whose six pairs are all put pairs (one window handle each, no data
    message) as in ``prmi_parallel_arg``."""
    from repro.prmi.endpoint import PULL_TAG
    from repro.schedule import executor
    from repro.util.counters import TRANSPORT_STATS

    monkeypatch.setattr(executor, "EAGER_MAX", 0)
    matched = []
    for calls in (1, 5):
        TRANSPORT_STATS.reset()
        out = _epoch_run(calls, watch=True)
        matched.append(TRANSPORT_STATS.get("messages_matched"))
    per_call = (matched[1] - matched[0]) / 4
    assert per_call == 15, per_call
    first, *steady = out["caller"][0]
    assert ("recv", PULL_TAG) in first and ("bcast",) in first
    assert ("bcast",) in out["caller"][1][0]
    for log in [*steady, *out["caller"][1][1:]]:
        assert ("recv", PULL_TAG) not in log and ("bcast",) not in log


@pytest.mark.parametrize("backend", ["threads", "procs"])
@pytest.mark.parametrize("name", ["norm", "push"])
def test_reregistered_layout_takes_effect_on_the_next_call(backend, name):
    """``set_param_layout`` between calls: the very next call delivers
    its bytes in the new layout, whether the callers still hold the old
    one (a stale epoch: pulled in the old layout and redistributed in
    the cohort) or have taken the new one from a return — and the
    one-way method, which has no return to carry it, stays correct on
    the stale epoch."""
    layouts = [_COLS, _ROWS, _ROWS, _ROWS, _COLS, _COLS]
    out = _epoch_run(len(layouts), name=name, layouts=layouts,
                     backend=backend)
    for call, layout in enumerate(layouts):
        parts = []
        for r, seen in enumerate(out["callee"]):
            key, flat = seen[call]
            assert key == layout.cache_key(), (call, r)
            da = DistributedArray.allocate(layout, r)
            da.flat_local()[:] = flat
            parts.append(da)
        assert (DistributedArray.assemble(parts).tobytes()
                == _truth(call).tobytes()), call


def test_a_new_callee_endpoint_refuses_an_old_caller_endpoints_call():
    """A caller endpoint keeps what its callee endpoint shipped or kept
    (the layout epoch, its argument's descriptor).  A callee endpoint
    that did not serve its earlier calls refuses the next one with a
    typed error instead of guessing the layout the bytes come in."""
    from repro.errors import PRMIError

    src_desc = DistArrayDescriptor(block_template(SHAPE, (2, 1)), G.dtype)
    ns = NameService()

    class Impl:
        def norm(self, field):
            return None

    def caller(comm):
        ep = CallerEndpoint(comm, ns.connect("again", comm), _EPOCH_PORT)
        field = ParallelArg(DistributedArray.from_global(src_desc,
                                                         comm.rank, G))
        for _ in range(2):
            ep.invoke("norm", field=field)

    def callee(comm):
        inter = ns.accept("again", comm)
        for _ in range(2):
            ep = CalleeEndpoint(comm, inter, _EPOCH_PORT, Impl())
            ep.set_param_layout("norm", "field", _COLS)
            ep.serve_one()

    with pytest.raises(SpmdError) as exc_info:
        run_coupled([("callee", 3, callee, ()), ("caller", 2, caller, ())],
                    deadlock_timeout=2.0)
    assert any(isinstance(e, PRMIError)
               for e in exc_info.value.failures.values())


def test_a_procs_parallel_argument_above_the_limit_is_put():
    """The headline call on procs: 2 callers -> 3 callees whose six
    pairs of 4 MiB each exceed ``EAGER_MAX``.  Every caller puts its
    three pairs straight into the callees' arguments (one put each, the
    pairs' wire bytes in all), which arrive byte-identical."""
    from repro.schedule.executor import EAGER_MAX
    from repro.util.counters import TRANSPORT_STATS

    shape = (1024, 3072)
    src = DistArrayDescriptor(block_template(shape, (2, 1)), np.float64)
    dst = DistArrayDescriptor(block_template(shape, (1, 3)), np.float64)
    g = np.arange(shape[0] * shape[1], dtype=np.float64).reshape(shape)
    pair = shape[0] // 2 * shape[1] // 3 * 8
    assert pair > EAGER_MAX
    ns = NameService()

    class Impl:
        def norm(self, field):
            self.flat = field.flat_local().copy()
            return 0.0

    def caller(comm):
        ep = CallerEndpoint(comm, ns.connect("big-arg", comm), _EPOCH_PORT)
        ep.invoke("norm", field=ParallelArg(
            DistributedArray.from_global(src, comm.rank, g)))
        return (TRANSPORT_STATS.get("rma_puts"),
                TRANSPORT_STATS.get("rma_put_bytes"))

    def callee(comm):
        impl = Impl()
        ep = CalleeEndpoint(comm, ns.accept("big-arg", comm), _EPOCH_PORT,
                            impl)
        ep.set_param_layout("norm", "field", dst)
        ep.serve_one()
        return impl.flat

    out = run_coupled([("callee", 3, callee, ()), ("caller", 2, caller, ())],
                      backend="procs")
    assert out["caller"] == [(3, 3 * pair)] * 2
    parts = []
    for r, flat in enumerate(out["callee"]):
        da = DistributedArray.allocate(dst, r)
        da.flat_local()[:] = flat
        parts.append(da)
    assert DistributedArray.assemble(parts).tobytes() == g.tobytes()
