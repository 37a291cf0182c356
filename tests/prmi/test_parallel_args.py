"""Parallel-argument PRMI tests: both callee-layout strategies."""

import os

import numpy as np
import pytest

from repro.cca.sidl import arg, method, port
from repro.dad import DistArrayDescriptor, DistributedArray
from repro.dad.template import block_template
from repro.errors import SpmdError
from repro.prmi import CalleeEndpoint, CallerEndpoint, ParallelArg
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
            assert not field.materialized
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
            ep = ep.engage_subset(subset)
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
            ep.accept_subset()
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
