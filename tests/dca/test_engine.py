"""DCA invocation engine tests: participation, parallel data, stubs."""

import numpy as np
import pytest

from repro.cca.sidl import arg, method, port
from repro.dca import (
    DCABuffer,
    DCACallerPort,
    DCAParallelArg,
    DCAServerPort,
    DeliveryPolicy,
    generate_stubs,
)
from repro.errors import PRMIError
from repro.simmpi import NameService, run_coupled

SUM_PORT = port(
    "SumPort",
    method("add", arg("x")),
    method("accumulate", arg("data", kind="parallel")),
    method("fire", arg("event"), oneway=True, returns=False),
)


def coupled_sum(m, n, caller_fn, impl_factory, serve_count=1,
                policy=DeliveryPolicy.BARRIER):
    ns = NameService()
    impls = {}

    def caller(comm):
        inter = ns.connect("sum", comm)
        cp = DCACallerPort(comm, inter, SUM_PORT, policy=policy)
        return caller_fn(cp, comm)

    def callee(comm):
        inter = ns.accept("sum", comm)
        impl = impl_factory(comm)
        impls[comm.rank] = impl
        sp = DCAServerPort(comm, inter, SUM_PORT, impl)
        sp.serve(serve_count)
        return impl

    out = run_coupled([("callee", n, callee, ()), ("caller", m, caller, ())])
    return out


class SimpleImpl:
    def __init__(self, comm):
        self.comm = comm
        self.events = []

    def add(self, x):
        return x + 1

    def accumulate(self, data):
        assert isinstance(data, DCABuffer)
        local = float(data.data.sum())
        return self.comm.allreduce(local, op="sum")

    def fire(self, event):
        self.events.append(event)


def test_full_participation_call():
    out = coupled_sum(3, 1, lambda cp, comm: cp.invoke("add", x=41),
                      SimpleImpl)
    assert out["caller"] == [42, 42, 42]


def test_subset_participation():
    def caller_fn(cp, comm):
        sub = comm.create_subcomm([0, 2])
        if comm.rank in (0, 2):
            return cp.invoke("add", pcomm=sub, x=1)
        return None

    out = coupled_sum(3, 1, caller_fn, SimpleImpl)
    assert out["caller"] == [2, None, 2]


def test_parallel_data_alltoallv_shape():
    """Each caller sends per-callee chunks; callees see concatenation in
    participant order."""
    m, n = 3, 2

    def caller_fn(cp, comm):
        # caller r sends chunk [r*10 + j] to callee j
        buf = np.array([comm.rank * 10 + j for j in range(n)], dtype=float)
        pa = DCAParallelArg(buf, counts=[1] * n)
        return cp.invoke("accumulate", data=pa)

    class Impl:
        def __init__(self, comm):
            self.comm = comm
            self.seen = None

        def accumulate(self, data):
            self.seen = data
            local = float(data.data.sum())
            return self.comm.allreduce(local, op="sum")

    out = coupled_sum(m, n, caller_fn, Impl)
    total = sum(r * 10 + j for r in range(m) for j in range(n))
    assert out["caller"] == [pytest.approx(total)] * m
    # callee 0 saw chunks [0, 10, 20] in caller order
    impl0 = out["callee"][0]
    np.testing.assert_array_equal(impl0.seen.data, [0.0, 10.0, 20.0])
    assert impl0.seen.counts == [1, 1, 1]
    np.testing.assert_array_equal(impl0.seen.data[1:2], [10.0])


def test_varying_counts_and_displs():
    m, n = 2, 2

    def caller_fn(cp, comm):
        buf = np.arange(6, dtype=float) + 100 * comm.rank
        pa = DCAParallelArg(buf, counts=[2, 4], displs=[0, 2])
        return cp.invoke("accumulate", data=pa)

    class Impl:
        def __init__(self, comm):
            self.comm = comm
            self.counts = None

        def accumulate(self, data):
            self.counts = data.counts
            return self.comm.allreduce(float(data.data.sum()), op="sum")

    out = coupled_sum(m, n, caller_fn, Impl)
    expected = float(np.arange(6).sum() + np.arange(6).sum() + 100 * 6)
    assert out["caller"][0] == pytest.approx(expected)
    assert out["callee"][0].counts == [2, 2]
    assert out["callee"][1].counts == [4, 4]


def test_oneway_fire_and_forget():
    def caller_fn(cp, comm):
        cp.invoke("fire", event=f"e{comm.rank}")
        return "done"

    out = coupled_sum(2, 1, caller_fn, SimpleImpl)
    assert out["caller"] == ["done", "done"]
    assert out["callee"][0].events == ["e0"]  # simple args come from header


def test_counts_must_match_remote_size():
    def caller_fn(cp, comm):
        pa = DCAParallelArg(np.zeros(3), counts=[1, 1, 1])  # 3 != n=1
        with pytest.raises(PRMIError):
            cp.invoke("accumulate", data=pa)
        cp.invoke("add", x=0)  # keep server protocol in sync
        return True

    out = coupled_sum(1, 1, caller_fn, SimpleImpl)
    assert out["caller"] == [True]


def test_unwrapped_parallel_arg_rejected():
    def caller_fn(cp, comm):
        with pytest.raises(PRMIError):
            cp.invoke("accumulate", data=np.zeros(2))
        cp.invoke("add", x=0)
        return True

    coupled_sum(1, 1, caller_fn, SimpleImpl)


def test_chunk_bounds_validated():
    with pytest.raises(PRMIError):
        DCAParallelArg(np.zeros(3), counts=[2, 2])


def test_stub_generation():
    ns = NameService()

    def caller(comm):
        inter = ns.connect("stub", comm)
        cp = DCACallerPort(comm, inter, SUM_PORT)
        stub = generate_stubs(cp)
        assert callable(stub.add)
        return stub.add(None, x=9)

    def callee(comm):
        inter = ns.accept("stub", comm)
        sp = DCAServerPort(comm, inter, SUM_PORT, SimpleImpl(comm))
        sp.serve_one()
        return True

    out = run_coupled([("callee", 1, callee, ()), ("caller", 2, caller, ())])
    assert out["caller"] == [10, 10]


def test_barrier_policy_counts_barriers():
    def caller_fn(cp, comm):
        cp.invoke("add", x=1)
        cp.invoke("add", x=2)
        return cp.barriers_inserted

    out = coupled_sum(2, 1, caller_fn, SimpleImpl, serve_count=2,
                      policy=DeliveryPolicy.BARRIER)
    assert out["caller"] == [2, 2]

    out = coupled_sum(2, 1, caller_fn, SimpleImpl, serve_count=2,
                      policy=DeliveryPolicy.EAGER)
    assert out["caller"] == [0, 0]
