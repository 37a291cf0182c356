"""SCIRun2 sub-setting mechanism tests (§4.2).

"If the needs of a component change at run-time and the choice of
processes participating in a call needs to be modified, then a
sub-setting mechanism is engaged to allow greater flexibility."

The callee cohort serves under a :class:`ServerLoop`, the one place a
subset announcement is installed; the callers close an
:class:`InvocationPipeline` to end it.
"""

import numpy as np
import pytest

from repro.cca.sidl import arg, method, port
from repro.dad import DistArrayDescriptor, DistributedArray
from repro.dad.template import block_template
from repro.errors import PRMIError
from repro.prmi import CalleeEndpoint, CallerEndpoint, ParallelArg
from repro.prmi.serving import InvocationPipeline, ServerLoop
from repro.simmpi import NameService, run_coupled

PORT = port(
    "SubsetPort",
    method("echo_m", arg("x")),
    method("norm", arg("field", kind="parallel")),
)


class Impl:
    def __init__(self, comm):
        self.comm = comm

    def echo_m(self, x):
        return x

    def norm(self, field):
        local = sum(float(a.sum()) for _, a in field.iter_patches())
        return self.comm.allreduce(local, op="sum")


def run_subset_scenario(caller_fn, callee_fn, m=4, n=2):
    ns = NameService()

    def caller(comm):
        inter = ns.connect("sp", comm)
        with InvocationPipeline(CallerEndpoint(comm, inter, PORT)) as pipe:
            return caller_fn(pipe, comm)

    def callee(comm):
        inter = ns.accept("sp", comm)
        ep = CalleeEndpoint(comm, inter, PORT, Impl(comm))
        return callee_fn(ep, comm)

    return run_coupled([("callee", n, callee, ()), ("caller", m, caller, ())])


def test_subset_collective_call():
    """Only ranks {1, 3} of a 4-rank cohort participate after the
    sub-setting mechanism is engaged."""
    def caller_fn(pipe, comm):
        full = pipe.caller.invoke("echo_m", x="full")
        sub_ep = pipe.engage_subset([1, 3])
        result = sub_ep.invoke("echo_m", x="subset")
        return (full, result, sub_ep.caller_rank)

    def callee_fn(ep, comm):
        assert ep.m == 4
        served = ServerLoop(ep).serve_forever()
        assert ep._caller_map == [1, 3]
        assert ep.m == 2
        return (served["collective"], served["subsets"])

    out = run_subset_scenario(caller_fn, callee_fn)
    # every cohort rank got the full-call return
    assert [r[0] for r in out["caller"]] == ["full"] * 4
    # only the subset got the second return; others got None (no-op)
    assert [r[1] for r in out["caller"]] == [None, "subset", None, "subset"]
    # effective caller ranks inside the subset
    assert [r[2] for r in out["caller"]] == [None, 0, None, 1]
    assert out["callee"] == [(2, 1)] * 2


def test_subset_with_parallel_argument():
    """A parallel argument redistributed from a 2-rank subset of a
    4-rank cohort to a 2-rank callee."""
    shape = (8,)
    g = np.arange(8.0)
    sub_ranks = [0, 2]
    src_desc = DistArrayDescriptor(block_template(shape, (2,)))
    layout = DistArrayDescriptor(block_template(shape, (2,)))

    def caller_fn(pipe, comm):
        sub_ep = pipe.engage_subset(sub_ranks)
        if sub_ep.caller_rank is None:
            return None  # subset out: no data, no call
        field = DistributedArray.from_global(
            src_desc, sub_ep.caller_rank, g)
        return sub_ep.invoke("norm", field=ParallelArg(field))

    def callee_fn(ep, comm):
        ep.set_param_layout("norm", "field", layout)
        return ServerLoop(ep).serve_forever()["collective"]

    out = run_subset_scenario(caller_fn, callee_fn, m=4, n=2)
    assert out["caller"][0] == pytest.approx(g.sum())
    assert out["caller"][2] == pytest.approx(g.sum())
    assert out["caller"][1] is None and out["caller"][3] is None
    assert out["callee"] == [1, 1]


def test_subset_ghost_bookkeeping():
    """Subset of 2 callers against 5 callees: ghosts follow M'=2."""
    def caller_fn(pipe, comm):
        sub_ep = pipe.engage_subset([0, 1])
        sub_ep.invoke("echo_m", x=1)
        return sub_ep.stats.ghost_invocations

    def callee_fn(ep, comm):
        return ServerLoop(ep).serve_forever()["collective"]

    out = run_subset_scenario(caller_fn, callee_fn, m=3, n=5)
    # callers 0,1 fan out to 5 callees: 3 + 2 -> 3 ghosts total
    assert sum(g for g in out["caller"] if g) == 3
    assert out["callee"] == [1] * 5


def test_invalid_subset_rejected():
    def caller_fn(pipe, comm):
        with pytest.raises(PRMIError):
            pipe.engage_subset([7])
        with pytest.raises(PRMIError):
            pipe.engage_subset([])
        return True

    def callee_fn(ep, comm):
        return ServerLoop(ep).serve_forever()["subsets"] == 0

    out = run_subset_scenario(caller_fn, callee_fn, m=2, n=1)
    assert all(out["caller"]) and all(out["callee"])
