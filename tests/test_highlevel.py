"""High-level convenience API tests (§6 simplifications)."""

import numpy as np
import pytest

from repro.dad import DistArrayDescriptor, DistributedArray
from repro.dad.template import block_template
from repro.errors import ConnectionError_
from repro.highlevel import Coupler, redistribute
from repro.simmpi import NameService, run_coupled


class TestRedistribute:
    def test_roundtrip(self):
        g = np.arange(60.0).reshape(6, 10)
        out = redistribute(g, (2, 1), (1, 5))
        np.testing.assert_array_equal(out, g)

    def test_3d_fig1(self):
        g = np.random.default_rng(0).random((6, 6, 6))
        out = redistribute(g, (2, 2, 2), (3, 3, 3))
        np.testing.assert_array_equal(out, g)

    def test_dtype_preserved(self):
        g = np.arange(12, dtype=np.int64).reshape(3, 4)
        out = redistribute(g, (3, 1), (1, 2))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, g)


class TestCoupler:
    def test_publish_subscribe(self):
        g = np.arange(48.0).reshape(8, 6)
        src_desc = DistArrayDescriptor(block_template((8, 6), (2, 1)))
        dst_desc = DistArrayDescriptor(block_template((8, 6), (1, 3)))
        ns = NameService()

        def producer(comm):
            coupler = Coupler("temp", ns)
            da = DistributedArray.from_global(src_desc, comm.rank, g)
            return coupler.publish(comm, da)

        def consumer(comm):
            coupler = Coupler("temp", ns)
            return coupler.subscribe(comm, dst_desc)

        out = run_coupled([("p", 2, producer, ()), ("c", 3, consumer, ())])
        np.testing.assert_array_equal(
            DistributedArray.assemble(out["c"]), g)
        assert sum(out["p"]) == 48

    def test_persistent_channel(self):
        src_desc = DistArrayDescriptor(block_template((6,), (2,)))
        dst_desc = DistArrayDescriptor(block_template((6,), (3,)))
        ns = NameService()
        steps = 4

        def producer(comm):
            coupler = Coupler("wave", ns)
            da = DistributedArray.allocate(src_desc, comm.rank)
            chan = coupler.open(comm, "source", da)
            for step in range(steps):
                da.fill(float(step))
                chan.push()
            return chan.transfers

        def consumer(comm):
            coupler = Coupler("wave", ns)
            chan = coupler.open(comm, "destination", dst_desc)
            seen = []
            for _ in range(steps):
                da = chan.pull()
                seen.append(float(next(iter(da.patches.values()))[0]))
            return seen

        out = run_coupled([("p", 2, producer, ()), ("c", 3, consumer, ())])
        assert out["p"] == [steps, steps]
        assert out["c"][0] == [0.0, 1.0, 2.0, 3.0]

    def test_channel_role_enforcement(self):
        src_desc = DistArrayDescriptor(block_template((4,), (1,)))
        ns = NameService()

        def producer(comm):
            coupler = Coupler("x", ns)
            da = DistributedArray.allocate(src_desc, comm.rank)
            chan = coupler.open(comm, "source", da)
            with pytest.raises(ConnectionError_):
                chan.pull()
            chan.push()
            return True

        def consumer(comm):
            coupler = Coupler("x", ns)
            chan = coupler.open(comm, "destination", src_desc)
            with pytest.raises(ConnectionError_):
                chan.push()
            chan.pull()
            return True

        out = run_coupled([("p", 1, producer, ()), ("c", 1, consumer, ())])
        assert all(out["p"]) and all(out["c"])

    def test_bad_role(self):
        ns = NameService()

        def one(comm):
            with pytest.raises(ConnectionError_):
                Coupler("y", ns).open(comm, "middle", None)
            return True

        from repro.simmpi import run_spmd
        assert all(run_spmd(1, one))


_MISMATCH_SRC = DistArrayDescriptor(block_template((4096,), (2,)))
_MISMATCH_DST = DistArrayDescriptor(block_template((4096,), (3,)))


def _open_and_step(comm, role, kwargs):
    """Open one side of the 'mismatch' coupling and try one transfer;
    return (seconds until the typed error, its message)."""
    import time

    from repro.simmpi.intercomm import default_nameservice

    held = (DistributedArray.allocate(_MISMATCH_SRC, comm.rank)
            if role == "source" else _MISMATCH_DST)
    t0 = time.perf_counter()
    try:
        chan = Coupler("mismatch", default_nameservice).open(
            comm, role, held, **kwargs)
        chan.push() if role == "source" else chan.pull()
    except ConnectionError_ as exc:
        return time.perf_counter() - t0, str(exc)
    return None


@pytest.mark.parametrize("backend", ["threads", "procs"],
                         ids=["backend-threads", "backend-procs"])
@pytest.mark.parametrize("knob, variable, prod, cons", [
    ("planner", "REPRO_PLANNER",
     {"planner": "collective"}, {"planner": "p2p"}),
    ("rma", "REPRO_RMA", {"one_sided": True}, {"one_sided": False}),
])
def test_mismatched_requests_fail_typed_on_both_jobs(backend, knob, variable,
                                                     prod, cons):
    """Two jobs that resolve different tier requests raise
    ``ConnectionError_`` naming the knob on every rank of both, at the
    handshake — not a one-sided ``DeadlockError`` after the stall
    watchdog."""
    out = run_coupled(
        [("prod", 2, _open_and_step, ("source", prod)),
         ("cons", 3, _open_and_step, ("destination", cons))],
        backend=backend)
    for job, mine, theirs in (("prod", prod, cons), ("cons", cons, prod)):
        for result in out[job]:
            assert result is not None, f"{job} opened a mismatched channel"
            seconds, message = result
            assert seconds < 1.0
            assert knob in message and variable in message
            (a,), (b,) = mine.values(), theirs.values()
            assert message.index(repr(a)) < message.index(repr(b))
