"""simmpi edge cases and stress tests."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.simmpi import run_spmd
from repro.simmpi.ops import resolve_op


def test_single_rank_collectives():
    def main(comm):
        assert comm.bcast("x") == "x"
        assert comm.gather(5) == [5]
        assert comm.allgather(5) == [5]
        assert comm.alltoall(["a"]) == ["a"]
        assert comm.reduce(3) == 3
        comm.barrier()
        return True

    assert all(run_spmd(1, main))


def test_reduce_nonzero_root():
    def main(comm):
        return comm.reduce(comm.rank, op="sum", root=2)

    results = run_spmd(4, main)
    assert results[2] == 6
    assert results[0] is None and results[3] is None


@pytest.mark.parametrize("root", [0, 1, 2])
def test_bcast_any_root(root):
    def main(comm):
        return comm.bcast(f"from{comm.rank}" if comm.rank == root else None,
                          root=root)

    assert run_spmd(3, main) == [f"from{root}"] * 3


def test_logical_reduce_ops():
    def main(comm):
        flags = comm.rank > 0
        return (comm.allreduce(flags, op="land"),
                comm.allreduce(flags, op="lor"))

    for r in run_spmd(3, main):
        assert r == (False, True)


def test_unknown_op_rejected():
    def main(comm):
        comm.allreduce(1, op="median")

    from repro.errors import SpmdError
    with pytest.raises(SpmdError):
        run_spmd(2, main)


def test_resolve_op_passthrough():
    fn = resolve_op(lambda a, b: a - b)
    assert fn(5, 3) == 2
    with pytest.raises(CommunicatorError):
        resolve_op("mystery")


def test_status_fields():
    def main(comm):
        if comm.rank == 0:
            comm.send(np.zeros(10, dtype=np.float64), dest=1, tag=42)
            return None
        _, st = comm.recv(return_status=True)
        return (st.source, st.tag, st.nbytes)

    assert run_spmd(2, main)[1] == (0, 42, 80)


def test_ring_stress_16_ranks():
    """Token ring over 16 ranks, 20 laps: ordering and progress under
    load."""
    laps = 20

    def main(comm):
        nxt = (comm.rank + 1) % comm.size
        prev = (comm.rank - 1) % comm.size
        if comm.rank == 0:
            comm.send(0, dest=nxt)
            for _ in range(laps - 1):
                token = comm.recv(source=prev)
                comm.send(token + 1, dest=nxt)
            return comm.recv(source=prev)
        for _ in range(laps):
            token = comm.recv(source=prev)
            comm.send(token + 1, dest=nxt)
        return None

    result = run_spmd(16, main, deadlock_timeout=10.0)
    assert result[0] == laps * 16 - 1


def test_many_outstanding_messages():
    """A flood of tagged messages consumed out of order."""
    def main(comm):
        if comm.rank == 0:
            for i in range(100):
                comm.send(i, dest=1, tag=i)
            return None
        # consume in reverse tag order
        return [comm.recv(source=0, tag=t) for t in reversed(range(100))]

    assert run_spmd(2, main)[1] == list(reversed(range(100)))


def test_allgather_object_isolation():
    """allgather results must be private copies per rank."""
    def main(comm):
        data = comm.allgather([comm.rank])
        data[0].append(99)  # mutate; must not leak to other ranks
        return data[1]

    results = run_spmd(2, main)
    assert results == [[1], [1]]


def test_intercomm_bad_remote_rank():
    """Every verb naming a remote rank checks it at once, as
    ``Communicator`` does: a receive or probe from a rank the peer job
    does not have raises instead of blocking until the watchdog."""
    from repro.simmpi import NameService, run_coupled

    ns = NameService()

    def a(comm):
        inter = ns.accept("bad", comm)
        with pytest.raises(CommunicatorError, match="remote rank 5"):
            inter.send("x", dest=5)
        with pytest.raises(CommunicatorError, match="remote rank 5"):
            inter.recv(source=5)
        with pytest.raises(CommunicatorError, match="remote rank 1"):
            inter.recv(source=1, tag=3)
        with pytest.raises(CommunicatorError, match="remote rank 5"):
            inter.iprobe(source=5)
        with pytest.raises(CommunicatorError, match="remote rank 5"):
            inter.prepost_recv(lambda v: 0, source=5)
        return True

    def b(comm):
        ns.connect("bad", comm)
        return True

    out = run_coupled([("a", 1, a, ()), ("b", 1, b, ())],
                      deadlock_timeout=2.0)
    assert all(out["a"])
