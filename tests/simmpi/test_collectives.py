"""Collective operation tests for the simulated MPI runtime."""

import numpy as np
import pytest

from repro.simmpi import run_spmd


@pytest.mark.parametrize("n", [1, 2, 5])
def test_barrier_completes(n):
    def main(comm):
        for _ in range(3):
            comm.barrier()
        return True

    assert all(run_spmd(n, main))


def test_bcast_object():
    def main(comm):
        data = {"k": [1, 2, 3]} if comm.rank == 0 else None
        return comm.bcast(data, root=0)

    results = run_spmd(4, main)
    assert all(r == {"k": [1, 2, 3]} for r in results)


def test_bcast_nonzero_root():
    def main(comm):
        data = "hello" if comm.rank == 2 else None
        return comm.bcast(data, root=2)

    assert run_spmd(4, main) == ["hello"] * 4


def test_bcast_isolates_payload():
    def main(comm):
        data = [1, 2] if comm.rank == 0 else None
        got = comm.bcast(data, root=0)
        got.append(comm.rank)  # must not leak across ranks
        return got

    results = run_spmd(3, main)
    assert results == [[1, 2, 0], [1, 2, 1], [1, 2, 2]]


def test_gather_numpy_variable_sizes():
    """gather handles per-rank arrays of different lengths (gatherv)."""
    def main(comm):
        data = np.full(comm.rank + 1, comm.rank, dtype=np.int64)
        return comm.gather(data, root=0)

    parts = run_spmd(3, main)[0]
    assert [p.shape[0] for p in parts] == [1, 2, 3]
    np.testing.assert_array_equal(parts[2], [2, 2, 2])


def test_allgather():
    def main(comm):
        return comm.allgather(comm.rank * 2)

    results = run_spmd(4, main)
    assert all(r == [0, 2, 4, 6] for r in results)


def test_alltoall():
    def main(comm):
        out = [f"{comm.rank}->{j}" for j in range(comm.size)]
        return comm.alltoall(out)

    results = run_spmd(3, main)
    for j, got in enumerate(results):
        assert got == [f"{i}->{j}" for i in range(3)]


def test_reduce_sum_scalar():
    def main(comm):
        return comm.reduce(comm.rank + 1, op="sum", root=0)

    results = run_spmd(4, main)
    assert results[0] == 10
    assert results[1] is None


def test_allreduce_ops():
    def main(comm):
        return (
            comm.allreduce(comm.rank, op="max"),
            comm.allreduce(comm.rank + 1, op="prod"),
            comm.allreduce(comm.rank, op="min"),
        )

    for r in run_spmd(3, main):
        assert r == (2, 6, 0)


def test_allreduce_numpy_elementwise():
    def main(comm):
        vec = np.full(4, float(comm.rank))
        return comm.allreduce(vec, op="sum")

    for r in run_spmd(3, main):
        np.testing.assert_array_equal(r, np.full(4, 3.0))


def test_reduce_custom_callable():
    def main(comm):
        return comm.allreduce((comm.rank,), op=lambda a, b: a + b)

    for r in run_spmd(3, main):
        assert r == (0, 1, 2)
