"""Point-to-point messaging tests for the simulated MPI runtime."""

import os

import numpy as np
import pytest

from repro.errors import CommunicatorError, SpmdError
from repro.simmpi import ANY_SOURCE, ANY_TAG, run_spmd


def test_send_recv_object():
    def main(comm):
        if comm.rank == 0:
            comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return None
        return comm.recv(source=0, tag=11)

    results = run_spmd(2, main)
    assert results[1] == {"a": 7, "b": 3.14}


def test_send_recv_numpy_roundtrip():
    def main(comm):
        if comm.rank == 0:
            comm.send(np.arange(100, dtype=np.float64), dest=1)
            return None
        return comm.recv(source=0)

    results = run_spmd(2, main)
    np.testing.assert_array_equal(results[1], np.arange(100.0))


def test_send_copies_payload():
    """Mutating the sent array after send must not affect the receiver."""
    def main(comm):
        if comm.rank == 0:
            data = np.ones(10)
            comm.send(data, dest=1)
            data[:] = -1  # mutate after send
            comm.barrier()
            return None
        comm.barrier()
        return comm.recv(source=0)

    # barrier after recv would be cleaner; ensure recv happens after mutation
    def main2(comm):
        if comm.rank == 0:
            data = np.ones(10)
            comm.send(data, dest=1)
            data[:] = -1
            comm.send("mutated", dest=1, tag=9)
            return None
        assert comm.recv(source=0, tag=9) == "mutated"
        return comm.recv(source=0, tag=0)

    results = run_spmd(2, main2)
    np.testing.assert_array_equal(results[1], np.ones(10))


def test_tag_matching_out_of_order():
    def main(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)
        first = comm.recv(source=0, tag=1)
        return (first, second)

    assert run_spmd(2, main)[1] == ("first", "second")


def test_fifo_per_source_and_tag():
    def main(comm):
        if comm.rank == 0:
            for i in range(20):
                comm.send(i, dest=1, tag=5)
            return None
        return [comm.recv(source=0, tag=5) for _ in range(20)]

    assert run_spmd(2, main)[1] == list(range(20))


def test_any_source_any_tag():
    def main(comm):
        if comm.rank == 0:
            got = set()
            for _ in range(comm.size - 1):
                val, st = comm.recv(ANY_SOURCE, ANY_TAG, return_status=True)
                assert val == st.source * 10
                got.add(st.source)
            return got
        comm.send(comm.rank * 10, dest=0, tag=comm.rank)
        return None

    assert run_spmd(4, main)[0] == {1, 2, 3}


def test_iprobe():
    def main(comm):
        if comm.rank == 0:
            assert comm.iprobe() is None
            comm.send("x", dest=1, tag=3)
            comm.recv(source=1, tag=4)  # sync
            return None
        comm.recv(source=0, tag=3)
        comm.send("done", dest=0, tag=4)
        return None

    run_spmd(2, main)


def test_bad_rank_raises():
    def main(comm):
        comm.send(1, dest=5)

    with pytest.raises(SpmdError) as exc_info:
        run_spmd(2, main)
    assert all(isinstance(e, CommunicatorError)
               for e in exc_info.value.failures.values())


def test_rank_exception_propagates():
    def main(comm):
        if comm.rank == 1:
            raise ValueError("boom on rank 1")
        return comm.rank

    with pytest.raises(SpmdError) as exc_info:
        run_spmd(3, main)
    assert 1 in exc_info.value.failures
    assert "boom" in str(exc_info.value.failures[1])


def test_recv_timeout():
    def main(comm):
        if comm.rank == 0:
            with pytest.raises(TimeoutError):
                comm.recv(source=1, timeout=0.2)
        return None

    run_spmd(2, main)


def test_counters_track_messages():
    """Counters are per address space: one job-wide set on threads, one
    per rank process on procs.  After the barrier each rank's snapshot
    holds every count of its address space, so the sum over address
    spaces is exact on either backend."""
    def main(comm):
        if comm.rank == 0:
            comm.send(np.zeros(128, dtype=np.float64), dest=1)
        else:
            comm.recv(source=0)
        comm.barrier()
        return os.getpid(), comm.counters.snapshot()

    spaces = dict(run_spmd(2, main))      # one snapshot per address space

    def total(key):
        return sum(snap.get(key, 0) for snap in spaces.values())

    assert total("msgs") == 1
    assert total("internal_msgs") == 2    # the barrier: up, then down
    assert total("bytes") == 128 * 8 + 2 * 8
    assert total("barriers") == 2         # one per rank
