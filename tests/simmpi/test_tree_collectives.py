"""Binomial-tree collectives: exact values and exact message totals.

The trees change the *shape* of the communication (an O(log P)
critical path instead of a root-serialized loop), not its totals: a
rooted collective moves exactly P-1 internal messages and a barrier
2(P-1), the figures of a root-serialized loop.  Each case asserts the
values and those totals, at sizes whose trees have several levels.
"""

import numpy as np
import pytest

from repro.simmpi import NameService, run_coupled, run_spmd


def _run(n, body):
    """Run ``body(comm)`` on ``n`` ranks; returns (per-rank results,
    the job's ``internal_msgs``)."""
    def main(comm):
        # counters are shared per job; read them after all threads join
        return body(comm), comm.counters

    results = run_spmd(n, main)
    return [r[0] for r in results], results[0][1].get("internal_msgs")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_bcast_tree_equals_flat(n):
    data = {"v": list(range(10)), "r": "root"}

    def body(comm):
        return comm.bcast(data if comm.rank == 1 else None, root=1)

    vals, msgs = _run(n, body)
    assert vals == [data] * n
    assert msgs == n - 1


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_gather_tree_equals_flat(n):
    def body(comm):
        return comm.gather(np.full(comm.rank + 1, comm.rank), root=0)

    vals, msgs = _run(n, body)
    assert msgs == n - 1
    assert vals[1:] == [None] * (n - 1)
    assert len(vals[0]) == n
    for r, part in enumerate(vals[0]):
        np.testing.assert_array_equal(part, np.full(r + 1, r))


@pytest.mark.parametrize("n", [2, 3, 6])
def test_allgather_and_reductions(n):
    def body(comm):
        return (comm.allgather(comm.rank * 3),
                comm.allreduce(comm.rank + 1, op="sum"))

    vals, msgs = _run(n, body)
    assert vals == [([3 * r for r in range(n)], n * (n + 1) // 2)] * n
    # each is a gather and a bcast: 2(n-1) messages apiece
    assert msgs == 4 * (n - 1)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_barrier_message_accounting(n):
    def main(comm):
        for _ in range(3):
            comm.barrier()
        return comm.counters

    counters = run_spmd(n, main)[0]
    assert counters.get("barriers") == 3 * n
    if n > 1:
        # 2(n-1) internal messages per barrier: a reduce-to-0 tree,
        # then the bcast tree.
        assert counters.get("internal_msgs") == 3 * 2 * (n - 1)


def test_bcast_isolation_under_tree():
    """Multi-hop forwarding must still hand every rank its own copy."""
    def main(comm):
        data = [1, 2] if comm.rank == 0 else None
        got = comm.bcast(data, root=0)
        got.append(comm.rank)
        return got

    assert run_spmd(5, main) == [[1, 2, r] for r in range(5)]


def test_raw_handles_survive_multi_hop_bcast():
    """NameService handshakes bcast process-local (unpicklable) handles;
    the tree must forward them zero-copy through intermediate ranks."""
    ns = NameService()

    def a(comm):
        inter = ns.accept("tree-raw", comm)
        if comm.rank == 0:
            inter.send(("hello", comm.rank), dest=0)
        return inter.remote_size

    def b(comm):
        inter = ns.connect("tree-raw", comm)
        if comm.rank == 0:
            assert inter.recv(source=0) == ("hello", 0)
        return inter.remote_size

    # 5 and 6 ranks force multi-level trees on both sides of the bridge.
    out = run_coupled([("a", 5, a, ()), ("b", 6, b, ())])
    assert out["a"] == [6] * 5 and out["b"] == [5] * 6


def test_nonzero_root_tree_gather_order():
    def main(comm):
        return comm.gather(comm.rank ** 2, root=2)

    results = run_spmd(6, main)
    assert results[2] == [r ** 2 for r in range(6)]
    assert all(results[i] is None for i in range(6) if i != 2)


def test_split_and_subcomm_still_work_at_depth():
    """split/create_subcomm ride on bcast/allgather; exercise them at
    sizes that need multi-hop trees."""
    def main(comm):
        sub = comm.split(comm.rank % 2, key=-comm.rank)
        val = sub.allreduce(comm.rank, op="sum")
        tail = comm.create_subcomm(range(1, comm.size))
        return val, tail.bcast(comm.rank, root=0) if tail else None

    results = run_spmd(7, main)
    evens = sum(r for r in range(7) if r % 2 == 0)
    odds = sum(r for r in range(7) if r % 2 == 1)
    for rank, (val, b) in enumerate(results):
        assert val == (evens if rank % 2 == 0 else odds)
        assert b == (1 if rank else None)
