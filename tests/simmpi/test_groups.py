"""Communicator construction: split and subcommunicators."""


from repro.simmpi import run_spmd


def test_split_even_odd():
    def main(comm):
        sub = comm.split(color=comm.rank % 2)
        # even ranks: 0,2,4 -> subranks 0,1,2 ; odd: 1,3 -> 0,1
        total = sub.allreduce(comm.rank, op="sum")
        return (sub.rank, sub.size, total)

    results = run_spmd(5, main)
    assert results[0] == (0, 3, 6)   # evens: 0+2+4
    assert results[2] == (1, 3, 6)
    assert results[1] == (0, 2, 4)   # odds: 1+3
    assert results[3] == (1, 2, 4)


def test_split_key_reorders():
    def main(comm):
        # reverse rank order inside one color
        sub = comm.split(color=0, key=-comm.rank)
        return sub.rank

    assert run_spmd(3, main) == [2, 1, 0]


def test_split_nonparticipant_gets_none():
    def main(comm):
        sub = comm.split(color=0 if comm.rank < 2 else -1)
        return None if sub is None else sub.size

    assert run_spmd(4, main) == [2, 2, None, None]


def test_create_subcomm():
    def main(comm):
        sub = comm.create_subcomm([1, 3])
        if comm.rank in (1, 3):
            assert sub is not None
            return sub.allgather(comm.rank)
        assert sub is None
        return None

    results = run_spmd(4, main)
    assert results[1] == [1, 3]
    assert results[3] == [1, 3]
    assert results[0] is None


def test_nested_split():
    def main(comm):
        half = comm.split(color=comm.rank // 2)
        quarter = half.split(color=half.rank % 2)
        return quarter.size

    assert run_spmd(4, main) == [1, 1, 1, 1]


def test_split_subcomm_isolation():
    """Collectives on sibling subcommunicators must not interfere."""
    def main(comm):
        sub = comm.split(color=comm.rank % 2)
        # different collective sequences on each color simultaneously
        for _ in range(5):
            sub.barrier()
        return sub.allreduce(1, op="sum")

    results = run_spmd(6, main)
    assert results == [3, 3, 3, 3, 3, 3]
