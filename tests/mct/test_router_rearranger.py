"""MCTWorld and Router tests over the simulated runtime."""

import numpy as np
import pytest

from repro.errors import MCTError
from repro.mct import AttrVect, GlobalSegMap, MCTWorld, Router
from repro.simmpi import run_spmd


def test_mct_world_registry():
    def main(comm):
        model = "atm" if comm.rank < 2 else "ocn"
        world = MCTWorld(comm, model)
        return (world.ranks_of("atm"),
                world.ranks_of("ocn"), world.model_comm.size,
                world.my_model_rank)

    results = run_spmd(5, main)
    for r, (atm, ocn, msize, _mrank) in enumerate(results):
        assert atm == [0, 1]
        assert ocn == [2, 3, 4]
        assert msize == (2 if r < 2 else 3)
    assert [r[3] for r in results] == [0, 1, 0, 1, 2]


def test_router_transfer_multi_field():
    gsize = 12

    def main(comm):
        model = "atm" if comm.rank < 2 else "ocn"
        world = MCTWorld(comm, model)
        src_gsmap = GlobalSegMap.block(gsize, 2)
        dst_gsmap = GlobalSegMap.cyclic(gsize, 3)
        router = Router(world, "atm", "ocn", src_gsmap, dst_gsmap)
        if model == "atm":
            pe = world.my_model_rank
            gidx = src_gsmap.global_indices(pe)
            av = AttrVect.from_arrays({
                "t": gidx.astype(float),
                "u": gidx.astype(float) * 10,
            })
            router.transfer(av_send=av)
            return None
        pe = world.my_model_rank
        av = AttrVect(["t", "u"], dst_gsmap.local_size(pe))
        router.transfer(av_recv=av)
        return (dst_gsmap.global_indices(pe), av)

    results = run_spmd(5, main)
    for out in results[2:]:
        gidx, av = out
        np.testing.assert_array_equal(av["t"], gidx.astype(float))
        np.testing.assert_array_equal(av["u"], gidx.astype(float) * 10)


def test_router_ships_one_block_per_pair():
    """Every (src, dst) rank pair exchanges one message: its runs
    coalesce into one block and its fields travel together — the
    message count is the pair count, not runs x fields."""
    gsize = 12

    def main(comm):
        model = "a" if comm.rank == 0 else "b"
        world = MCTWorld(comm, model)
        src = GlobalSegMap.block(gsize, 1)
        dst = GlobalSegMap.cyclic(gsize, 2)  # 6 runs to each dst rank
        router = Router(world, "a", "b", src, dst)
        if model == "a":
            before = comm.counters.snapshot().get("msgs", 0)
            av = AttrVect.from_arrays({
                "x": np.arange(gsize, dtype=float),
                "y": np.ones(gsize),
                "z": np.zeros(gsize)})
            router.transfer(av_send=av)
            return comm.counters.snapshot().get("msgs", 0) - before
        pe = world.my_model_rank
        av = AttrVect(["x", "y", "z"], dst.local_size(pe))
        router.transfer(av_recv=av)
        return dst.global_indices(pe), av

    out = run_spmd(3, main)
    assert out[0] == 2  # one source rank feeding two destination ranks
    for gidx, av in out[1:]:
        np.testing.assert_array_equal(av["x"], gidx.astype(float))
        np.testing.assert_array_equal(av["y"], np.ones(len(gidx)))
        np.testing.assert_array_equal(av["z"], np.zeros(len(gidx)))


def test_router_validates_sizes():
    def main(comm):
        model = "a" if comm.rank == 0 else "b"
        world = MCTWorld(comm, model)
        src = GlobalSegMap.block(8, 2)  # wrong: model 'a' has 1 rank
        dst = GlobalSegMap.block(8, 1)
        with pytest.raises(MCTError):
            Router(world, "a", "b", src, dst)
        return True

    assert all(run_spmd(2, main))

