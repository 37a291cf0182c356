"""REPRO_VERIFY runtime hook: verifies once per (schedule, side, rank),
costs nothing when disabled, and surfaces plan corruption at the
executor boundary."""

import numpy as np
import pytest

from repro.dad import Block, CartesianTemplate, DistArrayDescriptor
from repro.dad.darray import DistributedArray
from repro.errors import VerificationError
from repro.schedule.builder import build_region_schedule
from repro.schedule.executor import execute_intra
from repro.schedule.indexplan import PairPlan, RankPlan
from repro.simmpi import run_spmd
from repro.verify import hook


@pytest.fixture(autouse=True)
def reset_hook():
    hook.VERIFY_STATS.reset()
    was = hook.verify_enabled()
    yield
    hook.set_verify(was)
    hook.VERIFY_STATS.reset()


def _pair():
    src = DistArrayDescriptor(CartesianTemplate([Block(24, 3)]))
    dst = DistArrayDescriptor(CartesianTemplate([Block(24, 4)]))
    return src, dst


def _run_transfer(schedule, src, dst, nranks):
    def body(comm):
        a = DistributedArray.from_global(
            src, comm.rank, np.arange(24, dtype=np.float64)) \
            if comm.rank < src.nranks else None
        b = DistributedArray.allocate(dst, comm.rank) \
            if comm.rank < dst.nranks else None
        execute_intra(schedule, comm,
                      src_array=a, dst_array=b,
                      src_ranks=list(range(src.nranks)),
                      dst_ranks=list(range(dst.nranks)))
    run_spmd(nranks, body)


def test_disabled_hook_does_no_work():
    hook.set_verify(False)
    src, dst = _pair()
    sched = build_region_schedule(src, dst)
    _run_transfer(sched, src, dst, 4)
    assert hook.VERIFY_STATS.snapshot() == {}
    assert not hasattr(sched, "_verified_sides")


def test_enabled_hook_verifies_each_side_once():
    hook.set_verify(True)
    src, dst = _pair()
    sched = build_region_schedule(src, dst)
    _run_transfer(sched, src, dst, 4)
    first = hook.VERIFY_STATS.snapshot()
    # 3 send ranks + 4 recv ranks proved exactly once.
    assert first["rank_checks"] == src.nranks + dst.nranks
    _run_transfer(sched, src, dst, 4)
    second = hook.VERIFY_STATS.snapshot()
    assert second["rank_checks"] == first["rank_checks"]
    assert second["cache_hits"] > 0


def test_enabled_hook_rejects_corrupted_plan():
    hook.set_verify(True)
    src, dst = _pair()
    sched = build_region_schedule(src, dst)
    plan = sched.send_plan(0, src.local_regions(0))
    pp = plan.pairs[0]
    (box,) = pp.boxes
    sched._plans[("send", 0)] = RankPlan(
        (PairPlan(pp.peer, pp.size, (box._replace(lo=box.lo + 1),)),)
        + plan.pairs[1:])
    from repro.errors import SpmdError
    with pytest.raises(SpmdError) as exc:
        _run_transfer(sched, src, dst, 4)
    assert any(isinstance(e, VerificationError)
               for e in exc.value.failures.values())


def test_env_var_controls_default(monkeypatch):
    import importlib

    monkeypatch.setenv("REPRO_VERIFY", "1")
    importlib.reload(hook)
    try:
        assert hook.verify_enabled()
        monkeypatch.setenv("REPRO_VERIFY", "0")
        importlib.reload(hook)
        assert not hook.verify_enabled()
    finally:
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        importlib.reload(hook)
