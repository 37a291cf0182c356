"""Schedule verifier: proofs pass on correct schedules, and every
property violation is detected on deliberately corrupted ones."""

import numpy as np
import pytest

from repro.dad import (
    Block,
    BlockCyclic,
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    ExplicitTemplate,
    GeneralizedBlock,
)
from repro.dad.template import block_template
from repro.errors import VerificationError
from repro.linearize import DenseLinearization
from repro.schedule.builder import (
    build_linear_schedule,
    build_region_schedule,
)
from repro.schedule.indexplan import Box, PairPlan, RankPlan
from repro.schedule.plan import CommSchedule, TransferItem
from repro.util.regions import Region
from repro.verify.schedule import (
    verify_against_oracle,
    verify_linear_schedule,
    verify_rank_plans,
    verify_schedule,
)


def cart(*axes):
    return DistArrayDescriptor(CartesianTemplate(list(axes)))


PAIRS = {
    "block": (cart(Block(40, 4)), cart(Block(40, 5))),
    "cyclic": (cart(Cyclic(36, 3)), cart(Block(36, 4))),
    "block-cyclic": (
        cart(BlockCyclic(48, 4, 4)), cart(Cyclic(48, 3))),
    "generalized-block": (
        cart(GeneralizedBlock(30, [4, 16, 10])), cart(Block(30, 3))),
    "explicit": (
        DistArrayDescriptor(ExplicitTemplate((6, 8), [
            (0, Region((0, 0), (4, 5))),
            (1, Region((0, 5), (4, 8))),
            (2, Region((4, 0), (6, 8))),
        ])),
        DistArrayDescriptor(block_template((6, 8), (2, 2)))),
}


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_every_builder_kind_proves_against_oracle(kind):
    src, dst = PAIRS[kind]
    sched = build_region_schedule(src, dst)
    proof = verify_against_oracle(sched, src, dst)
    assert proof.elements == np.prod(src.shape)
    assert any("oracle" in c for c in proof.checks)
    assert any("completeness" in c for c in proof.checks)


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_sweep_builder_proves_too(kind):
    src, dst = PAIRS[kind]
    sched = build_region_schedule(src, dst, force_general=True)
    verify_against_oracle(sched, src, dst)


def _block_pair():
    return cart(Block(24, 3)), cart(Block(24, 4))


def test_dropped_item_fails_completeness():
    src, dst = _block_pair()
    good = build_region_schedule(src, dst)
    broken = CommSchedule(good.items[:-1], good.src_nranks, good.dst_nranks,
                          good.owners)
    with pytest.raises(VerificationError, match="completeness"):
        verify_schedule(broken, src, dst)


def test_duplicated_item_fails_disjointness():
    src, dst = _block_pair()
    good = build_region_schedule(src, dst)
    broken = CommSchedule(good.items + [good.items[0]],
                          good.src_nranks, good.dst_nranks, good.owners)
    with pytest.raises(VerificationError, match="disjointness"):
        verify_schedule(broken, src, dst)


def test_misrouted_item_fails_ownership():
    src, dst = _block_pair()
    good = build_region_schedule(src, dst)
    it = good.items[0]
    rerouted = [TransferItem((it.src + 1) % good.src_nranks, it.dst,
                             it.region)] + good.items[1:]
    with pytest.raises(VerificationError, match="ownership"):
        verify_schedule(CommSchedule(rerouted, good.src_nranks,
                                     good.dst_nranks, good.owners), src, dst)


def test_all_failures_reported_together():
    src, dst = _block_pair()
    good = build_region_schedule(src, dst)
    it = good.items[0]
    broken = CommSchedule(
        [TransferItem((it.src + 1) % good.src_nranks, it.dst, it.region),
         it] + good.items[1:],
        good.src_nranks, good.dst_nranks, good.owners)
    with pytest.raises(VerificationError) as exc:
        verify_schedule(broken, src, dst)
    text = str(exc.value)
    assert "ownership" in text and "disjointness" in text


def test_tampered_fast_path_plan_is_caught():
    """A plan whose box claim points at the wrong offset must fail the
    plan-consistency proof even though coverage stays intact."""
    src, dst = _block_pair()
    sched = build_region_schedule(src, dst)
    plan = sched.send_plan(0, src.local_regions(0))
    pp = plan.pairs[0]
    assert pp.contiguous
    (box,) = pp.boxes
    sched._plans[("send", 0)] = RankPlan(
        (PairPlan(pp.peer, pp.size, (box._replace(lo=box.lo + 1),)),)
        + plan.pairs[1:])
    with pytest.raises(VerificationError, match="box plan selects"):
        verify_rank_plans(sched, "send", 0, src.local_regions(0))
    with pytest.raises(VerificationError):
        verify_schedule(sched, src, dst)


#: Must-fail mutants of the (3, 4)/(12, 1) box of block-cyclic 4, 2→3
#: over 72 elements — each keeps the element count, so only the
#: element-for-element expansion can tell.
BOX_MUTANTS = {
    "lo+1": Box(1, (3, 4), (12, 1)),
    "run_len-1": Box(0, (4, 3), (12, 1)),
    "outer-stride": Box(0, (3, 4), (8, 1)),
    "axes-swapped": Box(0, (4, 3), (1, 12)),
}


@pytest.mark.parametrize("mutant", sorted(BOX_MUTANTS))
def test_box_mutants_are_rejected(mutant):
    from repro.dad.darray import DistributedArray
    from repro.schedule import bind
    from repro.simmpi.intercomm import couple_jobs
    from repro.simmpi.runner import Job
    from repro.verify import hook

    src, dst = cart(BlockCyclic(72, 2, 4)), cart(BlockCyclic(72, 3, 4))
    sched = build_region_schedule(src, dst)
    plan = sched.send_plan(0, src.local_regions(0))
    pp = plan.pairs[0]
    assert pp.boxes == (Box(0, (3, 4), (12, 1)),)
    proof = verify_schedule(sched, src, dst)
    assert proof.fastpath_pairs == proof.pairs == 12
    sched._plans[("send", 0)] = RankPlan(
        (PairPlan(pp.peer, pp.size, (BOX_MUTANTS[mutant],)),)
        + plan.pairs[1:])
    with pytest.raises(VerificationError, match="box plan selects"):
        verify_rank_plans(sched, "send", 0, src.local_regions(0))
    # ... and by REPRO_VERIFY=1 at bind, before a byte moves
    src_inters, _ = couple_jobs(Job(2), Job(3))
    array = DistributedArray.from_global(src, 0, np.arange(72.0))
    was = hook.verify_enabled()
    hook.set_verify(True)
    try:
        with pytest.raises(VerificationError):
            bind(sched, "src", src_inters[0], array)
    finally:
        hook.set_verify(was)
        hook.VERIFY_STATS.reset()


def test_shape_mismatch_rejected():
    src = cart(Block(24, 3))
    dst = cart(Block(25, 3))
    sched = build_region_schedule(src, src)
    with pytest.raises(VerificationError, match="shapes differ"):
        verify_schedule(sched, src, dst)


def test_linear_schedule_proof_and_corruption():
    src, dst = cart(Block(30, 3)), cart(Cyclic(30, 2))
    src_lin, dst_lin = DenseLinearization(src), DenseLinearization(dst)
    sched = build_linear_schedule(src_lin, dst_lin)
    proof = verify_linear_schedule(sched, src_lin, dst_lin)
    assert proof.elements == 30
    broken = type(sched)(sched.items[:-1], sched.src_nranks,
                         sched.dst_nranks, sched.owners)
    with pytest.raises(VerificationError, match="completeness"):
        verify_linear_schedule(broken, src_lin, dst_lin)


def test_verification_error_pickles_with_failures():
    import pickle

    err = VerificationError("bad schedule", ["completeness: 3 missing"])
    back = pickle.loads(pickle.dumps(err))
    assert back.failures == err.failures
    assert "bad schedule" in str(back)
