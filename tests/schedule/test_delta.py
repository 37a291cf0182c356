"""Delta-schedule compiler unit tests: partition/minimality of the
diff, plans compiled from each schedule's own sides, and the bounded LRU
schedule cache."""

import numpy as np
import pytest

from repro.dad import (
    BlockCyclic,
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    GeneralizedBlock,
)
from repro.dad.template import block_template
from repro.errors import ScheduleError, VerificationError
from repro.schedule import (
    ScheduleCache,
    build_region_schedule,
    compile_delta,
)
from repro.schedule import builder
from repro.schedule.delta import DeltaSchedule
from repro.schedule.indexplan import PLAN_STATS
from repro.verify.schedule import verify_delta_equivalence


def _gb(sizes):
    return DistArrayDescriptor(
        CartesianTemplate([GeneralizedBlock(sum(sizes), list(sizes))]))


B8 = DistArrayDescriptor(block_template((64,), (8,)))
B10 = DistArrayDescriptor(block_template((64,), (10,)))
GB8 = _gb([10] * 8)
GB10 = _gb([10] * 7 + [4, 3, 3])


# -- the diff ---------------------------------------------------------------


def test_delta_partitions_the_full_schedule():
    full = build_region_schedule(B8, B10)
    delta = compile_delta(B8, B10, full=full)
    assert all(it.src != it.dst for it in delta.migration.items)
    assert all(it.src == it.dst for it in delta.kept.items)
    assert (set(delta.migration.items) | set(delta.kept.items)
            == set(full.items))
    assert delta.moved_elements + delta.kept_elements == 64
    assert delta.migrated_bytes() < full.nbytes(np.float64)


def test_delta_moves_exactly_the_changed_owner_elements():
    old = DistArrayDescriptor(CartesianTemplate([Cyclic(40, 8)]))
    new = DistArrayDescriptor(CartesianTemplate([Cyclic(40, 10)]))
    delta = compile_delta(old, new)
    # k keeps its owner iff k mod 8 == k mod 10, i.e. k mod 40 < 8.
    assert delta.kept_elements == 8
    assert delta.moved_elements == 32


def test_identity_ranks_detected_on_tail_split():
    delta = compile_delta(GB8, GB10)
    assert delta.identity_ranks == frozenset(range(7))
    assert delta.local_plan(0) is None  # identity: no repack at all
    touched = {it.src for it in delta.migration.items} | \
              {it.dst for it in delta.migration.items}
    assert touched.isdisjoint(delta.identity_ranks)


def test_degenerate_resize_moves_nothing():
    delta = compile_delta(B8, DistArrayDescriptor(
        block_template((64,), (8,))))
    assert delta.moved_elements == 0
    assert delta.identity_ranks == frozenset(range(8))


def test_local_repack_round_trips():
    old = DistArrayDescriptor(block_template((64,), (8,)))
    new = DistArrayDescriptor(CartesianTemplate([Cyclic(64, 8)]))
    delta = compile_delta(old, new)
    g = np.arange(64, dtype=np.float64)
    for rank in range(8):
        old_flat = np.concatenate(
            [g[r.to_slices()].reshape(-1) for r in old.local_regions(rank)])
        new_flat = np.full(new.local_volume(rank), -1.0)
        delta.apply_local(rank, old_flat, new_flat)
        # every kept element landed at its new-layout position.
        regions = [reg for _, reg in delta.kept.recvs_at(rank)]
        expect = np.full(new.local_volume(rank), -1.0)
        from repro.schedule.indexplan import LocalIndexer
        ix = LocalIndexer(list(new.local_regions(rank)))
        for r in regions:
            expect[ix.region_indices(r)] = g[r.to_slices()].reshape(-1)
        np.testing.assert_array_equal(new_flat, expect)


def test_local_repack_of_boxes_allocates_nothing():
    """Block-cyclic 2→3 ranks with a ragged last block: every repack
    plan is boxes, and a single-box gather side is copied box → box out
    of the old buffer — no gathered staging buffer."""
    from repro.dad import BlockCyclic
    from repro.util.counters import TRANSPORT_STATS
    extent = 64 * 37 + 17
    old, new = (DistArrayDescriptor(CartesianTemplate(
        [BlockCyclic(extent, p, 64)])) for p in (2, 3))
    delta = compile_delta(old, new)
    g = np.arange(extent, dtype=np.float64)
    lent = 0
    for rank in range(2):
        gather, scatter = delta.local_plan(rank)
        assert gather.idx is None and scatter.idx is None
        old_flat = np.concatenate(
            [g[r.to_slices()].reshape(-1) for r in old.local_regions(rank)])
        new_flat = np.full(new.local_volume(rank), -1.0)
        before = TRANSPORT_STATS.get("alloc_bytes")
        assert delta.apply_local(rank, old_flat, new_flat) == gather.size
        if len(gather.boxes) == 1:
            lent += 1
            assert TRANSPORT_STATS.get("alloc_bytes") == before
        np.testing.assert_array_equal(new_flat[scatter.indices()],
                                      old_flat[gather.indices()])
    assert lent


def test_delta_rejects_shape_and_dtype_mismatch():
    with pytest.raises(ScheduleError):
        compile_delta(B8, DistArrayDescriptor(block_template((32,), (8,))))
    with pytest.raises(ScheduleError):
        compile_delta(B8, DistArrayDescriptor(
            block_template((64,), (8,)), np.float32))


def test_delta_memoized_on_cached_schedule():
    cache = ScheduleCache()
    d1 = compile_delta(B8, B10, cache=cache)
    d2 = compile_delta(B8, B10, cache=cache)
    assert d1 is d2
    assert cache.hits == 1 and cache.misses == 1


# -- the equivalence proof --------------------------------------------------


def test_verify_delta_equivalence_passes():
    proof = verify_delta_equivalence(GB8, GB10)
    assert any("minimality" in c for c in proof.checks)
    assert any("partition" in c for c in proof.checks)


def test_verify_delta_equivalence_catches_tampering():
    full = build_region_schedule(B8, B10)
    delta = compile_delta(B8, B10, full=full)
    # Misclassify: pretend a genuinely-moved item can stay home.
    bad = DeltaSchedule(
        B8, B10,
        type(full)(list(delta.migration.items[1:]),
                   full.src_nranks, full.dst_nranks, full.owners),
        type(full)(delta.kept.items + [delta.migration.items[0]],
                   full.src_nranks, full.dst_nranks, full.owners))
    with pytest.raises(VerificationError) as exc:
        verify_delta_equivalence(B8, B10, delta=bad)
    assert "minimality" in str(exc.value)


# -- plans come from their own schedule -------------------------------------


def _compiled_sides(sched, src, dst):
    """Every rank's (send, recv) plans of ``sched``."""
    return ([sched.send_plan(r, src.local_regions(r))
             for r in range(src.nranks)],
            [sched.recv_plan(r, dst.local_regions(r))
             for r in range(dst.nranks)])


def _same_plan(a, b):
    assert len(a.pairs) == len(b.pairs)
    for x, y in zip(a.pairs, b.pairs):
        assert (x.peer, x.size, x.boxes) == (y.peer, y.size, y.boxes)
        assert (x.idx is None) == (y.idx is None)
        if x.idx is not None:
            np.testing.assert_array_equal(x.idx, y.idx)


def test_first_resize_back_compiles_each_side_once():
    """A→B then the first B→A through one cache: the resize back's
    migration plans cost exactly one side compile per side and equal a
    cold build's, and the local repack is the kept schedule's own
    cached plan."""
    a = DistArrayDescriptor(CartesianTemplate([Cyclic(80, 8)]))
    b = DistArrayDescriptor(CartesianTemplate([Cyclic(80, 10)]))
    cache = ScheduleCache()
    _compiled_sides(compile_delta(a, b, cache=cache).migration, a, b)
    back = compile_delta(b, a, cache=cache)
    before = PLAN_STATS.get("rank_plans")
    sends, recvs = _compiled_sides(back.migration, b, a)
    assert PLAN_STATS.get("rank_plans") - before == b.nranks + a.nranks
    cold = compile_delta(b, a, full=build_region_schedule(b, a)).migration
    cold_sends, cold_recvs = _compiled_sides(cold, b, a)
    for got, want in zip(sends + recvs, cold_sends + cold_recvs):
        _same_plan(got, want)
    kept_ranks = 0
    for r in range(a.nranks):
        plans = back.local_plan(r)
        if plans is None:
            continue
        kept_ranks += 1
        gather, scatter = plans
        assert gather is back.kept.send_plan(r, b.local_regions(r)).pairs[0]
        assert scatter is back.kept.recv_plan(r, a.local_regions(r)).pairs[0]
        assert gather.peer == scatter.peer == r
    assert kept_ranks == a.nranks


# -- the bounded cache ------------------------------------------------------


def test_cache_lru_eviction_and_counters(monkeypatch):
    monkeypatch.setattr(builder, "SCHEDULE_CACHE_MAX", 2)
    cache = ScheduleCache()
    cache.get(B8, B10)
    cache.get(GB8, GB10)
    cache.get(B8, B10)  # refresh recency
    cache.get(B10, B8)  # evicts (GB8, GB10), the least recently used
    assert cache.stats() == {"hits": 1, "misses": 3,
                             "evictions": 1, "entries": 2}
    cache.get(B8, B10)
    assert cache.hits == 2
    cache.get(GB8, GB10)
    assert cache.misses == 4  # was evicted, so a miss again
    cache.clear()
    assert cache.stats() == {"hits": 0, "misses": 0,
                             "evictions": 0, "entries": 0}


def test_cache_bound_is_read_per_insert(monkeypatch):
    """The LRU bound is :data:`~repro.schedule.builder.SCHEDULE_CACHE_MAX`
    (no knob sets it), read on every insert."""
    assert builder.SCHEDULE_CACHE_MAX == 512
    monkeypatch.setattr(builder, "SCHEDULE_CACHE_MAX", 1)
    cache = ScheduleCache()
    cache.get(B8, B10)
    cache.get(GB8, GB10)
    assert len(cache) == 1 and cache.evictions == 1
    monkeypatch.setattr(builder, "SCHEDULE_CACHE_MAX", 3)
    cache.get(B8, B10)
    cache.get(B10, B8)
    assert len(cache) == 3 and cache.evictions == 1
