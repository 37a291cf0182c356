"""Tier resolution: every request's resolved tier and eager limit on
both backends, and the tier staying out of the schedule cache key."""

import numpy as np
import pytest

from repro.dad import (
    Block,
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.schedule import GLOBAL_CACHE, PLAN_STATS
from repro.schedule.executor import EAGER_MAX, Tier, resolve_tier
from repro.simmpi import run_spmd


def _cart(*axes):
    return DistArrayDescriptor(CartesianTemplate(list(axes)))


# -- tier resolution -----------------------------------------------------------


_T = Tier("two_sided", EAGER_MAX)

#: ``tier`` request -> resolved tier for (a persistent transfer, a
#: one-shot).  Neither reads the backend: both put the pairs above the
#: limit into the receiver's own storage.
TIER_TABLE = {
    "two_sided": (_T, _T),
    "rma": (Tier("rma", 0), _T),
}


def _resolve_every_request(comm):
    return {(request, one_shot): resolve_tier(tier=request,
                                              one_shot=one_shot)
            for request in TIER_TABLE for one_shot in (False, True)}


@pytest.mark.parametrize("backend", ["threads", "procs"],
                         ids=["backend-threads", "backend-procs"])
def test_resolve_tier_table(monkeypatch, backend):
    monkeypatch.delenv("REPRO_TIER", raising=False)
    (got,) = run_spmd(1, _resolve_every_request, backend=backend)
    for (request, one_shot), tier in got.items():
        assert tier == TIER_TABLE[request][one_shot], (request, one_shot)
    assert len(got) == len(TIER_TABLE) * 2


# -- schedule-cache keying ------------------------------------------------------


def _coupler_round_trip(tier):
    from repro.highlevel import Coupler
    from repro.simmpi import NameService, run_coupled

    src_desc, dst_desc = _cart(Cyclic(480, 3)), _cart(Block(480, 4))
    g = np.arange(480.0)
    ns = NameService()

    def producer(comm):
        coupler = Coupler("field", ns)
        darray = DistributedArray.from_global(src_desc, comm.rank, g)
        ch = coupler.open(comm, "source", darray, tier=tier)
        for _ in range(2):
            ch.push()
        return ch.transfers

    def consumer(comm):
        coupler = Coupler("field", ns)
        ch = coupler.open(comm, "destination", dst_desc, tier=tier)
        for _ in range(2):
            out = ch.pull()
        return out

    out = run_coupled([("p", 3, producer, ()), ("c", 4, consumer, ())])
    assert out["p"] == [2, 2, 2]
    np.testing.assert_array_equal(
        DistributedArray.assemble(out["c"]), g)


def test_one_template_pair_is_one_cache_entry_under_both_tiers():
    """§2.3 reuse: the tier is not part of the cache key, so opening
    the same template pair under ``two_sided`` then ``rma`` builds one
    schedule and compiles its rank plans once."""
    GLOBAL_CACHE.clear()
    _coupler_round_trip("two_sided")
    first, plans = GLOBAL_CACHE.stats(), PLAN_STATS.get("rank_plans")
    assert (first["entries"], first["misses"], first["hits"]) == (1, 1, 6)
    assert plans == 7  # one per (side, rank)
    _coupler_round_trip("rma")
    second = GLOBAL_CACHE.stats()
    assert (second["entries"], second["misses"], second["hits"]) == (1, 1, 13)
    assert PLAN_STATS.get("rank_plans") == plans
