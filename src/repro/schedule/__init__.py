"""Communication schedules (paper §2.3).

"A communication schedule for distributed arrays specifies the
destination process of each of the data elements in the source array and
their locations in the destination processes.  This schedule is computed
prior to the transfer operation, and can be reused in consecutive
transfers, and even for different arrays as long as they conform to the
same distribution template."

Two builders, one schedule type (:class:`CommSchedule`):

* :func:`build_region_schedule` computes it from DAD pairs — the
  CUMULVS/PAWS/InterComm approach, with a closed-form fast path for
  structured Cartesian templates, and
* :func:`build_linear_schedule` from linearization pairs — the
  Meta-Chaos approach, which also couples non-array structures; its
  regions are the ``ndim = 1`` runs of the shared linear space.

Both compile to the same plans — a whole side at once, against the
side's ownership table of patches or of a linearization's layouts — and
move bytes the same way.

Schedules are plain data with one lifecycle — **cache → bind → step →
close**: ``GLOBAL_CACHE.get(src, dst)`` is where every subsystem obtains
a region schedule (built and compiled once per template pair), and
:func:`bind` ties one side of it to an array, a link (intra- or
inter-communicator) and an execution tier; ``step()`` replays it —
buffered point-to-point sends by default, so "actual transfers can be
carried out fully in parallel" — and ``close()`` releases what the tier
holds.  :func:`execute_inter` / :func:`execute_intra` are that lifecycle
for a single step.
"""

from repro.schedule.plan import CommSchedule, TransferItem
from repro.schedule.indexplan import (
    PLAN_STATS,
    Box,
    LocalIndexer,
    PairPlan,
    RankPlan,
)
from repro.schedule.builder import (
    GLOBAL_CACHE,
    ScheduleCache,
    build_linear_schedule,
    build_region_schedule,
    build_structured_schedule,
    build_sweep_schedule,
)
from repro.schedule.bufpool import BufferPool
from repro.schedule.delta import (
    DeltaSchedule,
    compile_delta,
)
from repro.schedule.executor import (
    BoundTransfer,
    Tier,
    bind,
    execute_inter,
    execute_intra,
    resolve_tier,
)
from repro.schedule.packing import (
    pack_regions,
    region_offsets,
    unpack_regions,
)

__all__ = [
    "CommSchedule",
    "TransferItem",
    "ScheduleCache",
    "GLOBAL_CACHE",
    "DeltaSchedule",
    "compile_delta",
    "build_region_schedule",
    "build_structured_schedule",
    "build_sweep_schedule",
    "build_linear_schedule",
    "execute_intra",
    "execute_inter",
    "bind",
    "BoundTransfer",
    "Tier",
    "resolve_tier",
    "BufferPool",
    "pack_regions",
    "unpack_regions",
    "region_offsets",
    "PLAN_STATS",
    "Box",
    "LocalIndexer",
    "PairPlan",
    "RankPlan",
]
