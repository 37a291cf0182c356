"""One message per transfer region: the pre-coalescing wire protocol.

The paper's schedule executors move one message per schedule item.  The
engine (:mod:`repro.schedule.executor`) instead packs everything a
(src, dst) rank pair exchanges into one buffer, so its message count is
the pair count.  This baseline keeps the historical protocol — every
region its own message, copied through ``local_view`` — as the
reference the packing tests and experiment A5 compare against: same
bytes on the wire, ``schedule.message_count`` messages instead of
``schedule.pair_count``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError
from repro.dad.darray import DistributedArray
from repro.schedule.plan import CommSchedule
from repro.simmpi.communicator import Communicator

PER_REGION_TAG = 83


def redistribute_per_region(schedule: CommSchedule, comm: Communicator,
                            *, src_array: DistributedArray | None = None,
                            dst_array: DistributedArray | None = None,
                            src_ranks=None, dst_ranks=None) -> int:
    """Run ``schedule`` with one message per region.

    Same call shape as :func:`repro.schedule.execute_intra`.  Returns
    elements received at this rank.
    """
    src_ranks = list(src_ranks if src_ranks is not None
                     else range(schedule.src_nranks))
    dst_ranks = list(dst_ranks if dst_ranks is not None
                     else range(schedule.dst_nranks))
    me = comm.rank
    # Post all sends first (buffered -> nonblocking).
    if me in src_ranks:
        if src_array is None:
            raise ScheduleError(f"rank {me} is a source but has no src_array")
        for d, region in schedule.sends_from(src_ranks.index(me)):
            comm.send(src_array.local_view(region), dst_ranks[d],
                      PER_REGION_TAG)
    received = 0
    if me in dst_ranks:
        if dst_array is None:
            raise ScheduleError(
                f"rank {me} is a destination but has no dst_array")
        # recvs_at is ordered like each source's sends, so per-source
        # FIFO matching lines the regions up.
        for s, region in schedule.recvs_at(dst_ranks.index(me)):
            data = comm.recv(source=src_ranks[s], tag=PER_REGION_TAG)
            dst_array.local_view(region)[...] = np.asarray(data).reshape(
                region.shape)
            received += region.volume
    return received
