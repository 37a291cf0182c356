"""M×N connections: one-shot and persistent-periodic transfers.

"For a given M×N transfer operation, each independent pairwise
communication for the overall transfer is initiated when a single
instance of the parallel source cohort (1 of M) invokes the
``dataReady()`` method ...  A matching ``dataReady()`` call at the
corresponding destination cohort process (1 of N) completes the given
pairwise communication.  ...  By breaking down the overall M×N transfer
into these independent asynchronous point-to-point transfers, no
additional synchronization barriers are required on either side."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConnectionError_
from repro.dad.darray import DistributedArray
from repro.dad.descriptor import DistArrayDescriptor
from repro.schedule.bufpool import BufferPool
from repro.schedule.builder import build_region_schedule
from repro.schedule.executor import execute_inter
from repro.simmpi.intercomm import Intercommunicator

#: Tag space for M×N connection data (distinct per connection id).
MXN_DATA_TAG_BASE = 6000
_TAG_SPACE = 512


class ConnectionKind(enum.Enum):
    """Transfer recurrence — the PAWS vs. CUMULVS axis of the unified
    interface."""

    #: PAWS-style: "the data only need be transfered once".
    ONE_SHOT = "one_shot"
    #: CUMULVS-style: "persistent periodic transfers that recur
    #: automatically", every ``period`` dataReady cycles.
    PERSISTENT = "persistent"


@dataclass(frozen=True)
class ConnectionSpec:
    """Everything needed to build a connection — plain data, so a third
    party can construct it from the two registered descriptors alone."""

    src_desc: DistArrayDescriptor
    dst_desc: DistArrayDescriptor
    kind: ConnectionKind = ConnectionKind.ONE_SHOT
    period: int = 1
    connection_id: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConnectionError_(f"period must be >= 1, got {self.period}")
        if self.src_desc.shape != self.dst_desc.shape:
            raise ConnectionError_(
                f"field shapes differ: {self.src_desc.shape} vs "
                f"{self.dst_desc.shape}")


class MxNConnection:
    """One side's handle on an established M×N connection.

    The communication schedule is computed once at connection time and
    reused for every transfer (§2.3 reuse).  ``data_ready()`` is per
    cohort instance and per cycle; it never synchronizes beyond the
    point-to-point messages the schedule itself requires.
    """

    def __init__(self, spec: ConnectionSpec, inter: Intercommunicator,
                 role: str, darray: DistributedArray):
        if role not in ("source", "destination"):
            raise ConnectionError_(
                f"role must be 'source' or 'destination', got {role!r}")
        self.spec = spec
        self.inter = inter
        self.role = role
        self.darray = darray
        self.schedule = build_region_schedule(spec.src_desc, spec.dst_desc)
        self._tag = MXN_DATA_TAG_BASE + (spec.connection_id % _TAG_SPACE)
        self._cycle = 0
        self.transfers_completed = 0
        self._closed = False
        # A persistent connection holds one bound transfer
        # (repro.schedule.executor) across cycles: pooled pack buffers
        # on the source, recv-into-destination on the other side.
        self._transfer = None
        self.pool = (BufferPool()
                     if spec.kind is ConnectionKind.PERSISTENT else None)

    # -- the dataReady protocol -------------------------------------------

    def data_ready(self) -> bool:
        """Declare this instance's local data consistent for this cycle.

        On transfer cycles the source side posts its schedule sends and
        the destination side completes its schedule receives.  Returns
        True when a transfer happened on this cycle.
        """
        if self._closed:
            raise ConnectionError_("connection is closed")
        cycle = self._cycle
        self._cycle += 1
        if self.spec.kind is ConnectionKind.ONE_SHOT:
            if cycle > 0:
                raise ConnectionError_(
                    "one-shot connection already transferred; create a new "
                    "connection or use a persistent one")
            fire = True
        else:
            fire = cycle % self.spec.period == 0
        if not fire:
            return False
        if self.spec.kind is ConnectionKind.ONE_SHOT:
            execute_inter(self.schedule, self.inter,
                          "src" if self.role == "source" else "dst",
                          self.darray, tag=self._tag)
        else:
            if self._transfer is None:
                bind = (self.schedule.persistent_sender
                        if self.role == "source"
                        else self.schedule.persistent_receiver)
                self._transfer = bind(self.inter, self.darray,
                                      tag=self._tag, pool=self.pool)
            self._transfer.step()
        self.transfers_completed += 1
        return True

    def close(self) -> None:
        """Close the bound transfer (an RMA destination array is
        evacuated to private memory and its window retired);
        ``data_ready()`` raises afterwards.  Idempotent."""
        self._closed = True
        if self._transfer is not None:
            self._transfer.close()

    # -- metrics ------------------------------------------------------------

    @property
    def bytes_per_transfer(self) -> int:
        return self.schedule.nbytes(self.spec.src_desc.dtype)

    @property
    def pool_stats(self) -> dict | None:
        """Buffer-pool counters (persistent source side; None for
        one-shot connections)."""
        return self.pool.stats.snapshot() if self.pool is not None else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MxNConnection({self.role}, {self.spec.kind.value}, "
                f"period={self.spec.period}, "
                f"{self.schedule.message_count} msgs/transfer)")
