"""M×N connections: one-shot and persistent-periodic transfers.

"For a given M×N transfer operation, each independent pairwise
communication for the overall transfer is initiated when a single
instance of the parallel source cohort (1 of M) invokes the
``dataReady()`` method ...  A matching ``dataReady()`` call at the
corresponding destination cohort process (1 of N) completes the given
pairwise communication.  ...  By breaking down the overall M×N transfer
into these independent asynchronous point-to-point transfers, no
additional synchronization barriers are required on either side."

A connection fetches its schedule from the process-wide cache
(:data:`~repro.schedule.builder.GLOBAL_CACHE`) and binds it once, at
construction; connections sharing an intercommunicator are kept apart
by their ``connection_id``'s data tag.  :func:`handshake` is the one
descriptor-and-parameter exchange every coupling runs before that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro import config
from repro.errors import ConnectionError_
from repro.dad.darray import DistributedArray
from repro.dad.descriptor import DistArrayDescriptor
from repro.schedule.bufpool import BufferPool
from repro.schedule.builder import GLOBAL_CACHE
from repro.schedule.executor import bind
from repro.simmpi.intercomm import Intercommunicator

#: Tag space for M×N connection data (distinct per connection id).
MXN_DATA_TAG_BASE = 6000
_TAG_SPACE = 512

#: Knobs both jobs of a persistent coupling must resolve identically:
#: with the agreed schedule, dtype and transport they determine the
#: tier.
_AGREED = ("tier",)


def agreed_requests(tier: str | None = None) -> dict:
    """This job's :data:`_AGREED` requests, resolved and named for
    :func:`handshake`'s messages.  Only a persistent coupling sends
    them: a one-shot never takes RMA, so it runs ``two_sided`` whatever
    either job requests and its handshake agrees on nothing."""
    mine = {"tier": config.resolve("tier", tier)}
    return {f"{k} ({config.KNOBS[k].env})": mine[k] for k in _AGREED}


def handshake(inter: Intercommunicator, tag: int, descriptor, agreed: dict,
              *, what: str, error: str | None = None) -> Any:
    """Trade ``descriptor``, the ``agreed`` values (name -> value) and
    this rank's refusal ``error`` with the peer job; returns the peer's
    descriptor.  ``what`` names the coupling in every error message.

    Rank 0 of each job sends one message and broadcasts the peer's to
    its job, so every rank of *both* jobs sees both sides and raises
    :class:`~repro.errors.ConnectionError_` on its own error, the peer's
    or the first value that differs — before any transfer could stall
    on it, and without waiting for the deadlock watchdog.
    """
    comm = inter.local_comm
    if comm.rank == 0:
        inter.send((descriptor, agreed, error), dest=0, tag=tag)
        peer = inter.recv(source=0, tag=tag)
    else:
        peer = None
    peer_desc, theirs, peer_error = comm.bcast(peer, root=0)
    if error is not None:
        raise ConnectionError_(f"{what}: {error}")
    if peer_error is not None:
        raise ConnectionError_(f"{what}: the peer job refused — {peer_error}")
    # either side's names: a one-shot sends no tier, so a one-shot and
    # a persistent side refuse each other on both jobs
    for name in dict.fromkeys([*agreed, *theirs]):
        if agreed.get(name) != theirs.get(name):
            raise ConnectionError_(
                f"{what}: the jobs disagree on {name} — this job has "
                f"{agreed.get(name)!r}, its peer {theirs.get(name)!r}")
    return peer_desc


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

    The communication schedule is fetched once at connection time from
    the process-wide cache — two connections over one template pair
    share it and its compiled plans — and bound once
    (:func:`repro.schedule.executor.bind`); every transfer replays that
    one bound transfer (§2.3 reuse).  ``data_ready()`` is per cohort
    instance and per cycle; it never synchronizes beyond the
    point-to-point messages the schedule itself requires.

    The execution tier follows the ``tier`` knob
    (:func:`~repro.schedule.executor.resolve_tier`).  A one-shot
    connection is the same path, closed after its single transfer.  A
    persistent one holds its transfer across cycles — pooled pack
    buffers on the source, recv-into-destination on the other side —
    until :meth:`close`.  Its pairs above
    :data:`~repro.schedule.executor.EAGER_MAX` wire bytes are put
    straight into the destination's window even when two-sided (every
    pair is on the ``rma`` tier), so a source's ``data_ready`` waits for
    the destination's matching cycle on those pairs — one-shot or
    persistent on threads, persistent on procs (a procs one-shot sends
    every pair eager: a shared window is only worth its setup amortized
    over steps).
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
        self.schedule = GLOBAL_CACHE.get(spec.src_desc, spec.dst_desc)
        self._cycle = 0
        self.transfers_completed = 0
        one_shot = spec.kind is ConnectionKind.ONE_SHOT
        self.pool = None if one_shot else BufferPool()
        self._transfer = bind(
            self.schedule, "src" if role == "source" else "dst", inter,
            darray, tag=MXN_DATA_TAG_BASE + spec.connection_id % _TAG_SPACE,
            pool=self.pool, one_shot=one_shot)

    # -- the dataReady protocol -------------------------------------------

    def data_ready(self) -> bool:
        """Declare this instance's local data consistent for this cycle.

        On transfer cycles the source side posts its schedule sends and
        the destination side completes its schedule receives.  Returns
        True when a transfer happened on this cycle.  A one-shot
        connection transfers on its first cycle and is closed by it;
        a transfer cycle of a closed connection raises
        :class:`~repro.errors.ConnectionError_`.
        """
        cycle = self._cycle
        self._cycle += 1
        one_shot = self.spec.kind is ConnectionKind.ONE_SHOT
        if not one_shot and cycle % self.spec.period:
            return False
        self._transfer.step()
        if one_shot:
            self._transfer.close()
        self.transfers_completed += 1
        return True

    def close(self) -> None:
        """Close the bound transfer (an RMA destination array is
        evacuated to private memory and its window retired);
        transfer cycles raise afterwards.  Idempotent."""
        self._transfer.close()

    # -- metrics ------------------------------------------------------------

    @property
    def pool_stats(self) -> dict | None:
        """Buffer-pool counters (persistent source side; None for
        one-shot connections)."""
        return self.pool.stats.snapshot() if self.pool is not None else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MxNConnection({self.role}, {self.spec.kind.value}, "
                f"period={self.spec.period}, "
                f"{self.schedule.message_count} msgs/transfer)")
