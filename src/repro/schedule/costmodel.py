"""The ``auto`` tier's cost model: two-sided vs memory-bounded collective.

The two-sided tier is latency-optimal (one message per pair, no round
synchronization) but its peak transfer memory is the **sum of all pair
buffers** — on a buffered transport every packed buffer can be queued
at once.  The collective tier (:mod:`repro.schedule.collplan`) caps
peak residency at O(round buffer) per rank, at the price of one
barrier/ack handshake per round.  This module holds the *static* cost
model that picks between them per (schedule, itemsize):

* ``two_sided``: peak resident bytes ≈ total wire bytes of the transfer
  (every pair's packed buffer simultaneously loaned + queued in the
  worst case) — the O(pairs) term;
* ``collective``: peak resident bytes ≤
  :meth:`~repro.schedule.collplan.CollectivePlan.resident_ceiling`,
  i.e. twice the sum over sources of their largest single-round send
  load — the O(local shard + round buffer) term;
* the pick is ``collective`` exactly when the two-sided estimate
  exceeds the memory ceiling *and* the collective ceiling actually
  improves on it, else ``two_sided`` (small transfers keep the
  latency-optimal path).  The model never picks ``rma``.

Both sides of a coupled handshake evaluate the model independently
(:func:`~repro.schedule.executor.resolve_tier` is its one caller), so
every input is deterministic: the schedule (agreed via the descriptor
handshake), the dtype itemsize, the constant :data:`MEM_CEILING`, and
the ``round_bytes`` knob (:mod:`repro.config`; the handshake
cross-checks it together with ``tier``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config

__all__ = ["MEM_CEILING", "CostEstimate", "estimate"]

#: Resident bytes above which ``auto`` abandons two-sided (1 MiB).
MEM_CEILING = 1 << 20


@dataclass(frozen=True, slots=True)
class CostEstimate:
    """The model's static view of one transfer under both tiers."""

    pair_count: int
    total_bytes: int        # wire bytes of one full transfer
    p2p_peak_bytes: int     # worst-case resident bytes under two-sided
    coll_peak_bytes: int    # static resident ceiling under collective
    nrounds: int            # rounds the collective plan needs
    chosen: str             # tier name: "two_sided" or "collective"


def estimate(schedule, itemsize: int, *,
             round_bytes: int | None = None) -> CostEstimate:
    """Evaluate both tiers for ``schedule`` at ``itemsize`` and pick
    one under the ``auto`` rule.  Pure: depends only on the schedule,
    the itemsize, and the resolved ``round_bytes``, so all ranks and
    both coupled sides agree without communicating."""
    round_bytes = config.resolve("round_bytes", round_bytes)
    itemsize = int(itemsize)
    coll = schedule.collective_plan(itemsize, round_bytes)
    total = schedule.element_count * itemsize
    # Buffered-transport worst case: every pair's packed buffer loaned
    # and queued at once (the A7/A9 one-shot shape).
    p2p_peak = 2 * total
    coll_peak = coll.resident_ceiling()
    chosen = "collective" if (p2p_peak > MEM_CEILING
                              and coll_peak < p2p_peak) else "two_sided"
    return CostEstimate(pair_count=schedule.pair_count,
                        total_bytes=total,
                        p2p_peak_bytes=p2p_peak,
                        coll_peak_bytes=coll_peak,
                        nrounds=coll.nrounds,
                        chosen=chosen)

