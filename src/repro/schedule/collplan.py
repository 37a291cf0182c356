"""Memory-bounded collective round plans for redistribution schedules.

The packed executors (:mod:`repro.schedule.executor`) ship one coalesced
message per communicating (src, dst) rank pair.  That minimizes message
count, but on a buffered transport every pair's buffer can be in flight
at once, so peak transfer memory grows **O(pairs)** — at large fan-out
it blows past any fixed ceiling.  Following Rink et al.'s
memory-efficient redistribution-through-collectives construction (arXiv
2112.01075), this module rewrites a compiled :class:`~repro.schedule.
plan.CommSchedule` — region or linear, the one schedule type — into a
short sequence of ``alltoallv`` **rounds** with a *statically provable*
peak-bytes-resident bound:

* every pair's wire-order element range is split into chunks of at most
  ``round_bytes`` bytes (:class:`RoundChunk` — pure data: ``(src, dst,
  lo, hi)`` offsets into the pair's packed stream, realized at execution
  time by :meth:`~repro.schedule.indexplan.PairPlan.sub` sub-plans of
  the schedule's cached gather/scatter plans);
* chunks are assigned to rounds by a deterministic first-fit under a
  per-rank, per-round cap of ``round_bytes`` sent *and* received, so
  within any round no rank stages more than one round buffer each way;
* rounds are executed one at a time (a tree barrier between rounds
  intra-job; a per-round acknowledgement handshake across an
  intercommunicator), so at most one round's bytes are ever in flight.

Peak resident transfer memory is therefore bounded by **O(local shard +
round buffer)** per rank — independent of the pair count — and
:meth:`CollectivePlan.resident_ceiling` computes the exact process-wide
bound the A10 benchmark gates in CI.  Whether a given transfer *should*
pay the extra round synchronization is the cost model's call
(:mod:`repro.schedule.costmodel`, under ``REPRO_TIER=auto``).

Plans are pure functions of (schedule pair sizes, itemsize, round_bytes);
:meth:`CommSchedule.collective_plan` memoizes them on the schedule next
to the index plans, so both sides of a coupled run (and every rank of
an SPMD job) derive the identical round structure with no negotiation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ScheduleError

__all__ = ["RoundChunk", "CollectivePlan", "plan_collective_rounds"]


@dataclass(frozen=True, slots=True)
class RoundChunk:
    """Elements ``[lo, hi)`` of pair (src, dst)'s wire-order stream,
    shipped in one round."""

    src: int
    dst: int
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo


class CollectivePlan:
    """A schedule decomposed into capped ``alltoallv`` rounds.

    Pure data plus derived load tables; the proofs in
    :func:`repro.verify.schedule.verify_collective_plan` and the
    executors below consume it.  ``rounds[r]`` holds that round's chunks
    sorted by ``(src, dst, lo)``.
    """

    def __init__(self, rounds: list[list[RoundChunk]], *,
                 itemsize: int, round_bytes: int,
                 src_nranks: int, dst_nranks: int):
        self.rounds: tuple[tuple[RoundChunk, ...], ...] = tuple(
            tuple(sorted(r, key=lambda c: (c.src, c.dst, c.lo)))
            for r in rounds)
        self.itemsize = int(itemsize)
        self.round_bytes = int(round_bytes)
        self.src_nranks = src_nranks
        self.dst_nranks = dst_nranks
        # per-round per-rank byte loads (the static bound's evidence)
        self._send_bytes: list[dict[int, int]] = []
        self._recv_bytes: list[dict[int, int]] = []
        for chunks in self.rounds:
            sb: dict[int, int] = {}
            rb: dict[int, int] = {}
            for c in chunks:
                nb = c.size * self.itemsize
                sb[c.src] = sb.get(c.src, 0) + nb
                rb[c.dst] = rb.get(c.dst, 0) + nb
            self._send_bytes.append(sb)
            self._recv_bytes.append(rb)

    # -- shape -------------------------------------------------------------

    @property
    def nrounds(self) -> int:
        return len(self.rounds)

    @property
    def chunk_count(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def element_count(self) -> int:
        return sum(c.size for r in self.rounds for c in r)

    @property
    def nbytes(self) -> int:
        return self.element_count * self.itemsize

    # -- static memory bound -------------------------------------------------

    @property
    def peak_send_bytes(self) -> int:
        """Largest per-rank send load of any round (≤ ``round_bytes``
        whenever a single element fits one round)."""
        return max((b for sb in self._send_bytes for b in sb.values()),
                   default=0)

    @property
    def peak_recv_bytes(self) -> int:
        """Largest per-rank receive load of any round."""
        return max((b for rb in self._recv_bytes for b in rb.values()),
                   default=0)

    def send_bytes(self, rnd: int, src: int) -> int:
        return self._send_bytes[rnd].get(src, 0)

    def inflight_bound(self) -> int:
        """Process-wide bound on bytes simultaneously in flight: every
        source rank holds at most its largest single round's send load
        (round r+1 is not packed until round r is acknowledged/
        barriered)."""
        peaks: dict[int, int] = {}
        for sb in self._send_bytes:
            for src, b in sb.items():
                if b > peaks.get(src, 0):
                    peaks[src] = b
        return sum(peaks.values())

    def resident_ceiling(self) -> int:
        """Static ceiling on gauge-counted resident transfer bytes for
        one execution of this plan (process-wide; all rank threads of
        the threads backend included).

        At any instant each source holds at most one round's send load,
        counted at most twice by the conservative gauges (once on loan
        from the pool, once queued in the destination mailbox until
        consumed) — hence ``2 * inflight_bound()``.  Protocol messages
        (acks, barrier tokens) are byte-counted by the caller's slack,
        not here.
        """
        return 2 * self.inflight_bound()

    # -- per-rank view (the executor's bind-time query) ----------------------

    def round_table(self, plan, side: str, rank: int, peer_of,
                    ) -> list[list[tuple[int, tuple, int]]]:
        """Schedule rank ``rank``'s segments of every round, realized
        against its compiled :class:`~repro.schedule.indexplan.RankPlan`
        ``plan`` (``side`` is ``"src"`` or ``"dst"``).

        ``table[rnd]`` lists ``(peer, sub_plans, elements)`` per peer the
        rank exchanges data with in that round: ``peer`` already
        translated by ``peer_of`` to the link's rank numbering and the
        list sorted by it (``alltoallv`` displacement order intra-job,
        remote-rank order across an intercommunicator — both sides sort
        the same way, so buffers line up with no metadata), ``sub_plans``
        the :meth:`~repro.schedule.indexplan.PairPlan.sub` plans of the
        pair's chunks in wire order (a chunk of a box pair stays boxes:
        head-partial row, whole rows, tail-partial row).  Built once per
        bind; both wires of the collective tier replay it every step."""
        mine, theirs = (("src", "dst") if side == "src" else ("dst", "src"))
        pairs = {pp.peer: pp for pp in plan.pairs}
        table = []
        for chunks in self.rounds:
            by_peer: dict[int, list] = {}
            for c in sorted((c for c in chunks if getattr(c, mine) == rank),
                            key=lambda c: (getattr(c, theirs), c.lo)):
                peer = getattr(c, theirs)
                by_peer.setdefault(peer, []).append(
                    pairs[peer].sub(c.lo, c.hi))
            table.append(sorted(
                ((peer_of(peer), tuple(subs), sum(sub.size for sub in subs))
                 for peer, subs in by_peer.items()),
                key=lambda seg: seg[0]))
        return table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CollectivePlan({self.nrounds} rounds, "
                f"{self.chunk_count} chunks, "
                f"peak {self.peak_send_bytes}B send / "
                f"{self.peak_recv_bytes}B recv per rank-round)")


def plan_collective_rounds(schedule, *, itemsize: int,
                           round_bytes: int) -> CollectivePlan:
    """Decompose ``schedule`` into capped collective rounds.

    Works on both schedule kinds: it reads only the ``pair_src`` /
    ``pair_dst`` / ``pair_size`` columns and the rank counts.
    Deterministic: pairs are visited in (src, dst) order and chunks
    first-fit into the earliest round whose source and destination caps
    both still hold, never earlier than the pair's previous chunk —
    every caller derives the same plan with no communication.
    """
    itemsize = int(itemsize)
    round_bytes = int(round_bytes)
    if itemsize <= 0 or round_bytes <= 0:
        raise ScheduleError(
            f"itemsize ({itemsize}) and round_bytes ({round_bytes}) "
            f"must be positive")
    # Cap in elements; a single element larger than round_bytes still
    # moves (one element per rank per round — the bound degrades to one
    # item, never breaks).
    cap = max(1, round_bytes // itemsize)
    rounds: list[list[RoundChunk]] = []
    send_load: list[dict[int, int]] = []
    recv_load: list[dict[int, int]] = []
    for src, dst, size in zip(schedule.pair_src.tolist(),
                              schedule.pair_dst.tolist(),
                              schedule.pair_size.tolist()):
        pos = 0
        nxt = 0  # chunks of one pair stay in wire order across rounds
        while pos < size:
            n = min(cap, size - pos)
            r = nxt
            while True:
                if r == len(rounds):
                    rounds.append([])
                    send_load.append({})
                    recv_load.append({})
                if (send_load[r].get(src, 0) + n <= cap
                        and recv_load[r].get(dst, 0) + n <= cap):
                    break
                r += 1
            rounds[r].append(RoundChunk(src, dst, pos, pos + n))
            send_load[r][src] = send_load[r].get(src, 0) + n
            recv_load[r][dst] = recv_load[r].get(dst, 0) + n
            nxt = r + 1
            pos += n
    return CollectivePlan(rounds, itemsize=itemsize,
                          round_bytes=round_bytes,
                          src_nranks=schedule.src_nranks,
                          dst_nranks=schedule.dst_nranks)
