"""Static schedule proofs (offline redistribution verification).

A communication schedule is pure data, so its correctness properties can
be proved *before any bytes move* — the approach Rink et al. take for
memory-efficient array redistribution plans.  :func:`verify_schedule`
establishes, with vectorized whole-array evidence rather than sampling:

* **completeness** — every destination element is covered by exactly one
  transfer item (a flat coverage-count array over the global index
  space must be identically 1),
* **pairwise disjointness** — no element is moved twice (the same count
  array must never exceed 1, reported separately so an over-coverage
  bug is named as such),
* **ownership** — every item's region lies inside its source rank's and
  destination rank's owned patches (flat owner-map arrays built from
  :func:`~repro.util.indexing.region_flat_indices`),
* **conservation** — total elements and bytes sent equal total elements
  and bytes received, per rank and globally, and match the coalescing
  groups' precomputed offsets,
* **plan consistency** — every compiled :class:`~repro.schedule.
  indexplan.PairPlan`, *strided boxes included*, selects exactly the
  elements the fallback gather
  (:meth:`~repro.schedule.indexplan.LocalIndexer.region_indices`) would,
  in the same wire order.

:func:`verify_against_oracle` additionally proves a fast-path schedule
routes every element through the same (src, dst) pair as the all-pairs
intersection oracle (:func:`build_allpairs_schedule`, defined here
beside its one caller) — since ownership is a partition on both
sides, element routing is unique and any correct builder must agree
with it exactly.

All checks collect *every* violated property into one
:class:`~repro.errors.VerificationError` instead of stopping at the
first, so CI output names the full damage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ScheduleError, VerificationError
from repro.dad.descriptor import DistArrayDescriptor
from repro.linearize.linearization import Linearization
from repro.schedule.indexplan import LocalIndexer, PairPlan
from repro.schedule.plan import CommSchedule, TransferItem
from repro.util.indexing import ragged_arange, region_flat_indices, shape_volume

__all__ = [
    "ScheduleProof",
    "build_allpairs_schedule",
    "verify_schedule",
    "verify_against_oracle",
    "verify_delta_equivalence",
    "verify_linear_schedule",
    "verify_rank_plans",
]


@dataclass
class ScheduleProof:
    """Evidence record returned by a successful verification."""

    elements: int = 0
    items: int = 0
    pairs: int = 0
    fastpath_pairs: int = 0
    checks: list[str] = field(default_factory=list)

    def passed(self, name: str) -> None:
        self.checks.append(name)


def _owner_map(desc: DistArrayDescriptor) -> np.ndarray:
    """Flat array mapping every global element to its owning rank.

    Doubles as a proof that the descriptor itself is a partition: any
    element left unowned (or the template's own overlap checks having
    been bypassed) surfaces as a ``-1`` here.
    """
    total = shape_volume(desc.shape)
    owner = np.full(total, -1, dtype=np.int64)
    for rank in range(desc.nranks):
        for region in desc.local_regions(rank):
            owner[region_flat_indices(region, desc.shape)] = rank
    return owner


def _materialize(pp: PairPlan) -> np.ndarray:
    """The flat local indices a compiled pair plan addresses — boxes
    expanded, so a box's ``(lo, shape, strides)`` claim is checked
    element-for-element."""
    return np.asarray(pp.indices(), dtype=np.int64)


def _check_rank_plans(schedule: CommSchedule, side: str, rank: int,
                      owned_regions, failures: list[str],
                      proof: ScheduleProof | None = None) -> None:
    """Prove one rank's compiled plan equals the fallback gather."""
    from repro.errors import ScheduleError
    try:
        if side == "send":
            groups = schedule.send_groups(rank)
            plan = schedule.send_plan(rank, owned_regions)
        else:
            groups = schedule.recv_groups(rank)
            plan = schedule.recv_plan(rank, owned_regions)
    except ScheduleError as exc:
        failures.append(
            f"{side} rank {rank}: plan compilation failed ({exc})")
        return
    if len(plan.pairs) != len(groups):
        failures.append(
            f"{side} rank {rank}: plan has {len(plan.pairs)} pairs for "
            f"{len(groups)} coalescing groups")
        return
    indexer = LocalIndexer(list(owned_regions))
    for pp, (peer, regions, offsets) in zip(plan.pairs, groups):
        label = f"{side} rank {rank} -> peer {peer}"
        if pp.peer != peer:
            failures.append(f"{label}: plan addresses peer {pp.peer}")
            continue
        if pp.size != int(offsets[-1]):
            failures.append(
                f"{label}: plan carries {pp.size} elements, groups "
                f"expect {int(offsets[-1])}")
            continue
        expect = (np.concatenate(
            [indexer.region_indices(r) for r in regions])
            if regions else np.empty(0, dtype=np.int64))
        got = _materialize(pp)
        if got.shape != expect.shape or not np.array_equal(got, expect):
            kind = "box" if pp.idx is None else "indexed"
            failures.append(
                f"{label}: {kind} plan selects different elements than "
                f"the fallback gather (wire order or coverage mismatch)")
        if proof is not None:
            proof.pairs += 1
            if pp.idx is None:
                proof.fastpath_pairs += 1


def verify_rank_plans(schedule: CommSchedule, side: str, rank: int,
                      owned_regions) -> None:
    """One rank's plan↔fallback-gather proof (the runtime-hook check).

    Raises :class:`~repro.errors.VerificationError` on any mismatch
    between a compiled pair plan — box plans included — and the
    indices the fallback gather would use.
    """
    failures: list[str] = []
    _check_rank_plans(schedule, side, rank, owned_regions, failures)
    if failures:
        raise VerificationError(
            f"schedule {side} plan for rank {rank} failed verification",
            failures)


def verify_schedule(schedule: CommSchedule, src_desc: DistArrayDescriptor,
                    dst_desc: DistArrayDescriptor, *,
                    check_plans: bool = True) -> ScheduleProof:
    """Prove a region schedule correct for a (src, dst) descriptor pair.

    Returns a :class:`ScheduleProof` naming every property established;
    raises :class:`~repro.errors.VerificationError` listing *all*
    violated properties otherwise.
    """
    failures: list[str] = []
    proof = ScheduleProof(items=len(schedule.items))

    if src_desc.shape != dst_desc.shape:
        raise VerificationError(
            "descriptor shapes differ", [
                f"source shape {src_desc.shape} vs destination "
                f"shape {dst_desc.shape}"])
    shape = src_desc.shape
    total = shape_volume(shape)
    if schedule.src_nranks != src_desc.nranks:
        failures.append(
            f"schedule spans {schedule.src_nranks} source ranks, "
            f"descriptor has {src_desc.nranks}")
    if schedule.dst_nranks != dst_desc.nranks:
        failures.append(
            f"schedule spans {schedule.dst_nranks} destination ranks, "
            f"descriptor has {dst_desc.nranks}")

    src_owner = _owner_map(src_desc)
    dst_owner = _owner_map(dst_desc)
    counts = np.zeros(total, dtype=np.int64)
    bad_src = bad_dst = 0
    for it in schedule.items:
        idx = region_flat_indices(it.region, shape)
        np.add.at(counts, idx, 1)
        bad_src += int(np.count_nonzero(src_owner[idx] != it.src))
        bad_dst += int(np.count_nonzero(dst_owner[idx] != it.dst))
        proof.elements += it.region.volume

    if bad_src or bad_dst:
        failures.append(
            f"ownership: {bad_src} element(s) not owned by their item's "
            f"source rank, {bad_dst} not owned by the destination rank")
    else:
        proof.passed("ownership")

    over = np.flatnonzero(counts > 1)
    if over.size:
        coord = np.unravel_index(int(over[0]), shape)
        failures.append(
            f"disjointness: {over.size} element(s) transferred more than "
            f"once (first at {tuple(int(c) for c in coord)}, "
            f"{int(counts[over[0]])} times)")
    else:
        proof.passed("pairwise disjointness")
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        coord = np.unravel_index(int(missing[0]), shape)
        failures.append(
            f"completeness: {missing.size} destination element(s) never "
            f"written (first at {tuple(int(c) for c in coord)})")
    elif not over.size:
        proof.passed("completeness (every element exactly once)")

    itemsize = np.dtype(src_desc.dtype).itemsize
    sent = sum(int(offs[-1]) for r in range(schedule.src_nranks)
               for _, _, offs in schedule.send_groups(r))
    recvd = sum(int(offs[-1]) for r in range(schedule.dst_nranks)
                for _, _, offs in schedule.recv_groups(r))
    if not (sent == recvd == schedule.element_count == total):
        failures.append(
            f"conservation: {sent} elements sent, {recvd} received, "
            f"{schedule.element_count} scheduled, {total} in the array")
    else:
        proof.passed(
            f"conservation ({sent} elements / {sent * itemsize} bytes "
            f"both directions)")

    if check_plans:
        for r in range(schedule.src_nranks):
            _check_rank_plans(schedule, "send", r,
                              src_desc.local_regions(r), failures, proof)
        for r in range(schedule.dst_nranks):
            _check_rank_plans(schedule, "recv", r,
                              dst_desc.local_regions(r), failures, proof)
        if not failures:
            proof.passed(
                f"plan consistency ({proof.pairs} pair plans, "
                f"{proof.fastpath_pairs} box plans)")

    if failures:
        raise VerificationError("schedule failed verification", failures)
    return proof


def build_allpairs_schedule(src: DistArrayDescriptor,
                            dst: DistArrayDescriptor) -> CommSchedule:
    """The oracle: the O(S·D) all-pairs region intersection, with no
    fast path to get wrong — what :func:`verify_against_oracle` (and
    the scaling benchmark's baseline column) compare the dispatching
    builders against."""
    if src.shape != dst.shape:
        raise ScheduleError(
            f"cannot build schedule between shapes {src.shape} and "
            f"{dst.shape}")
    items: list[TransferItem] = []
    dst_regions = [(r, reg) for r in range(dst.nranks)
                   for reg in dst.local_regions(r)]
    for s in range(src.nranks):
        for sreg in src.local_regions(s):
            for d, dreg in dst_regions:
                inter = sreg.intersect(dreg)
                if inter is not None:
                    items.append(TransferItem(s, d, inter))
    return CommSchedule(items, src.nranks, dst.nranks,
                        (src.ownership(), dst.ownership()))


def verify_against_oracle(schedule: CommSchedule,
                          src_desc: DistArrayDescriptor,
                          dst_desc: DistArrayDescriptor) -> ScheduleProof:
    """Prove a schedule routes every element exactly as the all-pairs
    intersection oracle does.

    Ownership partitions both sides, so each element's (src, dst) pair
    is uniquely determined — any two correct schedules agree element-
    for-element.  This is the CI gate for the structured and sweep-line
    fast-path builders.
    """
    proof = verify_schedule(schedule, src_desc, dst_desc)
    oracle = build_allpairs_schedule(src_desc, dst_desc)
    shape = src_desc.shape
    total = shape_volume(shape)

    def routing(sched: CommSchedule) -> np.ndarray:
        route = np.full(total, -1, dtype=np.int64)
        for it in sched.items:
            idx = region_flat_indices(it.region, shape)
            route[idx] = it.src * sched.dst_nranks + it.dst
        return route

    diff = np.flatnonzero(routing(schedule) != routing(oracle))
    if diff.size:
        coord = np.unravel_index(int(diff[0]), shape)
        raise VerificationError(
            "schedule disagrees with the all-pairs oracle", [
                f"{diff.size} element(s) routed through a different "
                f"(src, dst) pair (first at "
                f"{tuple(int(c) for c in coord)})"])
    proof.passed(
        f"oracle agreement (routing identical over {total} elements)")
    return proof


def verify_delta_equivalence(old_desc: DistArrayDescriptor,
                             new_desc: DistArrayDescriptor, *,
                             delta=None) -> ScheduleProof:
    """Prove a resize delta equivalent to — and minimal against — the
    full rebuild: *delta schedule ∘ old ownership ≡ full rebuild*.

    On top of the full old→new schedule's own oracle proof
    (:func:`verify_against_oracle`), establishes:

    * **partition** — the delta's migration items plus its kept items
      are exactly the full schedule's items, each exactly once, so
      replaying the migration over the wire while kept elements stay
      home writes precisely what a full rebuild would write,
    * **minimality** — an element rides the migration schedule if and
      only if its owner actually changed (``old_owner != new_owner``
      under the two descriptors' owner maps), so the delta moves
      strictly fewer bytes than the full rebuild whenever any element
      stays put — and never one byte more,
    * **identity ranks** — every rank the delta classifies as
      unchanged has a bit-identical ownership fingerprint on both
      sides and appears in no migration item (its buffer may be kept
      in place untouched),
    * **local repack consistency** — per rank, the compiled kept-bytes
      (gather, scatter) plans address exactly the indices the fallback
      region gather would, over the old and new patch layouts
      respectively (boxes expanded, like every plan check
      here).

    Returns the combined :class:`ScheduleProof`; raises
    :class:`~repro.errors.VerificationError` listing every violated
    property otherwise.
    """
    from repro.schedule.builder import build_region_schedule
    from repro.schedule.delta import compile_delta

    full = build_region_schedule(old_desc, new_desc)
    if delta is None:
        delta = compile_delta(old_desc, new_desc, full=full)
    proof = verify_against_oracle(full, old_desc, new_desc)
    failures: list[str] = []
    shape = old_desc.shape
    total = shape_volume(shape)

    # partition: migration ∪ kept == full, disjoint.
    migration_items = set(delta.migration.items)
    kept_items = set(delta.kept.items)
    overlap = migration_items & kept_items
    union = migration_items | kept_items
    full_items = set(full.items)
    if overlap:
        failures.append(
            f"partition: {len(overlap)} item(s) both migrated and kept")
    if union != full_items:
        extra = len(union - full_items)
        missing = len(full_items - union)
        failures.append(
            f"partition: delta items differ from the full rebuild "
            f"({extra} extra, {missing} missing)")
    if not overlap and union == full_items:
        proof.passed(
            f"partition (migration {len(migration_items)} + kept "
            f"{len(kept_items)} items = full {len(full_items)})")

    # minimality: moved elements are exactly the changed-owner set.
    old_owner = _owner_map(old_desc)
    new_owner = _owner_map(new_desc)
    changed = old_owner != new_owner
    moved_mask = np.zeros(total, dtype=bool)
    bad_route = 0
    for it in delta.migration.items:
        idx = region_flat_indices(it.region, shape)
        moved_mask[idx] = True
        bad_route += int(np.count_nonzero(
            (old_owner[idx] != it.src) | (new_owner[idx] != it.dst)))
        if it.src == it.dst:
            failures.append(
                f"minimality: migration item {it} moves rank "
                f"{it.src}'s data to itself")
    for it in delta.kept.items:
        idx = region_flat_indices(it.region, shape)
        bad_route += int(np.count_nonzero(
            (old_owner[idx] != it.src) | (new_owner[idx] != it.dst)))
        if it.src != it.dst:
            failures.append(
                f"minimality: kept item {it} actually changes owner")
    if bad_route:
        failures.append(
            f"routing: {bad_route} element(s) of the delta disagree with "
            f"the descriptors' owner maps")
    spurious = int(np.count_nonzero(moved_mask & ~changed))
    unmoved = int(np.count_nonzero(changed & ~moved_mask))
    if spurious or unmoved:
        failures.append(
            f"minimality: {spurious} element(s) migrated without an "
            f"owner change, {unmoved} changed owner but never migrated")
    n_changed = int(np.count_nonzero(changed))
    if not (spurious or unmoved or bad_route):
        proof.passed(
            f"minimality (migrates exactly the {n_changed} changed-owner "
            f"elements of {total}; {total - n_changed} stay home)")
    if delta.moved_elements + delta.kept_elements != total:
        failures.append(
            f"accounting: moved {delta.moved_elements} + kept "
            f"{delta.kept_elements} != {total} total elements")

    # identity ranks: fingerprint-identical and untouched by migration.
    touched: set[int] = set()
    for it in delta.migration.items:
        touched.add(it.src)
        touched.add(it.dst)
    id_ok = True
    for r in sorted(delta.identity_ranks):
        if old_desc.ownership_key(r) != new_desc.ownership_key(r):
            failures.append(
                f"identity rank {r}: ownership fingerprints differ")
            id_ok = False
        if r in touched:
            failures.append(
                f"identity rank {r}: appears in a migration item")
            id_ok = False
    if id_ok:
        proof.passed(
            f"identity ranks ({len(delta.identity_ranks)} keep their "
            f"buffer in place)")

    # local repack plans vs the fallback gather on both layouts.
    plan_pairs = 0
    for rank in range(delta.kept.dst_nranks):
        regions = [reg for _, reg in delta.kept.recvs_at(rank)]
        if not regions:
            continue
        try:
            plans = delta.local_plan(rank)
        except ScheduleError as exc:
            # A misclassified item references data the rank never owns
            # on one side; surface it as a failed property, not a crash.
            failures.append(
                f"local repack rank {rank}: plan compilation failed "
                f"({exc})")
            continue
        if plans is None:
            continue
        gather, scatter = plans
        old_ix = LocalIndexer(list(old_desc.local_regions(rank)))
        new_ix = LocalIndexer(list(new_desc.local_regions(rank)))
        for pp, indexer, side in ((gather, old_ix, "gather"),
                                  (scatter, new_ix, "scatter")):
            expect = (np.concatenate(
                [indexer.region_indices(r) for r in regions])
                if regions else np.empty(0, dtype=np.int64))
            got = _materialize(pp)
            if got.shape != expect.shape or not np.array_equal(got, expect):
                failures.append(
                    f"local repack rank {rank}: {side} plan selects "
                    f"different elements than the fallback gather")
            else:
                plan_pairs += 1
    if not any(f.startswith("local repack") for f in failures):
        proof.passed(
            f"local repack plan consistency ({plan_pairs} plans)")

    if failures:
        raise VerificationError(
            "delta schedule failed equivalence verification", failures)
    return proof


def verify_linear_schedule(schedule: CommSchedule, src_lin: Linearization,
                           dst_lin: Linearization) -> ScheduleProof:
    """Prove a linearization schedule (``ndim = 1`` regions), straight
    from its columns: completeness/disjointness over the destination
    linear space, run ownership on both sides, and run conservation
    against the coalescing groups."""
    failures: list[str] = []
    proof = ScheduleProof(items=len(schedule.items))
    if src_lin.total != dst_lin.total:
        raise VerificationError("linear spaces differ", [
            f"source total {src_lin.total} vs destination total "
            f"{dst_lin.total}"])
    total = dst_lin.total

    def owner_runs(lin: Linearization, nranks: int) -> np.ndarray:
        owner = np.full(total, -1, dtype=np.int64)
        for rank in range(nranks):
            for run in lin.runs(rank):
                owner[run.lo:run.hi] = rank
        return owner

    src_owner = owner_runs(src_lin, schedule.src_nranks)
    dst_owner = owner_runs(dst_lin, schedule.dst_nranks)
    lo, length = schedule.lo[:, 0], schedule.hi[:, 0] - schedule.lo[:, 0]
    item = np.repeat(np.arange(len(lo)), length)
    pos = lo[item] + ragged_arange(length)
    marks = np.bincount(pos, minlength=total)
    bad_src = int(np.count_nonzero(src_owner[pos] != schedule.src[item]))
    bad_dst = int(np.count_nonzero(dst_owner[pos] != schedule.dst[item]))
    proof.elements = int(length.sum())
    if bad_src or bad_dst:
        failures.append(
            f"ownership: {bad_src} position(s) outside the source rank's "
            f"runs, {bad_dst} outside the destination rank's")
    else:
        proof.passed("run ownership")
    if int(marks.max(initial=0)) > 1:
        failures.append(
            f"disjointness: {int(np.count_nonzero(marks > 1))} linear "
            f"position(s) transferred more than once")
    else:
        proof.passed("pairwise disjointness")
    if int(marks.min(initial=1)) < 1:
        failures.append(
            f"completeness: {int(np.count_nonzero(marks == 0))} linear "
            f"position(s) never written")
    elif int(marks.max(initial=0)) == 1:
        proof.passed("completeness (every position exactly once)")
    sent = sum(int(offs[-1]) for r in range(schedule.src_nranks)
               for _, _, offs in schedule.send_groups(r))
    if sent != total:
        failures.append(
            f"conservation: groups pack {sent} elements, space holds "
            f"{total}")
    else:
        proof.passed(f"conservation ({sent} elements)")
    if failures:
        raise VerificationError(
            "linear schedule failed verification", failures)
    return proof
