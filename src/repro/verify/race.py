"""Bounded model checking of the lock-free shared-memory protocols.

The procs backend rests on three tiny lock-free protocols
(:mod:`repro.simmpi.shm`): the **slot ring** — senders acquire a FREE
slot, fill it, publish the index in a descriptor record, the receiver
consumes and releases it — the **descriptor ring** — per (sender,
receiver) pair a single-producer/single-consumer ring of records with a
sender-written ``tail``, a receiver-written ``head`` and one doorbell
semaphore per receiver that the receiver parks on once its rings are
empty — and the **seqlock window** — an owner opens exposure epochs
that license remote puts, writers commit, the owner fences and reads.
:mod:`repro.simmpi.sanitize` checks these disciplines *dynamically* (on
real executions, ``REPRO_TSAN=1``); this module is the *static* half of
the proof obligation: each protocol is extracted into an explicit-state
model and the commgraph search engine
(:func:`repro.verify.commgraph.explore_states`) exhaustively explores
every interleaving at a bounded scope (2–3 writers, ring depth 2, two
epochs; depth 3 with messages spanning runs of up to two slots;
messages streamed as three ring-wide runs; three records through a
depth-2 descriptor ring), proving

* **no lost wakeups** — every interleaving of the shipped protocol
  runs to completion (no reachable stuck state), the receiver's park on
  its doorbell and the epoch waits' parks on their kicks included,
* **no ABA slot or record reuse** — a consumer never reads a slot
  generation the ring has moved past, nor a record the sender has
  wrapped over or not yet filled,
* **no partial delivery** — a streamed message is delivered only once
  every one of its runs has been copied,
* **no unexposed-epoch puts / torn reads** — writes land only inside
  an open exposure epoch and owner reads only after its fence.

The proof is only as good as the model, so every property ships with a
**seeded-bug mutant** — a one-transition corruption of the protocol
(skip the BUSY check, release before the read, skip ``wait_open``, …)
— and :func:`check_protocols` asserts each mutant *fires*: the search
returns a violation of the expected class (or a stuck state), with a
transition-by-transition counterexample witness.  A model in which the
bugs of interest are invisible would pass the clean proofs vacuously;
the mutant matrix rules that out.

:func:`sanitizer_selfcheck` closes the loop on the dynamic half: it
drives the :class:`~repro.simmpi.sanitize.Sanitizer` hooks directly
through one clean protocol round (expecting zero reports) and through
each seeded corruption (expecting exactly the report class the model
checker predicts), without touching real shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.simmpi import sanitize, shm
from repro.verify.commgraph import Exploration, explore_states

__all__ = [
    "ModelResult",
    "SLOT_MUTANTS",
    "RUN_MUTANTS",
    "STREAM_MUTANTS",
    "EPOCH_MUTANTS",
    "RING_MUTANTS",
    "slot_ring_model",
    "descriptor_ring_model",
    "epoch_model",
    "check_protocols",
    "sanitizer_selfcheck",
]

#: Seeded slot-ring bugs and the outcome each must produce.
SLOT_MUTANTS = {
    "acquire_skips_busy": "violation:" + sanitize.UNSYNC_WRITE,
    "release_before_consume": "violation:" + sanitize.SLOT_REUSE,
    "skip_release": "stuck",
}

#: Seeded bugs of multi-slot runs (visible only at ``width > 1``) and
#: the outcome each must produce.
RUN_MUTANTS = {
    "run_checks_first_only": "violation:" + sanitize.UNSYNC_WRITE,
    "release_first_only": "stuck",
}

#: Seeded bugs of streamed messages (runs of one message, visible only
#: at ``chunks > 1``) and the outcome each must produce.
STREAM_MUTANTS = {
    "release_before_copy": "violation:" + sanitize.SLOT_REUSE,
    "deliver_before_last_chunk": "violation:" + sanitize.TORN_READ,
}

#: Seeded descriptor-ring bugs and the outcome each must produce.
RING_MUTANTS = {
    "publish_before_fill": "violation:" + sanitize.UNSYNC_WRITE,
    "lost_wakeup_on_park": "stuck",
    "wrap_overwrite": "violation:" + sanitize.SLOT_REUSE,
}

#: Seeded epoch-protocol bugs and the outcome each must produce.
#: ``kick_before_store`` kicks the writers before it stores the epoch:
#: a writer that checks in between parks for good (a lost wakeup).
EPOCH_MUTANTS = {
    "skip_wait": "violation:" + sanitize.UNSYNC_WRITE,
    "read_before_fence": "violation:" + sanitize.TORN_READ,
    "skip_commit": "stuck",
    "kick_before_store": "stuck",
}


@dataclass
class ModelResult:
    """One model run: a clean proof or a mutant-fires demonstration."""

    model: str                 #: ``slot_ring``, ``descriptor_ring`` or ``epoch``
    scope: str                 #: bound description, e.g. ``W=2 D=2 M=3``
    mutant: Optional[str]      #: seeded bug, ``None`` for the shipped protocol
    expect: str                #: ``clean`` / ``stuck`` / ``violation:<kind>``
    exploration: Exploration

    @property
    def outcome(self) -> str:
        ex = self.exploration
        if ex.violation is not None:
            return "violation:" + ex.message.split(":", 1)[0]
        if ex.stuck is not None:
            return "stuck"
        return "clean"

    @property
    def passed(self) -> bool:
        return self.outcome == self.expect

    @property
    def label(self) -> str:
        return f"{self.model}[{self.scope}]" + (
            f" mutant={self.mutant}" if self.mutant else "")


def slot_ring_model(writers: int = 2, depth: int = 2, messages: int = 2,
                    mutant: Optional[str] = None,
                    width: int = 1, chunks: int = 1) -> Exploration:
    """Explicit-state model of the :class:`~repro.simmpi.shm.SegmentPool`
    slot ring: ``writers`` senders each pushing ``messages`` payloads
    through one consumer's ring of ``depth`` slots.

    A payload occupies a *run* of adjacent slots: message ``m`` of
    writer ``w`` spans ``width`` slots when ``w + m`` is odd and one
    slot otherwise, so at ``width > 1`` runs of mixed widths share the
    ring and fragment it.  ``width=1`` is the one-slot ring.  At
    ``chunks > 1`` every message is *streamed* as ``chunks`` such runs
    in a row: the consumer copies each run into the message's own
    buffer, releases it, and delivers the message with its last run.

    State: per-slot FREE/BUSY flags and generation counters, the FIFO
    of published ``(first slot, run generations, writer, last run)``
    entries, each writer's ``(remaining runs, held-run start)``, the
    consumer's ``(consumed, in-flight read)`` and the runs it has
    copied of each writer's current message.  Transitions mirror the
    runtime verbs — acquire (first fit: lowest run of FREE slots, flip
    them BUSY, bump their generations; a writer with no fitting run
    waits), publish (enqueue), pop, read (every generation of the run
    must match), release (the run's flags back to FREE) and, after a
    message's last run, deliver (every run of it copied).  A
    transition that breaks the discipline carries an error tag the
    safety check reports; see :data:`SLOT_MUTANTS`,
    :data:`RUN_MUTANTS` and :data:`STREAM_MUTANTS` for the seeded
    corruptions.
    """
    if mutant is not None and mutant not in SLOT_MUTANTS \
            and mutant not in RUN_MUTANTS and mutant not in STREAM_MUTANTS:
        raise ValueError(f"unknown slot-ring mutant {mutant!r}")
    total = writers * messages
    runs = messages * chunks
    init = (
        (0,) * depth,                     # flags: 0 FREE / 1 BUSY
        (0,) * depth,                     # per-slot generation
        (),                               # published run FIFO
        ((runs, -1),) * writers,          # writer (remaining, held slot)
        0,                                # messages consumed
        (-1, (), -1, False),              # consumer in-flight run
        (0,) * writers,                   # runs copied, per writer
        "",                               # safety-violation tag
    )

    def run_of(w, remaining):
        return width if (w + (runs - remaining) // chunks) % 2 else 1

    def gen_label(gs):
        return gs[0] if len(gs) == 1 else gs

    def slots_label(s, k):
        return f"slot={s}" if k == 1 else f"slots={s}..{s + k - 1}"

    def setting(flags, lo, k, value):
        return tuple(value if lo <= i < lo + k else f
                     for i, f in enumerate(flags))

    def successors(state):
        flags, gens, queue, ws, consumed, reading, parts, err = state
        out = []
        for w, (remaining, held) in enumerate(ws):
            if held < 0 and remaining > 0:
                k = run_of(w, remaining)
                starts = range(depth - k + 1)
                if mutant == "acquire_skips_busy":
                    # the corrupted scan ignores the BUSY flags, so it
                    # claims the lowest run unconditionally
                    candidates = [0]
                elif mutant == "run_checks_first_only":
                    # the corrupted scan tests only a run's first flag
                    candidates = [s for s in starts if flags[s] == 0][:1]
                else:
                    candidates = [s for s in starts
                                  if not any(flags[s:s + k])][:1]
                for s in candidates:
                    nerr = err
                    if any(h >= 0 and h < s + k
                           and s < h + run_of(v, r)
                           for v, (r, h) in enumerate(ws)) \
                            or any(flags[s:s + k]):
                        nerr = (f"{sanitize.UNSYNC_WRITE}: writer {w} "
                                f"acquires {slots_label(s, k)} while it "
                                f"is still held — two actors filling one "
                                f"payload slot")
                    ngens = tuple(g + 1 if s <= i < s + k else g
                                  for i, g in enumerate(gens))
                    nws = tuple((r, s) if i == w else (r, h)
                                for i, (r, h) in enumerate(ws))
                    out.append((f"writer {w}: acquire({slots_label(s, k)})",
                                (setting(flags, s, k, 1), ngens, queue,
                                 nws, consumed, reading, parts, nerr)))
            elif held >= 0:
                k = run_of(w, remaining)
                run = gens[held:held + k]
                last = (runs - remaining) % chunks == chunks - 1
                nws = tuple((r - 1, -1) if i == w else (r, h)
                            for i, (r, h) in enumerate(ws))
                out.append((f"writer {w}: publish(slot={held}, "
                            f"gen={gen_label(run)})",
                            (flags, gens, queue + ((held, run, w, last),),
                             nws, consumed, reading, parts, err)))
        if reading[0] < 0 and queue:
            slot, run, w, last = queue[0]
            nflags = flags
            if mutant == "release_before_consume" or (
                    mutant == "release_before_copy" and chunks > 1):
                # the corrupted receiver frees the run before reading it
                nflags = setting(flags, slot, len(run), 0)
            out.append((f"consumer: pop(slot={slot}, "
                        f"gen={gen_label(run)})",
                        (nflags, gens, queue[1:], ws, consumed,
                         queue[0], parts, err)))
        elif reading[0] >= 0:
            slot, run, w, last = reading
            k = len(run)
            nerr = err
            stale = [(i, g) for i, g in enumerate(run, slot) if gens[i] != g]
            if stale:
                i, g = stale[0]
                nerr = (f"{sanitize.SLOT_REUSE}: consumer reads slot "
                        f"{i} at generation {gens[i]} but the "
                        f"control message published generation {g} — "
                        f"ABA reuse, torn payload")
            if mutant == "skip_release":
                nflags = flags
            elif mutant == "release_first_only":
                # the corrupted receiver frees only the run's first slot
                nflags = setting(flags, slot, 1, 0)
            else:
                nflags = setting(flags, slot, k, 0)
            copied = parts[w] + 1
            label = f"consumer: read+release({slots_label(slot, k)})"
            if last or mutant == "deliver_before_last_chunk":
                if copied < chunks and not nerr:
                    nerr = (f"{sanitize.TORN_READ}: consumer delivers "
                            f"writer {w}'s message with {copied} of its "
                            f"{chunks} runs copied — the rest still in "
                            f"flight")
                label += ", deliver"
                consumed, copied = consumed + 1, 0
            nparts = tuple(copied if i == w else p
                           for i, p in enumerate(parts))
            out.append((label, (nflags, gens, queue, ws, consumed,
                                (-1, (), -1, False), nparts, nerr)))
        return out

    def is_final(state):
        _, _, queue, ws, consumed, reading, _, _ = state
        return (consumed == total and not queue and reading[0] < 0
                and all(r == 0 and h < 0 for r, h in ws))

    return explore_states(init, successors, is_final,
                          check=lambda state: state[-1])


def descriptor_ring_model(writers: int = 1, depth: int = 2,
                          messages: int = 3,
                          mutant: Optional[str] = None) -> Exploration:
    """Explicit-state model of the :class:`~repro.simmpi.shm.
    ControlSegment` control plane: ``writers`` senders, each with its
    own single-producer ring of ``depth`` records into one receiver,
    each publishing ``messages`` records, plus the receiver's one
    doorbell semaphore.

    State: per ring its records (each holding the seq stamp its last
    fill wrote), ``head`` and ``tail``; per writer ``(sent, step)``;
    the doorbell count; the receiver's ``(consumed, step)``.  A writer
    fills record ``tail % depth`` once ``tail - head < depth``, stores
    ``tail + 1``, then posts the doorbell.  The receiver reads any
    published record (its stamp must equal its seq) and advances
    ``head``; when every ring is empty it decides to park, then sleeps
    until the doorbell count is positive and absorbs it — a publish
    between its emptiness check and the sleep leaves a post behind, so
    no wakeup is lost.  See :data:`RING_MUTANTS` for the seeded
    corruptions.
    """
    if mutant is not None and mutant not in RING_MUTANTS:
        raise ValueError(f"unknown descriptor-ring mutant {mutant!r}")
    total = writers * messages
    # writer steps in order, per message
    fill_first = mutant != "publish_before_fill"
    steps = ("fill", "publish", "post") if fill_first else \
        ("publish", "fill", "post")
    init = (
        (((-1,) * depth, 0, 0),) * writers,   # rings: (stamps, head, tail)
        ((0, 0),) * writers,                  # writer (sent, step)
        0,                                    # doorbell count
        (0, 0),                               # receiver (consumed, step)
        "",                                   # safety-violation tag
    )

    def put(seq, i, value):
        return tuple(value if j == i else v for j, v in enumerate(seq))

    def successors(state):
        rings, ws, bell, (consumed, rstep), err = state
        out = []
        for w, (sent, step) in enumerate(ws):
            if sent == messages:
                continue
            stamps, head, tail = rings[w]
            verb = steps[step]
            nws = put(ws, w, (sent + (verb == "post"), (step + 1) % 3))
            if verb == "fill":
                # publish-first fills the record it already published
                seq = tail if fill_first else tail - 1
                room = seq - head < depth
                if not room and mutant != "wrap_overwrite":
                    continue                 # waits for the receiver
                nerr = err
                if not room:
                    nerr = (f"{sanitize.SLOT_REUSE}: writer {w} fills "
                            f"record {seq} over unread record "
                            f"{seq - depth} (head {head})")
                ring = (put(stamps, seq % depth, seq), head, tail)
                out.append((f"writer {w}: fill(seq={seq})",
                            (put(rings, w, ring), nws, bell,
                             (consumed, rstep), nerr)))
            elif verb == "publish":
                if not fill_first and tail - head >= depth:
                    continue
                out.append((f"writer {w}: publish(tail={tail + 1})",
                            (put(rings, w, (stamps, head, tail + 1)), nws,
                             bell, (consumed, rstep), err)))
            else:
                out.append((f"writer {w}: post doorbell",
                            (rings, nws, bell + 1, (consumed, rstep), err)))
        if rstep == 0:
            for w, (stamps, head, tail) in enumerate(rings):
                if head == tail:
                    continue
                stamp = stamps[head % depth]
                nerr = err
                if stamp < head:
                    nerr = (f"{sanitize.UNSYNC_WRITE}: receiver reads "
                            f"record {head} of ring {w} with stamp "
                            f"{stamp} — published before its fill")
                elif stamp > head:
                    nerr = (f"{sanitize.SLOT_REUSE}: receiver reads "
                            f"record {head} of ring {w} overwritten by "
                            f"record {stamp}")
                out.append((f"receiver: consume(ring={w}, seq={head})",
                            (put(rings, w, (stamps, head + 1, tail)), ws,
                             bell, (consumed + 1, 0), nerr)))
            if consumed < total and all(h == t for _, h, t in rings):
                out.append(("receiver: rings empty, park",
                            (rings, ws, bell, (consumed, 1), err)))
        elif rstep == 1 and mutant == "lost_wakeup_on_park":
            # the corrupted park clears stale posts *after* checking the
            # rings, swallowing any publish that landed in between
            out.append(("receiver: clear doorbell",
                        (rings, ws, 0, (consumed, 2), err)))
        elif bell > 0:
            out.append(("receiver: wake, absorb posts",
                        (rings, ws, 0, (consumed, 0), err)))
        return out

    def is_final(state):
        _, ws, _, (consumed, _), _ = state
        return consumed == total and all(s == messages for s, _ in ws)

    return explore_states(init, successors, is_final,
                          check=lambda state: state[-1])


def epoch_model(writers: int = 2, epochs: int = 2,
                mutant: Optional[str] = None) -> Exploration:
    """Explicit-state model of the :class:`~repro.simmpi.rma` epoch
    seqlock: one owner opening/fencing/reading ``epochs`` exposure
    epochs over ``writers`` remote writers doing wait/put/commit.  The
    writers are a receiver's put pairs on either point-to-point tier —
    every pair on ``rma``, the pairs above ``EAGER_MAX`` on
    ``two_sided`` — which run the same halves and the same verbs; the
    eager pairs beside them are the owner's own writes, finished before
    its fence, and add no state to the seqlock.

    Waits park, as the descriptor ring's receiver does: the owner opens
    by storing ``epoch = k`` and then kicking every writer, a writer
    commits by storing ``done[i] = k`` and then kicking the owner.  A
    writer's wait (the owner's fence) checks ``epoch >= k``
    (``min(done) >= k``); on a miss it parks until its wake count — the
    doorbell on procs, the condition's notify on threads — is positive,
    absorbs it and checks again, so a kick between the check and the
    sleep is not lost.  Safety: a put with ``epoch < k`` is an
    unexposed-epoch write; an owner read with ``min(done) < epoch`` is
    a torn seqlock read.  See :data:`EPOCH_MUTANTS`.
    """
    if mutant is not None and mutant not in EPOCH_MUTANTS:
        raise ValueError(f"unknown epoch mutant {mutant!r}")
    owner_ops, writer_ops = [], []
    for k in range(1, epochs + 1):
        opening = [("open", k), ("kick", k)]
        if mutant == "kick_before_store":
            opening.reverse()
        owner_ops += opening + [("fence", k)] * (
            mutant != "read_before_fence") + [("read", k)]
        writer_ops += [("wait_open", k)] * (mutant != "skip_wait") + [
            ("put", k)] + [("commit", k), ("kick", k)] * (
            mutant != "skip_commit")
    ops = [owner_ops] + [writer_ops] * writers      # party 0: the owner

    def put(seq, i, value):
        return tuple(value if j == i else v for j, v in enumerate(seq))

    # per party: (program counter, parked, wake count)
    init = (0, (0,) * writers, ((0, False, 0),) * (writers + 1), "")

    def successors(state):
        epoch, done, parties, err = state
        out = []
        for p, (pc, parked, bell) in enumerate(parties):
            if pc == len(ops[p]):
                continue
            kind, k = ops[p][pc]
            who = f"writer {p - 1}" if p else "owner"
            nxt = put(parties, p, (pc + 1, False, bell))
            if parked:
                if bell:
                    out.append((f"{who}: wake, absorb kicks", (
                        epoch, done, put(parties, p, (pc, False, 0)), err)))
            elif kind in ("wait_open", "fence"):
                if (epoch if kind == "wait_open" else min(done)) >= k:
                    out.append((f"{who}: {kind}({k})",
                                (epoch, done, nxt, err)))
                else:
                    out.append((f"{who}: {kind}({k}) misses, park", (
                        epoch, done, put(parties, p, (pc, True, bell)),
                        err)))
            elif kind == "open":
                out.append((f"owner: epoch_open({k})", (k, done, nxt, err)))
            elif kind == "kick":  # the owner its writers, a writer the owner
                out.append((f"{who}: kick", (epoch, done, tuple(
                    (c, z, b + ((q == 0) != (p == 0)))
                    for q, (c, z, b) in enumerate(nxt)), err)))
            elif kind == "commit":
                out.append((f"{who}: commit({k})",
                            (epoch, put(done, p - 1, k), nxt, err)))
            elif kind == "put":
                nerr = err or (epoch < k and (
                    f"{sanitize.UNSYNC_WRITE}: {who} put lands in "
                    f"unexposed epoch {k} (window exposes epoch {epoch}) "
                    f"— wait_open skipped")) or ""
                out.append((f"{who}: put({k})", (epoch, done, nxt, nerr)))
            else:  # read
                nerr = err or (min(done) < epoch and (
                    f"{sanitize.TORN_READ}: owner reads generation {k} "
                    f"with min(done)={min(done)} < epoch {epoch} — "
                    f"writers may still be scattering")) or ""
                out.append((f"owner: read({k})", (epoch, done, nxt, nerr)))
        return out

    def is_final(state):
        return all(pc == len(ops[p]) for p, (pc, _, _) in enumerate(state[2]))

    return explore_states(init, successors, is_final,
                          check=lambda state: state[-1])


#: Clean-proof scopes (2–3 writers, depth 2; runs at depth 3; messages
#: streamed as runs as wide as the depth-2 ring; one and two descriptor
#: rings of depth 2 carrying three records each).
_SLOT_SCOPES = ((2, 2, 3), (3, 2, 2))
_RUN_SCOPES = ((2, 3, 2, 1), (2, 3, 2, 2))
_STREAM_SCOPES = ((1, 2, 2, 3), (2, 2, 1, 3))
_EPOCH_SCOPES = ((2, 2), (3, 2))
_RING_SCOPES = ((1, 2, 3), (2, 2, 3))


def check_protocols() -> list[ModelResult]:
    """The full matrix: clean proofs at every bounded scope plus one
    fires-as-expected run per seeded mutant.  ``all(r.passed ...)`` is
    the theorem."""
    out: list[ModelResult] = []
    for w, d, m in _SLOT_SCOPES:
        out.append(ModelResult(
            "slot_ring", f"W={w} D={d} M={m}", None, "clean",
            slot_ring_model(w, d, m)))
    for w, d, m, r in _RUN_SCOPES:
        out.append(ModelResult(
            "slot_ring", f"W={w} D={d} M={m} width={r}", None, "clean",
            slot_ring_model(w, d, m, width=r)))
    for w, d, m, c in _STREAM_SCOPES:
        out.append(ModelResult(
            "slot_ring", f"W={w} D={d} M={m} width={d} chunks={c}", None,
            "clean", slot_ring_model(w, d, m, width=d, chunks=c)))
    for w, d, m in _RING_SCOPES:
        out.append(ModelResult(
            "descriptor_ring", f"W={w} D={d} M={m}", None, "clean",
            descriptor_ring_model(w, d, m)))
    for w, e in _EPOCH_SCOPES:
        out.append(ModelResult(
            "epoch", f"W={w} E={e}", None, "clean", epoch_model(w, e)))
    for mutant, expect in SLOT_MUTANTS.items():
        out.append(ModelResult(
            "slot_ring", "W=2 D=2 M=2", mutant, expect,
            slot_ring_model(2, 2, 2, mutant=mutant)))
    for mutant, expect in RUN_MUTANTS.items():
        out.append(ModelResult(
            "slot_ring", "W=2 D=3 M=2 width=2", mutant, expect,
            slot_ring_model(2, 3, 2, mutant=mutant, width=2)))
    for mutant, expect in STREAM_MUTANTS.items():
        out.append(ModelResult(
            "slot_ring", "W=2 D=2 M=1 width=2 chunks=2", mutant, expect,
            slot_ring_model(2, 2, 1, mutant=mutant, width=2, chunks=2)))
    for mutant, expect in RING_MUTANTS.items():
        out.append(ModelResult(
            "descriptor_ring", "W=1 D=2 M=3", mutant, expect,
            descriptor_ring_model(1, 2, 3, mutant=mutant)))
    for mutant, expect in EPOCH_MUTANTS.items():
        out.append(ModelResult(
            "epoch", "W=2 E=2", mutant, expect,
            epoch_model(2, 2, mutant=mutant)))
    return out


# -- dynamic-half self-check ----------------------------------------------


class _FakePool:
    """Just the shadow plane the sanitizer's slot hooks touch."""

    def __init__(self, nslots: int = 3):
        self._tsan_holder = [0] * nslots
        self._tsan_gen = [0] * nslots


def _heap_window(nwriters: int = 1) -> shm.HeapWindow:
    """A real epoch header over a private buffer: the threads window."""
    return shm.HeapWindow(np.zeros(1), nwriters)


def sanitizer_selfcheck() -> list[str]:
    """Drive the live sanitizer hooks through one clean protocol round
    and each seeded corruption; returns failure descriptions (empty =
    the dynamic checks agree with the model checker).

    Runs against an in-process fake of the shadow plane and a real
    heap window header, so it needs no shared memory and is safe
    anywhere ``verify race`` runs.
    """
    failures: list[str] = []
    was = sanitize.set_tsan(True)
    san = sanitize.ACTIVE
    assert san is not None
    san.clear()

    def expect(label: str, kinds: list[str]) -> None:
        got = [r.kind for r in san.race_reports]
        if got != kinds:
            failures.append(f"{label}: expected reports {kinds}, got {got}")
        san.clear()

    try:
        # clean slot round: acquire -> publish -> consume -> release
        pool = _FakePool()
        san.slot_acquired(pool, 0)
        token = san.slot_publish(pool, 0)
        san.slot_consume(pool, 0, token)
        san.slot_released(pool, 0)
        # clean run round: the same verbs over every slot of a run
        for s in (1, 2):
            san.slot_acquired(pool, s)
        token = san.slot_publish(pool, 1, 2)
        san.slot_consume(pool, 1, token)
        for s in (1, 2):
            san.slot_released(pool, s)
        # clean epoch round: open -> wait -> put -> commit -> fence -> read
        seg = _heap_window()
        san.win_open(seg, 1)
        seg.set_epoch(1)
        san.win_wait_open(seg, 1)
        san.win_put(seg, 0)
        san.win_commit(seg, 0, 1)
        seg.set_done(0, 1)
        san.win_fence(seg, 1)
        san.win_read(seg)
        expect("clean protocol round", [])

        # seeded: acquire of a still-held slot (acquire_skips_busy)
        pool = _FakePool()
        san.slot_acquired(pool, 0)
        san.slot_acquired(pool, 0)
        expect("slot reuse on acquire", [sanitize.SLOT_REUSE])

        # seeded: consume after the ring moved on (release_before_consume)
        pool = _FakePool()
        san.slot_acquired(pool, 0)
        token = san.slot_publish(pool, 0)
        san.slot_released(pool, 0)
        san.slot_acquired(pool, 0)     # re-acquire bumps the generation
        san.slot_consume(pool, 0, token)
        expect("ABA consume", [sanitize.SLOT_REUSE])

        # seeded: a receiver frees the run's second slot before reading,
        # and the ring hands that slot out again
        pool = _FakePool()
        for s in (0, 1):
            san.slot_acquired(pool, s)
        token = san.slot_publish(pool, 0, 2)
        san.slot_released(pool, 1)
        san.slot_acquired(pool, 1)     # second slot of the run moves on
        san.slot_consume(pool, 0, token)
        expect("ABA consume inside a run", [sanitize.SLOT_REUSE])

        # clean descriptor-ring round: publish into room, consume the
        # record whose stamp is its seq
        san.ring_publish("selfcheck", 2, 1, 2)
        san.ring_consume("selfcheck", 2, 2)
        expect("clean descriptor-ring round", [])

        # seeded: fill over an unread record (wrap_overwrite)
        san.ring_publish("selfcheck", 3, 1, 2)
        expect("record wrap overwrite", [sanitize.SLOT_REUSE])

        # seeded: read a record published before its fill
        # (publish_before_fill), then one wrapped over before the read
        san.ring_consume("selfcheck", 3, 1)
        san.ring_consume("selfcheck", 3, 5)
        expect("stale and overwritten records",
               [sanitize.UNSYNC_WRITE, sanitize.SLOT_REUSE])

        # seeded: publish without holding (unsynchronized write)
        pool = _FakePool()
        san.slot_publish(pool, 0)
        expect("publish without acquire", [sanitize.UNSYNC_WRITE])

        # seeded: put into an unexposed epoch (skip_wait)
        seg = _heap_window()
        san.win_put(seg, 0)
        expect("unexposed-epoch put", [sanitize.UNSYNC_WRITE])

        # seeded: owner read inside an open epoch (read_before_fence)
        seg = _heap_window()
        san.win_open(seg, 1)
        seg.set_epoch(1)
        san.win_read(seg)
        expect("torn seqlock read", [sanitize.TORN_READ])
    finally:
        san.clear()
        sanitize.set_tsan(was)
    return failures
