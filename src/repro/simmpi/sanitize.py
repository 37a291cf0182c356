"""Happens-before race sanitizer for the lock-free shared-memory layer.

The procs backend's fast paths are lock-free protocols over shared
segments: the :class:`~repro.simmpi.shm.SegmentPool` slot ring
(FREE/BUSY flag transitions ordered by the descriptor record that
announces each run), the :class:`~repro.simmpi.shm.ControlSegment`
descriptor rings, the :class:`~repro.simmpi.shm.Window`
epoch/done seqlock, the single-writer
:class:`~repro.simmpi.shm.SharedState` watchdog fields,
and the mailbox prepost handoff that completes a receive in the
sender's thread.  Each is correct only under an ordering discipline no
type checker sees.  This module is the *dynamic* half of that proof
obligation (:mod:`repro.verify.race` holds the bounded-model half):
with ``REPRO_TSAN=1`` every synchronization site ticks a vector clock
and checks the protocol invariant that licenses the access, recording
a :class:`RaceReport` — never raising mid-protocol — when an access is
not happens-after the operation that must precede it.

Happens-before edges tracked:

* **slot ring** — ``acquire`` joins the consumer's release clock
  (in-process), ``publish`` ships the sender's clock in the descriptor
  record's token area (the wire piggyback under procs), ``consume``
  joins it.  A per-slot *holder* / *generation* shadow pair lives in a
  side region of the pool's own segment, so the checks see
  cross-process state:
  acquiring a slot whose holder is still set, or consuming a
  generation the ring has moved past, is reuse before release (ABA).
  A message spanning a run of slots is checked slot by slot: the wire
  token carries one generation per slot of the run.
* **seqlock windows** — the epoch header itself is the sync object:
  a put must happen inside an exposure epoch (``epoch >= done+1``), a
  commit may only publish an exposed epoch once, and an owner read is
  torn unless ``min(done) == epoch`` (fence complete, next epoch not
  yet open).  Clocks are published per window / per done-counter so
  reports carry the ordering context.
* **descriptor rings** — the procs control plane's per-pair record
  rings: a sender must not fill a record its receiver has not yet
  consumed (``seq - head < depth``), and each record carries its seq
  stamp (in the ``REPRO_TSAN``-only token area, beside the slot token)
  so a receiver that reads a record published before its fill, or
  overwritten by a wrap, reports it.
* **watchdog fields** — every per-endpoint field has exactly one
  writing process (the owning rank) and the abort record exactly one
  (the supervisor); writes from anyone else are unsynchronized.
* **mailboxes** — ``deliver`` stamps the envelope with the sender's
  clock; the receiver joins it when the match completes, so
  cross-thread report stacks are ordered even on the threads backend.

Zero cost when off: call sites guard with ``if _san.ACTIVE is not
None`` — one module-global load and an identity test, the same
discipline as :func:`repro.verify.hook.maybe_verify_side` — and the
wire format is untouched (descriptor records grow a token area only
when the segment is built with the sanitizer enabled).  The A2
ablation benchmark proves the disabled path adds no counter traffic
and no measurable per-step wall time.

Reports are recorded, not raised: a race does not change control flow
(the shipped tree must run identically under the sanitizer), but
``RACE_STATS`` counts every report and the procs backend fails a rank
at exit if its process accumulated any — so a CI shard running under
``REPRO_TSAN=1`` is a whole-suite cleanliness proof.
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import config
from repro.util.counters import RACE_STATS

__all__ = ["RaceReport", "Sanitizer", "enabled", "set_tsan",
           "register_actor", "reports", "clear_reports",
           "UNSYNC_WRITE", "TORN_READ", "SLOT_REUSE"]

# report kinds
UNSYNC_WRITE = "unsynchronized-write"
TORN_READ = "torn-seqlock-read"
SLOT_REUSE = "slot-reuse-before-release"

_KIND_COUNTER = {
    UNSYNC_WRITE: "reports_unsynchronized_write",
    TORN_READ: "reports_torn_seqlock_read",
    SLOT_REUSE: "reports_slot_reuse",
}


@dataclass
class RaceReport:
    """One detected ordering violation.

    ``current_stack`` is the full traceback of the access that tripped
    the check (this process, this thread); ``prior`` describes the
    access it raced with — a full stack when that access happened in
    this process, or the short site tag piggybacked on the wire when it
    happened in a peer process.
    """

    kind: str                     #: UNSYNC_WRITE / TORN_READ / SLOT_REUSE
    site: str                     #: synchronization site, e.g. ``slot.publish``
    detail: str                   #: what invariant failed, with values
    actor: str                    #: logical actor of the racing access
    current_stack: str            #: traceback of the access reported here
    prior: str = ""               #: stack or wire-site tag of the other access
    clock: dict = field(default_factory=dict)  #: actor vector clock at report

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        head = f"[{self.kind}] {self.site} ({self.actor}): {self.detail}"
        if self.prior:
            head += f"\n  prior access: {self.prior}"
        return head


def _actor_token(name: str) -> int:
    """Nonzero 31-bit token identifying one actor in shared shadow
    state (the holder word of a slot).  Collisions only blur a report's
    attribution, never its detection."""
    return (hash(name) & 0x7FFFFFFF) | 1


class Sanitizer:
    """Vector clocks plus protocol shadow state for one process.

    Forked rank processes inherit the instance (and therefore the
    enablement decision) from the supervisor; clocks and reports are
    per-process, while slot shadow state lives in the shared segment so
    cross-process checks see it.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._tls = threading.local()
        self._reports: list[RaceReport] = []
        #: last published clock per sync object (windows, slots, state)
        self._sync_clocks: dict[Any, dict[str, int]] = {}
        #: in-process release->acquire edge per (pool id, slot)
        self._release_clocks: dict[tuple, dict[str, int]] = {}
        #: claimed single-writer fields: key -> claiming actor name
        self._claims: dict[Any, str] = {}

    # -- actors and clocks -------------------------------------------------

    def register_actor(self, name: str) -> str:
        """Bind the calling thread to a logical actor (a rank, a
        supervisor)."""
        self._tls.actor = name
        self._tls.clock = {name: 0}
        return name

    def actor(self) -> str:
        name = getattr(self._tls, "actor", None)
        if name is None:
            name = f"pid{os.getpid()}:t{threading.get_ident()}"
            self.register_actor(name)
        return name

    def _clock(self) -> dict[str, int]:
        self.actor()
        return self._tls.clock

    def _tick(self) -> dict[str, int]:
        clock = self._clock()
        clock[self._tls.actor] = clock.get(self._tls.actor, 0) + 1
        RACE_STATS.add("sync_ops")
        return clock

    def _publish(self, key: Any) -> dict[str, int]:
        """Tick and record this actor's clock on a sync object; returns
        a snapshot safe to ship across threads or the wire."""
        snap = dict(self._tick())
        with self._lock:
            self._sync_clocks[key] = snap
        return snap

    def _join(self, other: Optional[dict[str, int]]) -> None:
        if not other:
            return
        clock = self._clock()
        for a, t in other.items():
            if clock.get(a, 0) < t:
                clock[a] = t
        RACE_STATS.add("sync_ops")

    def _join_key(self, key: Any) -> None:
        with self._lock:
            snap = self._sync_clocks.get(key)
        self._join(snap)

    # -- reporting ---------------------------------------------------------

    def _report(self, kind: str, site: str, detail: str,
                prior: str = "") -> RaceReport:
        rep = RaceReport(
            kind=kind, site=site, detail=detail, actor=self.actor(),
            current_stack="".join(traceback.format_stack(limit=12)[:-2]),
            prior=prior, clock=dict(self._clock()))
        with self._lock:
            self._reports.append(rep)
        RACE_STATS.add("reports")
        RACE_STATS.add(_KIND_COUNTER[kind])
        return rep

    @property
    def race_reports(self) -> list[RaceReport]:
        with self._lock:
            return list(self._reports)

    def clear(self) -> None:
        with self._lock:
            self._reports.clear()
            self._sync_clocks.clear()
            self._release_clocks.clear()
            self._claims.clear()

    # -- slot-ring sites (SegmentPool accessors call these) ----------------

    def slot_acquired(self, pool, slot: int) -> None:
        """FREE->BUSY transition: the slot must not still be held."""
        holder = int(pool._tsan_holder[slot])
        me = _actor_token(self.actor())
        if holder != 0:
            self._report(
                SLOT_REUSE, f"slot.acquire(slot={slot})",
                f"slot handed out while still held (holder token "
                f"{holder}) — its flag went FREE before the holder "
                f"released it",
                prior=f"actor token {holder} (release never ran)")
        pool._tsan_holder[slot] = me
        pool._tsan_gen[slot] += 1
        key = (id(pool), slot)
        with self._lock:
            rel = self._release_clocks.pop(key, None)
        self._join(rel)
        self._tick()

    def slot_publish(self, pool, slot: int, nslots: int = 1) -> tuple:
        """Sender is done writing the payload bytes of the run of
        ``nslots`` slots starting at ``slot``; returns the wire token
        ``(generations, clock, site-tag)`` the descriptor record carries,
        one generation per slot of the run.  ``slot`` may be ``-1`` for
        inline payloads (clock only)."""
        actor = self.actor()
        if slot < 0 or pool is None or pool._tsan_holder is None:
            return (None, dict(self._tick()),
                    f"{actor}:inline_publish")
        me = _actor_token(actor)
        for s in range(slot, slot + nslots):
            holder = int(pool._tsan_holder[s])
            if holder != me:
                self._report(
                    UNSYNC_WRITE, f"slot.publish(slot={s})",
                    f"payload published from a slot this actor does not "
                    f"hold (holder token {holder}, mine {me}) — write "
                    f"without a FREE->BUSY acquire",
                    prior=f"actor token {holder or '<none>'}")
        gens = tuple(int(pool._tsan_gen[s])
                     for s in range(slot, slot + nslots))
        clock = self._publish(("slot", id(pool), slot))
        return (gens, clock, f"{actor}:slot_publish(slot={slot})")

    def slot_consume(self, pool, slot: int, token: Optional[tuple]) -> None:
        """Receiver observed the descriptor record for the run starting
        at ``slot``; the payload bytes it is about to read must still
        be the generations ``token[0]`` records, slot by slot."""
        if token is None:
            return
        gens, clock, site = token
        if (gens is not None and slot >= 0 and pool is not None
                and pool._tsan_gen is not None):
            for s, gen in enumerate(gens, slot):
                now = int(pool._tsan_gen[s])
                if now != gen:
                    self._report(
                        SLOT_REUSE, f"slot.consume(slot={s})",
                        f"consuming generation {gen} but the ring is at "
                        f"generation {now} — the slot was released and "
                        f"re-acquired before this read (ABA reuse, torn "
                        f"payload)", prior=site)
        self._join(clock)

    def slot_released(self, pool, slot: int) -> None:
        """BUSY->FREE transition: shadow state must be cleared *before*
        the flag flips, so a racing acquire sees the held shadow."""
        if int(pool._tsan_holder[slot]) == 0:
            self._report(
                SLOT_REUSE, f"slot.release(slot={slot})",
                f"release of a slot that is not held — double release "
                f"or release without a matching acquire")
        pool._tsan_holder[slot] = 0
        key = (id(pool), slot)
        snap = self._publish(("slot-release", id(pool), slot))
        with self._lock:
            self._release_clocks[key] = snap

    # -- descriptor-ring sites (the procs control plane calls these) -------

    def ring_publish(self, site: str, seq: int, head: int,
                     depth: int) -> None:
        """Sender filled record ``seq`` and is about to store
        ``tail = seq + 1``; the receiver has consumed ``head`` records.
        The record's index must have been handed back (``seq - head <
        depth``), else the fill overwrote a record still unread."""
        if seq - head >= depth:
            self._report(
                SLOT_REUSE, f"{site}.publish(seq={seq})",
                f"record {seq} overwrote record {seq - depth} before its "
                f"receiver consumed it (head {head}, depth {depth}) — "
                f"the sender skipped the wait for room")
        self._tick()

    def ring_consume(self, site: str, seq: int, stamp: int) -> None:
        """Receiver reads record ``seq``, whose sender-written seq stamp
        is ``stamp``.  An older stamp means the ``tail`` store published
        the record before its fill; a newer one, that the sender wrapped
        around and overwrote it before this read."""
        if stamp < seq:
            self._report(
                UNSYNC_WRITE, f"{site}.consume(seq={seq})",
                f"record {seq} read with stamp {stamp}: tail was "
                f"published before the record was filled")
        elif stamp > seq:
            self._report(
                SLOT_REUSE, f"{site}.consume(seq={seq})",
                f"record {seq} overwritten by record {stamp} before this "
                f"read (wrap overwrite)")
        self._tick()

    # -- seqlock window sites (rma.py calls these) -------------------------

    def win_open(self, seg, epoch: int) -> None:
        """Owner opens exposure epoch ``epoch``; the previous epoch must
        have been fenced, or owner reads of it could tear under the new
        epoch's writes."""
        if epoch > 1 and seg.min_done() < epoch - 1:
            self._report(
                TORN_READ, f"win.epoch_open({seg.name}, epoch={epoch})",
                f"epoch {epoch} opened before fence({epoch - 1}) "
                f"completed (min done = {seg.min_done()}) — epoch-"
                f"{epoch - 1} reads can tear under epoch-{epoch} writes")
        self._publish(("win", seg.name))

    def win_wait_open(self, seg, epoch: int) -> None:
        """Writer observed ``epoch >= k``: join the owner's open clock."""
        self._join_key(("win", seg.name))

    def win_put(self, seg, writer: int) -> None:
        """A put targets epoch ``done(writer)+1``; that epoch must be
        exposed, else the bytes land in a window the owner still reads."""
        k = seg.done(writer) + 1
        exposed = seg.epoch()
        if exposed < k:
            self._report(
                UNSYNC_WRITE,
                f"win.put({seg.name}, writer={writer})",
                f"put landing in unexposed epoch {k} (window exposes "
                f"epoch {exposed}) — wait_open was skipped",
                prior=f"owner exposure at epoch {exposed}")

    def win_commit(self, seg, writer: int, epoch: int) -> None:
        """Writer publishes ``done[writer] = epoch``."""
        if epoch > seg.epoch():
            self._report(
                UNSYNC_WRITE,
                f"win.commit({seg.name}, writer={writer})",
                f"commit publishes epoch {epoch} but the window only "
                f"exposes epoch {seg.epoch()}")
        elif seg.done(writer) >= epoch:
            self._report(
                UNSYNC_WRITE,
                f"win.commit({seg.name}, writer={writer})",
                f"repeated commit of epoch {epoch} (done counter "
                f"already at {seg.done(writer)})")
        self._publish(("win-done", seg.name, writer))

    def win_fence(self, seg, epoch: int) -> None:
        """Owner's fence completed: join every writer's commit clock."""
        for w in range(seg.nwriters):
            self._join_key(("win-done", seg.name, w))
        self._tick()

    def win_read(self, seg) -> None:
        """Owner reads the payload: only sound between ``fence(k)`` and
        ``epoch_open(k+1)``."""
        if seg.min_done() < seg.epoch():
            self._report(
                TORN_READ, f"win.read({seg.name})",
                f"owner read inside an open exposure epoch "
                f"(epoch {seg.epoch()}, min done {seg.min_done()}) — "
                f"writers may still be scattering into the payload")

    # -- watchdog-field sites (SharedState accessors call these) -----------

    def state_write(self, owner_endpoint: Optional[int], site: str) -> None:
        """Per-endpoint watchdog fields have exactly one writing
        process: the owning rank.  ``owner_endpoint`` is the endpoint
        the written field belongs to, or ``None`` for the domain abort
        record (supervisor-only)."""
        from repro.simmpi import transport as _transport
        writer = _transport.current_endpoint()
        if owner_endpoint is None:
            if writer is not None:
                self._report(
                    UNSYNC_WRITE, site,
                    f"domain abort record written by rank process "
                    f"endpoint {writer} — only the supervisor "
                    f"writes it")
        elif writer is not None and writer != owner_endpoint:
            self._report(
                UNSYNC_WRITE, site,
                f"endpoint {owner_endpoint}'s watchdog field written "
                f"by the process owning endpoint {writer} — "
                f"single-writer discipline broken",
                prior=f"owning process of endpoint {owner_endpoint}")
        self._publish(("state", site))

    # -- mailbox handoff sites (matching.py calls these) -------------------

    def env_stamp(self, env) -> None:
        """Sender-side: attach this actor's clock to the envelope."""
        env.clock = dict(self._tick())

    def env_join(self, clock: Optional[dict]) -> None:
        """Receiver-side: the matched envelope's delivery happens-before
        this consumption."""
        self._join(clock)


#: The process-wide sanitizer, or ``None`` when disabled.  Call sites
#: guard every hook with ``if _san.ACTIVE is not None`` — the whole
#: disabled-mode cost.  Installed at import when ``REPRO_TSAN=1`` (rank
#: processes inherit the instance across fork).
ACTIVE: Optional[Sanitizer] = None


def enabled() -> bool:
    """Is the sanitizer currently installed?"""
    return ACTIVE is not None


def set_tsan(on: bool) -> bool:
    """Install or remove the sanitizer; returns the previous state.

    Pools and windows size their shadow regions at construction, so
    enable the sanitizer *before* building the transport you want
    checked (the env var path does this naturally)."""
    global ACTIVE
    was = ACTIVE is not None
    if on and ACTIVE is None:
        ACTIVE = Sanitizer()
    elif not on:
        ACTIVE = None
    return was


def register_actor(name: str) -> Optional[str]:
    """Bind the calling thread to a logical actor name (no-op when
    disabled)."""
    san = ACTIVE
    return san.register_actor(name) if san is not None else None


def reports() -> list[RaceReport]:
    """All :class:`RaceReport`\\ s recorded in this process so far."""
    san = ACTIVE
    return san.race_reports if san is not None else []


def clear_reports() -> None:
    san = ACTIVE
    if san is not None:
        san.clear()


if config.resolve("tsan"):  # pragma: no cover - exercised by the CI TSAN shard
    ACTIVE = Sanitizer()
