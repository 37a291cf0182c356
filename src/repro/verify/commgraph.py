"""Static communication-graph deadlock detection.

The runtime watchdog (:mod:`repro.simmpi.runner`) diagnoses a deadlock
*after* it forms: every unfinished rank blocked in a receive with no
delivery in flight.  This module finds the same states *before launch*
by abstract execution of a small communication program model:

* each process is a straight-line sequence of communication operations
  (:class:`SendOp`, :class:`RecvOp`, :class:`BarrierOp`,
  :class:`CallOp`, :class:`ServeOp`),
* sends are buffered and never block (the §4.1 transfer protocol the
  executors implement), receives block on their matching send, barriers
  block on every member, collective PRMI calls block on the serial
  provider servicing them, and an uncommitted provider
  nondeterministically commits to any call whose header has arrived
  (the lowest-rank participant having reached the call — exactly DCA's
  commitment point),
* the checker explores *every* commitment interleaving (bounded DFS
  with state memoization; programs are finite and loop-free, so the
  space is small), reporting the first reachable stuck state.

On a stuck state the wait-for graph over processes is extracted, its
cycles named via :func:`networkx.simple_cycles`, and the diagnosis is
rendered in the exact blocked-rank dump format
:class:`~repro.errors.DeadlockError` uses at runtime — keys are
``"{job} rank {r}"`` strings — so a pre-launch report reads like the
post-mortem it prevents.

:func:`fig5_model` rebuilds the paper's Figure 5 programs
(:mod:`repro.dca.fig5`) under either delivery policy;
:func:`transfer_model` reconstructs the wait-for structure of a
schedule-driven transfer (one buffered send plus one blocking receive
per communicating rank pair, exactly what the packed executors post),
which is also how a ``Channel.push``/``pull`` exchange is modelled, so
coupled Coupler scripts can be checked for pull-before-push cycles.

The one-sided execution tier (:mod:`repro.simmpi.rma`) adds epoch
synchronization: :class:`EpochOpenOp` (owner licenses remote writes),
:class:`PutOp` (a writer's wait-for-epoch + scatter + commit — blocks
until the owner has opened enough epochs), :class:`FenceOp` (the owner
blocks until every writer committed the current epoch) and
:class:`ReadOp` (the owner consumes its array — local, but subject to
the structural epoch-consistency rule).  :meth:`CommProgram.
epoch_violations` checks that rule statically: no put can target a
window whose owner never opens an epoch (or opens fewer epochs than the
writer puts), and no read may sit inside an open epoch (between
``epoch_open`` and its ``fence`` — exactly the torn-read window the
seqlock protocol exists to close).  :func:`rma_channel_model` builds
the one-sided analogue of a push/pull hop so epoch-misuse deadlocks —
e.g. two programs that each push before pulling the reverse channel —
are caught before launch, mirroring the runtime watchdog's
``rma_put``/``rma_fence`` blocked dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Optional

from repro.errors import DeadlockError
from repro.schedule.plan import CommSchedule

__all__ = [
    "Proc",
    "Window",
    "CommProgram",
    "Diagnosis",
    "Exploration",
    "explore_states",
    "would_deadlock",
    "assert_deadlock_free",
    "transfer_model",
    "fig5_model",
    "rma_channel_model",
    "prmi_serving_model",
    "prmi_batch_deadlock_model",
]


@dataclass
class Exploration:
    """Outcome of one :func:`explore_states` search.

    Exactly one of three shapes: *clean* (``ok``), *stuck* (a reachable
    state with no enabled transition that is not final — a deadlock),
    or *violation* (a reachable state the ``check`` predicate rejected,
    with its explanation in ``message``).  ``trace`` is the transition
    labels from the initial state to the offending one — a witness
    schedule, printable as a counterexample.
    """

    stuck: Any = None
    violation: Any = None
    message: str = ""
    trace: list = field(default_factory=list)
    states: int = 0

    @property
    def ok(self) -> bool:
        return self.stuck is None and self.violation is None

    def witness(self) -> str:
        """The counterexample schedule, one transition per line."""
        return "\n".join(f"  {i + 1}. {lbl}"
                         for i, lbl in enumerate(self.trace))


def explore_states(init, successors: Callable[[Any], Iterable[tuple]],
                   is_final: Callable[[Any], bool], *,
                   check: Optional[Callable[[Any], str]] = None,
                   max_states: int = 1_000_000) -> Exploration:
    """Memoized explicit-state DFS over a hashable state space.

    The engine behind both :meth:`CommProgram.analyze` (deadlock
    search) and the :mod:`repro.verify.race` protocol models (safety
    search).  ``successors(state)`` yields ``(label, next_state)``
    transitions; ``is_final(state)`` says whether a successor-less
    state is an accepting terminal rather than a deadlock;
    ``check(state)``, if given, returns a non-empty explanation string
    for states violating a safety property.  The first stuck or
    violating state reached wins, with its transition trace
    reconstructed from the search's parent map.
    """
    seen: set = set()
    parent: dict = {init: (None, None)}
    stack = [init]
    visited = 0

    def trace(state) -> list:
        labels = []
        while True:
            prev, label = parent[state]
            if prev is None:
                return list(reversed(labels))
            labels.append(label)
            state = prev

    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        visited += 1
        if visited > max_states:
            raise RuntimeError(
                f"explore_states: state space exceeds {max_states} states "
                f"— widen the bound or shrink the model scope")
        if check is not None:
            message = check(state)
            if message:
                return Exploration(violation=state, message=message,
                                   trace=trace(state), states=visited)
        succ = list(successors(state))
        if not succ:
            if not is_final(state):
                return Exploration(stuck=state, trace=trace(state),
                                   states=visited)
            continue
        for label, nxt in succ:
            if nxt not in parent:
                parent[nxt] = (state, label)
            stack.append(nxt)
    return Exploration(states=visited)


class Proc(NamedTuple):
    """One modeled process: a job name plus a rank inside it."""

    job: str
    rank: int

    @property
    def key(self) -> str:
        """The runner's blocked-dump key format."""
        return f"{self.job} rank {self.rank}"


@dataclass(frozen=True)
class SendOp:
    """Buffered point-to-point send — never blocks."""

    dest: Proc
    tag: int = 0


@dataclass(frozen=True)
class RecvOp:
    """Blocking point-to-point receive from a specific source."""

    source: Proc
    tag: int = 0


@dataclass(frozen=True, eq=False)
class BarrierOp:
    """A barrier over ``members`` — identity-keyed, so the *same*
    BarrierOp object must be appended to every member's program (two
    textually identical barriers are distinct collectives)."""

    members: tuple[Proc, ...]
    label: str = ""


@dataclass(frozen=True, eq=False)
class CallOp:
    """One collective PRMI invocation instance — identity-keyed like
    :class:`BarrierOp`: all participants share one object.  Blocks each
    participant until the provider has serviced the call."""

    method: str
    participants: tuple[Proc, ...]
    provider: Proc

    @property
    def header_rank(self) -> Proc:
        """DCA sends the request header from the lowest participant."""
        return min(self.participants)


@dataclass(frozen=True, eq=False)
class ServeOp:
    """The serial provider's ``serve_one()``: commit to one pending
    call (its header has arrived), then block until every participant
    reaches it."""


@dataclass(frozen=True)
class Window:
    """One rank's RMA window: the owner's exposed destination buffer
    (:class:`~repro.simmpi.shm.Window` in the runtime)."""

    owner: Proc
    label: str = "win"

    def __str__(self) -> str:
        return f"{self.label}@{self.owner.key}"


@dataclass(frozen=True)
class EpochOpenOp:
    """Owner opens the next exposure epoch — local, never blocks
    (``ExposedWindow.epoch_open``)."""

    window: Window


@dataclass(frozen=True)
class PutOp:
    """A writer's one-sided step: spin until the owner's epoch counter
    reaches this put's generation, scatter into the window, commit
    (``RemoteWindow.wait_open`` + ``put`` + ``commit``).  The writer's
    ``k``-th put on a window blocks until the owner has executed ``k``
    :class:`EpochOpenOp`\\ s on it."""

    window: Window


@dataclass(frozen=True)
class FenceOp:
    """Owner blocks until every writer has committed the current epoch
    (``ExposedWindow.fence``): its ``k``-th fence on a window needs
    every writer's put count on that window to have reached ``k``."""

    window: Window
    writers: tuple[Proc, ...]


@dataclass(frozen=True)
class ReadOp:
    """Owner consumes its destination array — local and non-blocking,
    recorded so :meth:`CommProgram.epoch_violations` can enforce the
    seqlock rule: reads only between ``fence(k)`` and
    ``epoch_open(k+1)``, never inside an open epoch."""

    window: Window


Op = object


class CommProgram:
    """A set of per-process communication programs to check."""

    def __init__(self):
        self._ops: dict[Proc, list] = {}

    # -- construction --------------------------------------------------------

    def proc(self, job: str, rank: int = 0) -> Proc:
        p = Proc(job, rank)
        self._ops.setdefault(p, [])
        return p

    def procs(self, job: str, nranks: int) -> list[Proc]:
        return [self.proc(job, r) for r in range(nranks)]

    def add(self, proc: Proc, op) -> None:
        self._ops.setdefault(proc, []).append(op)

    def send(self, frm: Proc, to: Proc, tag: int = 0) -> None:
        self.add(frm, SendOp(to, tag))

    def recv(self, at: Proc, frm: Proc, tag: int = 0) -> None:
        self.add(at, RecvOp(frm, tag))

    def barrier(self, members: Iterable[Proc], label: str = "") -> None:
        op = BarrierOp(tuple(members), label)
        for m in op.members:
            self.add(m, op)

    def call(self, method: str, participants: Iterable[Proc],
             provider: Proc) -> CallOp:
        op = CallOp(method, tuple(participants), provider)
        for p in op.participants:
            self.add(p, op)
        return op

    def serve(self, provider: Proc) -> None:
        self.add(provider, ServeOp())

    def transfer(self, schedule: CommSchedule, src_procs: list[Proc],
                 dst_procs: list[Proc], tag: int = 0) -> None:
        """Model one packed schedule execution: a buffered send per
        communicating (src, dst) pair posted first, then the receive
        side blocking per pair — the executors' §4.1 protocol."""
        for s in range(schedule.src_nranks):
            for d, _regions, _offs in schedule.send_groups(s):
                self.send(src_procs[s], dst_procs[d], tag)
        for d in range(schedule.dst_nranks):
            for s, _regions, _offs in schedule.recv_groups(d):
                self.recv(dst_procs[d], src_procs[s], tag)

    # -- one-sided (RMA) construction ---------------------------------------

    def window(self, owner: Proc, label: str = "win") -> Window:
        return Window(owner, label)

    def epoch_open(self, win: Window) -> None:
        self.add(win.owner, EpochOpenOp(win))

    def put(self, writer: Proc, win: Window) -> None:
        self.add(writer, PutOp(win))

    def fence(self, win: Window, writers: Iterable[Proc]) -> None:
        self.add(win.owner, FenceOp(win, tuple(writers)))

    def read(self, win: Window) -> None:
        self.add(win.owner, ReadOp(win))

    # -- structural epoch-consistency ---------------------------------------

    def epoch_violations(self) -> list[str]:
        """Static epoch-consistency violations, independent of
        interleaving:

        * a put targeting a window whose owner opens fewer exposure
          epochs than the writer issues puts (the surplus puts can
          never be licensed — writes outside any open epoch);
        * a read positioned inside an open epoch (after ``epoch_open``,
          before the matching ``fence``) — the torn-read window.
        """
        out: list[str] = []
        opens: dict[Window, int] = {}
        for p, plist in self._ops.items():
            for op in plist:
                if isinstance(op, EpochOpenOp):
                    opens[op.window] = opens.get(op.window, 0) + 1
        for p, plist in sorted(self._ops.items()):
            puts: dict[Window, int] = {}
            for op in plist:
                if isinstance(op, PutOp):
                    puts[op.window] = puts.get(op.window, 0) + 1
            for win, nputs in sorted(puts.items(), key=lambda kv: str(kv[0])):
                nopen = opens.get(win, 0)
                if nputs > nopen:
                    out.append(
                        f"{p.key}: {nputs} put(s) into {win} but its owner "
                        f"opens only {nopen} exposure epoch(s) — "
                        f"write outside an open epoch")
        for p, plist in sorted(self._ops.items()):
            depth: dict[Window, int] = {}
            for i, op in enumerate(plist):
                if isinstance(op, EpochOpenOp):
                    depth[op.window] = depth.get(op.window, 0) + 1
                elif isinstance(op, FenceOp):
                    depth[op.window] = max(0, depth.get(op.window, 0) - 1)
                elif isinstance(op, ReadOp):
                    if depth.get(op.window, 0) > 0:
                        out.append(
                            f"{p.key}: read of {op.window} at op {i} is "
                            f"inside an open exposure epoch (no fence "
                            f"yet) — torn read")
        return out

    # -- abstract execution --------------------------------------------------

    def _explore(self):
        """Search all provider-commitment interleavings on the shared
        :func:`explore_states` engine; returns the first reachable
        stuck (deadlocked) state or ``None``."""
        procs = sorted(self._ops)
        ops = {p: tuple(self._ops[p]) for p in procs}
        n = {p: len(ops[p]) for p in procs}
        # Channel state is a tuple of consumed-message counters per
        # (sender, receiver, tag); sends are derivable from pcs so only
        # consumption needs tracking.
        init = (tuple(0 for _ in procs), (), frozenset())

        def successors(state):
            pcs_t, commits_t, done = state
            pcs = dict(zip(procs, pcs_t))
            commits = dict(commits_t)

            def sent(frm, to, tag):
                return sum(1 for k in range(pcs[frm])
                           if isinstance(ops[frm][k], SendOp)
                           and ops[frm][k].dest == to
                           and ops[frm][k].tag == tag)

            def executed(q, kind, win):
                return sum(1 for k in range(pcs[q])
                           if isinstance(ops[q][k], kind)
                           and ops[q][k].window == win)

            consumed: dict[tuple, int] = {}
            for p in procs:
                for k in range(pcs[p]):
                    op = ops[p][k]
                    if isinstance(op, RecvOp):
                        key = (op.source, p, op.tag)
                        consumed[key] = consumed.get(key, 0) + 1

            out = []

            def advance(label, moves, new_commits=None, new_done=None):
                np_pcs = dict(pcs)
                for p in moves:
                    np_pcs[p] += 1
                out.append((label, (
                    tuple(np_pcs[p] for p in procs),
                    tuple(sorted((new_commits if new_commits is not None
                                  else commits).items())),
                    new_done if new_done is not None else done)))

            for p in procs:
                if pcs[p] >= n[p]:
                    continue
                op = ops[p][pcs[p]]
                label = f"{p.key}: {type(op).__name__}"
                if isinstance(op, SendOp):
                    advance(label, [p])
                elif isinstance(op, RecvOp):
                    key = (op.source, p, op.tag)
                    if sent(*key) > consumed.get(key, 0):
                        advance(label, [p])
                elif isinstance(op, BarrierOp):
                    if all(pcs[m] < n[m] and ops[m][pcs[m]] is op
                           for m in op.members):
                        if p == min(op.members):
                            advance(label, list(op.members))
                elif isinstance(op, (EpochOpenOp, ReadOp)):
                    advance(label, [p])
                elif isinstance(op, PutOp):
                    # the writer's k-th put needs the owner's k-th
                    # exposure epoch open (RemoteWindow.wait_open)
                    k = executed(p, PutOp, op.window) + 1
                    if executed(op.window.owner, EpochOpenOp,
                                op.window) >= k:
                        advance(label, [p])
                elif isinstance(op, FenceOp):
                    # the owner's k-th fence needs every writer's k-th
                    # commit (ExposedWindow.fence on min(done))
                    k = executed(p, FenceOp, op.window) + 1
                    if all(executed(w, PutOp, op.window) >= k
                           for w in op.writers):
                        advance(label, [p])
                elif isinstance(op, CallOp):
                    if id(op) in done:
                        advance(label, [p])
                elif isinstance(op, ServeOp):
                    committed = commits.get(p)
                    if committed is None:
                        for c in self._pending_calls(p, ops, n, pcs, done):
                            nc = dict(commits)
                            nc[p] = c
                            advance(f"{p.key}: commit {c.method!r}",
                                    [], new_commits=nc)
                    else:
                        c = committed
                        if all(pcs[q] < n[q] and ops[q][pcs[q]] is c
                               for q in c.participants):
                            nc = dict(commits)
                            del nc[p]
                            advance(f"{p.key}: serve {c.method!r}",
                                    [p], new_commits=nc,
                                    new_done=done | {id(c)})
            return out

        def is_final(state):
            return all(pc >= n[p] for p, pc in zip(procs, state[0]))

        result = explore_states(init, successors, is_final)
        if result.ok:
            return None
        pcs_t, commits_t, done = result.stuck
        pcs = dict(zip(procs, pcs_t))
        commits = dict(commits_t)
        consumed: dict[tuple, int] = {}
        for p in procs:
            for k in range(pcs[p]):
                op = ops[p][k]
                if isinstance(op, RecvOp):
                    key = (op.source, p, op.tag)
                    consumed[key] = consumed.get(key, 0) + 1
        return pcs, commits, done, ops, n, consumed

    def _pending_calls(self, provider, ops, n, pcs, done):
        """Call instances whose header has arrived at ``provider``: the
        lowest-rank participant is blocked at the call and it has not
        been serviced yet."""
        pending = []
        seen_ids = set()
        for p, plist in ops.items():
            for k in range(pcs[p], n[p]):
                op = plist[k]
                if (isinstance(op, CallOp) and op.provider == provider
                        and id(op) not in done and id(op) not in seen_ids):
                    seen_ids.add(id(op))
                    h = op.header_rank
                    if pcs[h] < n[h] and ops[h][pcs[h]] is op:
                        pending.append(op)
        return pending

    def analyze(self) -> "Diagnosis | None":
        """Return a :class:`Diagnosis` for the first reachable deadlock,
        or ``None`` when every interleaving runs to completion."""
        stuck = self._explore()
        if stuck is None:
            return None
        import networkx as nx   # only a found deadlock needs the graph

        pcs, commits, done, ops, n, consumed = stuck
        blocked: dict[str, str] = {}
        graph = nx.DiGraph()
        collective_wait = False
        rma_wait = False

        def executed(q, kind, win):
            return sum(1 for k in range(pcs[q])
                       if isinstance(ops[q][k], kind)
                       and ops[q][k].window == win)

        for p in sorted(pcs):
            if pcs[p] >= n[p]:
                continue
            op = ops[p][pcs[p]]
            graph.add_node(p.key)
            if isinstance(op, PutOp):
                rma_wait = True
                k = executed(p, PutOp, op.window) + 1
                blocked[p.key] = (
                    f"rma_put(window={op.window}, epoch={k}) awaiting "
                    f"exposure by {op.window.owner.key}")
                graph.add_edge(p.key, op.window.owner.key)
            elif isinstance(op, FenceOp):
                rma_wait = True
                k = executed(p, FenceOp, op.window) + 1
                waiting = [w for w in op.writers
                           if executed(w, PutOp, op.window) < k]
                blocked[p.key] = (
                    f"rma_fence(window={op.window}, epoch={k}) awaiting "
                    f"commits from "
                    + ", ".join(w.key for w in waiting))
                for w in waiting:
                    graph.add_edge(p.key, w.key)
            elif isinstance(op, RecvOp):
                blocked[p.key] = (
                    f"recv(source={op.source.key}, tag={op.tag}) "
                    f"with no matching send in flight")
                graph.add_edge(p.key, op.source.key)
            elif isinstance(op, BarrierOp):
                collective_wait = True
                waiting = [m for m in op.members
                           if not (pcs[m] < n[m] and ops[m][pcs[m]] is op)]
                blocked[p.key] = (
                    f"barrier({op.label or len(op.members)}) waiting for "
                    + ", ".join(m.key for m in waiting))
                for m in waiting:
                    graph.add_edge(p.key, m.key)
            elif isinstance(op, CallOp):
                collective_wait = True
                blocked[p.key] = (
                    f"collective call {op.method!r} awaiting service by "
                    f"{op.provider.key}")
                graph.add_edge(p.key, op.provider.key)
            elif isinstance(op, ServeOp):
                collective_wait = True
                committed = commits.get(p)
                if committed is not None:
                    waiting = [q for q in committed.participants
                               if not (pcs[q] < n[q]
                                       and ops[q][pcs[q]] is committed)]
                    blocked[p.key] = (
                        f"serving {committed.method!r}, waiting for "
                        f"participants "
                        + ", ".join(q.key for q in waiting))
                    for q in waiting:
                        graph.add_edge(p.key, q.key)
                else:
                    heads = [c.header_rank for c in self._all_calls(p, ops)
                             if id(c) not in done]
                    blocked[p.key] = (
                        "serve_one() with no call header in flight")
                    for h in heads:
                        graph.add_edge(p.key, h.key)
        cycles = [c for c in nx.simple_cycles(graph)]
        return Diagnosis(blocked=blocked, cycles=cycles,
                         collective=collective_wait, rma=rma_wait)

    def _all_calls(self, provider, ops):
        out, seen = [], set()
        for plist in ops.values():
            for op in plist:
                if (isinstance(op, CallOp) and op.provider == provider
                        and id(op) not in seen):
                    seen.add(id(op))
                    out.append(op)
        return out


@dataclass
class Diagnosis:
    """A would-deadlock report in the runtime watchdog's dump format."""

    blocked: dict[str, str]
    cycles: list[list[str]] = field(default_factory=list)
    collective: bool = False
    rma: bool = False

    def __post_init__(self):
        # networkx yields cycles in hash order: start each at its
        # smallest key and sort them, so the text is the same under
        # every hash seed.
        self.cycles = sorted(
            cyc[cyc.index(min(cyc)):] + cyc[:cyc.index(min(cyc))]
            for cyc in self.cycles)

    @property
    def kind(self) -> str:
        if self.collective:
            return "collective-order mismatch"
        if self.rma:
            return "epoch-order mismatch (one-sided)"
        return "receive cycle"

    def to_error(self) -> DeadlockError:
        """The exact exception the runtime watchdog would raise, built
        before launch."""
        lines = [f"static analysis: {self.kind} — "
                 f"{len(self.blocked)} process(es) can block forever"]
        for key in sorted(self.blocked):
            lines.append(f"  {key}: {self.blocked[key]}")
        for cyc in self.cycles:
            lines.append("  wait cycle: " + " -> ".join(cyc + cyc[:1]))
        return DeadlockError("\n".join(lines), blocked=self.blocked)


def would_deadlock(program: CommProgram) -> Diagnosis | None:
    """Analyze ``program``; a :class:`Diagnosis` if any interleaving
    deadlocks, ``None`` if all complete."""
    return program.analyze()


def assert_deadlock_free(program: CommProgram) -> None:
    """Raise the pre-launch :class:`~repro.errors.DeadlockError` if any
    interleaving of ``program`` deadlocks."""
    diag = program.analyze()
    if diag is not None:
        raise diag.to_error()


def transfer_model(schedule: CommSchedule, src_job: str = "src",
                   dst_job: str = "dst") -> CommProgram:
    """The communication program of one coupled schedule execution."""
    prog = CommProgram()
    src = prog.procs(src_job, schedule.src_nranks)
    dst = prog.procs(dst_job, schedule.dst_nranks)
    prog.transfer(schedule, src, dst)
    return prog


def fig5_model(policy) -> CommProgram:
    """The paper's Figure 5 programs (:mod:`repro.dca.fig5`) under a
    :class:`~repro.dca.engine.DeliveryPolicy`.

    One serial provider serving two collective calls; caller 0 makes
    call 1 only, callers 1 and 2 make call 2 (just the two of them)
    first and then call 1.  Under EAGER delivery the provider may
    commit to call 1 while callers 1–2 are still inside call 2 —
    deadlock; under BARRIER a barrier over each call's participants
    precedes delivery, which removes the bad commitment.
    """
    from repro.dca.engine import DeliveryPolicy

    prog = CommProgram()
    provider = prog.proc("provider", 0)
    c0, c1, c2 = prog.procs("callers", 3)
    prog.serve(provider)
    prog.serve(provider)
    barrier = policy == DeliveryPolicy.BARRIER
    call1 = CallOp("collective_call_1", (c0, c1, c2), provider)
    call2 = CallOp("collective_call_2", (c1, c2), provider)
    if barrier:
        prog.barrier((c1, c2), label="call2")
    for p in (c1, c2):
        prog.add(p, call2)
    if barrier:
        prog.barrier((c0, c1, c2), label="call1")
    for p in (c0, c1, c2):
        prog.add(p, call1)
    return prog


def rma_channel_model(steps: int = 1, *,
                      misuse: bool = False) -> CommProgram:
    """One producer/consumer pair on a one-sided persistent channel.

    ``misuse=False``: ``steps`` well-ordered push/pull step pairs — the
    consumer opens each exposure epoch, the producer's put lands, the
    fence closes it, the consumer reads.  Deadlock-free.

    ``misuse=True``: the epoch-misuse pattern the runtime watchdog
    dumps as ``rma_put``/``recv`` stalls — the producer pushes and
    *then* sends a side-band token, while the consumer insists on the
    token *before* its pull.  The put spins for an exposure epoch the
    consumer will only open after receiving a token that is sequenced
    after the put: a cross-layer wait cycle no message reordering can
    break.  This is exactly the documented RMA lockstep caveat
    (:class:`~repro.highlevel.Channel`): an RMA push blocks until the
    consumer's matching pull epoch.
    """
    prog = CommProgram()
    src = prog.proc("prod", 0)
    dst = prog.proc("cons", 0)
    win = prog.window(dst, "field")
    if misuse:
        prog.put(src, win)
        prog.send(src, dst, tag=1)
        prog.recv(dst, src, tag=1)
        prog.epoch_open(win)
        prog.fence(win, (src,))
        prog.read(win)
        return prog
    for _ in range(steps):
        prog.epoch_open(win)
        prog.fence(win, (src,))
        prog.read(win)
        prog.put(src, win)
    return prog


# -- PRMI serving-tier models (repro.prmi.serving) ---------------------------

#: Tags standing in for the framed request / reply streams
#: (``frame_tag(REQUEST_STREAM)`` / ``frame_tag(REPLY_STREAM)``).
_REQ = 1
_REP = 2


def prmi_serving_model(callers: int = 2,
                       flushes: int = 2) -> CommProgram:
    """The batched serving protocol of
    :class:`~repro.prmi.serving.InvocationPipeline` against a
    :class:`~repro.prmi.serving.ServerLoop`.

    Each caller ships ``flushes`` request frames up front (flush
    triggers never wait on replies — buffered sends), the server
    answers each ingress frame with exactly one reply frame, and the
    callers resolve their futures afterwards.  Deadlock-free for every
    interleaving: the one-reply-frame-per-request-frame rule means no
    reply a caller awaits can be gated on traffic that caller has not
    already sent.
    """
    prog = CommProgram()
    server = prog.proc("server", 0)
    cs = prog.procs("callers", callers)
    for c in cs:
        for _ in range(flushes):
            prog.send(c, server, _REQ)
    for c in cs:
        for _ in range(flushes):
            prog.recv(server, c, _REQ)
            prog.send(server, c, _REP)
    for c in cs:
        for _ in range(flushes):
            prog.recv(c, server, _REP)
    return prog


def prmi_batch_deadlock_model() -> CommProgram:
    """The hazard the flush deadline and per-frame replies exist to
    prevent: a server that holds replies until it has accumulated a
    *second* ingress frame (reply batching with no deadline), facing a
    caller that blocks on its first future before flushing again.

    The caller awaits a reply gated on a frame it has not sent; the
    server awaits a frame gated on the reply it is withholding — a
    wait cycle no reordering breaks.  The shipped protocol rules this
    out twice over: every request frame gets its reply frame
    immediately, and a pending batch can always flush on ``delay_us``
    without waiting on any receive."""
    prog = CommProgram()
    server = prog.proc("server", 0)
    caller = prog.proc("caller", 0)
    prog.send(caller, server, _REQ)
    prog.recv(caller, server, _REP)   # future.result() before next flush
    prog.send(caller, server, _REQ)
    prog.recv(server, caller, _REQ)
    prog.recv(server, caller, _REQ)   # waits to fill its reply batch
    prog.send(server, caller, _REP)
    prog.send(server, caller, _REP)
    return prog
