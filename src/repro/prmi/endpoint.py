"""PRMI caller/callee endpoints — the SCIRun2 invocation model (§4.2).

Collective calls pair M caller ranks with N callee ranks:

* callee rank ``n`` is invoked by caller rank ``n % M`` — callers with
  several such callees create *ghost invocations*;
* caller rank ``m`` receives its return from callee rank ``m % N`` —
  callees serving several such callers create *ghost return values*;
* when M > N a callee receives several (merged) invocations whose
  arguments must agree — "argument and return value data is assumed to
  be the same across the processes of a component".

Parallel arguments are *pulled*: the invocation ships only descriptor
metadata; the callee announces its desired layout (pre-registered, or
lazily from inside the method body — the paper's two strategies), both
cohorts fetch the same M×N schedule for the descriptor pair from the
process-wide cache (built and compiled on the first call, a hit on every
one after), and the data moves as schedule point-to-point messages.

A pre-registered layout moves by *epoch* (the transmission-policy idea
of arXiv 1006.3739, applied to the layout): a layout's epoch is a digest of its schedule-cache
key, so equal layouts share one on every rank and across endpoints; the
callers keep the ``(epoch, layout)`` the callee shipped them, and every
invocation names the epoch they hold.  Per call and parallel argument:

===================  ===============================================
callers hold         the callee
===================  ===============================================
nothing              ships ``(epoch, layout)`` on :data:`PULL_TAG`
                     (caller 0 broadcasts it), then pulls into it —
                     the first call, and every lazy (strategy 2) call
the current epoch    pulls into it: no layout message, no broadcast
a stale epoch        pulls in the layout of that epoch (it keeps every
                     one registered), redistributes it into the
                     current one over its cohort (``execute_intra``)
                     and sends the current ``(epoch, layout)`` with
                     the return, so every caller switches before its
                     next call; a one-way call has no return and stays
                     on the stale epoch
===================  ===============================================

The argument's own descriptor travels the same way: an invocation
carries it only when it is not the object that caller sent last
(``None`` otherwise), and the callee keeps each caller's.  What a
caller endpoint holds is therefore state of its pairing with one
callee endpoint: a new callee endpoint refuses an old caller endpoint's
call with :class:`~repro.errors.PRMIError`.

An independent (one-to-one) call travels as request/reply *frames*
(:mod:`repro.prmi.frames`), the one wire every independent invocation
uses — one at a time here, batched and pipelined by
:class:`~repro.prmi.serving.InvocationPipeline`.  The tags:

=============================  ======================================
tag                            carries
=============================  ======================================
:data:`INVOKE_TAG` 100         collective invocation fragments
:data:`RETURN_TAG` 101         collective return values
:data:`PULL_TAG` 102           ``(epoch, layout)`` announcements
:data:`DATA_TAG` 103           parallel-argument schedule messages
:data:`SUBSET_TAG` 106         sub-setting announcements and acks
``frame_tag(REQUEST_STREAM)``  request frames of ``(seq, method,
                               kwargs)`` entries, caller → callee;
                               ``seq`` :data:`NOREPLY_SEQ` expects no
                               reply
``frame_tag(REPLY_STREAM)``    one reply frame of ``(seq, status,
                               value)`` entries per request frame
                               that expects any reply
``frame_tag(CONTROL_STREAM)``  serve-loop shutdown tokens
=============================  ======================================
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.errors import (
    ParticipationError,
    PRMIError,
    ServerOverloaded,
    SimpleArgumentMismatch,
)
from repro.cca.sidl import MethodSpec, PortType
from repro.dad.darray import DistributedArray
from repro.dad.descriptor import DistArrayDescriptor
from repro.prmi.args import LazyParallelArg, ParallelArg
from repro.prmi.frames import decode_frame, encode_frame
from repro.schedule.builder import GLOBAL_CACHE
from repro.schedule.executor import allocate_dst, execute_inter, execute_intra
from repro.simmpi.communicator import Communicator
from repro.simmpi.constants import frame_tag
from repro.simmpi.intercomm import Intercommunicator
from repro.util.counters import PRMI_STATS

INVOKE_TAG = 100
RETURN_TAG = 101
PULL_TAG = 102
DATA_TAG = 103
SUBSET_TAG = 106

#: Framed-protocol stream ids (see the tag table above).
REQUEST_STREAM = 0
REPLY_STREAM = 1
CONTROL_STREAM = 2

#: Sequence number of fire-and-forget request entries (no reply travels).
NOREPLY_SEQ = -1


@dataclass
class InvocationStats:
    """Bookkeeping for experiments E10/E11."""

    calls: int = 0
    ghost_invocations: int = 0
    ghost_returns: int = 0
    merged_invocations: int = 0
    simple_checks: int = 0
    subset_engagements: int = 0


class _Relayout(NamedTuple):
    """A return value carrying the callee's current layouts: ``layouts``
    maps a parallel parameter's name to its ``(epoch, descriptor)``."""

    result: Any
    layouts: dict


def _parallel_in(spec: MethodSpec) -> list:
    return [p for p in spec.in_params if p.kind == "parallel"]


def _epoch(layout: DistArrayDescriptor) -> bytes:
    """A registered layout's epoch: a digest of its schedule-cache key.
    Equal layouts share one — on every callee rank, whatever order it
    registers in, and across re-registrations — and different ones
    never do, so an epoch the callers hold always names the layout they
    send in."""
    return hashlib.blake2b(repr(layout.cache_key()).encode(),
                           digest_size=16).digest()


def _args_equal(a: Any, b: Any) -> bool:
    """Structural equality that tolerates NumPy values.

    Arrays must match in dtype as well as shape and contents:
    ``np.array_equal`` calls ``float32([1,2]) == float64([1,2])`` equal,
    but the cohorts would build byte-incompatible schedules from them.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and a.dtype == b.dtype
                and bool(np.array_equal(a, b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_args_equal(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(_args_equal(x, y) for x, y in zip(a, b)))
    return bool(a == b)


def _package_result(spec: MethodSpec, result: Any) -> Any:
    """Validate and normalize a callee implementation's result against
    the method's out-parameter declaration.

    Methods with ``out``/``inout`` parameters must return a dict holding
    one key per out parameter, plus ``"return"`` when the method also
    declares a return value.  Plain methods pass through unchanged.
    """
    if not spec.out_params:
        return result
    out_names = [p.name for p in spec.out_params]
    if any(p.kind == "parallel" for p in spec.out_params):
        raise PRMIError(
            f"method {spec.name!r}: parallel out parameters are not "
            f"supported; return results through an M×N connection")
    expected = set(out_names) | ({"return"} if spec.returns else set())
    if not isinstance(result, dict) or set(result) != expected:
        raise PRMIError(
            f"method {spec.name!r} declares out parameters "
            f"{out_names}; the implementation must return a dict with "
            f"keys {sorted(expected)}, got {result!r}")
    return result


def reply_error(status: str, value: Any) -> BaseException:
    """The exception a reply entry of ``status`` other than ``"ok"``
    settles with: the callee's own (``"err"``), or
    :class:`~repro.errors.ServerOverloaded` when admission control
    refused the request (``"overload"``)."""
    if status == "overload":
        return ServerOverloaded(str(value))
    return value if isinstance(value, BaseException) else PRMIError(str(value))


class CallerEndpoint:
    """The uses side of a parallel remote port."""

    def __init__(self, local_comm: Communicator, inter: Intercommunicator,
                 port_type: PortType, *, verify_simple: bool = False,
                 _subset: list[int] | None = None,
                 _participation_comm: Communicator | None = None):
        self.local_comm = local_comm
        self.inter = inter
        self.port_type = port_type
        #: Check the CCA convention that simple arguments match across
        #: callers.  Off by default — the paper notes frameworks "may not
        #: actively enforce this policy because checking ... might incur
        #: in a performance penalty".
        self.verify_simple = verify_simple
        self.stats = InvocationStats()
        #: When set, only these cohort ranks participate in collective
        #: calls (SCIRun2's sub-setting mechanism, §4.2); positions in
        #: the list define the effective caller ranks.
        self._subset = list(_subset) if _subset is not None else None
        #: Communicator over the participants (for pull broadcasts and
        #: simple-arg verification); the full cohort when no subset.
        self._pcomm = (_participation_comm if _participation_comm
                       is not None else local_comm)
        #: Pre-registered callee layouts this endpoint holds:
        #: (method, param) -> (epoch, descriptor).  Every participating
        #: rank updates it at the same call boundary (see invoke).
        self._held: dict[tuple[str, str], tuple[bytes, DistArrayDescriptor]] = {}
        #: The descriptor each parallel parameter last went out with; an
        #: invocation repeating it sends ``None`` in its place (this
        #: rank's callees kept it).
        self._sent: dict[str, DistArrayDescriptor] = {}

    # -- helpers ------------------------------------------------------------

    @property
    def m(self) -> int:
        return (len(self._subset) if self._subset is not None
                else self.local_comm.size)

    @property
    def n(self) -> int:
        return self.inter.remote_size

    @property
    def caller_rank(self) -> int | None:
        """This rank's effective position among the participating
        callers (None when subset out)."""
        if self._subset is None:
            return self.local_comm.rank
        try:
            return self._subset.index(self.local_comm.rank)
        except ValueError:
            return None

    # -- SCIRun2 sub-setting (§4.2) --------------------------------------------

    def engage_subset(self, ranks: list[int]) -> "CallerEndpoint":
        """"If the needs of a component change at run-time and the
        choice of processes participating in a call needs to be
        modified, then a sub-setting mechanism is engaged."

        Collective over the *full* cohort.  Announces the new
        participant set to the callee cohort (whose
        :class:`~repro.prmi.serving.ServerLoop` installs it) and returns
        a new endpoint
        on which only ``ranks`` make collective calls.  Ranks outside
        the subset receive the endpoint too, but their :meth:`invoke`
        is a no-op returning None.
        """
        ranks = sorted({int(r) for r in ranks})
        if not ranks or ranks[0] < 0 or ranks[-1] >= self.local_comm.size:
            raise PRMIError(f"invalid subset {ranks} for cohort of "
                            f"{self.local_comm.size}")
        self.stats.subset_engagements += 1
        # Nobody announces until every caller is here, i.e. has its
        # pre-subset returns: a callee that installed the new map first
        # would never match a slower caller's pending old-map fragment.
        self.local_comm.barrier()
        if self.local_comm.rank == 0:
            # One inter-job message: callee rank 0 relays the
            # announcement down a binomial tree over its own cohort
            # (N-1 local hops in log N rounds instead of N sequential
            # inter sends from here).  The ack comes back only after
            # every callee rank has installed the new caller map, so no
            # post-subset invocation — released by the barrier below —
            # can reach a callee still holding the old map (the
            # event-driven serve loop would otherwise gather fragments
            # under stale merge ownership).
            self.inter.send(("subset", ranks), dest=0, tag=SUBSET_TAG)
            kind, acked = self.inter.recv(source=0, tag=SUBSET_TAG)
            if kind != "subset-ack" or list(acked) != ranks:
                raise PRMIError(
                    f"subset handshake mismatch: sent {ranks}, "
                    f"acked {kind!r} {acked!r}")
        pcomm = self.local_comm.create_subcomm(ranks)
        self.local_comm.barrier()
        return CallerEndpoint(self.local_comm, self.inter, self.port_type,
                              verify_simple=self.verify_simple,
                              _subset=ranks, _participation_comm=pcomm)

    def _split_args(self, spec: MethodSpec, kwargs: dict) -> tuple[dict, dict]:
        declared = {p.name for p in spec.in_params}
        if set(kwargs) != declared:
            raise PRMIError(
                f"method {spec.name!r} expects arguments {sorted(declared)}, "
                f"got {sorted(kwargs)}")
        simple, parallel = {}, {}
        for p in spec.in_params:
            value = kwargs[p.name]
            if p.kind == "parallel":
                if not isinstance(value, ParallelArg):
                    raise PRMIError(
                        f"argument {p.name!r} is declared parallel; wrap it "
                        f"in ParallelArg")
                parallel[p.name] = value
            else:
                if isinstance(value, ParallelArg):
                    raise PRMIError(
                        f"argument {p.name!r} is declared simple but got a "
                        f"ParallelArg")
                simple[p.name] = value
        return simple, parallel

    def _check_simple_consistency(self, simple: dict) -> None:
        self.stats.simple_checks += 1
        gathered = self._pcomm.allgather(simple)
        for other in gathered:
            if not _args_equal(other, simple):
                raise SimpleArgumentMismatch(
                    f"simple arguments differ across callers: "
                    f"{other!r} vs {simple!r}")

    # -- collective invocation ------------------------------------------------

    def invoke(self, method: str, **kwargs: Any) -> Any:
        """Collective call: every caller rank must invoke this together.

        Returns the callee's return value (every caller gets one);
        a one-way method returns ``None`` once its arguments are sent,
        and a rank subset out of the call returns ``None`` at once.

        Each parallel argument moves in the layout this endpoint holds
        for it; the invocation names that layout's epoch.  Holding none,
        the callers wait for the callee to ship ``(epoch, layout)`` on
        :data:`PULL_TAG` (to the effective rank 0, which broadcasts it)
        and keep a pre-registered one for the calls that follow.  A
        return that carries the callee's re-registered layouts updates
        the ones this endpoint holds, on every caller at once: each
        caller receives its return before it can start the next call.
        """
        spec = self.port_type.method(method)
        if spec.invocation != "collective":
            raise PRMIError(
                f"method {method!r} is declared independent; use "
                f"invoke_independent")
        me = self.caller_rank
        if me is None:
            # Subset out: this cohort rank sits the call out entirely.
            return None
        simple, parallel = self._split_args(spec, kwargs)
        if self.verify_simple and simple:
            self._check_simple_consistency(simple)

        self.stats.calls += 1
        pull_root = (self._subset[0] if self._subset is not None else 0)
        parallel_meta = {}
        for name, arg in parallel.items():
            descriptor = arg.descriptor
            parallel_meta[name] = (None if self._sent.get(name) is descriptor
                                   else descriptor)
            self._sent[name] = descriptor
        params = _parallel_in(spec)
        held = [self._held.get((method, p.name)) for p in params]
        epochs = tuple(h[0] if h is not None else None for h in held)
        my_callees = [nn for nn in range(self.n) if nn % self.m == me] \
            if self.n >= self.m else [me % self.n]
        for callee in my_callees:
            self.inter.send((method, simple, parallel_meta, pull_root,
                             epochs), dest=callee, tag=INVOKE_TAG)
        self.stats.ghost_invocations += max(0, len(my_callees) - 1)

        # Serve the callee's pulls, one per parallel in-param, in
        # declared order.
        for p, mine in zip(params, held):
            if mine is not None:
                layout = mine[1]
            else:
                shipped = (self.inter.recv(source=0, tag=PULL_TAG)
                           if me == 0 else None)
                epoch, layout = self._pcomm.bcast(shipped, root=0)
                if epoch is not None:
                    self._held[(method, p.name)] = (epoch, layout)
            arg = parallel[p.name]
            sched = GLOBAL_CACHE.get(arg.descriptor, layout)
            execute_inter(sched, self.inter, "src", arg.darray,
                          tag=DATA_TAG, rank=me)

        if spec.oneway:
            return None
        value = self.inter.recv(source=me % self.n, tag=RETURN_TAG)
        if isinstance(value, _Relayout):
            self._held.update({(method, name): entry for name, entry
                               in value.layouts.items()})
            value = value.result
        return value

    # -- independent invocation -------------------------------------------------

    def invoke_independent(self, method: str, callee_rank: int,
                           **kwargs: Any) -> Any:
        """One-to-one non-collective invocation (Damevski's second kind):
        a request frame of one entry to ``callee_rank`` and, unless the
        method is one-way (entry :data:`NOREPLY_SEQ`; returns ``None``
        at once), that frame's one reply — the value, or the exception
        the callee raised.

        The reply shares the callee's reply stream with an
        :class:`~repro.prmi.serving.InvocationPipeline` over this
        endpoint, so settle the pipeline's futures first."""
        spec = self.port_type.method(method)
        if spec.invocation != "independent":
            raise PRMIError(
                f"method {method!r} is declared collective; use invoke")
        if spec.parallel_params:
            raise PRMIError(
                "independent invocations cannot carry parallel arguments")
        declared = {p.name for p in spec.in_params}
        if set(kwargs) != declared:
            raise PRMIError(
                f"method {method!r} expects arguments {sorted(declared)}, "
                f"got {sorted(kwargs)}")
        self.stats.calls += 1
        seq = NOREPLY_SEQ if spec.oneway else 0
        self.inter.send(encode_frame([(seq, method, kwargs)]),
                        dest=callee_rank, tag=frame_tag(REQUEST_STREAM))
        if spec.oneway:
            return None
        [(_seq, status, value)] = decode_frame(self.inter.recv(
            source=callee_rank, tag=frame_tag(REPLY_STREAM)))
        if status != "ok":
            raise reply_error(status, value)
        return value


class InvocationContext:
    """Handed to callee implementations that take lazy parallel args."""

    def __init__(self, callee: "CalleeEndpoint", spec: MethodSpec):
        self._callee = callee
        self._spec = spec
        self._order = [p.name for p in spec.in_params if p.kind == "parallel"]
        self._next = 0

    def expect_next(self, name: str) -> None:
        if self._next >= len(self._order) or self._order[self._next] != name:
            raise PRMIError(
                f"parallel arguments must be materialized in declared "
                f"order {self._order}; got {name!r} at position {self._next}")
        self._next += 1

    @property
    def all_materialized(self) -> bool:
        return self._next == len(self._order)


class CalleeEndpoint:
    """The provides side of a parallel remote port."""

    def __init__(self, local_comm: Communicator, inter: Intercommunicator,
                 port_type: PortType, impl: Any,
                 *, verify_simple: bool = False):
        self.local_comm = local_comm
        self.inter = inter
        self.port_type = port_type
        self.impl = impl
        self.verify_simple = verify_simple
        self.stats = InvocationStats()
        #: Pre-registered layouts (the paper's first strategy: "specify
        #: the layout using a special framework service before the call
        #: is received"): (method, param) -> the epoch of its current
        #: layout, and every layout ever registered by epoch — what
        #: callers holding a stale epoch still send in.
        self._layouts: dict[tuple[str, str], bytes] = {}
        self._registered: dict[bytes, DistArrayDescriptor] = {}
        #: (actual caller rank, parallel parameter) -> the source
        #: descriptor that caller last sent (it sends ``None`` while it
        #: is unchanged).
        self._sources: dict[tuple[int, str], DistArrayDescriptor] = {}
        #: Effective caller rank -> actual remote rank; identity until a
        #: subset is engaged (§4.2 sub-setting).
        self._caller_map: list[int] | None = None
        #: Pull announcements go to this remote rank (the effective
        #: rank-0 caller); updated per invocation.
        self._pull_root = 0

    @property
    def n(self) -> int:
        return self.local_comm.size

    @property
    def m(self) -> int:
        return (len(self._caller_map) if self._caller_map is not None
                else self.inter.remote_size)

    def _actual_caller(self, effective: int) -> int:
        if self._caller_map is None:
            return effective
        return self._caller_map[effective]

    def _install_subset(self, announcement: Any) -> None:
        """Complete the caller side's :meth:`CallerEndpoint.engage_subset`
        (the serve loop calls this on every callee rank): relay the
        announcement to this rank's children on a binomial tree over the
        local communicator (only rank 0 hears from the caller job; tag
        :data:`SUBSET_TAG` in both hops), adopt the new caller map, and
        join the install barrier (rank 0 then acks the caller side)."""
        kind, ranks = announcement
        if kind != "subset":  # pragma: no cover - protocol guard
            raise PRMIError(f"expected subset announcement, got {kind!r}")
        me = self.local_comm.rank
        for child in self.local_comm._tree_children(me, self.local_comm.size):
            self.local_comm.send(announcement, child, SUBSET_TAG)
        self._caller_map = list(ranks)
        self.stats.subset_engagements += 1
        # Every rank holds the new map before the ack releases the
        # callers' post-subset traffic.
        self.local_comm.barrier()
        if me == 0:
            self.inter.send(("subset-ack", list(ranks)), dest=0,
                            tag=SUBSET_TAG)

    def set_param_layout(self, method: str, param: str,
                         layout: DistArrayDescriptor) -> None:
        """Register the desired layout of a parallel parameter ahead of
        invocation time (every callee rank registers its part of the
        same layout); a re-registration takes effect on the next call."""
        spec = self.port_type.method(method)
        if param not in {p.name for p in spec.parallel_params}:
            raise PRMIError(
                f"method {method!r} has no parallel parameter {param!r}")
        epoch = _epoch(layout)
        self._layouts[(method, param)] = epoch
        self._registered[epoch] = layout

    # -- data pull --------------------------------------------------------------

    def _ship(self, epoch: bytes | None,
              layout: DistArrayDescriptor) -> None:
        """Announce ``layout`` (with its epoch, ``None`` when lazy) to
        the callers' effective rank 0."""
        if self.local_comm.rank == 0:
            self.inter.send((epoch, layout), dest=self._pull_root,
                            tag=PULL_TAG)

    def _pull(self, src_descriptor: DistArrayDescriptor,
              layout: DistArrayDescriptor) -> DistributedArray:
        """Collective over the callee cohort: receive the redistributed
        data in ``layout``."""
        sched = GLOBAL_CACHE.get(src_descriptor, layout)
        dst = allocate_dst(sched, layout, self.local_comm.rank)
        execute_inter(sched, self.inter, "dst", dst, tag=DATA_TAG,
                      peer_map=self._caller_map)
        return dst

    def _pull_registered(self, src_descriptor: DistArrayDescriptor,
                         epoch: bytes, held: bytes | None
                         ) -> DistributedArray:
        """Pull a parameter whose current layout is ``epoch`` and that
        the callers send in the layout of epoch ``held``: ship the
        layout first if they hold none, pull straight into it if they
        hold it, and otherwise pull in the stale layout and redistribute
        inside the cohort."""
        layout = self._registered[epoch]
        if held is None:
            self._ship(epoch, layout)
        if held is None or held == epoch:
            return self._pull(src_descriptor, layout)
        stale = self._registered.get(held)
        if stale is None:
            raise PRMIError(
                f"the callers hold layout epoch {held.hex()}, which this "
                f"endpoint never registered")
        pulled = self._pull(src_descriptor, stale)
        sched = GLOBAL_CACHE.get(stale, layout)
        dst = allocate_dst(sched, layout, self.local_comm.rank)
        execute_intra(sched, self.local_comm, src_array=pulled,
                      dst_array=dst, tag=DATA_TAG)
        return dst

    # -- collective servicing ------------------------------------------------------

    def _expected_callers(self) -> list[int]:
        """Caller ranks whose invocation fragments this rank merges.

        Participation is static (the SCIRun2/Damevski model), so the
        sources are known a priori; receiving from them specifically —
        rather than ANY_SOURCE — keeps per-source FIFO pairing intact
        when a fast caller's next call overtakes a slow caller's
        current one (e.g. after a one-way method).
        """
        me = self.local_comm.rank
        if self.n >= self.m:
            effective = [me % self.m]
        else:
            effective = [mm for mm in range(self.m) if mm % self.n == me]
        return [self._actual_caller(mm) for mm in effective]

    def serve_one(self) -> str:
        """Service exactly one collective invocation.

        Every callee rank must call this together.  Returns the method
        name serviced (useful for serve loops and tests).
        """
        callers = self._expected_callers()
        invocations = [self.inter.recv(source=mm, tag=INVOKE_TAG)
                       for mm in callers]
        return self._dispatch_collective(invocations)

    def _dispatch_collective(self, invocations: list[Any]) -> str:
        """Merge, execute, and answer already-received invocation
        fragments (one per expected caller, in
        :meth:`_expected_callers` order).  Split from :meth:`serve_one`
        so the event-driven serve loop can receive the fragments through
        ``wait_any`` and dispatch here."""
        me = self.local_comm.rank
        expected = len(invocations)
        callers = self._expected_callers()
        for caller, (_, _, meta, _, _) in zip(callers, invocations):
            self._sources.update({(caller, name): descriptor
                                  for name, descriptor in meta.items()
                                  if descriptor is not None})
        method, simple, _, pull_root, held = invocations[0]
        self._pull_root = pull_root
        for other_method, other_simple, _, _, other_held in invocations[1:]:
            if other_method != method:
                raise ParticipationError(
                    f"callee rank {me} received merged invocations of "
                    f"different methods: {method!r} vs {other_method!r}")
            if other_held != held:
                raise ParticipationError(
                    f"callee rank {me} received merged invocations of "
                    f"{method!r} holding different layout epochs: "
                    f"{held} vs {other_held}")
            if self.verify_simple and not _args_equal(other_simple, simple):
                raise SimpleArgumentMismatch(
                    f"merged invocations disagree on simple args: "
                    f"{simple!r} vs {other_simple!r}")
        self.stats.calls += 1
        self.stats.merged_invocations += expected - 1
        spec = self.port_type.method(method)

        ctx = InvocationContext(self, spec)
        call_kwargs: dict[str, Any] = dict(simple)
        relayout = {}
        for p, epoch in zip(_parallel_in(spec), held):
            src_desc = self._sources.get((callers[0], p.name))
            if src_desc is None:
                raise PRMIError(
                    f"{method}.{p.name}: caller {callers[0]} sent no "
                    f"source descriptor this endpoint has seen")
            current = self._layouts.get((method, p.name))
            if current is not None:
                # Strategy 1: layout known up front; pull eagerly.
                ctx.expect_next(p.name)
                call_kwargs[p.name] = self._pull_registered(
                    src_desc, current, epoch)
                if epoch not in (None, current):
                    relayout[p.name] = (current, self._registered[current])
            elif epoch is not None:
                raise PRMIError(
                    f"{method}.{p.name}: the callers hold layout epoch "
                    f"{epoch.hex()}, but no layout is registered")
            else:
                # Strategy 2: hand the method a reference; the transfer
                # happens when it specifies the layout.
                def make_pull(name=p.name, src=src_desc):
                    def pull(layout: DistArrayDescriptor) -> DistributedArray:
                        ctx.expect_next(name)
                        self._ship(None, layout)
                        return self._pull(src, layout)
                    return pull
                call_kwargs[p.name] = LazyParallelArg(p.name, make_pull())

        result = getattr(self.impl, method)(**call_kwargs)
        result = _package_result(spec, result)

        if not ctx.all_materialized:
            raise PRMIError(
                f"method {method!r} returned without materializing every "
                f"parallel argument; the callers are still waiting to send")

        if not spec.oneway:
            if relayout:
                # every caller adopts the current layouts with this
                # return, before its next call
                result = _Relayout(result, relayout)
            return_to = [mm for mm in range(self.m) if mm % self.n == me]
            for caller in return_to:
                self.inter.send(result, dest=self._actual_caller(caller),
                                tag=RETURN_TAG)
            self.stats.ghost_returns += max(0, len(return_to) - 1)
        return method

    # -- independent servicing -------------------------------------------------------

    def serve_independent(self) -> str:
        """Answer one request frame (an independent invocation) on this
        rank; returns the method name of its first entry."""
        buf, status = self.inter.recv(tag=frame_tag(REQUEST_STREAM),
                                      return_status=True)
        entries = decode_frame(buf)
        self.answer_frame(status.source, entries)
        return entries[0][1]

    def answer_frame(self, source: int, entries: list,
                     budget: float = float("inf")) -> tuple[int, int]:
        """Run one request frame's ``(seq, method, kwargs)`` entries from
        remote rank ``source`` in order and send its one reply frame —
        none when every entry is :data:`NOREPLY_SEQ`.  An entry that
        raises ships the exception (``"err"``); entries past ``budget``
        are refused (``"overload"``, the serve loop's admission cap).
        Returns ``(errors, overloads)``."""
        replies: list[tuple[int, str, Any]] = []
        errors = overloads = 0
        for seq, method, kwargs in entries:
            if budget <= 0:
                overloads += 1
                PRMI_STATS.add("overloads")
                reply = ("overload", "ingress queue cap exceeded")
            else:
                budget -= 1
                try:
                    spec = self.port_type.method(method)
                    if spec.parallel_params:
                        raise PRMIError(
                            f"method {method!r} declares parallel "
                            f"parameters; framed requests carry simple "
                            f"arguments only")
                    self.stats.calls += 1
                    reply = ("ok", _package_result(
                        spec, getattr(self.impl, method)(**kwargs)))
                except Exception as exc:  # noqa: BLE001 - shipped back
                    errors += 1
                    reply = ("err", exc)
            if seq != NOREPLY_SEQ:
                replies.append((seq, *reply))
        if replies:
            self.inter.send(encode_frame(replies), dest=source,
                            tag=frame_tag(REPLY_STREAM))
        return errors, overloads
