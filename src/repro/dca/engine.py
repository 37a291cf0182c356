"""The DCA invocation engine: headers, bodies, and delivery policies.

Wire protocol per collective call:

1. (BARRIER policy only) the participants synchronize on their
   participation communicator — the paper's fix for Fig. 5;
2. the lowest participant sends a *header* (method, participant ranks,
   simple args) to callee rank 0;
3. **every** participant sends one *body* message to **every** callee
   rank, tagged with a method-derived key and carrying that callee's
   chunks of the parallel arguments (MPI alltoallv shape);
4. callee rank 0 broadcasts the header over the callee cohort; every
   callee rank receives the participants' bodies in header order and
   assembles per-parameter :class:`DCABuffer` values;
5. unless the method is one-way, callee rank 0 returns the result to
   every participant.

The method-derived body tag is what makes the EAGER policy faithful to
Fig. 5: a server committed to call 1 posts receives that can never match
call 2's queued bodies, so intersecting participant sets deadlock —
detected by the runtime watchdog instead of hanging.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import ParticipationError, PRMIError
from repro.cca.sidl import MethodSpec, PortType
from repro.simmpi.communicator import Communicator
from repro.simmpi.intercomm import Intercommunicator

HDR_TAG = 120
BODY_TAG_BASE = 2000
RET_TAG_BASE = 4000
_KEY_SPACE = 1024


class DeliveryPolicy(enum.Enum):
    """When a collective invocation is delivered to the provider."""

    #: Deliver as soon as the first participant reaches the call point —
    #: the broken semantics of Fig. 5.
    EAGER = "eager"
    #: Delay delivery "until all participating processes have reached
    #: the calling point by inserting a barrier before the delivery".
    BARRIER = "barrier"


def _method_key(method: str) -> int:
    return zlib.crc32(method.encode()) % _KEY_SPACE


class DCAParallelArg:
    """Caller-side parallel data in DCA's alltoallv idiom (§4.3: "the
    user define[s] the data distribution layout using MPI data types,
    displacement and count arrays").

    ``sendbuf[displs[j] : displs[j] + counts[j]]`` is the chunk destined
    for callee rank ``j``.
    """

    def __init__(self, sendbuf: np.ndarray, counts: Sequence[int],
                 displs: Sequence[int] | None = None):
        self.sendbuf = np.asarray(sendbuf)
        if self.sendbuf.ndim != 1:
            raise PRMIError("DCAParallelArg sendbuf must be 1-D")
        self.counts = [int(c) for c in counts]
        if displs is None:
            displs = np.concatenate(([0], np.cumsum(self.counts)[:-1]))
        self.displs = [int(d) for d in displs]
        if len(self.counts) != len(self.displs):
            raise PRMIError("counts and displs must have equal length")
        for c, d in zip(self.counts, self.displs):
            if d + c > self.sendbuf.shape[0]:
                raise PRMIError(
                    f"chunk [{d}, {d + c}) exceeds sendbuf length "
                    f"{self.sendbuf.shape[0]}")

    def chunk_for(self, callee: int) -> np.ndarray:
        d, c = self.displs[callee], self.counts[callee]
        return self.sendbuf[d:d + c]


@dataclass
class DCABuffer:
    """Callee-side view of one parallel parameter: the concatenation of
    every participant's chunk, alltoallv-style."""

    data: np.ndarray
    counts: list[int]          #: chunk length per participant
    sources: list[int]         #: participant caller ranks, header order


class DCACallerPort:
    """Uses side of a DCA remote port."""

    def __init__(self, local_comm: Communicator, inter: Intercommunicator,
                 port_type: PortType,
                 policy: DeliveryPolicy = DeliveryPolicy.BARRIER):
        self.local_comm = local_comm
        self.inter = inter
        self.port_type = port_type
        self.policy = policy
        self.barriers_inserted = 0

    def invoke(self, method: str, pcomm: Communicator | None = None,
               **kwargs: Any) -> Any:
        """Collective over the participants.

        ``pcomm`` is the participation communicator (the extra argument
        DCA's stub generator appends); ``None`` means all local ranks
        participate.
        """
        spec = self.port_type.method(method)
        pcomm = pcomm if pcomm is not None else self.local_comm
        simple, parallel = self._split_args(spec, kwargs)

        # Participant local ranks come from the communicator's membership
        # metadata, NOT from a collective — an allgather here would act
        # as a hidden barrier and mask the Fig. 5 failure mode that the
        # EAGER policy exists to demonstrate.
        try:
            participants = [self.local_comm.job_ranks.index(jr)
                            for jr in pcomm.job_ranks]
        except ValueError:
            raise ParticipationError(
                "participation communicator is not a subset of the "
                "component's cohort communicator") from None
        if self.policy is DeliveryPolicy.BARRIER:
            pcomm.barrier()
            self.barriers_inserted += 1

        key = _method_key(method)
        if pcomm.rank == 0:
            self.inter.send((method, participants, simple),
                            dest=0, tag=HDR_TAG)
        n = self.inter.remote_size
        for callee in range(n):
            body = {name: arg.chunk_for(callee)
                    for name, arg in parallel.items()}
            self.inter.send(body, dest=callee, tag=BODY_TAG_BASE + key)

        if spec.oneway:
            return None
        return self.inter.recv(source=0, tag=RET_TAG_BASE + key)

    def _split_args(self, spec: MethodSpec,
                    kwargs: dict) -> tuple[dict, dict]:
        declared = {p.name for p in spec.in_params}
        if set(kwargs) != declared:
            raise PRMIError(
                f"method {spec.name!r} expects arguments {sorted(declared)}, "
                f"got {sorted(kwargs)}")
        simple, parallel = {}, {}
        for p in spec.in_params:
            value = kwargs[p.name]
            if p.kind == "parallel":
                if not isinstance(value, DCAParallelArg):
                    raise PRMIError(
                        f"argument {p.name!r} is declared parallel; wrap it "
                        f"in DCAParallelArg")
                if len(value.counts) != self.inter.remote_size:
                    raise PRMIError(
                        f"argument {p.name!r}: counts target "
                        f"{len(value.counts)} callees, remote size is "
                        f"{self.inter.remote_size}")
                parallel[p.name] = value
            else:
                simple[p.name] = value
        return simple, parallel


class DCAServerPort:
    """Provides side of a DCA remote port."""

    def __init__(self, local_comm: Communicator, inter: Intercommunicator,
                 port_type: PortType, impl: Any):
        self.local_comm = local_comm
        self.inter = inter
        self.port_type = port_type
        self.impl = impl
        self.serviced: list[str] = []

    def serve_one(self) -> str:
        """Service one collective invocation; collective over the callee
        cohort.  Returns the method name serviced."""
        if self.local_comm.rank == 0:
            header = self.inter.recv(tag=HDR_TAG)
        else:
            header = None
        method, participants, simple = self.local_comm.bcast(header, root=0)
        spec = self.port_type.method(method)
        key = _method_key(method)

        # Commitment point: from here the server only accepts bodies of
        # THIS call.  Under EAGER delivery with intersecting participant
        # sets this is where Fig. 5's deadlock forms.
        chunks_per_param: dict[str, list[np.ndarray]] = {
            p.name: [] for p in spec.parallel_params}
        for p_rank in participants:
            body = self.inter.recv(source=p_rank, tag=BODY_TAG_BASE + key)
            got = set(body)
            expect = set(chunks_per_param)
            if got != expect:
                raise ParticipationError(
                    f"body from caller {p_rank} carries params {sorted(got)},"
                    f" expected {sorted(expect)}")
            for name, chunk in body.items():
                chunks_per_param[name].append(np.asarray(chunk))

        call_kwargs: dict[str, Any] = dict(simple)
        for name, chunks in chunks_per_param.items():
            counts = [c.shape[0] for c in chunks]
            data = (np.concatenate(chunks) if chunks
                    else np.empty(0))
            call_kwargs[name] = DCABuffer(data, counts, list(participants))

        result = getattr(self.impl, method)(**call_kwargs)
        self.serviced.append(method)

        if not spec.oneway and self.local_comm.rank == 0:
            for p_rank in participants:
                self.inter.send(result, dest=p_rank, tag=RET_TAG_BASE + key)
        return method

    def serve(self, count: int) -> list[str]:
        """Service ``count`` invocations in arrival order."""
        return [self.serve_one() for _ in range(count)]
