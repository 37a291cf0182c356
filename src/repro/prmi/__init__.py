"""Parallel Remote Method Invocation (paper §2.4, §4.2).

"Supporting PRMI is a problem unique to the CCA.  Commercial component
systems support only serial RMI ..."  This package implements the
SCIRun2-flavoured PRMI model:

* **collective** invocations: all M caller ranks call together, all N
  callee ranks service together, with *ghost invocations and return
  values* bridging M ≠ N (§4.2),
* **independent** invocations: one caller rank to one callee rank,
* **one-way** methods: the caller continues immediately, no return
  value (§2.4, adopted from CORBA),
* **simple** arguments (same value on every caller, optionally
  verified) and **parallel** arguments (distributed arrays pulled
  across with an M×N schedule, with both callee-layout strategies the
  paper describes: pre-registered layout and delayed transfer).

The DCA variant (subset participation via communicators, barrier-before-
delivery, alltoall-style parallel data) lives in :mod:`repro.dca`.

The high-throughput serving tier (:mod:`repro.prmi.serving`) layers an
event-driven serve loop, adaptive invocation batching
(:mod:`repro.prmi.frames`), pipelined futures, backpressure, and a
per-port transmission policy (:mod:`repro.prmi.policy`) on top of the
lockstep endpoints.
"""

from repro.prmi.args import LazyParallelArg, ParallelArg
from repro.prmi.endpoint import CalleeEndpoint, CallerEndpoint, InvocationStats
from repro.prmi.frames import FrameError, decode_frame, encode_frame
from repro.prmi.policy import Batched, PolicyTable
from repro.prmi.serving import (
    InvocationFuture,
    InvocationPipeline,
    ServerLoop,
)

__all__ = [
    "ParallelArg",
    "LazyParallelArg",
    "CallerEndpoint",
    "CalleeEndpoint",
    "InvocationStats",
    "encode_frame",
    "decode_frame",
    "FrameError",
    "Batched",
    "PolicyTable",
    "ServerLoop",
    "InvocationPipeline",
    "InvocationFuture",
]
