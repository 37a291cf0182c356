"""simmpi — a simulated MPI runtime (ranks as threads).

This package is the out-of-band transport substrate the paper assumes
(Section 2.1: cohort-internal communication "out-of-band from the CCA
framework (e.g. using MPI)").  It provides only the MPI that the M×N
middleware calls:

* SPMD job launch (:func:`run_spmd`, :func:`run_coupled`) with per-rank
  exception capture and a deadlock watchdog,
* communicators with tagged blocking point-to-point messaging
  (``ANY_SOURCE``/``ANY_TAG`` matching, probes, preposted receives),
* the collectives the paper's systems use: barrier, bcast, gather,
  allgather, alltoall, reduce and allreduce, over binomial trees,
* ``split`` sub-communicators, and intercommunicators established
  through an in-memory name service (MPI ``Connect``/``Accept``
  analogue) so two independently launched "parallel programs" can
  couple — the M×N case.

Semantics notes: sends are buffered (a send never blocks), receives
block; message payloads are copied at send time (value semantics, like a
real wire).  Every communicator counts messages, bytes and barriers for
the benchmark harness.

Ranks execute on a pluggable backend (``backend=`` on
:func:`run_spmd`/:func:`run_coupled`, or ``REPRO_BACKEND``):
``"threads"`` — the historical in-process default — or ``"procs"`` —
one forked process per rank with payloads in shared-memory slot rings,
so redistribution throughput scales with cores
(:mod:`repro.simmpi.transport`, :mod:`repro.simmpi.procs`).
"""

from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simmpi.status import Status
from repro.simmpi.communicator import Communicator
from repro.simmpi.intercomm import Intercommunicator, NameService
from repro.simmpi.runner import run_spmd, run_coupled

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Status",
    "Communicator",
    "Intercommunicator",
    "NameService",
    "run_spmd",
    "run_coupled",
]
