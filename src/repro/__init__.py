"""repro — CCA M×N parallel data redistribution and PRMI.

A complete Python implementation of the systems described in Bertrand
et al., "Data Redistribution and Remote Method Invocation in Parallel
Component Architectures" (IPPS/IPDPS 2005): the Distributed Array
Descriptor, communication schedules, linearization, the generalized
M×N component, PRMI (SCIRun2 and DCA models), InterComm-style
timestamp coordination, and an MCT-style model coupling toolkit — all
over a simulated MPI runtime (:mod:`repro.simmpi`).

Quickstart::

    import numpy as np
    from repro import (DistArrayDescriptor, DistributedArray,
                       block_template, build_region_schedule,
                       execute_intra, run_spmd)

    shape = (12, 12, 12)
    src = DistArrayDescriptor(block_template(shape, (2, 2, 2)))  # M = 8
    dst = DistArrayDescriptor(block_template(shape, (3, 3, 3)))  # N = 27
    sched = build_region_schedule(src, dst)

    g = np.arange(np.prod(shape), dtype=float).reshape(shape)

    def main(comm):
        sa = (DistributedArray.from_global(src, comm.rank, g)
              if comm.rank < src.nranks else None)
        da = DistributedArray.allocate(dst, comm.rank)
        execute_intra(sched, comm, src_array=sa, dst_array=da,
                      src_ranks=range(src.nranks),
                      dst_ranks=range(dst.nranks))
        return da

    parts = run_spmd(27, main)
    assert (DistributedArray.assemble(parts) == g).all()
"""

from repro.dad import (
    AccessMode,
    Block,
    BlockCyclic,
    CartesianTemplate,
    Collapsed,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
    ExplicitTemplate,
    GeneralizedBlock,
    Implicit,
)
from repro.dad.template import block_template
from repro.schedule import (
    ScheduleCache,
    build_linear_schedule,
    build_region_schedule,
    execute_inter,
    execute_intra,
)
from repro.simmpi import (
    Communicator,
    Intercommunicator,
    NameService,
    run_coupled,
    run_spmd,
)
from repro.mxn import ConnectionKind, ConnectionSpec, MxNComponent
from repro.linearize import DenseLinearization, GraphLinearization
from repro.prmi import CalleeEndpoint, CallerEndpoint, ParallelArg

__version__ = "1.0.0"

__all__ = [
    # DAD
    "AccessMode",
    "Block",
    "BlockCyclic",
    "CartesianTemplate",
    "Collapsed",
    "Cyclic",
    "DistArrayDescriptor",
    "DistributedArray",
    "ExplicitTemplate",
    "GeneralizedBlock",
    "Implicit",
    "block_template",
    # schedules
    "ScheduleCache",
    "build_region_schedule",
    "build_linear_schedule",
    "execute_intra",
    "execute_inter",
    # runtime
    "Communicator",
    "Intercommunicator",
    "NameService",
    "run_spmd",
    "run_coupled",
    # M×N component
    "MxNComponent",
    "ConnectionKind",
    "ConnectionSpec",
    # linearization
    "DenseLinearization",
    "GraphLinearization",
    # PRMI
    "CallerEndpoint",
    "CalleeEndpoint",
    "ParallelArg",
    "__version__",
]
