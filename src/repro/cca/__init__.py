"""CCA component model (paper §2.1).

Components, uses/provides ports, and two framework flavours:

* :class:`DirectFramework` — all components of a process share the
  address space; a cohort of identical instances across an SPMD job
  forms a *parallel component*; port invocation is a function call.
* :class:`DistributedFramework` (``repro.cca.distributed``) — each
  component owns its own set of processes; ports become parallel remote
  method invocations through :mod:`repro.prmi`.

Interfaces are declared with a SIDL-lite declarative layer
(:mod:`repro.cca.sidl`) carrying the PRMI attributes the paper's systems
need: ``collective``/``independent`` invocation, ``oneway`` methods, and
``simple``/``parallel`` argument kinds.
"""

from repro.cca.sidl import MethodSpec, Param, PortType
from repro.cca.ports import ProvidesPort, UsesPort
from repro.cca.component import Component, Services
from repro.cca.framework import DirectFramework

__all__ = [
    "MethodSpec",
    "Param",
    "PortType",
    "ProvidesPort",
    "UsesPort",
    "Component",
    "Services",
    "DirectFramework",
]
