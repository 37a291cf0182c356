"""PRMI argument containers.

A :class:`ParallelArg` marks a caller-side argument as decomposed data
(the SCIRun2 SIDL distributed-array parameter type).  On the callee
side, a parallel parameter arrives either as a ready
:class:`~repro.dad.DistributedArray` (when the callee pre-registered its
layout — the paper's first strategy) or as a :class:`LazyParallelArg`
reference whose transfer is "delay[ed] ... until the provides side has
specified its layout" (the second strategy).
"""

from __future__ import annotations

from typing import Callable

from repro.dad.darray import DistributedArray
from repro.dad.descriptor import DistArrayDescriptor
from repro.errors import PRMIError


class ParallelArg:
    """Caller-side wrapper: this argument is a distributed array."""

    def __init__(self, darray: DistributedArray):
        if not isinstance(darray, DistributedArray):
            raise PRMIError(
                f"ParallelArg needs a DistributedArray, got "
                f"{type(darray).__name__}")
        self.darray = darray

    @property
    def descriptor(self) -> DistArrayDescriptor:
        return self.darray.descriptor


class LazyParallelArg:
    """Callee-side reference to a not-yet-transferred parallel argument.

    Calling :meth:`materialize` with the desired layout triggers the
    actual M×N pull; it is collective over the callee cohort and may be
    called at most once.
    """

    def __init__(self, name: str,
                 pull: Callable[[DistArrayDescriptor], DistributedArray]):
        self.name = name
        self._pull = pull
        self._result: DistributedArray | None = None

    def materialize(self, layout: DistArrayDescriptor) -> DistributedArray:
        """Pull the data into ``layout``; collective over the callee."""
        if self._result is not None:
            raise PRMIError(
                f"parallel argument {self.name!r} already materialized")
        self._result = self._pull(layout)
        return self._result

    @property
    def value(self) -> DistributedArray:
        if self._result is None:
            raise PRMIError(
                f"parallel argument {self.name!r} not yet materialized")
        return self._result
