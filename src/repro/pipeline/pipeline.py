"""Pipelines of redistribution and translation stages, with fusion.

The naive executor runs each stage as its own component would: every
redistribution moves the whole field, every filter allocates a fresh
output array.  :meth:`Pipeline.fuse` builds the §6 "super-component":

* consecutive redistributions collapse to one schedule (A→B→C ≡ A→C for
  lossless redistribution),
* elementwise filters commute across redistributions, so they all slide
  to the end and run **in place** on the final decomposition,
* adjacent filters with a closed-form composition (affine ∘ affine)
  merge into a single filter.

The metrics object counts schedules executed, elements moved, filter
passes and arrays allocated, so the composition-efficiency question the
paper raises is directly measurable (benchmark
``bench_pipeline_fusion``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from repro.errors import ReproError, ScheduleError
from repro.dad.darray import DistributedArray
from repro.dad.descriptor import DistArrayDescriptor
from repro.pipeline.filters import Filter
from repro.schedule.builder import GLOBAL_CACHE
from repro.schedule.executor import execute_intra
from repro.simmpi.communicator import Communicator


@dataclass(frozen=True)
class FilterStage:
    """Apply an elementwise filter to the field."""

    filter: Filter


@dataclass(frozen=True)
class RedistributeStage:
    """Move the field into a new decomposition."""

    descriptor: DistArrayDescriptor


Stage = Union[FilterStage, RedistributeStage]


@dataclass
class PipelineMetrics:
    """Work accounting for one pipeline execution."""

    schedules_executed: int = 0
    elements_moved: int = 0
    filter_passes: int = 0
    arrays_allocated: int = 0


class Pipeline:
    """An ordered chain of redistribution and filter stages."""

    def __init__(self, src_descriptor: DistArrayDescriptor,
                 stages: Sequence[Stage]):
        self.src_descriptor = src_descriptor
        self.stages = list(stages)
        shape = src_descriptor.shape
        for stage in self.stages:
            if isinstance(stage, RedistributeStage):
                if stage.descriptor.shape != shape:
                    raise ScheduleError(
                        f"redistribution stage shape "
                        f"{stage.descriptor.shape} != field shape {shape}")
            elif not isinstance(stage, FilterStage):
                raise ReproError(f"unknown stage kind: {stage!r}")
        # Schedules are fetched once per redistribution stage (reusable
        # across executions, §2.3).
        self._schedules = []
        current = src_descriptor
        for stage in self.stages:
            if isinstance(stage, RedistributeStage):
                self._schedules.append(
                    GLOBAL_CACHE.get(current, stage.descriptor))
                current = stage.descriptor
            else:
                self._schedules.append(None)
        self.output_descriptor = current

    @property
    def max_nranks(self) -> int:
        n = self.src_descriptor.nranks
        for stage in self.stages:
            if isinstance(stage, RedistributeStage):
                n = max(n, stage.descriptor.nranks)
        return n

    # -- execution ----------------------------------------------------------

    def run(self, comm: Communicator,
            darray: DistributedArray | None,
            metrics: PipelineMetrics | None = None
            ) -> DistributedArray | None:
        """Execute all stages; collective over ``comm``.

        ``darray`` is this rank's piece of the input (None when the rank
        is outside the source decomposition).  Returns this rank's piece
        of the output (None outside the output decomposition).
        """
        if comm.size < self.max_nranks:
            raise ScheduleError(
                f"pipeline needs {self.max_nranks} ranks, communicator "
                f"has {comm.size}")
        metrics = metrics if metrics is not None else PipelineMetrics()
        current_desc = self.src_descriptor
        current = darray
        for stage, sched in zip(self.stages, self._schedules):
            if isinstance(stage, RedistributeStage):
                dst_desc = stage.descriptor
                dst = (DistributedArray.allocate(dst_desc, comm.rank)
                       if comm.rank < dst_desc.nranks else None)
                if dst is not None:
                    metrics.arrays_allocated += 1
                execute_intra(sched, comm, src_array=current,
                              dst_array=dst,
                              src_ranks=range(current_desc.nranks),
                              dst_ranks=range(dst_desc.nranks))
                metrics.schedules_executed += 1
                metrics.elements_moved += sched.element_count
                current, current_desc = dst, dst_desc
            else:
                if current is not None:
                    # Naive stage boundary: a fresh output array, the
                    # way independent filter components would behave.
                    out = DistributedArray.allocate(current_desc, comm.rank)
                    metrics.arrays_allocated += 1
                    for region, arr in current.iter_patches():
                        stage.filter.apply(
                            arr, out=out.local_view(region))
                    current = out
                metrics.filter_passes += 1
        return current

    # -- the super-component -------------------------------------------------

    def fuse(self) -> "FusedPipeline":
        """Build the optimized single-component equivalent."""
        filters: list[Filter] = []
        for stage in self.stages:
            if isinstance(stage, FilterStage):
                if filters:
                    merged = filters[-1].compose(stage.filter)
                    if merged is not None:
                        filters[-1] = merged
                        continue
                filters.append(stage.filter)
            # Redistributions contribute only their final target: they
            # are lossless, so only the last one matters, and the
            # elementwise filters commute across them.
        return FusedPipeline(self.src_descriptor, self.output_descriptor,
                             filters)


class FusedPipeline:
    """The §6 super-component: at most one redistribution, then the
    composed filter chain applied in place."""

    def __init__(self, src_descriptor: DistArrayDescriptor,
                 output_descriptor: DistArrayDescriptor,
                 filters: Sequence[Filter]):
        self.src_descriptor = src_descriptor
        self.output_descriptor = output_descriptor
        self.filters = list(filters)
        self._identity = (src_descriptor.cache_key()
                          == output_descriptor.cache_key())
        self._schedule = None if self._identity else \
            GLOBAL_CACHE.get(src_descriptor, output_descriptor)

    @property
    def max_nranks(self) -> int:
        return max(self.src_descriptor.nranks,
                   self.output_descriptor.nranks)

    def run(self, comm: Communicator,
            darray: DistributedArray | None,
            metrics: PipelineMetrics | None = None
            ) -> DistributedArray | None:
        metrics = metrics if metrics is not None else PipelineMetrics()
        if self._identity:
            current = darray
        else:
            dst = (DistributedArray.allocate(
                self.output_descriptor, comm.rank)
                if comm.rank < self.output_descriptor.nranks else None)
            if dst is not None:
                metrics.arrays_allocated += 1
            execute_intra(self._schedule, comm, src_array=darray,
                          dst_array=dst,
                          src_ranks=range(self.src_descriptor.nranks),
                          dst_ranks=range(self.output_descriptor.nranks))
            metrics.schedules_executed += 1
            metrics.elements_moved += self._schedule.element_count
            current = dst
        if current is not None:
            for f in self.filters:
                # In place: no intermediate arrays.
                for _, arr in current.iter_patches():
                    f.apply(arr, out=arr)
        metrics.filter_passes += len(self.filters)
        return current
