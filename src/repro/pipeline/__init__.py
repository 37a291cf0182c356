"""Transformation pipelines — the paper's §6 future work, implemented.

"Beyond parallel data exchange or redistribution capabilities, there is
also the need for concatenating component 'filters', e.g. for spatial
and temporal interpolation or unit conversions" (§1), and "to utilize
the resulting sequence of data transformations and data redistributions,
a pipeline of components can be assembled.  An important pragmatic issue
... is how efficiently redistribution functions compose with one
another.  Techniques must be explored to operate on data in place and
avoid unnecessary data copies.  Super-component solutions could also be
explored for some common cases by combining several successive
redistribution and translation components into a single optimized
component" (§6).

This package provides exactly that:

* :mod:`repro.pipeline.filters` — elementwise translation filters (unit
  conversion, clamping) and temporal blending,
* :class:`Pipeline` — an ordered chain of filter and redistribution
  stages with a naive stage-by-stage executor, and
* :meth:`Pipeline.fuse` — the super-component optimizer: adjacent affine
  filters compose in closed form, elementwise filters commute across
  redistributions, and consecutive redistributions collapse into a
  single schedule, so a fused pipeline moves the data at most once and
  filters it in place.
"""

from repro.pipeline.filters import (
    AffineFilter,
    ClampFilter,
    Filter,
    TemporalBlendFilter,
    UnitConversion,
)
from repro.pipeline.pipeline import (
    FilterStage,
    Pipeline,
    PipelineMetrics,
    RedistributeStage,
)

__all__ = [
    "Filter",
    "AffineFilter",
    "UnitConversion",
    "ClampFilter",
    "TemporalBlendFilter",
    "Pipeline",
    "FilterStage",
    "RedistributeStage",
    "PipelineMetrics",
]
