"""MCT — the Model Coupling Toolkit model (paper §4.5).

MCT "extends MPI to ease implementation of parallel coupling between
MPI-based parallel applications" and "internally implements M×N
capabilities at a higher level than the other CCA projects".  This
package provides Python equivalents of every object/service the paper
lists:

* :class:`MCTWorld` — "a lightweight model registry that defines the
  MPI processes on which a module resides";
* :class:`AttrVect` — "a multi-field data storage object that is the
  common currency modules use in data exchange";
* :class:`GlobalSegMap` — "domain decomposition descriptors";
* :class:`Router` — "communications schedulers for intermodule parallel
  data transfer" (the intra-module Rearranger is not modelled: no row
  or example runs one);
* :class:`SparseMatrix` — "distributed sparse matrix elements and
  communication schedulers used in performing interpolation as parallel
  sparse matrix-vector multiplication in a multi-field, cache-friendly
  fashion";
* :class:`GeneralGrid` — "physical grids ... of arbitrary dimension and
  unstructured grids ... supporting masking of grid elements";
* :class:`Accumulator` — "registers for time averaging and accumulation
  of field data";
* :func:`merge` — "merging of state and flux data from multiple
  sources";
* :mod:`repro.mct.integrals` — "spatial integral and averaging
  facilities ... paired integrals ... for use in conservation of global
  flux integrals".
"""

from repro.mct.registry import MCTWorld
from repro.mct.gsmap import GlobalSegMap, Segment
from repro.mct.attrvect import AttrVect
from repro.mct.router import Router
from repro.mct.sparsematrix import InterpolationScheduler, SparseMatrix
from repro.mct.grid import GeneralGrid
from repro.mct.accumulator import Accumulator
from repro.mct.merge import merge
from repro.mct.integrals import (
    global_average,
    global_integral,
    paired_integrals,
)

__all__ = [
    "MCTWorld",
    "GlobalSegMap",
    "Segment",
    "AttrVect",
    "Router",
    "SparseMatrix",
    "InterpolationScheduler",
    "GeneralGrid",
    "Accumulator",
    "merge",
    "global_average",
    "global_integral",
    "paired_integrals",
]
