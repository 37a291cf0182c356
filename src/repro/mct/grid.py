"""GeneralGrid: physical grid descriptions with masks and weights.

"A data object for describing physical grids capable of supporting
grids of arbitrary dimension and unstructured grids, and ... capable of
supporting masking of grid elements (e.g., land/ocean mask)."

A grid is point-based (so unstructured meshes are just point lists):
per-point real coordinate fields, real weight fields (cell areas /
quadrature weights), and integer mask fields.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import MCTError


class GeneralGrid:
    """Local piece of a (possibly unstructured) physical grid."""

    def __init__(self, coords: Mapping[str, Sequence[float]],
                 weights: Mapping[str, Sequence[float]] | None = None,
                 masks: Mapping[str, Sequence[int]] | None = None):
        if not coords:
            raise MCTError("grid needs at least one coordinate field")
        self.coords = {k: np.asarray(v, dtype=np.float64)
                       for k, v in coords.items()}
        lengths = {v.shape for v in self.coords.values()}
        if len(lengths) != 1 or len(next(iter(lengths))) != 1:
            raise MCTError("coordinate fields must be equal-length 1-D")
        self.npoints = next(iter(self.coords.values())).shape[0]
        self.weights = {k: self._field(v, np.float64)
                        for k, v in (weights or {}).items()}
        self.masks = {k: self._field(v, np.int64)
                      for k, v in (masks or {}).items()}

    def _field(self, values, dtype) -> np.ndarray:
        arr = np.asarray(values, dtype=dtype)
        if arr.shape != (self.npoints,):
            raise MCTError(
                f"grid field shape {arr.shape} != ({self.npoints},)")
        return arr

    @property
    def dims(self) -> list[str]:
        return sorted(self.coords)

    @property
    def ndim(self) -> int:
        return len(self.coords)

    def weight(self, name: str) -> np.ndarray:
        try:
            return self.weights[name]
        except KeyError:
            raise MCTError(f"no weight field {name!r}") from None

    def mask(self, name: str) -> np.ndarray:
        try:
            return self.masks[name]
        except KeyError:
            raise MCTError(f"no mask field {name!r}") from None

    def masked_weight(self, weight: str, mask: str) -> np.ndarray:
        """Weights with masked-out (mask == 0) points zeroed — the form
        integrals and merges consume."""
        return self.weight(weight) * (self.mask(mask) != 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GeneralGrid({self.dims}, npoints={self.npoints}, "
                f"weights={sorted(self.weights)}, masks={sorted(self.masks)})")
