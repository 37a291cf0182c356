"""Structure-of-arrays particle storage."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import DistributionError


class ParticleField:
    """One rank's particles: ids, positions, named attributes.

    All arrays share the leading (particle) dimension; attributes may be
    scalar (shape ``(n,)``) or vector (shape ``(n, k)``).
    """

    def __init__(self, ids: Sequence[int], positions: np.ndarray,
                 attributes: Mapping[str, np.ndarray] | None = None):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.positions = np.asarray(positions, dtype=np.float64)
        if self.positions.ndim != 2:
            raise DistributionError(
                f"positions must be (n, ndim), got {self.positions.shape}")
        n = self.ids.shape[0]
        if self.positions.shape[0] != n:
            raise DistributionError(
                f"{n} ids but {self.positions.shape[0]} positions")
        if len(np.unique(self.ids)) != n:
            raise DistributionError("particle ids must be unique")
        self.attributes: dict[str, np.ndarray] = {}
        for name, values in (attributes or {}).items():
            values = np.asarray(values, dtype=np.float64)
            if values.shape[0] != n:
                raise DistributionError(
                    f"attribute {name!r} has {values.shape[0]} entries, "
                    f"expected {n}")
            self.attributes[name] = values

    # -- constructors ---------------------------------------------------------

    @classmethod
    def empty(cls, ndim: int,
              attribute_shapes: Mapping[str, tuple[int, ...]] | None = None
              ) -> "ParticleField":
        attrs = {
            name: np.empty((0,) + tuple(shape), dtype=np.float64)
            for name, shape in (attribute_shapes or {}).items()
        }
        return cls(np.empty(0, dtype=np.int64),
                   np.empty((0, ndim)), attrs)

    # -- basic properties -------------------------------------------------------

    @property
    def count(self) -> int:
        return self.ids.shape[0]

    @property
    def ndim(self) -> int:
        return self.positions.shape[1]

    def attribute_names(self) -> list[str]:
        return sorted(self.attributes)

    # -- manipulation ------------------------------------------------------------

    def select(self, mask: np.ndarray) -> "ParticleField":
        """A new field containing the masked/indexed subset."""
        return ParticleField(
            self.ids[mask], self.positions[mask],
            {k: v[mask] for k, v in self.attributes.items()})

    @staticmethod
    def concatenate(fields: Sequence["ParticleField"]) -> "ParticleField":
        fields = [f for f in fields]
        if not fields:
            raise DistributionError("nothing to concatenate")
        names = fields[0].attribute_names()
        for f in fields[1:]:
            if f.attribute_names() != names:
                raise DistributionError(
                    f"attribute sets differ: {names} vs "
                    f"{f.attribute_names()}")
            if f.ndim != fields[0].ndim:
                raise DistributionError("dimensionality differs")
        return ParticleField(
            np.concatenate([f.ids for f in fields]),
            np.concatenate([f.positions for f in fields]),
            {name: np.concatenate([f.attributes[name] for f in fields])
             for name in names})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ParticleField({self.count} particles, ndim={self.ndim}, "
                f"attrs={self.attribute_names()})")
