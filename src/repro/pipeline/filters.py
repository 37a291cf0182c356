"""Translation/conversion filters for coupling pipelines.

Filters are elementwise (each output element depends only on the same
input element), which is what lets the pipeline optimizer commute them
across redistributions.  They operate in place on local patches when
asked — the "operate on data in place and avoid unnecessary data
copies" technique from §6.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ReproError


class Filter(ABC):
    """An elementwise data transformation."""

    @abstractmethod
    def apply(self, values: np.ndarray, *, out: np.ndarray | None = None
              ) -> np.ndarray:
        """Transform ``values``; write into ``out`` (may alias) if given."""

    def compose(self, after: "Filter") -> "Filter | None":
        """A single filter equivalent to self-then-``after``, when a
        closed form exists; None otherwise."""
        return None


class AffineFilter(Filter):
    """``y = scale * x + offset`` — the unit-conversion workhorse."""

    def __init__(self, scale: float = 1.0, offset: float = 0.0):
        self.scale = float(scale)
        self.offset = float(offset)

    def apply(self, values, *, out=None):
        if out is None:
            return values * self.scale + self.offset
        np.multiply(values, self.scale, out=out)
        out += self.offset
        return out

    def compose(self, after):
        if isinstance(after, AffineFilter):
            # after(self(x)) = a2*(a1*x + b1) + b2
            return AffineFilter(after.scale * self.scale,
                                after.scale * self.offset + after.offset)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AffineFilter({self.scale} * x + {self.offset})"


class UnitConversion(AffineFilter):
    """Named affine conversions between common unit systems."""

    CONVERSIONS: dict[tuple[str, str], tuple[float, float]] = {
        ("celsius", "kelvin"): (1.0, 273.15),
        ("kelvin", "celsius"): (1.0, -273.15),
        ("celsius", "fahrenheit"): (1.8, 32.0),
        ("fahrenheit", "celsius"): (1.0 / 1.8, -32.0 / 1.8),
        ("m", "cm"): (100.0, 0.0),
        ("cm", "m"): (0.01, 0.0),
        ("pa", "bar"): (1e-5, 0.0),
        ("bar", "pa"): (1e5, 0.0),
    }

    def __init__(self, src_unit: str, dst_unit: str):
        key = (src_unit.lower(), dst_unit.lower())
        if key[0] == key[1]:
            scale, offset = 1.0, 0.0
        elif key in self.CONVERSIONS:
            scale, offset = self.CONVERSIONS[key]
        else:
            raise ReproError(
                f"no unit conversion registered for {key[0]!r} -> "
                f"{key[1]!r}")
        super().__init__(scale, offset)
        self.src_unit, self.dst_unit = key


class ClampFilter(Filter):
    """Clamp values into ``[lo, hi]`` (e.g. physical positivity)."""

    def __init__(self, lo: float | None = None, hi: float | None = None):
        if lo is None and hi is None:
            raise ReproError("ClampFilter needs at least one bound")
        self.lo = lo
        self.hi = hi

    def apply(self, values, *, out=None):
        return np.clip(values, self.lo, self.hi, out=out)


class TemporalBlendFilter(Filter):
    """Linear interpolation between the previous sample and the current
    one: ``y_t = (1 - w) * x_{t-1} + w * x_t`` — the simplest of the
    paper's "temporal interpolation" filters.

    Stateful: remembers the last input per patch shape.  Use with
    decompositions that give each rank a single patch (plain block
    layouts) so successive calls line up with successive time samples.
    """

    def __init__(self, weight: float = 0.5):
        if not (0.0 <= weight <= 1.0):
            raise ReproError(f"blend weight must be in [0, 1], got {weight}")
        self.weight = float(weight)
        self._previous: dict[tuple, np.ndarray] = {}

    def apply(self, values, *, out=None):
        key = values.shape
        prev = self._previous.get(key, values)
        self._previous[key] = np.array(values, copy=True)
        result = (1.0 - self.weight) * prev + self.weight * values
        if out is not None:
            out[...] = result
            return out
        return result

    def reset(self) -> None:
        self._previous.clear()
