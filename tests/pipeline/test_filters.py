"""Filter unit tests."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.pipeline import (
    AffineFilter,
    ClampFilter,
    TemporalBlendFilter,
    UnitConversion,
)


class TestAffine:
    def test_apply(self):
        f = AffineFilter(2.0, 1.0)
        np.testing.assert_array_equal(
            f.apply(np.array([0.0, 1.0, 2.0])), [1.0, 3.0, 5.0])

    def test_apply_in_place(self):
        f = AffineFilter(3.0, -1.0)
        arr = np.array([1.0, 2.0])
        out = f.apply(arr, out=arr)
        assert out is arr
        np.testing.assert_array_equal(arr, [2.0, 5.0])

    def test_compose_closed_form(self):
        f1 = AffineFilter(2.0, 1.0)     # 2x + 1
        f2 = AffineFilter(3.0, -2.0)    # 3y - 2
        composed = f1.compose(f2)       # 3(2x+1) - 2 = 6x + 1
        assert isinstance(composed, AffineFilter)
        assert (composed.scale, composed.offset) == (6.0, 1.0)
        x = np.array([0.5, -1.0, 4.0])
        np.testing.assert_allclose(composed.apply(x), f2.apply(f1.apply(x)))

    def test_compose_with_non_affine(self):
        assert AffineFilter(2.0).compose(ClampFilter(lo=0.0)) is None


class TestUnitConversion:
    def test_celsius_to_kelvin(self):
        f = UnitConversion("celsius", "kelvin")
        np.testing.assert_allclose(f.apply(np.array([0.0, 100.0])),
                                   [273.15, 373.15])

    def test_roundtrip(self):
        fwd = UnitConversion("celsius", "fahrenheit")
        back = UnitConversion("fahrenheit", "celsius")
        x = np.array([-40.0, 0.0, 37.0])
        np.testing.assert_allclose(back.apply(fwd.apply(x)), x)

    def test_identity(self):
        f = UnitConversion("m", "m")
        assert (f.scale, f.offset) == (1.0, 0.0)

    def test_unknown_pair(self):
        with pytest.raises(ReproError):
            UnitConversion("furlongs", "parsecs")

    def test_conversions_compose(self):
        c2k = UnitConversion("celsius", "kelvin")
        pa2bar = AffineFilter(2.0)
        combined = c2k.compose(pa2bar)
        assert isinstance(combined, AffineFilter)


class TestClamp:
    def test_both_bounds(self):
        f = ClampFilter(0.0, 1.0)
        np.testing.assert_array_equal(
            f.apply(np.array([-1.0, 0.5, 2.0])), [0.0, 0.5, 1.0])

    def test_single_bound(self):
        f = ClampFilter(lo=0.0)
        np.testing.assert_array_equal(
            f.apply(np.array([-5.0, 5.0])), [0.0, 5.0])

    def test_needs_a_bound(self):
        with pytest.raises(ReproError):
            ClampFilter()


class TestTemporalBlend:
    def test_first_sample_passthrough(self):
        f = TemporalBlendFilter(0.5)
        np.testing.assert_array_equal(f.apply(np.array([4.0])), [4.0])

    def test_blend(self):
        f = TemporalBlendFilter(0.25)
        f.apply(np.array([0.0, 0.0]))
        out = f.apply(np.array([8.0, 4.0]))
        np.testing.assert_array_equal(out, [2.0, 1.0])

    def test_reset(self):
        f = TemporalBlendFilter(0.5)
        f.apply(np.array([10.0]))
        f.reset()
        np.testing.assert_array_equal(f.apply(np.array([2.0])), [2.0])

    def test_weight_validation(self):
        with pytest.raises(ReproError):
            TemporalBlendFilter(1.5)
