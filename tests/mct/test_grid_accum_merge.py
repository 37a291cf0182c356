"""GeneralGrid, Accumulator, merge, and integral facility tests."""

import numpy as np
import pytest

from repro.errors import MCTError
from repro.mct import (
    Accumulator,
    AttrVect,
    GeneralGrid,
    global_average,
    global_integral,
    merge,
)
from repro.simmpi import run_spmd


class TestGeneralGrid:
    def _grid(self):
        return GeneralGrid(
            coords={"lat": [0.0, 10.0, 20.0, 30.0],
                    "lon": [5.0, 5.0, 5.0, 5.0]},
            weights={"area": [1.0, 2.0, 3.0, 4.0]},
            masks={"ocean": [1, 0, 1, 0]},
        )

    def test_basic_queries(self):
        g = self._grid()
        assert g.npoints == 4
        assert g.ndim == 2
        assert g.dims == ["lat", "lon"]

    def test_masked_weight(self):
        g = self._grid()
        np.testing.assert_array_equal(
            g.masked_weight("area", "ocean"), [1.0, 0.0, 3.0, 0.0])

    def test_unstructured_any_dim(self):
        g = GeneralGrid(coords={"x": [0.0], "y": [1.0], "z": [2.0]})
        assert g.ndim == 3

    def test_validation(self):
        with pytest.raises(MCTError):
            GeneralGrid(coords={})
        with pytest.raises(MCTError):
            GeneralGrid(coords={"x": [0.0, 1.0]}, weights={"w": [1.0]})
        with pytest.raises(MCTError):
            self._grid().weight("volume")


class TestAccumulator:
    def test_averaging(self):
        acc = Accumulator(["t"], 3)
        for k in range(4):
            av = AttrVect.from_arrays({"t": np.full(3, float(k))})
            acc.accumulate(av)
        np.testing.assert_array_equal(acc.value()["t"], np.full(3, 1.5))
        assert acc.steps == 4

    def test_sum_action(self):
        acc = Accumulator(["flux"], 2, actions={"flux": "sum"})
        for _ in range(3):
            acc.accumulate(AttrVect.from_arrays({"flux": [1.0, 2.0]}))
        np.testing.assert_array_equal(acc.value()["flux"], [3.0, 6.0])

    def test_mixed_actions(self):
        acc = Accumulator(["t", "flux"], 1,
                          actions={"flux": "sum"})
        acc.accumulate(AttrVect.from_arrays({"t": [4.0], "flux": [4.0]}))
        acc.accumulate(AttrVect.from_arrays({"t": [6.0], "flux": [6.0]}))
        out = acc.value()
        assert out["t"][0] == 5.0       # averaged
        assert out["flux"][0] == 10.0   # summed

    def test_reset(self):
        acc = Accumulator(["t"], 1)
        acc.accumulate(AttrVect.from_arrays({"t": [1.0]}))
        acc.reset()
        assert acc.steps == 0
        with pytest.raises(MCTError):
            acc.value()

    def test_shape_mismatch(self):
        acc = Accumulator(["t"], 2)
        with pytest.raises(MCTError):
            acc.accumulate(AttrVect.from_arrays({"t": [1.0]}))

    def test_bad_action(self):
        with pytest.raises(MCTError):
            Accumulator(["t"], 1, actions={"t": "median"})


class TestMerge:
    def test_weighted_blend(self):
        land = AttrVect.from_arrays({"t": [10.0, 10.0]})
        ocean = AttrVect.from_arrays({"t": [20.0, 20.0]})
        out = merge([(land, np.array([0.25, 1.0])),
                     (ocean, np.array([0.75, 0.0]))])
        np.testing.assert_array_equal(out["t"], [17.5, 10.0])

    def test_zero_total_weight_gives_zero(self):
        a = AttrVect.from_arrays({"t": [5.0]})
        out = merge([(a, np.array([0.0]))])
        assert out["t"][0] == 0.0

    def test_land_ocean_ice_blend(self):
        """The paper's example: blending land, ocean, and sea ice for an
        atmosphere model."""
        n = 4
        land = AttrVect.from_arrays({"t": np.full(n, 290.0)})
        ocean = AttrVect.from_arrays({"t": np.full(n, 280.0)})
        ice = AttrVect.from_arrays({"t": np.full(n, 260.0)})
        land_f = np.array([1.0, 0.0, 0.0, 0.3])
        ice_f = np.array([0.0, 0.0, 0.5, 0.0])
        ocean_f = 1.0 - land_f - ice_f
        out = merge([(land, land_f), (ocean, ocean_f), (ice, ice_f)])
        np.testing.assert_allclose(
            out["t"], [290.0, 280.0, 270.0, 283.0])

    def test_negative_weight_rejected(self):
        a = AttrVect.from_arrays({"t": [1.0]})
        with pytest.raises(MCTError):
            merge([(a, np.array([-1.0]))])

    def test_size_mismatch(self):
        a = AttrVect.from_arrays({"t": [1.0]})
        b = AttrVect.from_arrays({"t": [1.0, 2.0]})
        with pytest.raises(MCTError):
            merge([(a, np.ones(1)), (b, np.ones(2))])


class TestIntegrals:
    def test_global_integral_parallel(self):
        def main(comm):
            av = AttrVect.from_arrays(
                {"f": np.full(3, float(comm.rank + 1))})
            w = np.ones(3)
            return global_integral(comm, av, w)

        results = run_spmd(2, main)
        # ranks contribute 3*1 and 3*2
        assert all(r == {"f": 9.0} for r in results)

    def test_global_average_weighted(self):
        def main(comm):
            av = AttrVect.from_arrays({"f": [10.0, 20.0]})
            w = np.array([1.0, 3.0])
            return global_average(comm, av, w)

        results = run_spmd(2, main)
        assert all(r["f"] == pytest.approx(17.5) for r in results)

    def test_zero_weight_raises(self):
        def main(comm):
            av = AttrVect.from_arrays({"f": [1.0]})
            with pytest.raises(MCTError):
                global_average(comm, av, np.zeros(1))
            return True

        assert all(run_spmd(1, main))

    def test_weight_shape_checked(self):
        def main(comm):
            av = AttrVect.from_arrays({"f": [1.0, 2.0]})
            with pytest.raises(MCTError):
                global_integral(comm, av, np.ones(3))
            return True

        assert all(run_spmd(1, main))
