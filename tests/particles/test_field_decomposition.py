"""ParticleField and SpatialDecomposition unit tests."""

import numpy as np
import pytest

from repro.dad.template import ExplicitTemplate, block_template
from repro.errors import DistributionError
from repro.particles import ParticleField, SpatialDecomposition
from repro.util.regions import Region


class TestParticleField:
    def _field(self):
        return ParticleField(
            ids=[10, 11, 12],
            positions=np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.1]]),
            attributes={"mass": [1.0, 2.0, 3.0],
                        "vel": np.zeros((3, 2))})

    def test_basics(self):
        f = self._field()
        assert f.count == 3
        assert f.ndim == 2
        assert f.attribute_names() == ["mass", "vel"]

    def test_select(self):
        f = self._field()
        sub = f.select(f.attributes["mass"][:] > 1.5)
        assert sub.count == 2
        np.testing.assert_array_equal(sub.ids, [11, 12])
        np.testing.assert_array_equal(sub.attributes["mass"], [2.0, 3.0])

    def test_concatenate(self):
        f = self._field()
        a = f.select(np.array([True, False, True]))
        b = f.select(np.array([False, True, False]))
        merged = ParticleField.concatenate([a, b])
        assert merged.count == 3
        assert set(merged.ids) == {10, 11, 12}

    def test_concatenate_attribute_mismatch(self):
        a = ParticleField([1], np.zeros((1, 2)), {"m": [1.0]})
        b = ParticleField([2], np.zeros((1, 2)), {"q": [1.0]})
        with pytest.raises(DistributionError):
            ParticleField.concatenate([a, b])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DistributionError):
            ParticleField([1, 1], np.zeros((2, 2)))

    def test_attribute_length_checked(self):
        with pytest.raises(DistributionError):
            ParticleField([1, 2], np.zeros((2, 2)), {"m": [1.0]})

    def test_empty(self):
        f = ParticleField.empty(3, {"mass": (), "vel": (3,)})
        assert f.count == 0
        assert f.ndim == 3
        assert f.attributes["vel"].shape == (0, 3)


class TestSpatialDecomposition:
    def test_block_cells(self):
        d = SpatialDecomposition.block([0.0, 0.0], [1.0, 1.0],
                                       cells=(4, 4), grid=(2, 2))
        assert d.nranks == 4
        # quadrant ownership
        assert d.owner_of(np.array([[0.1, 0.1]]))[0] == 0
        assert d.owner_of(np.array([[0.1, 0.9]]))[0] == 1
        assert d.owner_of(np.array([[0.9, 0.1]]))[0] == 2
        assert d.owner_of(np.array([[0.9, 0.9]]))[0] == 3

    def test_boundary_clamping(self):
        d = SpatialDecomposition.block([0.0], [1.0], cells=(4,), grid=(2,))
        owners = d.owner_of(np.array([[0.0], [1.0], [1.5], [-0.5]]))
        assert owners[0] == 0
        assert owners[1] == 1   # hi edge clamps into the last cell
        assert owners[2] == 1   # outside -> clamped
        assert owners[3] == 0

    def test_explicit_template_ownership(self):
        t = ExplicitTemplate((4, 4), [
            (0, Region((0, 0), (4, 1))),   # thin strip to rank 0
            (1, Region((0, 1), (4, 4))),
        ])
        d = SpatialDecomposition([0.0, 0.0], [1.0, 1.0], t)
        assert d.owner_of(np.array([[0.5, 0.1]]))[0] == 0
        assert d.owner_of(np.array([[0.5, 0.6]]))[0] == 1

    def test_contains(self):
        d = SpatialDecomposition.block([0.0, 0.0], [2.0, 1.0],
                                       cells=(2, 2), grid=(1, 1))
        mask = d.contains(np.array([[1.0, 0.5], [3.0, 0.5]]))
        np.testing.assert_array_equal(mask, [True, False])

    def test_validation(self):
        with pytest.raises(DistributionError):
            SpatialDecomposition.block([0.0], [0.0], cells=(2,), grid=(1,))
        with pytest.raises(DistributionError):
            SpatialDecomposition([0.0, 0.0], [1.0, 1.0],
                                 block_template((4,), (2,)))

    def test_dimension_mismatch_in_query(self):
        d = SpatialDecomposition.block([0.0], [1.0], cells=(2,), grid=(1,))
        with pytest.raises(DistributionError):
            d.owner_of(np.zeros((3, 2)))
