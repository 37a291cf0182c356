"""Unit tests for N-dimensional region algebra."""

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.util.regions import Region, RegionList, tile_check


class TestRegionBasics:
    def test_shape_and_volume(self):
        r = Region((1, 2), (4, 7))
        assert r.shape == (3, 5)
        assert r.volume == 15
        assert r.ndim == 2
        assert not r.empty

    def test_empty_region(self):
        r = Region((3, 0), (3, 5))
        assert r.empty
        assert r.volume == 0

    def test_from_shape(self):
        r = Region.from_shape((4, 5, 6))
        assert r.lo == (0, 0, 0)
        assert r.hi == (4, 5, 6)

    def test_invalid_bounds(self):
        with pytest.raises(DistributionError):
            Region((3,), (1,))

    def test_rank_mismatch(self):
        with pytest.raises(DistributionError):
            Region((0, 0), (1,))

    def test_hashable(self):
        assert len({Region((0,), (3,)), Region((0,), (3,))}) == 1


class TestRegionAlgebra:
    def test_intersection(self):
        a = Region((0, 0), (4, 4))
        b = Region((2, 1), (6, 3))
        assert a.intersect(b) == Region((2, 1), (4, 3))

    def test_disjoint_intersection(self):
        a = Region((0,), (4,))
        b = Region((4,), (8,))
        assert a.intersect(b) is None

    def test_intersection_commutes(self):
        a = Region((0, 3), (5, 9))
        b = Region((2, 0), (7, 5))
        assert a.intersect(b) == b.intersect(a)

    def test_contains(self):
        outer = Region((0, 0), (10, 10))
        inner = Region((2, 3), (5, 7))
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_contains_point(self):
        r = Region((1, 1), (3, 3))
        assert r.contains_point((1, 2))
        assert not r.contains_point((3, 2))  # hi is exclusive

    def test_shift_and_relative(self):
        r = Region((5, 5), (8, 9))
        origin = Region((5, 5), (10, 10))
        local = r.relative_to(origin)
        assert local == Region((0, 0), (3, 4))
        assert local.shift((5, 5)) == r

    def test_relative_to_requires_containment(self):
        with pytest.raises(DistributionError):
            Region((0,), (5,)).relative_to(Region((1,), (4,)))

    def test_subtract_no_overlap(self):
        a = Region((0,), (4,))
        assert a.subtract(Region((5,), (8,))) == [a]

    def test_subtract_full_cover(self):
        a = Region((2,), (4,))
        assert a.subtract(Region((0,), (8,))) == []

    def test_subtract_partial_2d(self):
        a = Region((0, 0), (4, 4))
        hole = Region((1, 1), (3, 3))
        pieces = a.subtract(hole)
        assert sum(p.volume for p in pieces) == a.volume - hole.volume
        # pieces must be disjoint from the hole and from each other
        for p in pieces:
            assert p.intersect(hole) is None
        RegionList(pieces)  # validates disjointness


class TestRegionNumpyInterop:
    def test_view_is_view(self):
        arr = np.zeros((6, 6))
        r = Region((1, 2), (3, 5))
        v = r.view(arr)
        v[:] = 7
        assert arr[1:3, 2:5].sum() == 7 * r.volume
        assert arr.sum() == 7 * r.volume

    def test_view_with_origin(self):
        # array holds the data of region [10:16, 10:16)
        arr = np.arange(36.0).reshape(6, 6)
        origin = Region((10, 10), (16, 16))
        r = Region((11, 12), (13, 15))
        v = r.view(arr, origin)
        assert v.shape == (2, 3)
        np.testing.assert_array_equal(v, arr[1:3, 2:5])

    def test_to_slices(self):
        r = Region((1, 0), (4, 2))
        assert r.to_slices() == (slice(1, 4), slice(0, 2))


class TestRegionList:
    def test_rejects_overlap(self):
        with pytest.raises(DistributionError):
            RegionList([Region((0,), (5,)), Region((3,), (8,))])

    def test_drops_empty(self):
        rl = RegionList([Region((0,), (0,)), Region((0,), (2,))])
        assert len(rl) == 1

    def test_volume(self):
        rl = RegionList([Region((0,), (2,)), Region((5,), (9,))])
        assert rl.volume == 6

    def test_covers_exact(self):
        rl = RegionList([Region((0, 0), (2, 4)), Region((2, 0), (4, 4))])
        assert rl.covers(Region((0, 0), (4, 4)))

    def test_covers_with_gap(self):
        rl = RegionList([Region((0, 0), (2, 4)), Region((3, 0), (4, 4))])
        assert not rl.covers(Region((0, 0), (4, 4)))

    def test_intersect_lists(self):
        a = RegionList([Region((0, 0), (4, 4))])
        b = RegionList([Region((2, 2), (6, 6))])
        assert a.intersect(b).volume == 4

    def test_contains_point(self):
        rl = RegionList([Region((0,), (2,)), Region((4,), (6,))])
        assert rl.contains_point((5,))
        assert not rl.contains_point((3,))


class TestTileCheck:
    def test_valid_tiling(self):
        t = Region((0, 0), (4, 4))
        tile_check([Region((0, 0), (4, 2)), Region((0, 2), (4, 4))], t)

    def test_gap_detected(self):
        t = Region((0, 0), (4, 4))
        with pytest.raises(DistributionError):
            tile_check([Region((0, 0), (4, 2))], t)

    def test_overlap_detected(self):
        t = Region((0,), (4,))
        with pytest.raises(DistributionError):
            tile_check([Region((0,), (3,)), Region((2,), (4,))], t)
