"""GlobalSegMap and AttrVect unit tests."""

import numpy as np
import pytest

from repro.errors import MCTError
from repro.mct import AttrVect, GlobalSegMap, Segment


class TestGlobalSegMap:
    def test_block_constructor(self):
        g = GlobalSegMap.block(10, 3)
        assert g.local_size(0) == 4
        assert g.local_size(2) == 2
        assert g.owner_of(9) == 2

    def test_cyclic_constructor(self):
        g = GlobalSegMap.cyclic(7, 2, block=2)
        # blocks [0,2) p0, [2,4) p1, [4,6) p0, [6,7) p1
        assert g.local_size(0) == 4
        assert g.local_size(1) == 3
        assert g.owner_of(5) == 0

    def test_partition_validated(self):
        with pytest.raises(MCTError):
            GlobalSegMap(4, [Segment(0, 3, 0), Segment(2, 2, 1)])  # overlap
        with pytest.raises(MCTError):
            GlobalSegMap(4, [Segment(0, 3, 0)])  # gap

    def test_global_indices_order(self):
        g = GlobalSegMap.cyclic(6, 2)
        np.testing.assert_array_equal(g.global_indices(0), [0, 2, 4])
        np.testing.assert_array_equal(g.global_indices(1), [1, 3, 5])

    def test_local_offset(self):
        g = GlobalSegMap.cyclic(6, 2)
        assert g.local_offset(0, 4) == 2
        assert g.local_offset(1, 1) == 0
        with pytest.raises(MCTError):
            g.local_offset(0, 1)

    def test_runs_coalesce(self):
        g = GlobalSegMap(6, [Segment(0, 3, 0), Segment(3, 3, 0)])
        assert len(g.runs(0)) == 1
        assert g.runs(0)[0].length == 6

    def test_bad_pe(self):
        with pytest.raises(MCTError):
            GlobalSegMap.block(4, 2).segments_of(5)


class TestAttrVect:
    def test_field_views(self):
        av = AttrVect(["t", "u"], 4)
        av["t"] = [1, 2, 3, 4]
        view = av["t"]
        view[0] = 99  # views allow in-place update
        assert av.data[0, 0] == 99
        assert av["u"].sum() == 0

    def test_from_arrays(self):
        av = AttrVect.from_arrays({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert av.lsize == 2
        np.testing.assert_array_equal(av["b"], [3.0, 4.0])

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(MCTError):
            AttrVect.from_arrays({"a": [1.0], "b": [1.0, 2.0]})

    def test_copy_independent(self):
        av = AttrVect.from_arrays({"a": [1.0, 2.0]})
        cp = av.copy()
        cp["a"] = [9.0, 9.0]
        np.testing.assert_array_equal(av["a"], [1.0, 2.0])

    def test_subset(self):
        av = AttrVect.from_arrays({"a": [1.0], "b": [2.0], "c": [3.0]})
        sub = av.subset(["c", "a"])
        assert sub.fields == ["c", "a"]
        np.testing.assert_array_equal(sub.data, [[3.0, 1.0]])

    def test_duplicate_fields_rejected(self):
        with pytest.raises(MCTError):
            AttrVect(["a", "a"], 2)

    def test_set_wrong_shape(self):
        av = AttrVect(["a"], 3)
        with pytest.raises(MCTError):
            av["a"] = [1.0, 2.0]

    def test_unknown_field(self):
        av = AttrVect(["a"], 1)
        with pytest.raises(MCTError):
            av["zz"]
