"""Descriptor and distributed-array storage tests."""

import numpy as np
import pytest

from repro.errors import AlignmentError, DistributionError
from repro.dad import (
    AccessMode,
    BlockCyclic,
    CartesianTemplate,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.dad.template import ExplicitTemplate, block_template
from repro.util.regions import Region


@pytest.fixture
def desc2d():
    return DistArrayDescriptor(block_template((6, 4), (2, 2)),
                               np.float64, name="field")


class TestDescriptor:
    def test_queries(self, desc2d):
        assert desc2d.shape == (6, 4)
        assert desc2d.nranks == 4
        assert desc2d.local_volume(0) == 6
        assert desc2d.owner_of((5, 3)) == 3

    def test_access_modes(self):
        assert AccessMode.READWRITE.allows_read()
        assert AccessMode.READWRITE.allows_write()
        assert AccessMode.READ.allows_read()
        assert not AccessMode.READ.allows_write()
        assert not AccessMode.WRITE.allows_read()

    def test_alignment_check(self, desc2d):
        desc2d.check_alignment((6, 4))
        with pytest.raises(AlignmentError):
            desc2d.check_alignment((6, 5))

    def test_cache_key_includes_dtype(self):
        t = block_template((4,), (2,))
        a = DistArrayDescriptor(t, np.float64)
        b = DistArrayDescriptor(t, np.float32)
        assert a.cache_key() != b.cache_key()


class TestDistributedArray:
    def test_allocate_zeros(self, desc2d):
        da = DistributedArray.allocate(desc2d, rank=1)
        assert da.local_volume == 6
        for _, arr in da.iter_patches():
            assert arr.dtype == np.float64
            assert not arr.any()

    def test_from_global_and_assemble_roundtrip(self, desc2d):
        g = np.arange(24.0).reshape(6, 4)
        parts = [DistributedArray.from_global(desc2d, r, g)
                 for r in range(4)]
        out = DistributedArray.assemble(parts)
        np.testing.assert_array_equal(out, g)

    def test_from_global_block_cyclic(self):
        t = CartesianTemplate([BlockCyclic(8, 2, 2), BlockCyclic(6, 3, 1)])
        desc = DistArrayDescriptor(t, np.int64)
        g = np.arange(48).reshape(8, 6)
        parts = [DistributedArray.from_global(desc, r, g)
                 for r in range(t.nranks)]
        np.testing.assert_array_equal(DistributedArray.assemble(parts), g)

    def test_from_function(self, desc2d):
        da = DistributedArray.from_function(
            desc2d, rank=3, fn=lambda i, j: 10 * i + j)
        # rank 3 owns rows 3..5, cols 2..3
        assert da.get((5, 3)) == 53.0
        assert da.get((3, 2)) == 32.0

    def test_get_set_ownership(self, desc2d):
        da = DistributedArray.allocate(desc2d, rank=0)
        da.set((1, 1), 42.0)
        assert da.get((1, 1)) == 42.0
        with pytest.raises(DistributionError):
            da.get((5, 3))  # owned by rank 3

    def test_local_view_is_view(self, desc2d):
        da = DistributedArray.allocate(desc2d, rank=0)
        v = da.local_view(Region((0, 0), (2, 2)))
        v[:] = 5.0
        assert da.get((0, 0)) == 5.0
        assert da.get((1, 1)) == 5.0

    def test_local_view_must_be_owned(self, desc2d):
        da = DistributedArray.allocate(desc2d, rank=0)
        with pytest.raises(DistributionError):
            da.local_view(Region((0, 0), (6, 4)))  # spans multiple ranks

    def test_patch_shape_mismatch_rejected(self, desc2d):
        region = next(iter(desc2d.local_regions(0)))
        with pytest.raises(AlignmentError):
            DistributedArray(desc2d, 0, {region: np.zeros((1, 1))})

    def test_wrong_patch_set_rejected(self, desc2d):
        with pytest.raises(AlignmentError):
            DistributedArray(desc2d, 0, {})

    def test_fill(self, desc2d):
        da = DistributedArray.allocate(desc2d, rank=2)
        da.fill(7.0)
        assert all(np.all(a == 7.0) for _, a in da.iter_patches())

    def test_explicit_template_storage(self):
        t = ExplicitTemplate((4, 4), [
            (0, Region((0, 0), (2, 4))),
            (1, Region((2, 0), (4, 4))),
        ])
        desc = DistArrayDescriptor(t, np.float32)
        g = np.random.default_rng(1).random((4, 4), dtype=np.float32)
        parts = [DistributedArray.from_global(desc, r, g) for r in range(2)]
        np.testing.assert_array_equal(DistributedArray.assemble(parts), g)

    def test_from_global_is_isolated(self, desc2d):
        """Local patches must be copies: in-place updates to the local
        storage must never leak into the caller's global array."""
        g = np.zeros((6, 4))
        da = DistributedArray.from_global(desc2d, 0, g)
        for _, arr in da.iter_patches():
            arr += 99.0
        assert g.sum() == 0.0

    def test_dtype_conversion_on_fill(self, desc2d):
        g = np.arange(24).reshape(6, 4)  # int64 input, float64 descriptor
        da = DistributedArray.from_global(desc2d, 0, g)
        for _, arr in da.iter_patches():
            assert arr.dtype == np.float64


class TestConverters:
    def test_2n_vs_n2_counts(self):
        from repro.dad.converters import ConverterRegistry, DARepresentation

        packages = [f"pkg{i}" for i in range(5)]
        direct = ConverterRegistry()
        for a in packages:
            for b in packages:
                if a != b:
                    direct.register_direct(a, b, lambda p: p)
        hub = ConverterRegistry()
        t = block_template((4,), (2,))
        for name in packages:
            hub.register_package(
                name,
                to_dad=lambda p, t=t: DistArrayDescriptor(t),
                from_dad=lambda d: d)
        assert direct.direct_converter_count == 5 * 4       # N(N-1)
        assert hub.hub_converter_count == 2 * 5             # 2N

    def test_convert_prefers_direct(self):
        from repro.dad.converters import ConverterRegistry, DARepresentation

        reg = ConverterRegistry()
        reg.register_direct("a", "b", lambda p: p + 1)
        out = reg.convert(DARepresentation("a", 1), "b")
        assert out.payload == 2
        assert reg.hops_executed == 1

    def test_convert_falls_back_to_hub(self):
        from repro.dad.converters import ConverterRegistry, DARepresentation

        reg = ConverterRegistry()
        t = block_template((4,), (2,))
        reg.register_package("a", lambda p: DistArrayDescriptor(t),
                             lambda d: "from-dad")
        reg.register_package("b", lambda p: DistArrayDescriptor(t),
                             lambda d: "via-hub")
        out = reg.convert(DARepresentation("a", None), "b")
        assert out.payload == "via-hub"
        assert reg.hops_executed == 2

    def test_identity_conversion_free(self):
        from repro.dad.converters import ConverterRegistry, DARepresentation

        reg = ConverterRegistry()
        rep = DARepresentation("a", 5)
        assert reg.convert(rep, "a") is rep
        assert reg.hops_executed == 0


def test_pickle_drops_the_region_memo():
    """The per-rank region memo never crosses the wire: on the threads
    backend sibling ranks fill it concurrently while rank 0 pickles the
    shared descriptor for the handshake, and serializing a dict under
    mutation raises RuntimeError.  The copy must still answer layout
    queries identically (rebuilding its own memo)."""
    import pickle

    desc = DistArrayDescriptor(block_template((6, 4), (2, 2)), np.float64,
                               name="field")
    for r in range(desc.nranks):
        desc.local_regions(r)
    assert desc._ownership is not None
    clone = pickle.loads(pickle.dumps(desc))
    assert clone._ownership is None
    for r in range(desc.nranks):
        assert list(clone.local_regions(r)) == list(desc.local_regions(r))
    assert clone.cache_key() == desc.cache_key()
