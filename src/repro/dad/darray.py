"""Per-rank storage of a distributed array's local patches.

A :class:`DistributedArray` is the rank-local half of the DAD picture:
the descriptor says which global regions this rank owns; this object
holds one contiguous NumPy block per owned region, plus the accessors
components use for data-parallel work ("many components ... just need to
be able to access the memory locations constituting the DA", §2.2.2).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import AlignmentError, DistributionError
from repro.dad.descriptor import DistArrayDescriptor
from repro.util.regions import Region


class DistributedArray:
    """Rank-local patches of one distributed array.

    Create with :meth:`allocate` (zeros) or :meth:`from_global`
    (sampling a replicated global array — test/bootstrap convenience).

    Local storage is **consolidated**: one contiguous row-major base
    buffer holds every owned patch (patches sorted by ``region.lo``,
    each flattened row-major), and ``self.patches`` maps each region to
    a shaped *view* into that buffer, carved on first use — transfers
    address the base buffer, so a fresh array costs one buffer, not one
    view per patch.  :meth:`flat_local` exposes the
    base buffer, which is what the compiled gather/scatter index plans
    (:mod:`repro.schedule.indexplan`) address — a single ``take`` or
    fancy assignment there reads/writes every patch at once, and slice
    views of it are zero-copy send buffers.  Patch data handed to the
    constructor is copied into the base buffer (value semantics, as
    :meth:`from_global` always had).
    """

    def __init__(self, descriptor: DistArrayDescriptor, rank: int,
                 patches: dict[Region, np.ndarray]):
        descriptor.template._check_rank(rank)
        self.descriptor = descriptor
        self.rank = rank
        owned = sorted(descriptor.local_regions(rank), key=lambda r: r.lo)
        if set(patches) != set(owned):
            raise AlignmentError(
                f"patch regions {sorted(patches, key=lambda r: r.lo)} do not "
                f"match ownership {owned} of rank {rank}")
        for region, arr in patches.items():
            if arr.shape != region.shape:
                raise AlignmentError(
                    f"patch storage shape {arr.shape} != region shape "
                    f"{region.shape}")
        self._base = np.empty(sum(r.volume for r in owned),
                              dtype=descriptor.dtype)
        self._patches = None
        for region, view in self.patches.items():
            view[...] = patches[region]

    def __reduce__(self):
        # Default pickling would serialize both _base and the patch
        # views, losing the consolidated-buffer aliasing on rebuild.
        # Reconstructing through the constructor restores it (the procs
        # backend ships DistributedArrays between rank processes).
        return (type(self), (self.descriptor, self.rank,
                             {r: v.copy() for r, v in self.patches.items()}))

    @property
    def patches(self) -> dict[Region, np.ndarray]:
        """Owned region → its shaped view into the base buffer, carved in
        lo-sorted order (the layout index plans are compiled against)."""
        if self._patches is None:
            self._patches = self._bind_patches()
        return self._patches

    def _bind_patches(self) -> dict[Region, np.ndarray]:
        views: dict[Region, np.ndarray] = {}
        off = 0
        for region in sorted(self.descriptor.local_regions(self.rank),
                             key=lambda r: r.lo):
            views[region] = self._base[off:off + region.volume].reshape(
                region.shape)
            off += region.volume
        return views

    # -- constructors -----------------------------------------------------

    @classmethod
    def allocate(cls, descriptor: DistArrayDescriptor, rank: int, *,
                 zeroed: bool = True) -> "DistributedArray":
        """Local storage for ``rank``: zero-initialized, or uninitialized
        with ``zeroed=False`` (for a caller about to overwrite every
        element)."""
        obj = cls.__new__(cls)
        descriptor.template._check_rank(rank)
        obj.descriptor = descriptor
        obj.rank = rank
        obj._base = (np.zeros if zeroed else np.empty)(
            descriptor.local_regions(rank).volume, dtype=descriptor.dtype)
        obj._patches = None
        return obj

    @classmethod
    def from_global(cls, descriptor: DistArrayDescriptor, rank: int,
                    global_array: np.ndarray) -> "DistributedArray":
        """Local storage filled from a replicated global array."""
        descriptor.check_alignment(global_array.shape)
        if global_array.dtype != descriptor.dtype:
            global_array = global_array.astype(descriptor.dtype)
        # The constructor copies into the consolidated base buffer, so
        # passing slices (views) here never aliases the caller's array.
        patches = {
            region: global_array[region.to_slices()]
            for region in descriptor.local_regions(rank)
        }
        return cls(descriptor, rank, patches)

    @classmethod
    def from_function(cls, descriptor: DistArrayDescriptor, rank: int,
                      fn: Callable[..., np.ndarray]) -> "DistributedArray":
        """Fill patches from a vectorized function of global coordinates.

        ``fn`` receives one coordinate array per axis (from
        ``np.meshgrid`` with ``indexing='ij'``) and returns values.
        """
        patches = {}
        for region in descriptor.local_regions(rank):
            grids = np.meshgrid(
                *[np.arange(a, b) for a, b in zip(region.lo, region.hi)],
                indexing="ij")
            patches[region] = np.asarray(
                fn(*grids), dtype=descriptor.dtype).reshape(region.shape)
        return cls(descriptor, rank, patches)

    # -- element access -----------------------------------------------------

    def local_view(self, region: Region) -> np.ndarray:
        """View of ``region`` (global coordinates) inside local storage.

        ``region`` must lie entirely within one owned patch; this is the
        direct-memory-access path the paper calls "short-circuiting the
        DA package's interface" (§2.2.2).
        """
        for owned, arr in self.patches.items():
            if owned.contains(region):
                return region.view(arr, owned)
        raise DistributionError(
            f"region {region} not contained in any patch of rank {self.rank}")

    def get(self, point: Sequence[int]):
        """Read one element by global coordinates (must be owned)."""
        point = tuple(int(p) for p in point)
        for owned, arr in self.patches.items():
            if owned.contains_point(point):
                local = tuple(p - o for p, o in zip(point, owned.lo))
                return arr[local]
        raise DistributionError(
            f"element {point} not owned by rank {self.rank}")

    def set(self, point: Sequence[int], value) -> None:
        point = tuple(int(p) for p in point)
        for owned, arr in self.patches.items():
            if owned.contains_point(point):
                local = tuple(p - o for p, o in zip(point, owned.lo))
                arr[local] = value
                return
        raise DistributionError(
            f"element {point} not owned by rank {self.rank}")

    def fill(self, value) -> None:
        self._base.fill(value)

    def rebase(self, base: np.ndarray) -> None:
        """Move local storage into a caller-provided flat buffer.

        ``base`` must match the consolidated buffer's size and dtype;
        current contents are copied over and every patch view is rebound
        so subsequent reads and writes — including :meth:`flat_local`,
        which the compiled index plans address — go through ``base``.
        The one-sided execution tier uses this to home the destination
        array inside an RMA window's shared payload, so remote puts land
        directly in final storage.
        """
        base = np.asarray(base)
        if base.ndim != 1 or base.size != self._base.size:
            raise DistributionError(
                f"rebase buffer has shape {base.shape}, need a flat buffer "
                f"of {self._base.size} elements")
        if base.dtype != self._base.dtype:
            raise DistributionError(
                f"rebase buffer dtype {base.dtype} != array dtype "
                f"{self._base.dtype}")
        np.copyto(base, self._base)
        self._base = base
        self._patches = None

    def flat_local(self) -> np.ndarray:
        """The consolidated 1-D local buffer: owned patches sorted by
        ``region.lo``, each row-major.  A *view* — writes go straight
        through to the patches.  This is the address space of the
        compiled index plans (:mod:`repro.schedule.indexplan`)."""
        return self._base

    def adopt(self, source: "DistributedArray",
              descriptor: DistArrayDescriptor | None = None,
              ) -> "DistributedArray":
        """Atomically become ``source``: rebind this array's descriptor,
        consolidated base buffer and patch views to ``source``'s, while
        preserving *this* object's identity — the ownership-map swap of
        a live resize (:func:`repro.highlevel.reconfigure`).  Every
        handle the application holds keeps working and now sees the new
        decomposition; the rebind is a plain attribute swap, so under
        the resize protocol (all in-flight transfer steps drained by a
        barrier first) no reader can observe a mix of old and new
        state.  ``source is self`` swaps only the descriptor — the
        identity-rank fast path, whose buffer never moved."""
        if descriptor is None:
            descriptor = source.descriptor
        if source.rank != self.rank:
            raise DistributionError(
                f"cannot adopt rank {source.rank}'s storage into rank "
                f"{self.rank}")
        if descriptor.dtype != source._base.dtype:
            raise DistributionError(
                f"adopted descriptor dtype {descriptor.dtype} != storage "
                f"dtype {source._base.dtype}")
        self.descriptor = descriptor
        if source is not self:
            self._base = source._base
            self._patches = source._patches
        return self

    @property
    def local_volume(self) -> int:
        return self._base.size

    def iter_patches(self) -> Iterable[tuple[Region, np.ndarray]]:
        """Owned (region, storage) pairs in deterministic order."""
        return sorted(self.patches.items(), key=lambda kv: kv[0].lo)

    # -- global assembly (verification helper) -------------------------------

    def scatter_into(self, global_array: np.ndarray) -> None:
        """Write this rank's patches into a replicated global array."""
        self.descriptor.check_alignment(global_array.shape)
        for region, arr in self.patches.items():
            global_array[region.to_slices()] = arr

    @staticmethod
    def assemble(parts: Sequence["DistributedArray"]) -> np.ndarray:
        """Reassemble a full global array from every rank's piece."""
        if not parts:
            raise DistributionError("no parts to assemble")
        desc = parts[0].descriptor
        out = np.zeros(desc.shape, dtype=desc.dtype)
        for part in parts:
            part.scatter_into(out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DistributedArray(rank={self.rank}, "
                f"{len(self.patches)} patches, {self.local_volume} elems)")
