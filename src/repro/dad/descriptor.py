"""The Distributed Array Descriptor proper: template + array metadata.

Paper §4.1: "Parallel components can register their parallel data fields
by providing a handle to a Distributed Array Descriptor (DAD) object ...
The DAD interface provides run-time access to information regarding the
layout, allocation and data decomposition of a given distributed data
field", including "which access modes for M×N transfers with that data
field are allowed (read, write or read/write)".
"""

from __future__ import annotations

import enum
import threading
from typing import Sequence

import numpy as np

from repro.errors import AlignmentError
from repro.dad.ownership import Ownership
from repro.dad.template import Template
from repro.util.regions import Region, RegionList


#: Guards the one build of a descriptor's ownership table, which
#: threads-backend ranks sharing the descriptor may all ask for at once.
_OWNERSHIP_LOCK = threading.Lock()


class AccessMode(enum.Flag):
    """Allowed M×N transfer directions for a registered field."""

    READ = enum.auto()    #: field may be a transfer source
    WRITE = enum.auto()   #: field may be a transfer destination
    READWRITE = READ | WRITE

    def allows_read(self) -> bool:
        return bool(self & AccessMode.READ)

    def allows_write(self) -> bool:
        return bool(self & AccessMode.WRITE)


class DistArrayDescriptor:
    """Describes one distributed array: its template, dtype and access.

    The descriptor is the *only* information the M×N layer needs about a
    field — schedules are computed purely from descriptor pairs, which
    is what makes third-party-initiated connections possible (§4.1).
    """

    def __init__(self, template: Template, dtype: np.dtype | str = np.float64,
                 *, name: str = "", mode: AccessMode = AccessMode.READWRITE):
        self.template = template
        self.dtype = np.dtype(dtype)
        self.name = name
        self.mode = mode
        self._ownership: Ownership | None = None
        self._key: tuple | None = None

    def __getstate__(self):
        # The ownership and key memos are rebuilt on demand and, on the
        # threads backend, may be concurrently filled by sibling ranks of
        # a shared descriptor while rank 0 pickles it for the handshake —
        # serializing them would race (and ship O(extent) regions for
        # cyclic templates for nothing).
        state = dict(self.__dict__)
        state["_ownership"] = state["_key"] = None
        return state

    # -- layout queries (the DAD run-time interface) -----------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.template.shape

    @property
    def ndim(self) -> int:
        return self.template.ndim

    @property
    def nranks(self) -> int:
        return self.template.nranks

    def ownership(self) -> Ownership:
        """Every rank's regions as one table (:meth:`~repro.dad.template.
        Template.ownership`), built once — sound because templates are
        immutable after construction.  Schedules built from this
        descriptor carry it, and compile a whole side against it; its
        ``key`` is the template's cache key, so a schedule recognises
        the table of any descriptor of the same template as its own."""
        if self._ownership is None:
            with _OWNERSHIP_LOCK:
                if self._ownership is None:
                    table = self.template.ownership()
                    table.key = self.template.cache_key()
                    self._ownership = table
        return self._ownership

    def local_regions(self, rank: int) -> RegionList:
        """Global regions of the array stored by ``rank``, in ``lo``
        order: a slice of :meth:`ownership`, memoized per rank (the
        executors ask once per bind)."""
        self.template._check_rank(rank)
        return self.ownership().regions(rank)

    def local_volume(self, rank: int) -> int:
        return self.local_regions(rank).volume

    def owner_of(self, point: Sequence[int]) -> int:
        return self.template.owner_of(point)

    def descriptor_entries(self) -> int:
        """Descriptor encoding size in integer entries (compactness
        metric for experiment E7)."""
        return self.template.descriptor_entries()

    def cache_key(self) -> tuple:
        """Schedule-cache identity: two descriptors with equal keys can
        reuse each other's communication schedules even if they describe
        different actual arrays (paper §2.3).  Memoized: the template and
        dtype never change, and the cache asks on every fetch."""
        if self._key is None:
            self._key = (self.template.cache_key(), self.dtype.str)
        return self._key

    def ownership_key(self, rank: int) -> tuple:
        """Hashable fingerprint of ``rank``'s exact ownership: the
        shape and bytes of its patches' ``lo`` / ``hi`` columns in ``lo``
        order.  Two descriptors agreeing on a rank's key own *identical*
        global elements with an identical local patch layout, so compiled
        per-rank plans addressing that layout transfer verbatim — the
        reuse test of the delta-schedule compiler
        (:mod:`repro.schedule.delta`).  Ranks outside the template
        (``rank >= nranks``) and ranks owning nothing fingerprint
        empty."""
        if not (0 <= rank < self.nranks):
            return ()
        owned = self.local_regions(rank)
        if not len(owned):
            return ()
        return (owned.lo.shape, owned.lo.tobytes(), owned.hi.tobytes())

    # -- alignment ---------------------------------------------------------

    def check_alignment(self, shape: Sequence[int]) -> None:
        """Verify an actual array of ``shape`` can align to this template."""
        if tuple(int(s) for s in shape) != self.shape:
            raise AlignmentError(
                f"array shape {tuple(shape)} does not align to template "
                f"shape {self.shape}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (f"DistArrayDescriptor({label} shape={self.shape} "
                f"dtype={self.dtype} nranks={self.nranks} mode={self.mode})")
