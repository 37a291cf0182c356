"""AttrVect: MCT's multi-field data storage object.

"A multi-field data storage object that is the common currency modules
use in data exchange."  Storage is one dense (npoints × nfields)
float64 matrix, so transfers and interpolation can operate on all
fields at once — the cache-friendly layout behind experiment E13.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import MCTError


class AttrVect:
    """Named real-valued fields over a set of local points."""

    def __init__(self, fields: Sequence[str], lsize: int):
        names = list(fields)
        if len(names) != len(set(names)):
            raise MCTError(f"duplicate field names in {names}")
        if not names:
            raise MCTError("AttrVect needs at least one field")
        if lsize < 0:
            raise MCTError(f"negative local size {lsize}")
        self.fields = names
        self._index = {name: i for i, name in enumerate(names)}
        #: (npoints, nfields) storage — fields are columns.
        self.data = np.zeros((lsize, len(names)), dtype=np.float64)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "AttrVect":
        names = list(arrays)
        lengths = {len(np.asarray(a)) for a in arrays.values()}
        if len(lengths) > 1:
            raise MCTError(f"field lengths differ: {sorted(lengths)}")
        av = cls(names, lengths.pop() if lengths else 0)
        for name, arr in arrays.items():
            av[name] = np.asarray(arr, dtype=np.float64)
        return av

    def copy(self) -> "AttrVect":
        out = AttrVect(self.fields, self.lsize)
        out.data[:] = self.data
        return out

    # -- accessors ----------------------------------------------------------------

    @property
    def lsize(self) -> int:
        return self.data.shape[0]

    @property
    def nfields(self) -> int:
        return self.data.shape[1]

    def field_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MCTError(f"no field {name!r}; have {self.fields}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        """View (not copy) of one field's values."""
        return self.data[:, self.field_index(name)]

    def __setitem__(self, name: str, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.lsize,):
            raise MCTError(
                f"field {name!r}: expected shape ({self.lsize},), got "
                f"{values.shape}")
        self.data[:, self.field_index(name)] = values

    def subset(self, names: Iterable[str]) -> "AttrVect":
        """A copy restricted to ``names`` (shared point set)."""
        names = list(names)
        out = AttrVect(names, self.lsize)
        for n in names:
            out[n] = self[n]
        return out

    def same_fields(self, other: "AttrVect") -> bool:
        return self.fields == other.fields

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AttrVect({self.fields}, lsize={self.lsize})"
