"""Field registration — the M×N component's public face.

"Parallel components can register their parallel data fields by
providing a handle to a Distributed Array Descriptor (DAD) object ...
The M×N registration process allows a component to express the required
DAD information for any dense rectangular array decomposition, and also
indicates which access modes for M×N transfers with that data field are
allowed (read, write or read/write)."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConnectionError_, RegistrationError
from repro.dad.darray import DistributedArray
from repro.dad.descriptor import AccessMode, DistArrayDescriptor
from repro.mxn.connection import (
    ConnectionKind,
    ConnectionSpec,
    MxNConnection,
    agreed_requests,
    handshake,
)
from repro.simmpi.communicator import Communicator
from repro.simmpi.intercomm import Intercommunicator


@dataclass
class _FieldEntry:
    darray: DistributedArray
    mode: AccessMode


class MxNComponent:
    """One cohort instance of the M×N component (Fig. 3).

    Instantiate one per rank of the parallel program, co-located with
    the application component; pairs of these mediate inter-framework
    transfers over an intercommunicator.
    """

    def __init__(self, local_comm: Communicator):
        self.local_comm = local_comm
        self._fields: dict[str, _FieldEntry] = {}
        #: Handshaken connections so far per intercommunicator (keyed by
        #: its recv context): the next connection's id, hence its tag.
        self._handshakes: dict[int, int] = {}

    # -- registration -------------------------------------------------------

    def register(self, name: str, darray: DistributedArray,
                 mode: AccessMode = AccessMode.READWRITE) -> None:
        """Register a parallel data field under ``name``."""
        if name in self._fields:
            raise RegistrationError(f"field {name!r} already registered")
        if darray.rank != self.local_comm.rank:
            raise RegistrationError(
                f"field {name!r}: storage is for rank {darray.rank} but "
                f"this instance is rank {self.local_comm.rank}")
        self._fields[name] = _FieldEntry(darray, mode)

    def field(self, name: str) -> DistributedArray:
        return self._entry(name).darray

    def descriptor(self, name: str) -> DistArrayDescriptor:
        return self._entry(name).darray.descriptor

    def _entry(self, name: str) -> _FieldEntry:
        try:
            return self._fields[name]
        except KeyError:
            raise RegistrationError(f"no field {name!r} registered") from None

    # -- connection setup -----------------------------------------------------

    def connect(self, inter: Intercommunicator, role: str,
                local_field: str,
                kind: ConnectionKind = ConnectionKind.ONE_SHOT,
                period: int = 1) -> MxNConnection:
        """Create a connection by two-sided handshake.

        Collective over the local cohort; the peer cohort must make the
        matching call with the opposite ``role``.  Descriptors are
        exchanged through the paired M×N components, so neither
        application component needs to know the other's decomposition.

        Successive connections over one intercommunicator get successive
        connection ids — each its own data tag, so their transfers may
        fire in any order on either side — which the handshake
        cross-checks together with ``kind``, ``period`` and the
        :func:`~repro.mxn.connection.agreed_requests`.  A bad role
        or a refused access mode travels inside the handshake, so both
        jobs raise :class:`~repro.errors.ConnectionError_` on every rank.
        """
        entry = self._entry(local_field)
        error = None
        if role not in ("source", "destination"):
            error = f"role must be 'source' or 'destination', got {role!r}"
        elif role == "source" and not entry.mode.allows_read():
            error = (f"field {local_field!r} is not readable "
                     f"(mode {entry.mode})")
        elif role == "destination" and not entry.mode.allows_write():
            error = (f"field {local_field!r} is not writable "
                     f"(mode {entry.mode})")

        my_desc = entry.darray.descriptor
        conn_id = self._handshakes.get(inter.recv_context, 0)
        self._handshakes[inter.recv_context] = conn_id + 1
        agreed = {"kind": kind.value, "period": period,
                  "connection id": conn_id,
                  **(agreed_requests() if kind is not ConnectionKind.ONE_SHOT
                     else {})}
        peer_desc = handshake(inter, 90, my_desc, agreed, error=error,
                              what="M×N connection")

        if role == "source":
            spec = ConnectionSpec(my_desc, peer_desc, kind, period, conn_id)
        else:
            spec = ConnectionSpec(peer_desc, my_desc, kind, period, conn_id)
        return MxNConnection(spec, inter, role, entry.darray)

    def connect_with_spec(self, inter: Intercommunicator, role: str,
                          local_field: str,
                          spec: ConnectionSpec) -> MxNConnection:
        """Create a connection from a third-party-built spec.

        "M×N connections can be initiated by either the source or
        destination components, or by a third party controller" — the
        spec carries both descriptors, so no handshake is needed and the
        application components stay unaware of the coupling.
        """
        entry = self._entry(local_field)
        mine = spec.src_desc if role == "source" else spec.dst_desc
        if entry.darray.descriptor.cache_key() != mine.cache_key():
            raise ConnectionError_(
                f"field {local_field!r} does not match the spec's "
                f"{role} descriptor")
        return MxNConnection(spec, inter, role, entry.darray)
