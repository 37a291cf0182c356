"""InterComm import/export endpoints.

"Programs only express potential data transfers with import and export
calls, thereby freeing each program (component) developer from having to
know in advance the communication patterns of its potential partners."

The exporter buffers a bounded history of stamped snapshots and services
import requests whenever it makes progress (each ``export`` call, and at
``finalize``); the importer blocks until its request is matched under
the coordination rule.  Control traffic is rank-0-to-rank-0; the data
itself moves fully in parallel over the precomputed per-field schedule —
"separation of control issues from data transfers".
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass


from repro.errors import CoordinationError
from repro.dad.darray import DistributedArray
from repro.dad.descriptor import DistArrayDescriptor
from repro.icomm.coordination import CoordinationSpec
from repro.schedule.builder import GLOBAL_CACHE
from repro.schedule.executor import execute_inter
from repro.simmpi.communicator import Communicator
from repro.simmpi.intercomm import Intercommunicator

REQUEST_TAG = 140
HEADER_TAG = 141
DATA_TAG_BASE = 7000


def _field_tag(field: str) -> int:
    return DATA_TAG_BASE + (zlib.crc32(field.encode()) % 512)


@dataclass
class _FieldChannel:
    src_desc: DistArrayDescriptor
    dst_desc: DistArrayDescriptor
    schedule: object
    tag: int


def _build_channels(fields: dict[str, tuple[DistArrayDescriptor,
                                            DistArrayDescriptor]]):
    channels = {}
    for name, (src, dst) in fields.items():
        channels[name] = _FieldChannel(
            src, dst, GLOBAL_CACHE.get(src, dst), _field_tag(name))
    return channels


class Exporter:
    """The producing program's endpoint."""

    def __init__(self, local_comm: Communicator, inter: Intercommunicator,
                 spec: CoordinationSpec,
                 fields: dict[str, tuple[DistArrayDescriptor,
                                         DistArrayDescriptor]],
                 *, total_imports: int | None = None):
        self.local_comm = local_comm
        self.inter = inter
        self.spec = spec
        self.channels = _build_channels(fields)
        #: buffered snapshots: field -> list of (ts, DistributedArray)
        self._buffer: dict[str, list[tuple[int, DistributedArray]]] = {
            name: [] for name in fields}
        self._latest: dict[str, int | None] = {n: None for n in fields}
        #: requests received but not yet satisfiable: (field, import_ts)
        self._pending: list[tuple[str, int]] = []
        self._serviced = 0
        #: if set, finalize() blocks until this many imports were served
        self._total_imports = total_imports
        self.transfers = 0

    # -- the export call ---------------------------------------------------

    def export(self, field: str, ts: int, darray: DistributedArray) -> None:
        """Offer a stamped snapshot of ``field``; collective over the
        exporting cohort.  Never blocks on the importer."""
        channel = self._channel(field)
        rule = self.spec.rule(field)
        if rule.eligible(ts):
            snapshot = DistributedArray(
                channel.src_desc, self.local_comm.rank,
                {region: arr.copy() for region, arr in darray.patches.items()})
            buf = self._buffer[field]
            buf.append((ts, snapshot))
            if len(buf) > self.spec.history:
                buf.pop(0)
        self._latest[field] = ts
        self._service(stream_done=False)

    def finalize(self) -> None:
        """Declare the export stream finished and service whatever
        imports remain (blocking until ``total_imports`` when set)."""
        self._service(stream_done=True)
        if self._total_imports is not None:
            while self._serviced < self._total_imports:
                self._service(stream_done=True, block=True)

    # -- matching machinery ---------------------------------------------------

    def _channel(self, field: str) -> _FieldChannel:
        try:
            return self.channels[field]
        except KeyError:
            raise CoordinationError(
                f"exporter has no channel for field {field!r}") from None

    def _drain_requests(self, block: bool) -> None:
        """Pull newly arrived import requests (rank 0) and replicate the
        pending list across the cohort."""
        if self.local_comm.rank == 0:
            new = []
            if block and not self._pending:
                new.append(tuple(self.inter.recv(tag=REQUEST_TAG)))
            while self.inter.iprobe(tag=REQUEST_TAG) is not None:
                new.append(tuple(self.inter.recv(tag=REQUEST_TAG)))
        else:
            new = None
        new = self.local_comm.bcast(new, root=0)
        self._pending.extend(new)

    def _service(self, *, stream_done: bool, block: bool = False) -> None:
        self._drain_requests(block)
        still_pending: list[tuple[str, int]] = []
        for field, import_ts in self._pending:
            channel = self._channel(field)
            rule = self.spec.rule(field)
            buffered_ts = [ts for ts, _ in self._buffer[field]]
            try:
                chosen = rule.resolve(import_ts, buffered_ts,
                                      self._latest[field], stream_done)
            except CoordinationError as exc:
                if self.local_comm.rank == 0:
                    self.inter.send(("error", field, import_ts, str(exc)),
                                    dest=0, tag=HEADER_TAG)
                self._serviced += 1
                continue
            if chosen is None:
                still_pending.append((field, import_ts))
                continue
            snapshot = next(s for ts, s in self._buffer[field]
                            if ts == chosen)
            if self.local_comm.rank == 0:
                self.inter.send(("ok", field, import_ts, chosen),
                                dest=0, tag=HEADER_TAG)
            execute_inter(channel.schedule, self.inter, "src", snapshot,
                          tag=channel.tag)
            self.transfers += 1
            self._serviced += 1
        self._pending = still_pending


class Importer:
    """The consuming program's endpoint."""

    def __init__(self, local_comm: Communicator, inter: Intercommunicator,
                 spec: CoordinationSpec,
                 fields: dict[str, tuple[DistArrayDescriptor,
                                         DistArrayDescriptor]]):
        self.local_comm = local_comm
        self.inter = inter
        self.spec = spec
        self.channels = _build_channels(fields)
        self.transfers = 0

    def import_(self, field: str, ts: int,
                darray: DistributedArray) -> int:
        """Request ``field`` for timestamp ``ts``; blocks until the
        coordination rule matches an export.  Fills ``darray`` and
        returns the matched export timestamp."""
        try:
            channel = self.channels[field]
        except KeyError:
            raise CoordinationError(
                f"importer has no channel for field {field!r}") from None
        self.spec.rule(field)  # validate the rule exists on this side too
        if self.local_comm.rank == 0:
            self.inter.send((field, ts), dest=0, tag=REQUEST_TAG)
            header = self.inter.recv(source=0, tag=HEADER_TAG)
        else:
            header = None
        header = self.local_comm.bcast(header, root=0)
        status, h_field, h_ts, payload = header
        if status == "error":
            raise CoordinationError(payload)
        if (h_field, h_ts) != (field, ts):
            raise CoordinationError(
                f"out-of-order header: expected ({field}, {ts}), got "
                f"({h_field}, {h_ts})")
        execute_inter(channel.schedule, self.inter, "dst", darray,
                      tag=channel.tag)
        self.transfers += 1
        return payload
