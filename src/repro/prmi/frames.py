"""Batch frame codec: many invocations, one wire message.

The request-at-a-time PRMI path pays one pickled transport message per
invocation, so at high invocation rates the per-message overhead —
serialization, matching, wakeups — dominates the wire bytes.  Following
the message-combining idiom of :mod:`repro.schedule.packing` (one
contiguous buffer per communicating pair, positional layout agreed
without metadata exchange), a *batch frame* coalesces every request a
(caller, callee) pair exchanges per flush into one message:

``[u64 header length | header | padded array blocks]``

Array leaves of one (dtype, shape) form one *block*: a single
``np.stack`` packs them as the rows of one ``(rows, *shape)`` array,
and blocks sit back-to-back (16-byte aligned) after the header.  The
header is **one** pickle for the whole frame: the entry list with every
NumPy array leaf replaced by an :class:`_ArrayRef` naming its (block,
row), plus the (dtype, shape, rows, offset) table of the blocks, each
dtype as its ``.npy`` descriptor so a structured or padded one comes
back whole.
Decoding makes one view per block and hands each leaf out as a row of
it — zero-copy, and a 0-d leaf comes back as a 0-d array — so no
per-request pickling happens on either side, which is exactly what
lint rule V107 enforces everywhere else.

Entries are ``(seq, name, payload)`` triples and deliberately
direction-agnostic: the caller encodes ``(seq, method, kwargs)`` request
frames, the serve loop encodes ``(seq, status, value)`` reply frames
with the same codec.
"""

from __future__ import annotations

import pickle
import struct
from math import prod
from typing import Any, Sequence

import numpy as np
from numpy.lib.format import descr_to_dtype, dtype_to_descr

__all__ = ["encode_frame", "decode_frame", "FrameError"]

#: Alignment of each packed block (bytes) — keeps decoded views
#: aligned for every native dtype.
_ALIGN = 16

_LEN = struct.Struct("<Q")

#: Leaf types that are neither arrays nor containers: both tree walks
#: pass them through at the cost of one set lookup.
_ATOMS = frozenset({int, float, str, bytes, bool, type(None)})


class FrameError(ValueError):
    """A frame failed to decode (truncated or corrupt)."""


class _ArrayRef:
    """Placeholder for an extracted array leaf: row ``row`` of the
    frame's block ``block``."""

    __slots__ = ("block", "row")

    def __init__(self, block: int, row: int):
        self.block = block
        self.row = row

    def __reduce__(self):
        return (_ArrayRef, (self.block, self.row))


def _extract(value: Any, blocks: dict) -> Any:
    """Replace every packable ndarray leaf in ``value`` with an
    :class:`_ArrayRef`, appending the leaf to the rows of its (dtype,
    shape) block in ``blocks``.  Containers are rebuilt (the caller's
    objects are never mutated); object-dtype arrays stay in the pickled
    header — raw bytes cannot carry them."""
    if type(value) in _ATOMS:
        return value
    if isinstance(value, np.ndarray) and not value.dtype.hasobject:
        key = (value.dtype, value.shape)
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = (len(blocks), [])
        rows = block[1]
        rows.append(value)
        return _ArrayRef(block[0], len(rows) - 1)
    if isinstance(value, dict):
        return {k: v if type(v) in _ATOMS else _extract(v, blocks)
                for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_extract(v, blocks) for v in value)
    if isinstance(value, list):
        return [_extract(v, blocks) for v in value]
    return value


def _restore(value: Any, views: Sequence[np.ndarray]) -> Any:
    if type(value) in _ATOMS:
        return value
    if isinstance(value, _ArrayRef):
        return views[value.block][value.row, ...]
    if isinstance(value, dict):
        return {k: v if type(v) in _ATOMS else _restore(v, views)
                for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_restore(v, views) for v in value)
    if isinstance(value, list):
        return [_restore(v, views) for v in value]
    return value


def _pad(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def encode_frame(entries: Sequence[tuple[int, str, Any]]) -> np.ndarray:
    """Encode ``(seq, name, payload)`` entries into one frame buffer.

    Returns a 1-D ``uint8`` array (transports treat it as raw bytes; on
    the procs backend it rides a shared-memory slot untouched).
    """
    blocks: dict = {}
    wire_entries = [(int(seq), name, _extract(payload, blocks))
                    for seq, name, payload in entries]
    layout = []
    offset = 0
    for (dtype, shape), (_index, rows) in blocks.items():
        offset = _pad(offset)
        nbytes = len(rows) * prod(shape) * dtype.itemsize
        layout.append((dtype, shape, rows, offset, nbytes))
        offset += nbytes
    metas = [(dtype_to_descr(dtype), shape, len(rows), off)
             for dtype, shape, rows, off, _nbytes in layout]
    header = pickle.dumps((wire_entries, metas),
                          protocol=pickle.HIGHEST_PROTOCOL)
    payload_base = _pad(_LEN.size + len(header))
    frame = np.zeros(payload_base + offset, dtype=np.uint8)
    frame[:_LEN.size] = np.frombuffer(_LEN.pack(len(header)), dtype=np.uint8)
    frame[_LEN.size:_LEN.size + len(header)] = np.frombuffer(
        header, dtype=np.uint8)
    for dtype, shape, rows, off, nbytes in layout:
        if nbytes:
            start = payload_base + off
            np.stack(rows, out=frame[start:start + nbytes].view(dtype)
                     .reshape((len(rows),) + shape))
    return frame


def decode_frame(frame: Any) -> list[tuple[int, str, Any]]:
    """Decode a frame back into its ``(seq, name, payload)`` entries.

    Array leaves come back as views into ``frame`` (zero-copy decode)
    when ``frame`` is a writable buffer, read-only views otherwise —
    either way no per-request deserialization happens.
    """
    buf = memoryview(np.asarray(frame).reshape(-1).view(np.uint8))
    if len(buf) < _LEN.size:
        raise FrameError(f"frame of {len(buf)} bytes has no header length")
    (hlen,) = _LEN.unpack(buf[:_LEN.size])
    if _LEN.size + hlen > len(buf):
        raise FrameError(
            f"frame header claims {hlen} bytes but only "
            f"{len(buf) - _LEN.size} follow — truncated frame")
    try:
        wire_entries, metas = pickle.loads(buf[_LEN.size:_LEN.size + hlen])
    except Exception as exc:  # noqa: BLE001 - surface as protocol error
        raise FrameError(f"frame header failed to unpickle: {exc}") from exc
    payload_base = _pad(_LEN.size + hlen)
    views: list[np.ndarray] = []
    for descr, shape, count, off in metas:
        dtype = descr_to_dtype(descr)
        items = count * prod(shape)
        end = payload_base + off + items * dtype.itemsize
        if end > len(buf):
            raise FrameError(
                f"frame block table overruns the buffer "
                f"({end} > {len(buf)})")
        views.append(np.frombuffer(buf, dtype=dtype, count=items,
                                   offset=payload_base + off)
                     .reshape((count,) + shape))
    return [(seq, name, _restore(payload, views))
            for seq, name, payload in wire_entries]
