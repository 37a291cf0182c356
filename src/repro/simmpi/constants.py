"""Wildcard constants for message matching, and the tag-space map.

The tag space is partitioned so the protocol families sharing one
mailbox can never collide:

* ``[0, FRAME_TAG_BASE)`` — application point-to-point tags (including
  the PRMI per-message tags 100–106),
* ``[FRAME_TAG_BASE, INTERNAL_TAG_BASE)`` — framed (coalesced) protocol
  streams: each stream id maps to one tag via :func:`frame_tag`, so a
  batch frame, its return frame, and control traffic ride distinct
  FIFO-ordered (source, tag) streams without reserving application tags,
* ``[INTERNAL_TAG_BASE, ∞)`` — collective-internal sequence tags.

A rendezvous needs no band of its own: a pair above a transfer's eager
limit is a put into the receiver's RMA window, whose epoch waits are
woken by a kick, not a message (:mod:`repro.simmpi.rma`).
"""

#: Match a message from any source rank.
ANY_SOURCE: int = -1

#: Match a message with any tag.
ANY_TAG: int = -1

#: Tags >= this value are reserved for internal collective protocols.
INTERNAL_TAG_BASE: int = 1 << 28

#: Base of the framed-protocol tag band (batched PRMI serving streams).
FRAME_TAG_BASE: int = 1 << 20


def frame_tag(stream: int) -> int:
    """The wire tag of framed-protocol stream ``stream``.

    Streams partition the ``[FRAME_TAG_BASE, INTERNAL_TAG_BASE)`` band;
    together with the source rank this names one FIFO-ordered message
    stream per (peer, stream) pair.
    """
    tag = FRAME_TAG_BASE + int(stream)
    if not (FRAME_TAG_BASE <= tag < INTERNAL_TAG_BASE):
        raise ValueError(
            f"frame stream {stream} falls outside the framed tag band "
            f"[{FRAME_TAG_BASE}, {INTERNAL_TAG_BASE})")
    return tag
