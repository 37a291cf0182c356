"""Transmission policy, separated from method implementation.

Following Walker et al.'s argument (PAPERS.md, "Promoting Component
Reuse by Separating Transmission Policy from Implementation"), *how* an
invocation travels is a property of the **connection**, not of the
method body.  A :class:`PolicyTable` binds one policy per port on the
caller side; the callee's ``impl`` never changes, and the same port can
be bound under a different table without touching either component.

A port's table holds at most one policy, its ``default``:

* :class:`Batched` — coalesce requests into batch frames
  (:mod:`repro.prmi.frames`): a frame flushes when it reaches
  ``batch_max`` requests or when the oldest pending request has waited
  ``delay_us`` microseconds, whichever comes first (the deadline is the
  deadlock-freedom half of the design — see
  ``prmi_batch_deadlock_model`` in :mod:`repro.verify.commgraph`).
  ``prmi_batched`` and A11 run it.
* ``None`` — every request ships as its own frame on submit; a
  returning method's future comes back settled (the classic RMI
  contract).

Either way a ``oneway``-declared method expects no reply: its request
is flagged no-reply, so the server never serializes a result.
"""

from __future__ import annotations

from repro import config
from repro.errors import PRMIError

__all__ = ["Batched", "PolicyTable"]

#: Requests per batch frame before a size-triggered flush.
BATCH_MAX = 32
#: Microseconds the oldest batched request waits before a flush.
BATCH_DELAY_US = 200


class Batched:
    """Coalesce into batch frames under a (count, deadline) trigger."""

    def __init__(self, batch_max: int = BATCH_MAX,
                 delay_us: int = BATCH_DELAY_US):
        self.batch_max = config.at_least("batch_max", batch_max, 1, PRMIError)
        self.delay_us = config.at_least("delay_us", delay_us, 0, PRMIError)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Batched(batch_max={self.batch_max}, "
                f"delay_us={self.delay_us})")


class PolicyTable:
    """A port's transmission policy: ``PolicyTable(default=Batched())``
    batches every independent method of the port; an empty table ships
    each request on submit, reproducing the unbatched protocol
    exactly."""

    def __init__(self, default: Batched | None = None):
        if default is not None and not isinstance(default, Batched):
            raise PRMIError(
                f"default policy must be a Batched, got "
                f"{type(default).__name__}")
        self.default = default

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolicyTable(default={self.default!r})"
