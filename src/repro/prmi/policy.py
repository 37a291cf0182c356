"""Transmission policies, separated from method implementation.

Following Walker et al.'s argument (PAPERS.md, "Promoting Component
Reuse by Separating Transmission Policy from Implementation"), *how* an
invocation travels — synchronously, fire-and-forget, coalesced into
batch frames, or answered from a cache — is a property of the
**connection**, not of the method body.  A :class:`PolicyTable` binds a
policy per method (or one default per port) on the caller side; the
callee's ``impl`` never changes, and the same port can be rebound under
a different table without touching either component.

Policies
--------

* :class:`Sync` — ship immediately, block for the return value (the
  classic RMI contract; the default for returning methods).
* :class:`OneWay` — ship immediately, expect no reply even if the
  method returns one (the caller discards it at the source: the request
  is flagged no-reply so the server never serializes the result).  The
  default for ``oneway``-declared methods.
* :class:`Batched` — coalesce requests into batch frames
  (:mod:`repro.prmi.frames`): a frame flushes when it reaches
  ``batch_max`` requests or when the oldest pending request has waited
  ``delay_us`` microseconds, whichever comes first (the deadline is the
  deadlock-freedom half of the design — see
  ``prmi_batch_deadlock_model`` in :mod:`repro.verify.commgraph`).
* :class:`CachedRead` — memoize results per argument tuple on the
  caller side; repeat invocations are answered locally with zero wire
  traffic for as long as the policy object is bound.  Only sound for
  read-like methods; staleness is the caller's explicit contract.

``batch_max``/``delay_us`` are the ``batch_max`` / ``batch_delay_us``
knobs of :mod:`repro.config`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import config
from repro.cca.sidl import MethodSpec
from repro.errors import PRMIError
from repro.util.counters import PRMI_STATS

__all__ = [
    "TransmissionPolicy",
    "Sync",
    "OneWay",
    "Batched",
    "CachedRead",
    "PolicyTable",
]

class TransmissionPolicy:
    """Base class: how one method's invocations travel."""

    #: Display / table name.
    name = "abstract"

    def expects_reply(self, spec: MethodSpec) -> bool:
        """Whether the caller should await (and the server produce) a
        reply for this method under this policy."""
        return not spec.oneway

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Sync(TransmissionPolicy):
    """Ship immediately, block on the reply — classic RMI."""

    name = "sync"


class OneWay(TransmissionPolicy):
    """Fire-and-forget: no reply travels, whatever the method returns."""

    name = "one-way"

    def expects_reply(self, spec: MethodSpec) -> bool:
        return False


class Batched(TransmissionPolicy):
    """Coalesce into batch frames under a (count, deadline) trigger."""

    name = "batched"

    def __init__(self, batch_max: int | None = None,
                 delay_us: int | None = None):
        self.batch_max = config.resolve("batch_max", batch_max)
        self.delay_us = config.resolve("batch_delay_us", delay_us)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Batched(batch_max={self.batch_max}, "
                f"delay_us={self.delay_us})")


def _canonical(value: Any) -> Any:
    """A hashable mirror of an argument structure (cache key leaf)."""
    if isinstance(value, np.ndarray):
        return ("__ndarray__", value.shape, value.dtype.str,
                value.tobytes())
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


class CachedRead(TransmissionPolicy):
    """Caller-side result cache.

    The cache is per-policy-object: bind one instance per method (or
    share one across methods of a port — keys include the method name);
    binding a fresh one starts empty.
    """

    name = "cached-read"

    def __init__(self):
        self._cache: dict[Any, Any] = {}

    def key(self, method: str, kwargs: dict) -> Any:
        return (method, _canonical(kwargs))

    def lookup(self, method: str, kwargs: dict) -> tuple[bool, Any]:
        k = self.key(method, kwargs)
        if k in self._cache:
            PRMI_STATS.add("cached_read_hits")
            return True, self._cache[k]
        return False, None

    def store(self, method: str, kwargs: dict, value: Any) -> None:
        self._cache[self.key(method, kwargs)] = value

    def __len__(self) -> int:
        return len(self._cache)


class PolicyTable:
    """Per-method transmission policies with a per-port default.

    ``PolicyTable(default=Batched(), get_config=CachedRead())`` batches
    everything except ``get_config``, which is served from cache.  A
    method with no entry and no table default falls back on the spec:
    ``oneway`` methods travel :class:`OneWay`, the rest :class:`Sync` —
    so an empty table reproduces the unbatched protocol exactly.
    """

    def __init__(self, default: TransmissionPolicy | None = None,
                 **per_method: TransmissionPolicy):
        for name, pol in per_method.items():
            if not isinstance(pol, TransmissionPolicy):
                raise PRMIError(
                    f"policy for method {name!r} must be a "
                    f"TransmissionPolicy, got {type(pol).__name__}")
        if default is not None and not isinstance(default,
                                                  TransmissionPolicy):
            raise PRMIError(
                f"default policy must be a TransmissionPolicy, got "
                f"{type(default).__name__}")
        self.default = default
        self.per_method = dict(per_method)

    _SYNC = Sync()
    _ONE_WAY = OneWay()

    def for_method(self, spec: MethodSpec) -> TransmissionPolicy:
        pol = self.per_method.get(spec.name, self.default)
        if pol is None:
            return self._ONE_WAY if spec.oneway else self._SYNC
        if spec.oneway and pol.expects_reply(spec):  # pragma: no cover
            # expects_reply already consults spec.oneway; guard kept for
            # custom policy subclasses that forget to.
            raise PRMIError(
                f"policy {pol.name!r} would await a reply from one-way "
                f"method {spec.name!r}")
        return pol

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PolicyTable(default={self.default!r}, "
                f"{', '.join(f'{k}={v!r}' for k, v in self.per_method.items())})")
