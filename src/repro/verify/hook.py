"""Runtime verification hook (``REPRO_VERIFY=1``).

The executor calls :func:`maybe_verify_side` at its one *plan-binding*
point — :func:`repro.schedule.executor.bind`, which every one-shot
``execute_intra``/``execute_inter`` and every persistent transfer on
every tier goes through — never inside a steady-state ``step``.  When
verification is disabled (the default) the hook is a single
module-global boolean test; when enabled, each (schedule, side, rank) triple is proved once
against the fallback gather (:func:`repro.verify.schedule.
verify_rank_plans`) and cached on the schedule object, so even an
enabled long-running transfer loop verifies exactly once.

The A7 steady-state benchmark records that the disabled hook adds zero
per-step work (``verify_hook`` section of ``BENCH_schedule.json``).
"""

from __future__ import annotations

from repro import config
from repro.util.counters import Counters

__all__ = ["verify_enabled", "set_verify", "maybe_verify_side",
           "VERIFY_STATS"]

#: Hook counters: ``rank_checks`` increments once per proved
#: (schedule, side, rank) triple, ``cache_hits`` when a triple was
#: already proved, ``hook_calls`` on every enabled hook entry.  The A7
#: benchmark asserts none of these grow during steady-state stepping.
VERIFY_STATS = Counters()

_enabled = config.resolve("verify")


def verify_enabled() -> bool:
    """Whether the runtime assertion hook is active."""
    return _enabled


def set_verify(on: bool) -> None:
    """Programmatically toggle the hook (tests, benchmarks)."""
    global _enabled
    _enabled = bool(on)


def maybe_verify_side(schedule, side: str, rank: int, descriptor) -> None:
    """Prove ``schedule``'s compiled ``side`` plan for ``rank`` against
    the fallback gather — once per triple, and only under
    ``REPRO_VERIFY=1``.  Raises :class:`~repro.errors.
    VerificationError` on any fast-path/index mismatch."""
    if not _enabled:
        return
    VERIFY_STATS.add("hook_calls")
    done = getattr(schedule, "_verified_sides", None)
    if done is None:
        done = set()
        schedule._verified_sides = done
    key = (side, rank)
    if key in done:
        VERIFY_STATS.add("cache_hits")
        return
    from repro.verify.schedule import verify_rank_plans
    verify_rank_plans(schedule, side, rank, descriptor.local_regions(rank))
    done.add(key)
    VERIFY_STATS.add("rank_checks")
