"""Static analysis for the repro middleware (paper-hazard proofs).

Three analyzers, one CLI (``python -m repro.verify``):

* :mod:`repro.verify.schedule` — offline proofs that a redistribution
  schedule moves every element exactly once, conserves bytes, and that
  every compiled fast path matches the fallback gather; plus the
  all-pairs-oracle routing gate for the fast-path builders.
* :mod:`repro.verify.commgraph` — pre-launch deadlock detection over
  static communication programs (wait-for cycles, collective-order
  mismatches), reporting in the runtime watchdog's blocked-rank dump
  format.
* :mod:`repro.verify.race` — bounded explicit-state model checks of
  the lock-free slot-ring, descriptor-ring and epoch seqlock protocols
  (clean proofs at bounded scope plus a seeded-mutant matrix), sharing
  the commgraph search engine; the static half of the ``REPRO_TSAN``
  race-sanitizer proof obligation (:mod:`repro.simmpi.sanitize` is the
  dynamic half).
* :mod:`repro.verify.lint` — AST enforcement of the zero-copy
  transport's ownership contract over ``src/``.

:mod:`repro.verify.hook` wires the schedule proofs into the executors
as ``REPRO_VERIFY=1`` runtime assertions with zero steady-state cost.

Exports resolve lazily (PEP 562): the executors import
:mod:`repro.verify.hook` during :mod:`repro.schedule` initialization,
and :mod:`repro.verify.schedule` imports the builders back — laziness
keeps that cycle open.
"""

_EXPORTS = {
    "VERIFY_STATS": "hook",
    "maybe_verify_side": "hook",
    "set_verify": "hook",
    "verify_enabled": "hook",
    "ScheduleProof": "schedule",
    "verify_schedule": "schedule",
    "verify_against_oracle": "schedule",
    "verify_delta_equivalence": "schedule",
    "verify_linear_schedule": "schedule",
    "verify_rank_plans": "schedule",
    "CommProgram": "commgraph",
    "Diagnosis": "commgraph",
    "Exploration": "commgraph",
    "explore_states": "commgraph",
    "would_deadlock": "commgraph",
    "assert_deadlock_free": "commgraph",
    "transfer_model": "commgraph",
    "fig5_model": "commgraph",
    "ModelResult": "race",
    "slot_ring_model": "race",
    "descriptor_ring_model": "race",
    "epoch_model": "race",
    "check_protocols": "race",
    "sanitizer_selfcheck": "race",
    "LintViolation": "lint",
    "lint_paths": "lint",
    "lint_source": "lint",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    mod = importlib.import_module(f"{__name__}.{module}")
    value = getattr(mod, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
