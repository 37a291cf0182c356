"""The knob table: every ``REPRO_*`` setting, resolved one way.

Both sides of a coupling derive the same transfer independently from
the exchanged descriptors (paper §2.3), so every input that is *not* in
a descriptor must resolve identically on both.  This module is the one
place that happens.  :data:`KNOBS` has one row per knob; :func:`resolve`
applies one rule to all of them:

* explicit argument > environment variable > default;
* an unset **or blank** variable means the default;
* flags accept ``0/false/off/no`` and ``1/true/on/yes`` in any case
  (and ``bool`` arguments), choices are case-insensitive — anything
  else raises the row's typed error naming the knob and its variable.

A limit no deployment sets (a batch size, an in-flight window, the
schedule cache's LRU bound) is not a knob: it is a module constant next
to its one reader, overridden by a constructor argument that
:func:`at_least` checks.

Call sites resolve at import time (the two debug switches, whose
setters override afterwards) or at construct / bind /
open time — never per step or per invocation.  ``python -m
repro.config`` prints every knob's effective value and where it came
from, lists any set ``REPRO_*`` variable that names no knob (a retired
one such as ``REPRO_RMA``) as ``unknown`` and then exits 1;
``--markdown`` emits the README table.  The lint rule V110 keeps
``REPRO_*`` environment reads out of every other module.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys
from typing import NamedTuple

from repro.errors import ScheduleError

__all__ = ["Knob", "KNOBS", "lookup", "resolve", "markdown", "at_least"]

_FLAG_WORDS = {**dict.fromkeys(("0", "false", "off", "no"), False),
               **dict.fromkeys(("1", "true", "on", "yes"), True)}


class Knob(NamedTuple):
    """One row of the table.  ``domain`` is the allowed names of a
    ``choice``, ``None`` for a ``flag``; ``error`` is the exception
    class the owning subsystem raises."""

    name: str
    env: str
    kind: str
    default: object
    domain: object
    error: type
    doc: str

    def parse(self, value):
        """The typed value of an environment string or an explicit
        argument, or :attr:`error` naming the knob."""
        text = value.strip().lower() if isinstance(value, str) else value
        if self.kind == "flag":
            parsed = (text if isinstance(text, bool)
                      else _FLAG_WORDS.get(str(text)))
            expected = "one of 0/false/off/no or 1/true/on/yes"
        else:
            parsed = text if text in self.domain else None
            expected = f"one of {', '.join(self.domain)}"
        if parsed is None:
            raise self.error(f"{self.name} ({self.env}) must be {expected}, "
                             f"got {value!r}")
        return parsed


def _shown(value) -> str:
    return str(int(value)) if isinstance(value, bool) else str(value)


KNOBS = {k.name: k for k in (
    Knob("backend", "REPRO_BACKEND", "choice", "threads",
         ("threads", "procs"), ValueError,
         "Ranks of `run_spmd`/`run_coupled`: threads or forked processes."),
    Knob("verify", "REPRO_VERIFY", "flag", False, None, ValueError,
         "Prove compiled plans against the fallback gather once per bind."),
    Knob("tsan", "REPRO_TSAN", "flag", False, None, ValueError,
         "Happens-before race sanitizer over the shared-memory protocols."),
    Knob("tier", "REPRO_TIER", "choice", "two_sided",
         ("two_sided", "rma"), ScheduleError,
         "Eager messages (puts above `EAGER_MAX`) or puts for every "
         "pair."),
)}


def lookup(name: str, arg=None) -> tuple:
    """``(value, source)`` of knob ``name``; ``source`` is ``"arg"``,
    ``"env"`` or ``"default"``."""
    knob = KNOBS[name]
    if arg is not None:
        return knob.parse(arg), "arg"
    raw = os.environ.get(knob.env, "").strip()
    if raw:
        return knob.parse(raw), "env"
    return knob.default, "default"


def resolve(name: str, arg=None):
    """The effective value of knob ``name`` (see the module rule)."""
    return lookup(name, arg)[0]


def at_least(name: str, value, lower: int, error: type) -> int:
    """``value`` as an integer ``>= lower``, or ``error`` naming the
    argument ``name``."""
    try:
        parsed = operator.index(value)
    except TypeError:
        parsed = None
    if parsed is None or parsed < lower:
        raise error(f"{name} must be an integer >= {lower}, got {value!r}")
    return parsed


def markdown() -> str:
    """The README's environment-variable table."""
    rows = ["| Variable | Values | Default | Effect |", "|---|---|---|---|"]
    for k in KNOBS.values():
        values = ", ".join(f"`{v}`" for v in k.domain or ("0", "1"))
        rows.append(f"| `{k.env}` | {values} | `{_shown(k.default)}` | "
                    f"{k.doc} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.config",
        description="Print every knob's effective value and its source; "
                    "exit 1 if a set REPRO_* variable names no knob.")
    parser.add_argument("--markdown", action="store_true",
                        help="emit the README knob table instead")
    if parser.parse_args(argv).markdown:
        print(markdown())
        return 0
    for knob in KNOBS.values():
        value, source = lookup(knob.name)
        print(f"{knob.env:<26} {_shown(value):<12} {source}")
    known = {k.env for k in KNOBS.values()}
    stale = {var: raw.strip() for var, raw in sorted(os.environ.items())
             if var.startswith("REPRO_") and var not in known and raw.strip()}
    for var, raw in stale.items():
        print(f"{var:<26} {raw:<12} unknown")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
