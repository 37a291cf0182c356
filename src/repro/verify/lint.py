"""Ownership lint pack: AST checks for the transport contract.

The zero-copy transport (:mod:`repro.simmpi.payload`) is an ownership
*protocol*, not a type system — Walker et al.'s point that transmission
policy should be checkable as a property of the code, not of a
particular run.  These rules enforce the PR-3/PR-4 contract statically
over ``src/``:

* **V102 — escaped Borrowed marker.**  A ``Borrowed`` lend is
  consumed synchronously inside the ``send`` it is passed to.  Storing
  one on an attribute, into a subscript, or into a container
  (``.append``/``.add``/``.insert``/``.extend``) keeps a lent view
  alive past its consumption scope.  Returning a freshly built marker
  is fine — a helper may hand one straight to the send call.
* **V103 — Raw payload in the procs backend.**  ``Raw`` wraps
  process-local handles whose identity cannot survive a fork; modules
  implementing the forked-process backend must never construct one.
* **V104 — polling sleep loop.**  ``time.sleep`` inside a ``for``/
  ``while`` body is a busy-wait; the transport is event-driven
  (condition variables, preposted slots) and polling loops defeat both
  latency and the deadlock watchdog's blocked-state accounting.
* **V105 — put into an unexposed window.**  A one-sided ``.put(...)``
  on a window-ish receiver (``rwin``, ``self._win``, ``window`` …)
  with no epoch guard (``wait_open``/``epoch_open``/``fence``) earlier
  in the same function writes remote memory outside any exposure
  epoch — the racing-write bug the :mod:`repro.simmpi.rma` protocol
  exists to prevent, and the static twin of
  :meth:`~repro.verify.commgraph.CommProgram.epoch_violations`.
  Heuristic by name on purpose: queue ``.put`` receivers (``q``,
  ``results``, ``broker_q``) never look like windows.
* **V107 — per-invocation pickling outside the batch encoder.**
  ``pickle.dumps`` inside a ``for``/``while`` body serializes once per
  iteration — exactly the per-message overhead the batch frame codec
  (:mod:`repro.prmi.frames`) exists to amortize: one header pickle per
  *frame*, arrays packed as raw aligned bytes.  The codec module itself
  is exempt (it is the one place a loop may legitimately feed the
  single frame pickle).
* **V108 — raw shared-segment field access.**  The lock-free shared
  segments (slot-ring flags, descriptor-ring head/tail counters and
  records, window epoch/done counters, watchdog fields, the sanitizer
  shadow plane) are only safe through the accessor layer in
  :mod:`repro.simmpi.shm`, where every transition carries its
  ordering discipline (and its ``REPRO_TSAN`` hook).
  Indexing one of those fields anywhere else bypasses both.
* **V109 — flag transition without a paired accessor.**  Storing a
  FREE/BUSY or lifecycle flag constant into a subscript outside the
  named accessor verbs (``acquire``/``release``/``set_blocked``/…)
  flips protocol state with no release/acquire edge in scope — the
  exact write the happens-before sanitizer exists to catch at runtime,
  caught here at lint time.
* **V106 — per-pair allocation without a pool loan.**  A size-dependent
  array allocation (``np.empty``/``zeros``/``ones``/``full``) inside a
  loop over communication pairs (``for pp in plan.pairs``,
  ``for pair in ...``) allocates O(pairs) buffers per transfer — the
  exact footprint the :class:`~repro.schedule.bufpool.BufferPool` and
  the collective round planner exist to avoid.  Loops that loan from a
  pool (any ``.loan(...)`` call in the loop body) are exempt, as are
  constant-size allocations (empty placeholders).
* **V110 — knob read outside the config table.**  An ``environ`` /
  ``getenv`` access to a ``REPRO_*`` name anywhere but
  :mod:`repro.config` is a second resolver: its own grammar, its own
  blank-value rule, its own error type — and one more input that two
  coupled jobs can resolve differently.  Call ``config.resolve``.
* **V111 — private schedule build.**  A call to
  ``build_region_schedule`` / ``build_structured_schedule`` /
  ``build_sweep_schedule`` outside :mod:`repro.schedule`,
  :mod:`repro.verify` and :mod:`repro.baselines` builds — and later
  compiles — a schedule nobody else can reuse, per object or per call.
  Subsystems take theirs from ``GLOBAL_CACHE.get(src, dst)``: one
  build and one set of compiled plans per template pair.

A line can opt out with a ``# verify: allow(V10x)`` pragma naming the
rule.  :func:`lint_paths` walks files or directories and returns
:class:`LintViolation` records; the CLI (``python -m repro.verify lint
src/``) renders them and exits nonzero, which is the CI wiring.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["LintViolation", "lint_source", "lint_paths", "RULES"]

#: Rule id -> one-line description (the CLI's legend).
RULES = {
    "V102": "Borrowed marker stored past its consumption scope",
    "V103": "Raw payload constructed in a procs-backend module",
    "V104": "time.sleep polling loop in transport code",
    "V105": "one-sided put into a window with no epoch guard in scope",
    "V106": "per-pair allocation in a pair loop without a pool loan",
    "V107": "per-invocation pickle.dumps in a loop outside the frame codec",
    "V108": "raw shared-segment field access outside the accessor layer",
    "V109": "flag transition with no paired release/acquire accessor in scope",
    "V110": "REPRO_* environment read outside repro.config",
    "V111": "region schedule built outside the schedule cache",
}

#: The batch frame codec — the one module allowed to pickle in a loop
#: context (it pickles once per frame, not per request).
FRAME_CODEC_MODULES = ("prmi/frames.py",)

#: Epoch verbs that license a later ``.put`` in the same function.
_EPOCH_GUARDS = {"wait_open", "epoch_open", "fence"}

#: Receiver-name fragment marking a ``.put`` target as an RMA window.
_WINDOW_NAME_RE = re.compile(r"win", re.IGNORECASE)

#: Modules implementing the forked-process backend (V103 scope).
PROCS_BACKEND_MODULES = ("simmpi/procs.py", "simmpi/shm.py")

#: Shared-segment field names whose raw indexing is confined to the
#: accessor layer (V108 scope): slot-ring flags, descriptor-ring
#: counters and records, window seqlock counters, watchdog fields and
#: the sanitizer shadow plane.
SHARED_SEGMENT_FIELDS = {
    "_flags", "_head", "_tail", "_buf", "_epoch", "_done", "_descs",
    "_dump", "_rdv", "_abort", "_reason", "_tsan_holder", "_tsan_gen",
    "progress", "state",
}

#: The accessor layer: the only modules allowed to index shared fields.
ACCESSOR_MODULES = ("simmpi/shm.py", "simmpi/sanitize.py")

#: The knob table — the one module allowed to read ``REPRO_*``
#: variables from the environment (V110 scope).
CONFIG_MODULE = "repro/config.py"

#: The region-schedule builders, and the packages allowed to call them
#: directly (V111 scope): the cache's own package, the proofs that
#: compare builders, and the baselines that time them.
_SCHEDULE_BUILDERS = {"build_region_schedule", "build_structured_schedule",
                      "build_sweep_schedule"}
BUILDER_PACKAGES = ("repro/schedule/", "repro/verify/", "repro/baselines/")

#: FREE/BUSY and lifecycle flag constants whose stores V109 polices.
_FLAG_CONSTANTS = {"_FREE", "_BUSY", "STATE_RUNNING", "STATE_BLOCKED",
                   "STATE_FINISHED"}

#: Accessor verbs that pair a flag transition with its release/acquire
#: edge (the ``REPRO_TSAN`` hooks live inside these).
_FLAG_ACCESSORS = {"acquire", "release", "set_blocked", "set_finished",
                   "set_abort", "slot_acquired", "slot_released"}

_ALLOW_RE = re.compile(r"#\s*verify:\s*allow\(([A-Z0-9, ]+)\)")

_CONTAINER_SINKS = {"append", "add", "insert", "extend", "appendleft"}


@dataclass(frozen=True)
class LintViolation:
    """One rule hit: where, which rule, and what the code did."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _call_name(node: ast.AST) -> str | None:
    """The trailing identifier of a call target: ``Borrowed(...)``
    and ``payload.Borrowed(...)`` both yield ``"Borrowed"``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _marker_calls(tree: ast.AST, names: set[str]) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _call_name(node) in names:
            yield node


def _allowed_lines(source: str) -> dict[int, set[str]]:
    allowed: dict[int, set[str]] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _ALLOW_RE.search(line)
        if m:
            allowed[i] = {r.strip() for r in m.group(1).split(",")}
    return allowed


def _check_escaped_marker(tree: ast.AST) -> Iterator[tuple[int, str]]:
    """V102: ``Borrowed`` expressions assigned to attributes/subscripts
    or pushed into containers."""
    def is_marker(node: ast.AST) -> bool:
        return _call_name(node) == "Borrowed"

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if value is None:
                continue
            parts = (value.elts if isinstance(value, (ast.Tuple, ast.List))
                     else [value])
            if not any(is_marker(p) for p in parts):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                tparts = (t.elts if isinstance(t, (ast.Tuple, ast.List))
                          else [t])
                for tp in tparts:
                    if isinstance(tp, (ast.Attribute, ast.Subscript)):
                        yield (node.lineno,
                               f"Borrowed marker stored on "
                               f"{'an attribute' if isinstance(tp, ast.Attribute) else 'a subscript'}"
                               f" — markers must be consumed synchronously"
                               f" by the send they are passed to")
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _CONTAINER_SINKS
                    and any(is_marker(a) for a in node.args)):
                yield (node.lineno,
                       f"Borrowed marker pushed into a container via "
                       f".{func.attr}() — markers must not outlive the "
                       f"send call")


def _check_raw_in_procs(tree: ast.AST, relpath: str,
                        ) -> Iterator[tuple[int, str]]:
    """V103: Raw construction inside the forked-process backend."""
    if not any(relpath.endswith(m) for m in PROCS_BACKEND_MODULES):
        return
    for call in _marker_calls(tree, {"Raw"}):
        yield (call.lineno,
               "Raw payload constructed in a procs-backend module — "
               "process-local handles cannot cross a fork boundary")


def _check_sleep_loops(tree: ast.AST) -> Iterator[tuple[int, str]]:
    """V104: ``time.sleep``/``sleep`` calls lexically inside a loop."""
    loops = [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While))]
    for loop in loops:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                func = node.func
                qualified = (isinstance(func, ast.Attribute)
                             and isinstance(func.value, ast.Name)
                             and func.value.id == "time")
                if name == "sleep" and (qualified
                                        or isinstance(func, ast.Name)):
                    yield (node.lineno,
                           "time.sleep inside a loop is a polling "
                           "busy-wait — use condition variables or "
                           "preposted receive slots")


def _receiver_name(node: ast.AST) -> str | None:
    """Trailing identifier of a method-call receiver: ``rwin.put`` ->
    ``rwin``, ``self._win.put`` -> ``_win``, ``wins[i].put`` -> ``wins``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _receiver_name(node.value)
    return None


def _check_unexposed_put(func: ast.AST) -> Iterator[tuple[int, str]]:
    """V105 inside one function body: a ``.put`` whose receiver name
    looks like a window, with no epoch guard call on any earlier line
    of the same function."""
    guard_lines: list[int] = []
    puts: list[tuple[int, str]] = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr in _EPOCH_GUARDS:
            guard_lines.append(node.lineno)
        elif node.func.attr == "put":
            recv = _receiver_name(node.func.value)
            if recv and _WINDOW_NAME_RE.search(recv):
                puts.append((node.lineno, recv))
    for line, recv in sorted(puts):
        if not any(g <= line for g in guard_lines):
            yield (line,
                   f"{recv!r}.put() with no wait_open/epoch_open/fence "
                   f"earlier in this function — one-sided write outside "
                   f"an exposure epoch")


def _check_loop_pickle(tree: ast.AST, relpath: str,
                       ) -> Iterator[tuple[int, str]]:
    """V107: ``pickle.dumps(...)`` (or bare ``dumps(...)``) lexically
    inside a loop body, outside :data:`FRAME_CODEC_MODULES`."""
    if any(relpath.endswith(m) for m in FRAME_CODEC_MODULES):
        return
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            func = node.func
            qualified = (isinstance(func, ast.Attribute)
                         and isinstance(func.value, ast.Name)
                         and func.value.id == "pickle")
            if name == "dumps" and (qualified or isinstance(func, ast.Name)):
                yield (node.lineno,
                       "pickle.dumps inside a loop serializes per "
                       "iteration — coalesce into one batch frame "
                       "(repro.prmi.frames) and pickle once per frame")


#: Allocation callables whose result is a fresh per-iteration buffer.
_ALLOC_NAMES = {"empty", "zeros", "ones", "full"}

#: Loop-variable / iterable name fragment marking a pair loop.
_PAIR_NAME_RE = re.compile(r"pair", re.IGNORECASE)


def _names_in(node: ast.AST) -> Iterator[str]:
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _is_pair_loop(loop: ast.For) -> bool:
    """A ``for`` loop whose target or iterable names communication
    pairs: ``for pp in plan.pairs``, ``for pair in ...``,
    ``for s, d in pairs``."""
    if any(_PAIR_NAME_RE.search(name) or name == "pp"
           for name in _names_in(loop.target)):
        return True
    return any(_PAIR_NAME_RE.search(name)
               for name in _names_in(loop.iter))


def _check_pair_loop_alloc(tree: ast.AST) -> Iterator[tuple[int, str]]:
    """V106: size-dependent allocation inside a pair loop whose body
    never loans from a pool."""
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.For) and _is_pair_loop(loop)):
            continue
        body = ast.Module(body=loop.body, type_ignores=[])
        calls = [n for n in ast.walk(body) if isinstance(n, ast.Call)]
        if any(isinstance(c.func, ast.Attribute) and c.func.attr == "loan"
               for c in calls):
            continue
        for call in calls:
            if _call_name(call) not in _ALLOC_NAMES:
                continue
            # Constant-size allocations (e.g. np.empty(0, ...)) are
            # placeholders, not per-pair staging buffers.
            if call.args and isinstance(call.args[0], ast.Constant):
                continue
            yield (call.lineno,
                   f"{_call_name(call)}() allocates per pair inside a "
                   f"pair loop with no pool loan — O(pairs) transfer "
                   f"footprint; loan the buffer from a BufferPool")


def _check_raw_shared_access(tree: ast.AST, relpath: str,
                             ) -> Iterator[tuple[int, str]]:
    """V108: subscript of a shared-segment field outside the accessor
    modules (:data:`ACCESSOR_MODULES`)."""
    if any(relpath.endswith(m) for m in ACCESSOR_MODULES):
        return
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in SHARED_SEGMENT_FIELDS):
            yield (node.lineno,
                   f"raw indexing of shared-segment field "
                   f"{node.value.attr!r} outside the accessor layer — "
                   f"go through the repro.simmpi.shm accessors so the "
                   f"ordering discipline (and its REPRO_TSAN hook) "
                   f"applies")


def _check_unpaired_flag_store(func: ast.FunctionDef,
                               ) -> Iterator[tuple[int, str]]:
    """V109 inside one function body: a flag-constant store into a
    subscript, in a function that is not itself an accessor verb and
    never calls one."""
    if func.name in _FLAG_ACCESSORS:
        return
    called: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name:
                called.add(name)
    if called & _FLAG_ACCESSORS:
        return
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        vname = (value.id if isinstance(value, ast.Name)
                 else value.attr if isinstance(value, ast.Attribute)
                 else None)
        if vname in _FLAG_CONSTANTS and any(
                isinstance(t, ast.Subscript) for t in node.targets):
            yield (node.lineno,
                   f"{vname} stored into protocol state outside the "
                   f"accessor verbs ({', '.join(sorted(_FLAG_ACCESSORS))})"
                   f" — flag transition with no paired release/acquire "
                   f"edge in scope")


def _check_env_knob_read(tree: ast.AST, relpath: str,
                         ) -> Iterator[tuple[int, str]]:
    """V110: a ``"REPRO_*"`` literal as the key of an ``environ`` /
    ``getenv`` call or subscript, outside :data:`CONFIG_MODULE`."""
    if relpath.endswith(CONFIG_MODULE):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target, keys = node.func, node.args
        elif isinstance(node, ast.Subscript):
            target, keys = node.value, [node.slice]
        else:
            continue
        if not {"environ", "getenv"} & set(_names_in(target)):
            continue
        for key in keys:
            if (isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and key.value.startswith("REPRO_")):
                yield (node.lineno,
                       f"{key.value} read from the environment outside "
                       f"repro.config — a second resolver; call "
                       f"config.resolve(...) so the one rule applies")


def _check_private_build(tree: ast.AST, relpath: str,
                         ) -> Iterator[tuple[int, str]]:
    """V111: a region-schedule builder called outside
    :data:`BUILDER_PACKAGES`."""
    if any(pkg in relpath for pkg in BUILDER_PACKAGES):
        return
    for call in _marker_calls(tree, _SCHEDULE_BUILDERS):
        yield (call.lineno,
               f"{_call_name(call)}() builds a private schedule — take it "
               f"from GLOBAL_CACHE.get(src, dst) so the template pair is "
               f"built and compiled once")


def lint_source(source: str, path: str = "<string>",
                relpath: str | None = None) -> list[LintViolation]:
    """Run every rule over one module's source text."""
    tree = ast.parse(source, filename=path)
    allowed = _allowed_lines(source)
    relpath = relpath if relpath is not None else path
    hits: list[tuple[int, str, str]] = []

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hits.extend((ln, "V105", msg)
                        for ln, msg in _check_unexposed_put(node))
            hits.extend((ln, "V109", msg)
                        for ln, msg in _check_unpaired_flag_store(node))
    hits.extend((ln, "V102", msg)
                for ln, msg in _check_escaped_marker(tree))
    hits.extend((ln, "V103", msg)
                for ln, msg in _check_raw_in_procs(tree, relpath))
    hits.extend((ln, "V104", msg)
                for ln, msg in _check_sleep_loops(tree))
    hits.extend((ln, "V106", msg)
                for ln, msg in _check_pair_loop_alloc(tree))
    hits.extend((ln, "V107", msg)
                for ln, msg in _check_loop_pickle(tree, relpath))
    hits.extend((ln, "V108", msg)
                for ln, msg in _check_raw_shared_access(tree, relpath))
    hits.extend((ln, "V110", msg)
                for ln, msg in _check_env_knob_read(tree, relpath))
    hits.extend((ln, "V111", msg)
                for ln, msg in _check_private_build(tree, relpath))

    out = []
    for line, rule, message in sorted(hits):
        if rule in allowed.get(line, ()):
            continue
        out.append(LintViolation(path, line, rule, message))
    return out


def lint_paths(paths: Iterable[str | pathlib.Path]) -> list[LintViolation]:
    """Lint every ``.py`` file under the given files/directories."""
    files: list[pathlib.Path] = []
    for p in paths:
        p = pathlib.Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    violations: list[LintViolation] = []
    for f in files:
        violations.extend(
            lint_source(f.read_text(), path=str(f),
                        relpath=str(f.as_posix())))
    return violations
