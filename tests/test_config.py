"""The knob table (:mod:`repro.config`): one rule for every knob.

``EXPECTED`` is written by hand, not derived from the registry, so a
changed variable name, default or error class fails here.  Its rows
carry the assertions of the per-resolver tests this file replaced
(``ScheduleError`` for the tier knob, ``ValueError`` for the backend
and the flags).  The limits that are constructor arguments, not knobs,
raise their owner's error naming the argument (``LIMITS``).
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import config
from repro.errors import PRMIError, ScheduleError
from repro.prmi import Batched, InvocationPipeline, ServerLoop

REPO = pathlib.Path(__file__).resolve().parents[1]

#: name -> (variable, default, error, {env text: value}, rejected values)
EXPECTED = {
    "backend": ("REPRO_BACKEND", "threads", ValueError,
                {"procs": "procs", "Threads": "threads"}, ["fibers"]),
    "verify": ("REPRO_VERIFY", False, ValueError,
               {"1": True, "false": False}, ["2", "maybe"]),
    "tsan": ("REPRO_TSAN", False, ValueError,
             {"true": True, "0": False}, ["2", "maybe"]),
    "tier": ("REPRO_TIER", "two_sided", ScheduleError,
             {"rma": "rma", "Two_Sided": "two_sided"},
             ["bogus", "p2p", "1", "collective", "auto"]),
}

#: Variables of retired knobs: a set one is an ``unknown`` CLI row.
RETIRED = ("REPRO_MEM_CEILING", "REPRO_RMA", "REPRO_PLANNER",
           "REPRO_TRANSPORT_DEBUG", "REPRO_ROUND_BYTES",
           "REPRO_SCHEDULE_CACHE_MAX", "REPRO_BATCH_MAX",
           "REPRO_BATCH_DELAY_US", "REPRO_INFLIGHT_MAX")

ROWS = [pytest.param(name, *row, id=name) for name, row in EXPECTED.items()]
FLAGS = [name for name, row in EXPECTED.items() if isinstance(row[1], bool)]


def test_registry_is_exactly_the_four_knobs():
    assert len(EXPECTED) == 4
    for retired in RETIRED:
        assert retired not in str(EXPECTED)
    assert [(k.name, k.env) for k in config.KNOBS.values()] == \
        [(name, row[0]) for name, row in EXPECTED.items()]


@pytest.mark.parametrize("name, env, default, error, good, bad", ROWS)
def test_default_env_arg_precedence(monkeypatch, name, env, default, error,
                                    good, bad):
    monkeypatch.delenv(env, raising=False)
    assert config.lookup(name) == (default, "default")
    for blank in ("", "   "):
        monkeypatch.setenv(env, blank)
        assert config.lookup(name) == (default, "default")
    for text, value in good.items():
        monkeypatch.setenv(env, text)
        assert config.lookup(name) == (value, "env")
        assert config.resolve(name) == value
    # the last environment value loses to any explicit argument, given
    # either typed or as the same text the environment would carry
    for text, value in good.items():
        assert config.lookup(name, value) == (value, "arg")
        assert config.resolve(name, text) == value


@pytest.mark.parametrize("name, env, default, error, good, bad", ROWS)
def test_rejected_values_raise_the_rows_error(monkeypatch, name, env,
                                              default, error, good, bad):
    for text in bad:
        monkeypatch.setenv(env, text)
        with pytest.raises(error, match=env) as raised:
            config.resolve(name)
        # a choice's message names every value it accepts
        for value in good.values():
            if isinstance(value, str):
                assert value in str(raised.value)
        monkeypatch.delenv(env)
        with pytest.raises(error, match=env):
            config.resolve(name, text)


#: Limits no deployment sets: id -> (construct with the value, the
#: argument's name, its lower bound).  An owner needs no live link to
#: check its arguments.
_NO_LINK = type("NoLink", (), {"inter": None})()
LIMITS = {
    "batch_max": (lambda v: Batched(batch_max=v), "batch_max", 1),
    "delay_us": (lambda v: Batched(delay_us=v), "delay_us", 0),
    "inflight_max": (lambda v: InvocationPipeline(_NO_LINK, inflight_max=v),
                     "inflight_max", 1),
    "queue_max": (lambda v: ServerLoop(_NO_LINK, queue_max=v),
                  "queue_max", 1),
}


@pytest.mark.parametrize("make, arg, lower", LIMITS.values(),
                         ids=list(LIMITS))
def test_limits_raise_the_owners_error_naming_the_argument(make, arg, lower):
    """A limit is a module constant its constructor argument overrides;
    an argument out of range raises ``PRMIError`` naming it."""
    assert make(lower) is not None
    for bad in (lower - 1, 2.5, "4"):
        with pytest.raises(PRMIError, match=f"{arg} must be an integer"):
            make(bad)


@pytest.mark.parametrize("name", FLAGS)
@pytest.mark.parametrize("text, value", [
    ("0", False), ("false", False), ("off", False), ("no", False),
    ("1", True), ("true", True), ("on", True), ("yes", True),
    ("FALSE", False), ("On", True), (" yes ", True),
])
def test_one_flag_grammar(monkeypatch, name, text, value):
    monkeypatch.setenv(EXPECTED[name][0], text)
    assert config.resolve(name) is value
    assert config.resolve(name, not value) is (not value)


def _python(*args, **env):
    """Run ``python *args`` in a fresh interpreter with ``env`` added."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src"), **env})


@pytest.mark.parametrize("env, text, code, printed", [
    ("REPRO_VERIFY", "false",
     "from repro.verify import hook; print(hook.verify_enabled())", "False"),
    ("REPRO_VERIFY", "on",
     "from repro.verify import hook; print(hook.verify_enabled())", "True"),
    ("REPRO_TSAN", "true",
     "from repro.simmpi import sanitize; print(sanitize.enabled())", "True"),
    ("REPRO_TSAN", "no",
     "from repro.simmpi import sanitize; print(sanitize.enabled())", "False"),
])
def test_import_time_knobs(env, text, code, printed):
    done = _python("-c", code, **{env: text})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == printed


def test_import_time_garbage_names_the_variable():
    done = _python("-c", "import repro", REPRO_VERIFY="maybe")
    assert done.returncode != 0
    assert "ValueError" in done.stderr
    assert "REPRO_VERIFY" in done.stderr


def test_cli_lists_every_knob_with_provenance():
    done = _python("-m", "repro.config", REPRO_TIER="rma",
                   REPRO_VERIFY="")
    assert done.returncode == 0, done.stderr
    rows = dict((line.split()[0], line.split()[1:])
                for line in done.stdout.splitlines())
    assert list(rows) == [row[0] for row in EXPECTED.values()]
    assert rows["REPRO_TIER"] == ["rma", "env"]
    assert rows["REPRO_VERIFY"] == ["0", "default"]


def test_cli_flags_set_variables_that_name_no_knob():
    """A retired variable still set in a shell silently does nothing at
    import; the CLI lists it as ``unknown`` and exits 1."""
    done = _python("-m", "repro.config", REPRO_RMA="1",
                   REPRO_PLANNER="auto", REPRO_MEM_CEILING="4096",
                   REPRO_ROUND_BYTES="65536", REPRO_TRANSPORT_DEBUG="1",
                   REPRO_BATCH_MAX="4", REPRO_SHM_GONE="")
    assert done.returncode == 1, done.stderr
    rows = dict((line.split()[0], line.split()[1:])
                for line in done.stdout.splitlines())
    assert list(rows)[:len(EXPECTED)] == [row[0] for row in EXPECTED.values()]
    assert {var: row for var, row in rows.items()
            if row[-1] == "unknown"} == {
        "REPRO_BATCH_MAX": ["4", "unknown"],
        "REPRO_MEM_CEILING": ["4096", "unknown"],
        "REPRO_PLANNER": ["auto", "unknown"],
        "REPRO_RMA": ["1", "unknown"],
        "REPRO_ROUND_BYTES": ["65536", "unknown"],
        "REPRO_TRANSPORT_DEBUG": ["1", "unknown"]}  # a blank one is unset
    done = _python("-c", "import repro", REPRO_RMA="1")
    assert done.returncode == 0, done.stderr


def test_readme_table_is_the_generated_one():
    """No drift: the README's knob table is ``--markdown``'s output."""
    done = _python("-m", "repro.config", "--markdown")
    assert done.stdout == config.markdown() + "\n"
    assert config.markdown() in (REPO / "README.md").read_text()
    assert config.markdown().count("\n| `REPRO_") == len(EXPECTED)
