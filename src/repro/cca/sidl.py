"""SIDL-lite: declarative port interface definitions.

The paper's systems hang their PRMI semantics off IDL annotations: the
SCIRun2 SIDL extension marks methods ``independent`` or ``collective``
and adds a distributed-array parameter type (§4.2); DCA's stub generator
reads ``parallel`` argument keywords and appends a participation
communicator (§4.3); CORBA-style ``oneway`` methods come from §2.4.
This module is the Python stand-in for that IDL layer: pure declarative
data that stub generators and dispatchers consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import OneWayReturnError, PRMIError


@dataclass(frozen=True)
class Param:
    """One method parameter.

    ``mode``: ``in`` (caller -> callee), ``out`` (callee -> caller) or
    ``inout``.  ``kind``: ``simple`` (same value on every calling rank)
    or ``parallel`` (a decomposed data structure that the framework must
    gather/redistribute — §2.4).
    """

    name: str
    mode: str = "in"
    kind: str = "simple"

    def __post_init__(self) -> None:
        if self.mode not in ("in", "out", "inout"):
            raise PRMIError(f"param {self.name!r}: bad mode {self.mode!r}")
        if self.kind not in ("simple", "parallel"):
            raise PRMIError(f"param {self.name!r}: bad kind {self.kind!r}")


@dataclass(frozen=True)
class MethodSpec:
    """One port method with its PRMI attributes.

    ``invocation``: ``collective`` (all participating caller ranks call
    together; the framework groups the calls into one logical
    invocation) or ``independent`` (one caller rank to one callee rank).
    ``oneway``: the caller continues immediately; no return value and no
    out arguments are allowed (§2.4).  The derived parameter tuples are
    computed on first use and kept (the spec is immutable).
    """

    name: str
    params: tuple[Param, ...] = ()
    returns: bool = True
    invocation: str = "collective"
    oneway: bool = False

    def __post_init__(self) -> None:
        if self.invocation not in ("collective", "independent"):
            raise PRMIError(
                f"method {self.name!r}: bad invocation {self.invocation!r}")
        if self.oneway:
            if self.returns:
                raise OneWayReturnError(
                    f"one-way method {self.name!r} must not return a value")
            if any(p.mode in ("out", "inout") for p in self.params):
                raise OneWayReturnError(
                    f"one-way method {self.name!r} must not have out args")

    @cached_property
    def in_params(self) -> tuple[Param, ...]:
        return tuple(p for p in self.params if p.mode in ("in", "inout"))

    @cached_property
    def out_params(self) -> tuple[Param, ...]:
        return tuple(p for p in self.params if p.mode in ("out", "inout"))

    @cached_property
    def parallel_params(self) -> tuple[Param, ...]:
        return tuple(p for p in self.params if p.kind == "parallel")


@dataclass(frozen=True)
class PortType:
    """A named port interface: a set of method specs."""

    name: str
    methods: tuple[MethodSpec, ...] = ()

    def __post_init__(self) -> None:
        by_name = {m.name: m for m in self.methods}
        if len(by_name) != len(self.methods):
            raise PRMIError(f"port {self.name!r} has duplicate method names")
        # not a field: kept out of eq, hash and repr
        object.__setattr__(self, "_by_name", by_name)

    def method(self, name: str) -> MethodSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise PRMIError(
                f"port {self.name!r} has no method {name!r}") from None

    def has_method(self, name: str) -> bool:
        return name in self._by_name


def port(name: str, *methods: MethodSpec) -> PortType:
    """Concise PortType constructor."""
    return PortType(name, tuple(methods))


def method(name: str, *params: Param, returns: bool = True,
           invocation: str = "collective", oneway: bool = False) -> MethodSpec:
    """Concise MethodSpec constructor."""
    return MethodSpec(name, tuple(params), returns=returns,
                      invocation=invocation, oneway=oneway)


def arg(name: str, mode: str = "in", kind: str = "simple") -> Param:
    """Concise Param constructor."""
    return Param(name, mode, kind)
