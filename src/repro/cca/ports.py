"""Uses/provides ports (paper §2.1).

"A provides port is a public interface that a component implements,
that can be referenced and used by other components.  A uses port is a
connection end point that can be attached to a provides port of the
same type.  Once connected, the uses port becomes a reference to the
provides port and the component can make method invocations on it."

In a direct-connected framework the reference is the provider's
implementation object itself ("a refined form of library call"); in a
distributed framework it is an RMI proxy.  Both satisfy the same
calling convention: attribute access returns a callable.
"""

from __future__ import annotations

from typing import Any

from repro.errors import PortError
from repro.cca.sidl import PortType


class ProvidesPort:
    """A provided interface: a port type plus the implementing object."""

    def __init__(self, port_type: PortType, impl: Any):
        for m in port_type.methods:
            if not callable(getattr(impl, m.name, None)):
                raise PortError(
                    f"implementation {type(impl).__name__} lacks method "
                    f"{m.name!r} of port type {port_type.name!r}")
        self.port_type = port_type
        self.impl = impl


class BoundPort:
    """What a component gets back from ``get_port``: a type-checked view
    of the provider restricted to the declared interface."""

    def __init__(self, port_type: PortType, target: Any):
        self._port_type = port_type
        self._target = target

    @property
    def port_type(self) -> PortType:
        return self._port_type

    def __getattr__(self, name: str):
        if not self._port_type.has_method(name):
            raise PortError(
                f"port type {self._port_type.name!r} has no method {name!r}")
        return getattr(self._target, name)


class UsesPort:
    """A connection end point; unusable until connected."""

    def __init__(self, port_type: PortType):
        self.port_type = port_type
        self._bound: BoundPort | None = None

    def connect(self, provides: ProvidesPort) -> None:
        if provides.port_type.name != self.port_type.name:
            raise PortError(
                f"type mismatch: uses port of type {self.port_type.name!r} "
                f"cannot attach to provides port {provides.port_type.name!r}")
        self._bound = BoundPort(self.port_type, provides.impl)

    def connect_proxy(self, proxy: Any) -> None:
        """Attach an RMI proxy (distributed frameworks)."""
        self._bound = BoundPort(self.port_type, proxy)

    def disconnect(self) -> None:
        self._bound = None

    def get(self) -> BoundPort:
        if self._bound is None:
            raise PortError(
                f"uses port of type {self.port_type.name!r} is not connected")
        return self._bound
