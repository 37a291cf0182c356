"""Components and the Services object (CCA spec shape).

A component interacts with its framework exclusively through the
:class:`Services` handle passed to :meth:`Component.set_services` —
registering the ports it provides, declaring the ports it uses, and
fetching connected ports at run time.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.errors import PortError
from repro.cca.ports import BoundPort, ProvidesPort, UsesPort
from repro.cca.sidl import PortType

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.communicator import Communicator


class Services:
    """Framework services handed to one component instance."""

    def __init__(self, instance_name: str, comm: "Communicator | None" = None):
        self.instance_name = instance_name
        #: The cohort communicator (None for a purely serial component).
        self.comm = comm
        self._provides: dict[str, ProvidesPort] = {}
        self._uses: dict[str, UsesPort] = {}

    # -- provides side ------------------------------------------------------

    def add_provides_port(self, name: str, port_type: PortType,
                          impl: Any) -> None:
        if name in self._provides:
            raise PortError(f"provides port {name!r} already registered")
        self._provides[name] = ProvidesPort(port_type, impl)

    def get_provides_port(self, name: str) -> ProvidesPort:
        try:
            return self._provides[name]
        except KeyError:
            raise PortError(
                f"component {self.instance_name!r} provides no port "
                f"{name!r}") from None

    # -- uses side --------------------------------------------------------------

    def register_uses_port(self, name: str, port_type: PortType) -> None:
        if name in self._uses:
            raise PortError(f"uses port {name!r} already registered")
        self._uses[name] = UsesPort(port_type)

    def uses_port(self, name: str) -> UsesPort:
        try:
            return self._uses[name]
        except KeyError:
            raise PortError(
                f"component {self.instance_name!r} registered no uses port "
                f"{name!r}") from None

    def get_port(self, name: str) -> BoundPort:
        """Fetch a connected uses port for invocation."""
        return self.uses_port(name).get()


class Component:
    """Base class for CCA components.

    Subclasses override :meth:`set_services` to register their ports.
    One instance exists per process the component spans; the set of
    instances across a cohort communicator is the *parallel component*.
    """

    def set_services(self, services: Services) -> None:
        """Called by the framework right after instantiation."""
        self.services = services
