"""The direct-connected framework (paper §2.1, Fig. 2 left).

"In direct-connected frameworks, all components in one process live in
the same address space and a port invocation then looks like a refined
form of library call."  The framework object itself is SPMD: every rank
of the job instantiates it and performs the same create/connect calls,
so a created component's instances across the job form its cohort.
"""

from __future__ import annotations

from typing import Any, Type

from repro.errors import PortError
from repro.cca.component import Component, Services


class DirectFramework:
    """Per-rank framework instance managing co-located components."""

    def __init__(self, comm=None, *, name: str = "direct"):
        #: Cohort communicator shared by the framework's components
        #: (None for single-process use).
        self.comm = comm
        self.name = name
        self._components: dict[str, Component] = {}
        self._services: dict[str, Services] = {}

    # -- lifecycle --------------------------------------------------------

    def create_component(self, instance_name: str,
                         component_class: Type[Component],
                         *args: Any, **kwargs: Any) -> Component:
        """Instantiate a component and hand it its Services object."""
        if instance_name in self._components:
            raise PortError(
                f"component instance {instance_name!r} already exists")
        comp = component_class(*args, **kwargs)
        services = Services(instance_name, self.comm)
        comp.set_services(services)
        self._components[instance_name] = comp
        self._services[instance_name] = services
        return comp

    # -- wiring ---------------------------------------------------------------

    def connect(self, user: str, uses_port: str,
                provider: str, provides_port: str) -> None:
        """Attach ``user``'s uses port to ``provider``'s provides port.

        Direct connection: after this, ``get_port`` on the user side
        returns a type-checked view of the provider's implementation —
        a plain function call at invocation time.
        """
        user_services = self._services_for(user)
        provider_services = self._services_for(provider)
        provides = provider_services.get_provides_port(provides_port)
        user_services.uses_port(uses_port).connect(provides)

    def disconnect(self, user: str, uses_port: str) -> None:
        self._services_for(user).uses_port(uses_port).disconnect()

    def _services_for(self, instance_name: str) -> Services:
        try:
            return self._services[instance_name]
        except KeyError:
            raise PortError(
                f"no component instance {instance_name!r}") from None
