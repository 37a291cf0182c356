"""Direct-connected framework tests: components, ports, cohorts."""

import pytest

from repro.cca import Component, DirectFramework
from repro.cca.sidl import arg, method, port
from repro.errors import PortError
from repro.simmpi import run_spmd

INTEGRATOR_PORT = port("IntegratorPort", method("integrate", arg("lo"), arg("hi")))
FUNCTION_PORT = port("FunctionPort", method("evaluate", arg("x")))
#: The CCA Go port: the component's "main" (§4.3 footnote).
GO_PORT_TYPE = port("gov.cca.ports.GoPort", method("go"))


class FunctionComponent(Component):
    """Provides f(x) = x^2."""

    def set_services(self, services):
        super().set_services(services)
        services.add_provides_port("function", FUNCTION_PORT, self)

    def evaluate(self, x):
        return x * x


class IntegratorComponent(Component):
    """Midpoint-rule integrator using a FunctionPort."""

    def set_services(self, services):
        super().set_services(services)
        services.add_provides_port("integrator", INTEGRATOR_PORT, self)
        services.register_uses_port("function", FUNCTION_PORT)

    def integrate(self, lo, hi, steps=100):
        f = self.services.get_port("function")
        h = (hi - lo) / steps
        return sum(f.evaluate(lo + (i + 0.5) * h) for i in range(steps)) * h


class DriverComponent(Component):
    def set_services(self, services):
        super().set_services(services)
        services.add_provides_port("go", GO_PORT_TYPE, self)
        services.register_uses_port("integrator", INTEGRATOR_PORT)

    def go(self):
        return self.services.get_port("integrator").integrate(0.0, 1.0)


def build_app(fw):
    fw.create_component("func", FunctionComponent)
    fw.create_component("integ", IntegratorComponent)
    fw.create_component("driver", DriverComponent)
    fw.connect("integ", "function", "func", "function")
    fw.connect("driver", "integrator", "integ", "integrator")


class TestDirectFramework:
    def test_wiring_and_go(self):
        fw = DirectFramework()
        build_app(fw)
        result = fw._components["driver"].go()
        assert result == pytest.approx(1.0 / 3.0, rel=1e-3)

    def test_port_invocation_is_direct_reference(self):
        fw = DirectFramework()
        build_app(fw)
        bound = fw._services["integ"].get_port("function")
        func = fw._components["func"]
        assert bound.evaluate(3) == func.evaluate(3) == 9

    def test_unconnected_uses_port_raises(self):
        fw = DirectFramework()
        integ = fw.create_component("integ", IntegratorComponent)
        with pytest.raises(PortError):
            integ.integrate(0, 1)

    def test_type_mismatch_rejected(self):
        fw = DirectFramework()
        fw.create_component("func", FunctionComponent)
        fw.create_component("integ", IntegratorComponent)
        with pytest.raises(PortError):
            fw.connect("integ", "function", "func", "nonexistent")

    def test_interface_restriction(self):
        """A bound port only exposes the declared interface."""
        fw = DirectFramework()
        build_app(fw)
        bound = fw._services["integ"].get_port("function")
        with pytest.raises(PortError):
            bound.integrate  # not part of FunctionPort

    def test_duplicate_instance_rejected(self):
        fw = DirectFramework()
        fw.create_component("func", FunctionComponent)
        with pytest.raises(PortError):
            fw.create_component("func", FunctionComponent)

    def test_disconnect(self):
        fw = DirectFramework()
        build_app(fw)
        fw.disconnect("integ", "function")
        with pytest.raises(PortError):
            fw._services["integ"].get_port("function")


class ParallelSumComponent(Component):
    """A parallel component: cohort instances sum-reduce over their comm."""

    PORT = port("SumPort", method("global_sum", arg("local_value")))

    def set_services(self, services):
        super().set_services(services)
        services.add_provides_port("sum", self.PORT, self)

    def global_sum(self, local_value):
        return self.services.comm.allreduce(local_value, op="sum")


def test_cohort_spmd_component():
    """One component instantiated on every rank of an SPMD job — the
    paper's parallel component / cohort notion."""
    def main(comm):
        fw = DirectFramework(comm)
        fw.create_component("summer", ParallelSumComponent)

        class User(Component):
            def set_services(self, services):
                super().set_services(services)
                services.register_uses_port("sum", ParallelSumComponent.PORT)

        fw.create_component("user", User)
        fw.connect("user", "sum", "summer", "sum")
        bound = fw._services["user"].get_port("sum")
        return bound.global_sum(comm.rank + 1)

    results = run_spmd(4, main)
    assert results == [10, 10, 10, 10]
