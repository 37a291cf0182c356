"""Port-object unit tests: validation and connection mechanics."""

import pytest

from repro.cca.ports import BoundPort, ProvidesPort, UsesPort
from repro.cca.sidl import arg, method, port
from repro.errors import PortError

CALC = port("Calc", method("add", arg("x")), method("sub", arg("x")))
OTHER = port("Other", method("noop"))


class CalcImpl:
    def add(self, x):
        return x + 1

    def sub(self, x):
        return x - 1


class TestProvidesPort:
    def test_valid_impl(self):
        p = ProvidesPort(CALC, CalcImpl())
        assert p.port_type is CALC

    def test_missing_method_rejected(self):
        class Partial:
            def add(self, x):
                return x

        with pytest.raises(PortError):
            ProvidesPort(CALC, Partial())

    def test_non_callable_member_rejected(self):
        class Shadow:
            add = 5
            sub = 6

        with pytest.raises(PortError):
            ProvidesPort(CALC, Shadow())


class TestUsesPort:
    def test_connect_and_invoke(self):
        uses = UsesPort(CALC)
        uses.connect(ProvidesPort(CALC, CalcImpl()))
        assert uses.get().add(x=1) == 2

    def test_type_name_mismatch(self):
        uses = UsesPort(OTHER)
        with pytest.raises(PortError):
            uses.connect(ProvidesPort(CALC, CalcImpl()))

    def test_unconnected_get_raises(self):
        with pytest.raises(PortError):
            UsesPort(CALC).get()

    def test_disconnect(self):
        uses = UsesPort(CALC)
        uses.connect(ProvidesPort(CALC, CalcImpl()))
        uses.disconnect()
        with pytest.raises(PortError):
            uses.get()

    def test_proxy_connection(self):
        class Proxy:
            def add(self, x):
                return "remote"

        uses = UsesPort(CALC)
        uses.connect_proxy(Proxy())
        assert uses.get().add(x=0) == "remote"


class TestBoundPort:
    def test_interface_restriction(self):
        class Wide(CalcImpl):
            def secret(self):
                return "hidden"

        bound = BoundPort(CALC, Wide())
        assert bound.add(x=1) == 2
        with pytest.raises(PortError):
            bound.secret

    def test_port_type_accessor(self):
        bound = BoundPort(CALC, CalcImpl())
        assert bound.port_type.name == "Calc"
