"""Layer-5 probe plumbing (module-level state, installs, no-op mode)."""

import pytest

from repro.telemetry import (
    EventLog,
    TelemetryBus,
    active_probe_bus,
    install_probes,
    probe,
    probe_enabled,
    probes_to,
    uninstall_probes,
)


@pytest.fixture(autouse=True)
def clean_probe_state():
    uninstall_probes()
    yield
    uninstall_probes()


class TestProbeLifecycle:
    def test_disabled_by_default(self):
        assert not probe_enabled()
        assert active_probe_bus() is None
        probe("anything", x=1)  # must be a silent no-op

    def test_install_routes_probes(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        install_probes(bus)
        bus.step, bus.node = 42, 7  # the cursor a scheduler drain sets
        probe("dpll.branch", var=3)
        bus.flush()
        (ev,) = log.events
        assert (ev.layer, ev.name, ev.step, ev.node) == (5, "dpll.branch", 42, 7)
        assert ev.attrs == {"var": 3}

    def test_uninstall_disables(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        install_probes(bus)
        uninstall_probes()
        probe("x")
        bus.flush()
        assert len(log) == 0

    def test_no_step_fn_defaults_to_zero(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        install_probes(bus)
        probe("x")
        bus.flush()
        assert log.events[0].step == 0
        assert log.events[0].node == -1

    def test_reinstalling_same_bus_is_allowed(self):
        bus = TelemetryBus()
        install_probes(bus)
        install_probes(bus)  # refresh, e.g. consecutive runs of one stack

    def test_nested_install_of_different_bus_rejected(self):
        install_probes(TelemetryBus())
        with pytest.raises(RuntimeError):
            install_probes(TelemetryBus())

    def test_probes_to_context_manager(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        with probes_to(bus):
            probe("inside")
        probe("outside")
        bus.flush()
        assert [e.name for e in log.events] == ["inside"]

    def test_empty_attrs_stay_none(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        install_probes(bus)
        probe("bare")
        bus.flush()
        assert log.events[0].attrs is None
