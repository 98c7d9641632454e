"""The facade's periodic timers: bad periods and telemetry wiring.

Every entry point that starts a timer (``enable_sampling``,
``enable_telemetry``, ``schedule_dimension_selection``) must reject a bad
period before it registers or rewires anything, so the deployment keeps
working after the error.
"""

import math

import pytest

from repro.core.events import Event
from repro.core.subscription import Filter
from repro.exceptions import ReproError
from repro.middleware.pleroma import Pleroma
from repro.network.packet import Packet
from repro.network.topology import paper_fat_tree

BAD_PERIODS = [0.0, -1.0, math.nan, math.inf]

ENTRY_POINTS = {
    "enable_sampling": lambda mw, period: mw.enable_sampling(period_s=period),
    "enable_telemetry": lambda mw, period: mw.enable_telemetry(
        period_s=period
    ),
    "schedule_dimension_selection": (
        lambda mw, period: mw.schedule_dimension_selection(period)
    ),
}


def deployment():
    middleware = Pleroma(paper_fat_tree(), dimensions=2)
    publisher = middleware.publisher("h1")
    publisher.advertise(Filter.of())
    subscriber = middleware.subscriber("h8")
    subscriber.subscribe(Filter.of())
    middleware.enable_dimension_selection()
    return middleware, publisher, subscriber


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("period", BAD_PERIODS)
def test_rejected_period_leaves_publish_working(entry, period):
    middleware, publisher, subscriber = deployment()
    samplers = list(middleware.obs.samplers)
    with pytest.raises(ReproError):
        ENTRY_POINTS[entry](middleware, period)
    assert middleware.obs.samplers == samplers
    publisher.publish(Event.of(attr0=1.0, attr1=1.0))
    middleware.run()
    assert len(subscriber.matched) == 1


class TestEnableTelemetryWiring:
    @pytest.mark.parametrize("period", BAD_PERIODS)
    def test_rejected_period_rewires_no_switch(self, period):
        middleware, _, _ = deployment()
        switches = middleware.network.switches
        before = {name: sw.control_handler for name, sw in switches.items()}
        with pytest.raises(ReproError):
            middleware.enable_telemetry(period_s=period)
        assert all(
            sw.control_handler is before[name] for name, sw in switches.items()
        )
        assert middleware.obs.telemetry is None

    def test_retry_wraps_each_handler_exactly_once(self):
        middleware, _, _ = deployment()
        switches = middleware.network.switches
        reached = []
        for sw in switches.values():
            sw.set_control_handler(
                lambda s, packet, in_port: reached.append(s.name)
            )
        with pytest.raises(ReproError):
            middleware.enable_telemetry(period_s=0.0)
        poller, _ = middleware.enable_telemetry(period_s=0.01)
        poller.stop()
        for name in sorted(switches):
            switches[name].control_handler(
                switches[name], Packet(dst_address=0, payload=None), 1
            )
        middleware.run()
        # each diversion reaches the original handler once, through one
        # control channel hop (a stacked orphan channel would count twice)
        assert reached == sorted(switches)
        to_controller = middleware.obs.registry.counter(
            "control.messages", direction="to_controller"
        )
        assert to_controller.value == len(switches)
