"""Tests for periodic (simulated-time) dimension re-selection."""

import pytest

from repro.core.events import Event
from repro.core.subscription import Filter
from repro.exceptions import ControllerError, SimulationError
from repro.middleware.pleroma import Pleroma
from repro.network.topology import line


def build():
    middleware = Pleroma(line(3), dimensions=3, max_dz_length=9)
    publisher = middleware.publisher("h1")
    publisher.advertise(Filter.of())
    middleware.subscriber("h3")
    middleware.subscribe("h3", __import__("repro").Subscription.of(attr0=(0, 255)))
    middleware.enable_dimension_selection(window_size=100)
    return middleware, publisher


class TestScheduling:
    def test_requires_enable(self):
        middleware = Pleroma(line(3), dimensions=2)
        with pytest.raises(ControllerError):
            middleware.schedule_dimension_selection(1.0)

    def test_invalid_period(self):
        middleware, _ = build()
        with pytest.raises(SimulationError):
            middleware.schedule_dimension_selection(0.0)

    def test_rounds_fire_on_period(self):
        middleware, publisher = build()
        import random

        rng = random.Random(5)
        for i in range(60):
            middleware.sim.schedule(
                i * 0.01,
                publisher.publish,
                Event.of(
                    attr0=rng.uniform(0, 1023), attr1=1.0, attr2=2.0
                ),
            )
        middleware.schedule_dimension_selection(0.25, k=1)
        middleware.run(until=1.0)
        monitor = middleware.monitor
        assert monitor is not None
        assert monitor.rounds >= 3
        assert middleware.indexer.space.dimensions == 1

    def test_empty_window_rounds_skipped(self):
        middleware, _ = build()
        middleware.schedule_dimension_selection(0.1)
        middleware.run(until=0.5)
        assert middleware.monitor.rounds == 0

    def test_cancel_stops_recurrence(self):
        middleware, publisher = build()
        publisher.publish(Event.of(attr0=1.0, attr1=1.0, attr2=1.0))
        handle = middleware.schedule_dimension_selection(0.1, k=2)
        middleware.run(until=0.15)
        rounds_before = middleware.monitor.rounds
        handle.stop()
        middleware.run(until=2.0)
        assert middleware.monitor.rounds == rounds_before

    def test_delivery_continues_across_rounds(self):
        middleware, publisher = build()
        subscriber = middleware._subscribers["h3"]
        import random

        rng = random.Random(11)
        for i in range(100):
            middleware.sim.schedule(
                i * 0.01,
                publisher.publish,
                Event.of(
                    attr0=rng.uniform(0, 255), attr1=5.0, attr2=5.0
                ),
            )
        middleware.schedule_dimension_selection(0.3, k=1)
        middleware.run()
        # every event matched the subscription; all must arrive despite
        # the re-indexing happening mid-stream
        assert len(subscriber.matched) == 100
