"""Tests for overload detection and tree rerouting."""

import pytest

from repro.controller.overload import OverloadManager
from repro.core.events import Event
from repro.core.subscription import Advertisement, Subscription
from repro.exceptions import ControllerError
from repro.middleware.pleroma import Pleroma
from repro.network.fabric import NetworkParams
from repro.network.topology import paper_fat_tree
from repro.obs.samplers import LinkUtilizationProbe

FULL = (0, 1023)


def build(bandwidth=8e6):
    middleware = Pleroma(
        paper_fat_tree(),
        dimensions=1,
        max_dz_length=10,
        params=NetworkParams(bandwidth_bps=bandwidth),
    )
    publisher = middleware.publisher("h1")
    publisher.advertise(Advertisement.of(attr0=FULL).filter)
    subscriber = middleware.subscriber("h8")
    subscriber.subscribe(Subscription.of(attr0=FULL).filter)
    manager = OverloadManager(
        controller=middleware.controllers[0],
        probe=LinkUtilizationProbe(
            middleware.network, middleware.obs.registry
        ),
        threshold=0.5,
    )
    return middleware, publisher, subscriber, manager


def drive(middleware, publisher, events=200, interval=1e-3):
    for i in range(events):
        middleware.sim.schedule(
            i * interval, publisher.publish, Event.of(attr0=600)
        )
    middleware.run()


class TestDetection:
    def test_no_event_below_threshold(self):
        middleware, publisher, _, manager = build(bandwidth=1e9)
        drive(middleware, publisher, events=50)
        assert manager.check() is None
        assert manager.log == []

    def test_hot_link_detected_and_rerouted(self):
        middleware, publisher, subscriber, manager = build(bandwidth=4e5)
        tree = next(iter(middleware.controllers[0].trees))
        edges_before = {
            frozenset((c, p)) for c, p in tree.parents.items()
        }
        drive(middleware, publisher, events=200)
        event = manager.check()
        assert event is not None
        assert event.utilization >= 0.5
        assert event.rerouted
        edges_after = {frozenset((c, p)) for c, p in tree.parents.items()}
        assert frozenset(event.edge) in edges_before
        assert frozenset(event.edge) not in edges_after

    def test_delivery_correct_after_reroute(self):
        middleware, publisher, subscriber, manager = build(bandwidth=4e5)
        drive(middleware, publisher, events=100)
        before = len(subscriber.matched)
        event = manager.check()
        assert event is not None and event.rerouted
        drive(middleware, publisher, events=50)
        assert len(subscriber.matched) == before + 50
        middleware.check_invariants()

    def test_traffic_actually_moves_off_the_edge(self):
        middleware, publisher, _, manager = build(bandwidth=4e5)
        drive(middleware, publisher, events=150)
        event = manager.check()
        assert event is not None and event.rerouted
        a, b = event.edge
        link = middleware.network.link_between(a, b)
        packets_before = link.total_packets
        drive(middleware, publisher, events=100)
        assert link.total_packets == packets_before

    def test_invalid_threshold(self):
        middleware, _, _, _ = build()
        with pytest.raises(ControllerError):
            OverloadManager(
                controller=middleware.controllers[0],
                probe=LinkUtilizationProbe(
                    middleware.network, middleware.obs.registry
                ),
                threshold=0.0,
            )


class TestReroutePrimitive:
    def test_reroute_noop_when_edge_unused(self):
        middleware, _, _, _ = build()
        controller = middleware.controllers[0]
        tree = next(iter(controller.trees))
        unused = None
        for spec in middleware.topology.links():
            if (
                middleware.topology.is_switch(spec.a)
                and middleware.topology.is_switch(spec.b)
                and not tree.uses_edge(spec.a, spec.b)
            ):
                unused = (spec.a, spec.b)
                break
        assert unused is not None
        assert not controller.reroute_tree_around_edge(
            tree.tree_id, *unused
        )

    def test_reroute_fails_on_bridge(self):
        """On a line topology every edge is a bridge: no reroute exists."""
        from repro.network.topology import line

        middleware = Pleroma(line(3), dimensions=1)
        controller = middleware.controllers[0]
        middleware.advertise("h1", Advertisement.of(attr0=FULL))
        tree = next(iter(controller.trees))
        assert not controller.reroute_tree_around_edge(
            tree.tree_id, "R1", "R2"
        )
        # tree unchanged and still functional
        assert tree.uses_edge("R1", "R2")

    def test_reroute_stats_recorded(self):
        middleware, publisher, _, manager = build(bandwidth=4e5)
        drive(middleware, publisher, events=150)
        event = manager.check()
        assert event is not None
        kinds = [s.kind for s in middleware.controllers[0].request_log]
        assert "reroute" in kinds
