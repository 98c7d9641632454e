#!/usr/bin/env python
"""Failover and overload reaction: keeping events flowing when things break.

Two capabilities beyond the paper's evaluation (its conclusion lists them
as future work) that this reproduction implements:

1. **link/switch failure repair** — trees routed over a dead link are
   rebuilt over the surviving fabric and their paths re-installed;
2. **overload reaction** — a link-utilization probe spots a hot link and the
   controller moves the busiest tree onto an alternative route.

Run:  python examples/failover_demo.py
"""

from repro import (
    Event,
    Filter,
    NetworkParams,
    Pleroma,
    paper_fat_tree,
)
from repro.controller.overload import OverloadManager
from repro.obs.samplers import LinkUtilizationProbe


def drive(middleware, publisher, events, interval=1e-3):
    base = middleware.now
    for i in range(events):
        middleware.sim.schedule_at(
            base + i * interval, publisher.publish, Event.of(attr0=600)
        )
    middleware.run()


def main() -> None:
    middleware = Pleroma(
        paper_fat_tree(),
        dimensions=1,
        max_dz_length=10,
        params=NetworkParams(bandwidth_bps=4e5),  # slow links: easy to heat
    )
    publisher = middleware.publisher("h1")
    publisher.advertise(Filter.of())
    subscriber = middleware.subscriber("h8")
    subscriber.subscribe(Filter.of(attr0=(512, 767)))

    manager = OverloadManager(
        controller=middleware.controllers[0],
        probe=LinkUtilizationProbe(
            middleware.network, middleware.obs.registry
        ),
        threshold=0.5,
    )

    print("phase 1: normal operation")
    drive(middleware, publisher, 100)
    print(f"  delivered: {len(subscriber.matched)}/100")

    print("phase 2: overload reaction")
    event = manager.check()
    if event is None:
        print("  no link above threshold")
    else:
        print(
            f"  hot link {event.edge[0]}<->{event.edge[1]} at "
            f"{event.utilization:.0%} utilization -> "
            f"{'rerouted tree ' + str(event.tree_id) if event.rerouted else 'no alternative route'}"
        )
    before = len(subscriber.matched)
    drive(middleware, publisher, 100)
    print(f"  delivered after reroute: {len(subscriber.matched) - before}/100")

    print("phase 3: core switch failure")
    middleware.fail_switch("R1")
    before = len(subscriber.matched)
    drive(middleware, publisher, 100)
    print(f"  delivered after R1 died: {len(subscriber.matched) - before}/100")

    print("phase 4: aggregation link failure")
    # pick a surviving switch-switch link on the current tree
    tree = next(iter(middleware.controllers[0].trees))
    child, parent = next(iter(tree.parents.items()))
    middleware.fail_link(child, parent)
    before = len(subscriber.matched)
    drive(middleware, publisher, 100)
    print(
        f"  delivered after {child}<->{parent} died: "
        f"{len(subscriber.matched) - before}/100"
    )

    assert len(subscriber.matched) == 400, "events were lost"
    controller = middleware.controllers[0]
    repairs = [
        s.kind
        for s in controller.request_log
        if s.kind in ("reroute", "link_failure", "switch_failure")
    ]
    print(f"repair operations performed: {repairs}")
    print("no event lost across overload + two failures ✓")


if __name__ == "__main__":
    main()
