"""Periodic samplers driven by the simulator clock.

A :class:`PeriodicSampler` is a :class:`~repro.sim.periodic.PeriodicTimer`
whose tick runs its probes, every ``period_s`` of *simulated* time while
traffic pokes it (see that module for the one "quiet" rule every timer
follows; the ``Pleroma`` facade pokes on every publish).

Two probes ship with the middleware:

* :class:`LinkUtilizationProbe` — byte-counter deltas of every
  switch-to-switch link, converted to a fraction of link capacity;
* :class:`TcamOccupancyProbe` — flow-table fill fraction per switch
  (requirement 3: TCAM capacity is the scarce resource).

Probes write gauges (latest value) and histograms (distribution over the
run) into the shared :class:`~repro.obs.registry.MetricsRegistry`.  The
module only duck-types the network to stay at the bottom of the layer
stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro.obs.registry import OCCUPANCY_BUCKETS, MetricsRegistry
from repro.sim.periodic import PeriodicTimer

__all__ = [
    "PeriodicSampler",
    "LinkSample",
    "LinkUtilizationProbe",
    "TcamOccupancyProbe",
]

Probe = Callable[[float], None]


@dataclass(frozen=True)
class LinkSample:
    """One utilization observation for one link."""

    time: float
    utilization: float
    bytes_delta: int


class PeriodicSampler(PeriodicTimer):
    """Runs probes every ``period_s`` of sim time; pauses when quiet."""

    def __init__(self, sim, period_s: float, probes: Iterable[Probe]) -> None:
        super().__init__(sim, period_s, self._sample)
        self.probes = list(probes)

    def _sample(self) -> None:
        for probe in self.probes:
            probe(self.sim.now)


class LinkUtilizationProbe:
    """Samples switch-to-switch link load into the registry.

    Per link: gauge ``link.utilization{link=a<->b}`` (load during the last
    window) and one shared histogram ``link.utilization`` of every sample.
    Each call also returns the new :class:`LinkSample` per link, which is
    what :class:`~repro.controller.overload.OverloadManager` acts on.
    """

    def __init__(self, network, registry: MetricsRegistry) -> None:
        self.network = network
        self.registry = registry
        self._last_bytes: dict[str, int] = {}
        self._last_time: float | None = None
        self._keys: list[tuple[str, frozenset]] = sorted(
            (("<->".join(sorted(key)), key) for key in network.links
             if all(name in network.switches for name in key)),
        )
        for label, key in self._keys:
            self._last_bytes[label] = network.links[key].total_bytes
        self._histogram = registry.histogram(
            "link.utilization", OCCUPANCY_BUCKETS
        )

    def __call__(self, now: float) -> dict[frozenset, LinkSample]:
        window = (
            now - self._last_time if self._last_time is not None else now
        )
        results: dict[frozenset, LinkSample] = {}
        for label, key in self._keys:
            link = self.network.links[key]
            delta = link.total_bytes - self._last_bytes[label]
            self._last_bytes[label] = link.total_bytes
            utilization = (
                (delta * 8.0) / (link.bandwidth_bps * window)
                if window > 0
                else 0.0
            )
            self.registry.gauge("link.utilization", link=label).set(
                utilization
            )
            self._histogram.observe(utilization)
            results[key] = LinkSample(
                time=now, utilization=utilization, bytes_delta=delta
            )
        self._last_time = now
        return results


class TcamOccupancyProbe:
    """Samples per-switch flow-table occupancy into the registry."""

    def __init__(self, network, registry: MetricsRegistry) -> None:
        self.network = network
        self.registry = registry
        self._histogram = registry.histogram(
            "switch.tcam_occupancy", OCCUPANCY_BUCKETS
        )

    def __call__(self, now: float) -> None:
        for name in sorted(self.network.switches):
            switch = self.network.switches[name]
            occupancy = len(switch.table) / switch.table.capacity
            self.registry.gauge("switch.tcam_occupancy", switch=name).set(
                occupancy
            )
            self.registry.gauge("switch.flow_entries", switch=name).set(
                float(len(switch.table))
            )
            self._histogram.observe(occupancy)
