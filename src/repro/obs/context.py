"""The per-deployment observability bundle.

One :class:`Observability` object is created per deployment (the
``Pleroma`` facade makes one and threads it through the fabric, the
controllers, the federation and the metrics collector).  It owns the
metrics registry, the tracer and any periodic samplers, and renders the
whole lot into a single snapshot document.

Live bundles are tracked in a weak set so the benchmark harness
(``benchmarks/conftest.py``) can export whatever registries a benchmark
created without plumbing handles through every fixture.
"""

from __future__ import annotations

import weakref

from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.samplers import (
    LinkUtilizationProbe,
    PeriodicSampler,
    TcamOccupancyProbe,
)
from repro.obs.trace import Tracer
from repro.sim.periodic import PeriodicTimer

__all__ = ["Observability", "live_observabilities"]

_live: "weakref.WeakSet[Observability]" = weakref.WeakSet()


def live_observabilities() -> list["Observability"]:
    """Every bundle still alive, in creation order."""
    return sorted(_live, key=lambda obs: obs._serial)


class Observability:
    """Registry + tracer + samplers for one deployment."""

    _next_serial = 0

    def __init__(self, sim, registry: MetricsRegistry | None = None) -> None:
        self.sim = sim
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(clock=lambda: sim.now)
        # periodic samplers and the telemetry poller
        self.samplers: list[PeriodicTimer] = []
        self.flight: FlightRecorder | None = None
        self._flight_network = None
        # in-band telemetry (repro.obs.telemetry / repro.obs.alerts);
        # populated by attach_telemetry, typically via
        # Pleroma.enable_telemetry
        self.telemetry = None
        self.alerts = None
        Observability._next_serial += 1
        self._serial = Observability._next_serial
        _live.add(self)

    # ------------------------------------------------------------------
    # samplers
    # ------------------------------------------------------------------
    def start_sampling(self, network, period_s: float) -> PeriodicSampler:
        """Begin periodic link-utilization and TCAM-occupancy sampling."""
        # built empty first: a rejected period must not leave the probes'
        # histograms behind in the registry
        sampler = PeriodicSampler(self.sim, period_s, ())
        sampler.probes = [
            LinkUtilizationProbe(network, self.registry),
            TcamOccupancyProbe(network, self.registry),
        ]
        self.samplers.append(sampler)
        return sampler.start()

    def stop_sampling(self) -> None:
        for sampler in self.samplers:
            sampler.stop()

    # ------------------------------------------------------------------
    # in-band telemetry
    # ------------------------------------------------------------------
    def attach_telemetry(self, poller, engine=None) -> None:
        """Register a started :class:`~repro.obs.telemetry.StatsPoller`
        (and optionally an :class:`~repro.obs.alerts.AlertEngine`) with
        this bundle.

        The poller joins the sampler list (so :meth:`stop_sampling` stops
        it) and the engine (if any) is subscribed to completed poll
        rounds.  The snapshot document then grows ``telemetry`` /
        ``alerts`` sections.
        """
        self.telemetry = poller
        self.alerts = engine
        if poller not in self.samplers:
            self.samplers.append(poller)
        if engine is not None:
            poller.round_listeners.append(engine.evaluate)

    # ------------------------------------------------------------------
    # data-plane flight recorder
    # ------------------------------------------------------------------
    def enable_flight(
        self,
        network,
        sample_every: int = 1,
        capacity: int = 65_536,
        seed: int = 0,
    ) -> FlightRecorder:
        """Attach a data-plane flight recorder to every device of
        ``network`` (idempotent: re-enabling replaces the recorder)."""
        sim = self.sim
        self.flight = FlightRecorder(
            clock=lambda: sim.now,
            sample_every=sample_every,
            capacity=capacity,
            seed=seed,
        )
        self._flight_network = network
        network.attach_flight_recorder(self.flight)
        return self.flight

    def disable_flight(self) -> None:
        """Detach the flight recorder (records are discarded)."""
        if self._flight_network is not None:
            self._flight_network.attach_flight_recorder(None)
        self.flight = None
        self._flight_network = None

    def flight_report(self):
        """Path analytics over the recorded hop histories."""
        from repro.obs.paths import analyze_flight

        if self.flight is None:
            raise ValueError("no flight recorder enabled")
        topology = (
            self._flight_network.topology
            if self._flight_network is not None
            else None
        )
        return analyze_flight(self.flight, topology)

    # ------------------------------------------------------------------
    # snapshotting
    # ------------------------------------------------------------------
    def snapshot(self, include_spans: bool = True) -> dict:
        """The full observability state as a JSON-compatible document."""
        flight_summary = None
        if self.flight is not None:
            report = self.flight_report()
            # summary gauges land in the registry before it is rendered
            report.record_gauges(self.registry)
            flight_summary = report.summary()
        document = {
            "sim_time_s": self.sim.now,
            "metrics": self.registry.snapshot(),
            "trace_summary": self.tracer.summary(),
        }
        if flight_summary is not None:
            document["flight"] = flight_summary
        if self.telemetry is not None:
            document["telemetry"] = self.telemetry.summary()
        if self.alerts is not None:
            document["alerts"] = self.alerts.summary()
        if include_spans:
            document["spans"] = self.tracer.to_dicts()
        return document

    def __repr__(self) -> str:
        return (
            f"Observability({self.registry!r}, {self.tracer!r}, "
            f"{len(self.samplers)} sampler(s))"
        )
