"""Tests for the periodic samplers (termination, re-arm, probe output)."""

import pytest

from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.exceptions import SimulationError
from repro.network.fabric import Network, NetworkParams
from repro.network.flow import Action, FlowEntry
from repro.network.packet import Packet
from repro.network.topology import line
from repro.obs.context import Observability
from repro.obs.registry import MetricsRegistry
from repro.obs.samplers import LinkUtilizationProbe, PeriodicSampler
from repro.sim.engine import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    net = Network(sim, line(3))
    obs = Observability(sim, registry=net.registry)
    return sim, net, obs


def inject(sim, net, count=5, spacing=1e-3):
    """Schedule ``count`` forwarded packets R1 -> R3."""
    dz = Dz("10")
    for name in ("R1", "R2"):
        out_port = net.port(name, "R2" if name == "R1" else "R3")
        net.switches[name].table.install(
            FlowEntry.for_dz(dz, {Action(out_port)})
        )
    packet = Packet(dst_address=dz_to_address(dz), payload=None)
    for i in range(count):
        sim.schedule_at(
            sim.now + i * spacing, net.switches["R1"].receive, packet, 99
        )


class TestPeriodicSampler:
    def test_rejects_bad_period(self, rig):
        sim, _, _ = rig
        with pytest.raises(SimulationError):
            PeriodicSampler(sim, 0.0, [])

    def test_pauses_when_quiet_so_run_terminates(self, rig):
        sim, net, obs = rig
        sampler = obs.start_sampling(net, period_s=1e-3)
        inject(sim, net, count=5)
        sim.run()  # must terminate despite the self-rescheduling sampler
        assert sampler.ticks >= 1
        assert not sampler.running

    def test_poke_rearms_after_quiet_period(self, rig):
        sim, net, obs = rig
        sampler = obs.start_sampling(net, period_s=1e-3)
        inject(sim, net, count=2)
        sim.run()
        ticks_before = sampler.ticks
        inject(sim, net, count=3, spacing=2e-3)
        sampler.poke()
        sim.run()
        assert sampler.ticks > ticks_before

    def test_stop_prevents_further_ticks(self, rig):
        sim, net, obs = rig
        sampler = obs.start_sampling(net, period_s=1e-3)
        obs.stop_sampling()
        inject(sim, net, count=3)
        sim.run()
        assert sampler.ticks == 0
        sampler.poke()  # a stopped sampler ignores pokes
        assert not sampler.running


class TestProbes:
    def test_link_utilization_gauges_written(self, rig):
        sim, net, obs = rig
        obs.start_sampling(net, period_s=1e-3)
        inject(sim, net, count=10, spacing=2e-4)
        sim.run()
        snap = obs.registry.snapshot()
        key = "link.utilization{link=R1<->R2}"
        assert key in snap["gauges"]
        assert snap["histograms"]["link.utilization"]["count"] > 0
        # only switch-switch links are sampled
        assert not any(
            "h1" in name
            for name in snap["gauges"]
            if name.startswith("link.utilization")
        )

    def test_tcam_occupancy_gauges_written(self, rig):
        sim, net, obs = rig
        net.switches["R1"].table.install(
            FlowEntry.for_dz(Dz("10"), {Action(1)})
        )
        obs.start_sampling(net, period_s=1e-3)
        inject(sim, net, count=3)
        sim.run()
        snap = obs.registry.snapshot()
        flows = snap["gauges"]["switch.flow_entries{switch=R1}"]
        assert flows >= 1.0
        occupancy = snap["gauges"]["switch.tcam_occupancy{switch=R1}"]
        assert occupancy == pytest.approx(
            flows / net.switches["R1"].table.capacity
        )


@pytest.fixture
def loaded():
    """line(3) at 1 MB/s with a flow R1 -> R2 -> h2 for dz "1"."""
    sim = Simulator()
    net = Network(
        sim,
        line(3, hosts_per_switch=1),
        params=NetworkParams(bandwidth_bps=8e6),
    )
    net.switches["R1"].table.install(
        FlowEntry.for_dz(Dz("1"), {Action(net.port("R1", "R2"))})
    )
    net.switches["R2"].table.install(
        FlowEntry.for_dz(
            Dz("1"),
            {Action(net.port("R2", "h2"), set_dest=net.hosts["h2"].address)},
        )
    )
    return sim, net, LinkUtilizationProbe(net, MetricsRegistry())


def blast(sim, net, packets: int, size: int = 1000, interval: float = 1e-3):
    for i in range(packets):
        sim.schedule(
            i * interval,
            net.hosts["h1"].send,
            Packet(
                dst_address=dz_to_address(Dz("1")),
                payload=None,
                size_bytes=size,
            ),
        )
    sim.run()


class TestLinkUtilizationProbe:
    def test_only_switch_links_tracked(self, loaded):
        sim, net, probe = loaded
        samples = probe(sim.now)
        assert all(
            all(name in net.switches for name in key) for key in samples
        )
        assert len(samples) == 2  # R1-R2 and R2-R3

    def test_utilization_measured(self, loaded):
        sim, net, probe = loaded
        # 100 packets x 1000 B over 0.1 s on an 8 Mbit/s link = 100% load
        blast(sim, net, 100, size=1000, interval=1e-3)
        samples = probe(sim.now)
        hot = samples[frozenset(("R1", "R2"))]
        assert hot.utilization == pytest.approx(1.0, rel=0.15)
        assert samples[frozenset(("R2", "R3"))].utilization == 0.0

    def test_windows_are_deltas(self, loaded):
        sim, net, probe = loaded
        blast(sim, net, 50)
        assert probe(sim.now)[frozenset(("R1", "R2"))].utilization > 0.0
        # quiet window: utilization drops to zero
        sim.run(until=sim.now + 1.0)
        samples = probe(sim.now)
        assert samples[frozenset(("R1", "R2"))].utilization == 0.0
